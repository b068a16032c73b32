//! Theory-grounded autoscaling extension: the two post-paper registry
//! strategies head-to-head with the paper's hybrids.
//!
//! HCloud's HF/HM hybrids react to the instantaneous queue; the two
//! strategies this experiment stresses are grounded in later scheduling
//! theory instead:
//!
//! * **RA (`reservation-autoscale`)** — Psychas–Ghaderi blocking-
//!   threshold autoscaling: the soft limit steps down when admission
//!   blocking trips a threshold repeatedly and creeps back up while the
//!   queue stays clear (arXiv 2005.13744);
//! * **QC (`queueing-capacity`)** — Furman-style `M[x]/G/s` capacity
//!   planning: a utilization ceiling derived from a square-root
//!   safety-staffing rule over the observed batch-size mix
//!   (arXiv 2209.08820).
//!
//! Each strategy runs the high-variability scenario three ways —
//! `plain`, `chaos` (the full-chaos fault plan) and `tenant-zipf`
//! (a Zipf-weighted tenant population gating admissions: 2000 tenants
//! in full mode, 200 under `HCLOUD_FAST=1`) — and reports SLO
//! attainment (normalized performance ≥ 0.7), total cost, makespan and
//! the per-cell digest. `HCLOUD_STRATEGY` focuses the grid on one
//! registered strategy.
//!
//! CI diffs the fast-mode digests against the committed
//! `crates/bench/goldens/ext_theory_strategies_fast.json` and reruns
//! the binary under `HCLOUD_AUDIT=strict` to prove both new strategies
//! hold every conservation identity under chaos and tenancy.

use std::process::ExitCode;
use std::sync::Arc;

use hcloud::{RunResult, StrategyId, StrategyRef};
use hcloud_bench::fleet::run_digest;
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::{artifacts, ExperimentPlan, Harness, RunSpec, Table};
use hcloud_faults::FaultPlanId;
use hcloud_json::{ObjectBuilder, Value};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_sim::rng::SimRng;
use hcloud_tenancy::TenancyPlan;
use hcloud_workloads::{JobKind, Scenario, ScenarioKind};

/// Jobs at or above this normalized performance kept their SLO.
const SLO_THRESHOLD: f64 = 0.7;

/// Zipf skew for the tenant weight distribution.
const ZIPF_SKEW: f64 = 1.1;

/// Fraction of the pool handed out as hard guarantees.
const GUARANTEE_FRAC: f64 = 0.5;

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::EXT_THEORY_STRATEGIES;

/// The default grid: the paper's two hybrids as the baseline, then the
/// two theory-grounded newcomers.
const STRATEGIES: [StrategyId; 4] = [
    StrategyId::HF,
    StrategyId::HM,
    StrategyId::RA,
    StrategyId::QC,
];

/// Scenario variants per strategy.
const VARIANTS: [&str; 3] = ["plain", "chaos", "tenant-zipf"];

/// Sizes the shared pool to the scenario's mean concurrent core demand
/// (same sizing rule as `ext_multi_tenant`): tight enough that tenants
/// contend, wide enough that the largest job fits.
fn pool_for(scenario: &Scenario) -> u32 {
    let total: f64 = scenario
        .jobs()
        .iter()
        .map(|j| match j.kind {
            JobKind::Batch { work_core_secs } => work_core_secs,
            JobKind::LatencyCritical { lifetime, .. } => j.cores as f64 * lifetime.as_secs_f64(),
        })
        .sum();
    let window = scenario.config().duration.as_secs_f64().max(1.0);
    let avg = (total / window).ceil() as u32;
    let widest = scenario.jobs().iter().map(|j| j.cores).max().unwrap_or(1);
    avg.max(widest).max(8)
}

/// The Zipf-skewed tenant population with every scenario job assigned to
/// a tenant by weighted draw from one named RNG stream.
fn tenant_plan(scenario: &Scenario, tenants: usize, rng: &mut SimRng) -> TenancyPlan {
    let mut plan = TenancyPlan::zipf(tenants, ZIPF_SKEW, pool_for(scenario), GUARANTEE_FRAC);
    let ids: Vec<u64> = scenario.jobs().iter().map(|j| j.id.0).collect();
    plan.assign_jobs(&ids, rng);
    plan
}

/// The run spec for one (strategy, variant) cell.
fn spec(
    base: &Arc<Scenario>,
    tenanted: &Arc<Scenario>,
    strategy: &StrategyRef,
    variant: &str,
) -> RunSpec {
    let scenario = if variant == "tenant-zipf" {
        tenanted
    } else {
        base
    };
    let s = RunSpec::on(Arc::clone(scenario), strategy)
        .label(format!("{variant}/{}", strategy.short_name()));
    if variant == "chaos" {
        s.map_config(|c| c.with_faults(FaultPlanId::FullChaos.plan()))
    } else {
        s
    }
}

/// Fraction of `r`'s jobs that kept their SLO.
fn slo_attainment(r: &RunResult) -> f64 {
    let perfs = r.normalized_perf(None);
    let kept = perfs.iter().filter(|&&p| p >= SLO_THRESHOLD).count();
    kept as f64 / perfs.len().max(1) as f64
}

fn main() -> ExitCode {
    let mut h = Harness::for_experiment(INFO);
    let rates = Rates::default();
    let model = PricingModel::aws();
    let tenants = if h.ctx().fast { 200 } else { 2000 };

    // HCLOUD_STRATEGY narrows the grid to one registered strategy; the
    // default grid is the paper hybrids plus the two newcomers.
    let strategies: Vec<StrategyRef> = match h.ctx().strategy {
        Some(id) => vec![id.resolve()],
        None => STRATEGIES.map(StrategyRef::from).to_vec(),
    };

    let base = Arc::new(h.scenario(ScenarioKind::HighVariability).clone());
    let plan = tenant_plan(&base, tenants, &mut h.factory().stream("tenant-assign"));
    if let Err(e) = plan.validate() {
        artifacts::artifact_failure("ext_theory_strategies plan", e);
        return artifacts::exit_code();
    }
    let pool = plan.pool_cores;
    let tenanted = Arc::new(base.as_ref().clone().with_tenancy(plan));
    eprintln!(
        "[ext_theory_strategies] {} jobs; variants plain/chaos/tenant-zipf \
         ({tenants} tenants, skew {ZIPF_SKEW}, pool {pool} cores); strategies: {}",
        base.jobs().len(),
        strategies
            .iter()
            .map(|s| s.short_name())
            .collect::<Vec<_>>()
            .join(" "),
    );

    let mut grid = ExperimentPlan::new();
    for strategy in &strategies {
        for variant in VARIANTS {
            grid.push(spec(&base, &tenanted, strategy, variant));
        }
    }
    h.run_plan(grid);

    println!("Theory-grounded autoscaling strategies vs the paper hybrids\n");
    let mut t = Table::new(vec![
        "strategy",
        "variant",
        "SLO",
        "perf",
        "cost ($)",
        "makespan (h)",
        "digest",
    ]);
    let mut rows: Vec<Value> = Vec::new();
    for strategy in &strategies {
        for variant in VARIANTS {
            let r = h.run(spec(&base, &tenanted, strategy, variant));
            let slo = slo_attainment(r);
            let perf = r.mean_normalized_perf();
            let cost = r.cost(&rates, &model).total();
            let makespan_h = r.makespan.as_hours_f64();
            let digest = run_digest(r);
            t.row(vec![
                strategy.short_name().into(),
                variant.into(),
                format!("{:.1}%", slo * 100.0),
                format!("{:.1}%", perf * 100.0),
                format!("{cost:.0}"),
                format!("{makespan_h:.2}"),
                digest.clone(),
            ]);
            rows.push(
                ObjectBuilder::new()
                    .set("strategy", strategy.id())
                    .set("short", strategy.short_name())
                    .set("variant", variant)
                    .set("digest", digest)
                    .set("slo", slo)
                    .set("perf", perf)
                    .set("cost", cost)
                    .set("makespan_h", makespan_h)
                    .build(),
            );
        }
    }
    println!("{t}");
    println!("(RA trades reserved headroom against admission blocking — its soft");
    println!(" limit steps down on repeated blocking and creeps back while the");
    println!(" queue stays clear; QC caps instance utilization at a square-root");
    println!(" staffing ceiling fit to the observed batch-size mix)");

    let doc = ObjectBuilder::new()
        .set("schema_version", artifacts::SCHEMA_VERSION)
        .set("bench", "ext_theory_strategies")
        .set("mode", if h.ctx().fast { "fast" } else { "full" })
        .set("seed", h.ctx().master_seed as f64)
        .set(
            "tenancy",
            ObjectBuilder::new()
                .set("tenants", tenants as f64)
                .set("zipf_skew", ZIPF_SKEW)
                .set("guarantee_frac", GUARANTEE_FRAC)
                .set("pool_cores", pool as f64)
                .build(),
        )
        .set("strategies", Value::Array(rows))
        .build();
    let path = std::path::Path::new("results").join("ext_theory_strategies.json");
    let ok = std::fs::create_dir_all("results").is_ok()
        && std::fs::write(&path, doc.to_pretty() + "\n").is_ok();
    if ok {
        artifacts::artifact_written(&path);
    } else {
        artifacts::artifact_failure(format!("write {}", path.display()), "io error");
    }
    h.finish("ext_theory_strategies")
}
