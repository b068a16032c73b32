//! The benchmark's four workloads, each built from a seed alone.
//!
//! A workload is one prepared scenario plus the run configurations
//! executed against it, back to back, in one process. Every generator
//! receives only the seed: `RngFactory::new(seed)` drives scenario
//! generation, the tenant assignment stream and the simulation itself.

use std::time::Instant;

use hcloud::config::SpotPolicy;
use hcloud::{RunConfig, StrategyRegistry};
use hcloud_audit::{AuditMode, Auditor};
use hcloud_faults::FaultPlanId;
use hcloud_sim::rng::RngFactory;
use hcloud_sim::time::SimDuration;
use hcloud_tenancy::TenancyPlan;
use hcloud_workloads::{dsl, JobKind, Scenario, ScenarioConfig, ScenarioDsl, ScenarioKind};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "fleet-churn",
    "diurnal-spot",
    "tenant-zipf",
    "strategy-sweep",
];

/// Zipf skew of the tenant population, as `ext_multi_tenant` builds it.
const ZIPF_SKEW: f64 = 1.1;

/// Share of the tenancy pool handed out as guarantees.
const GUARANTEE_FRAC: f64 = 0.5;

/// Full size is what the benchmark measures; smoke size keeps every
/// workload's shape at a fraction of its jobs, for a quick end-to-end
/// check of the benchmark itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One simulation of a workload: a run configuration and whether the
/// strict conservation auditor rides along.
pub struct Cell {
    pub config: RunConfig,
    pub strict_audit: bool,
}

impl Cell {
    /// A fresh auditor for one run of this cell: strict, or off.
    pub fn auditor(&self) -> Auditor {
        Auditor::new(if self.strict_audit {
            AuditMode::Strict
        } else {
            AuditMode::Off
        })
    }
}

/// A workload ready to run, with the host time each setup layer took.
pub struct Prepared {
    pub scenario: Scenario,
    pub cells: Vec<Cell>,
    /// Seconds inside `hcloud-workloads`: the DSL codec and scenario
    /// generation.
    pub generate_s: f64,
    /// Seconds building, assigning and validating the tenancy plan.
    pub plan_s: f64,
}

/// Builds workload `name` at `seed`. Unknown names and invalid inputs are
/// errors, never panics.
pub fn prepare(name: &str, seed: u64, size: Size) -> Result<Prepared, String> {
    let factory = RngFactory::new(seed);
    let smoke = size == Size::Smoke;
    match name {
        "fleet-churn" => {
            let start = Instant::now();
            let scenario = Scenario::generate(fleet_churn_config(smoke), &factory);
            let generate_s = start.elapsed().as_secs_f64();
            let config = RunConfig::new(strategy("on-demand-mixed")?).with_retention_mult(0.05);
            Ok(Prepared {
                scenario,
                cells: vec![Cell {
                    config,
                    strict_audit: false,
                }],
                generate_s,
                plan_s: 0.0,
            })
        }
        "diurnal-spot" => {
            let start = Instant::now();
            let mut doc = dsl::example_diurnal();
            if smoke {
                doc.mean_interarrival = doc.mean_interarrival * 8;
            }
            // The document goes through the codec a user's file would.
            let doc = ScenarioDsl::parse(&doc.render())?;
            let scenario = doc.generate(&factory);
            let generate_s = start.elapsed().as_secs_f64();
            let mut config = RunConfig::new(strategy("hybrid-mixed")?);
            if let Some(spot) = doc.spot {
                config = config.with_spot(SpotPolicy {
                    bid_multiplier: spot.bid_multiplier,
                    max_quality: spot.max_quality,
                });
            }
            Ok(Prepared {
                scenario,
                cells: vec![Cell {
                    config,
                    strict_audit: false,
                }],
                generate_s,
                plan_s: 0.0,
            })
        }
        "tenant-zipf" => {
            let start = Instant::now();
            let base = Scenario::generate(paper_high_variability(smoke), &factory);
            let generate_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let tenants = if smoke { 200 } else { 2000 };
            let mut plan = TenancyPlan::zipf(tenants, ZIPF_SKEW, pool_for(&base), GUARANTEE_FRAC);
            let ids: Vec<u64> = base.jobs().iter().map(|j| j.id.0).collect();
            plan.assign_jobs(&ids, &mut factory.stream("tenant-assign"));
            plan.validate()?;
            let scenario = base.with_tenancy(plan);
            let plan_s = start.elapsed().as_secs_f64();
            let config = RunConfig::new(strategy("hybrid-mixed")?)
                .with_faults(FaultPlanId::FullChaos.plan());
            Ok(Prepared {
                scenario,
                cells: vec![Cell {
                    config,
                    strict_audit: true,
                }],
                generate_s,
                plan_s,
            })
        }
        "strategy-sweep" => {
            let start = Instant::now();
            let scenario = Scenario::generate(paper_high_variability(smoke), &factory);
            let generate_s = start.elapsed().as_secs_f64();
            let cells = StrategyRegistry::builtin()
                .all()
                .iter()
                .map(|s| Cell {
                    config: RunConfig::new(s.clone()),
                    strict_audit: false,
                })
                .collect();
            Ok(Prepared {
                scenario,
                cells,
                generate_s,
                plan_s: 0.0,
            })
        }
        other => Err(format!(
            "unknown workload '{other}' (expected one of: {})",
            NAMES.join(", ")
        )),
    }
}

fn strategy(id: &str) -> Result<hcloud::StrategyRef, String> {
    StrategyRegistry::builtin()
        .get(id)
        .ok_or_else(|| format!("strategy '{id}' is not registered"))
}

/// `perf_fleet`'s high-variability 2-hour window at a third of its
/// arrival density (mean inter-arrival 20 ms instead of 7.2 ms): about
/// 360k jobs.
fn fleet_churn_config(smoke: bool) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper(ScenarioKind::HighVariability);
    config.mean_interarrival = SimDuration::from_micros(20_000);
    config.load_scale = 5.0 / 3.0;
    if smoke {
        config.duration = SimDuration::from_mins(12);
    }
    config
}

/// The paper's high-variability scenario at Table 2 load; smoke size
/// shortens the arrival window.
fn paper_high_variability(smoke: bool) -> ScenarioConfig {
    if smoke {
        ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.25, 20)
    } else {
        ScenarioConfig::paper(ScenarioKind::HighVariability)
    }
}

/// Sizes the shared tenancy pool to the scenario's mean concurrent core
/// demand over the arrival window, as `ext_multi_tenant` does: tight
/// enough that tenants contend, wide enough that the largest job fits.
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
