//! hcbench: the HCloud simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path hcbench/Cargo.toml -- \
//!     --workload <fleet-churn|diurnal-spot|tenant-zipf|strategy-sweep|all> \
//!     [--seed 42] [--seconds 30] [--trace 0|1] [--smoke]
//! ```
//!
//! The benchmark is a closed loop with one caller: one simulation at a
//! time, single-threaded, in one process per workload. It never reads
//! `HCLOUD_*` variables; the seed is its only input.
//!
//! * `--trace 0` repeats the workload (set-up, `run_scenario` with
//!   tracing off, and the result reduction a bench binary does) until
//!   `--seconds` are used, checks every run, and reports the medians of
//!   the end-to-end metrics.
//! * `--trace 1` runs the workload once untraced and once through the
//!   traced replay (`trace.rs`), which times every call into a layer from
//!   this package, and reports the per-layer table.
//! * `--smoke` runs every workload (or the one named) once at reduced
//!   size, untraced and traced, as a quick check of the benchmark itself.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits 1
//! when a correctness check fails and 2 on bad arguments.

mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use hcloud::runner::{run_scenario, RunCtx};
use hcloud::{RunResult, StrategyRegistry};
use hcloud_bench::fleet::run_digest;
use hcloud_json::{ObjectBuilder, Value};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_sim::rng::RngFactory;

use crate::stats::{median, ratio, relative_spread};
use crate::trace::{Layer, Spans};
use crate::workloads::{Prepared, Size};

/// The seed every figure is quoted at.
const DEFAULT_SEED: u64 = 42;

/// Jobs at or above this normalized performance kept their SLO (the
/// `ext_multi_tenant` threshold).
const SLO_THRESHOLD: f64 = 0.7;

/// Set-up samples an untraced run takes at least, repeating set-up
/// alone once the timed repetitions are done.
const SETUP_SAMPLES: usize = 7;

/// Clock-pair reads used to calibrate the timer before a traced run.
const CALIBRATION_PAIRS: u32 = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Untraced,
    Traced,
    Smoke,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut traced = false;
    let mut smoke = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed: '{v}' is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: '{v}' is not a positive number"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: '{other}' is not 0 or 1")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = match workload {
        Some(w) => w,
        None if smoke => "all".to_string(),
        None => return Err("--workload is required".to_string()),
    };
    if workload != "all" && !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected all or one of: {})",
            workloads::NAMES.join(", ")
        ));
    }
    let mode = match (smoke, traced) {
        (true, _) => Mode::Smoke,
        (false, true) => Mode::Traced,
        (false, false) => Mode::Untraced,
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        mode,
    })
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
struct Table {
    rows: Vec<(String, f64, &'static str)>,
}

impl Table {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// Pushes `num / den` as `name`, and its base `den` as `base` unless
    /// the table already carries it. A ratio is never printed without
    /// its base.
    fn ratio(&mut self, name: &str, num: f64, base: &str, den: f64, base_unit: &'static str) {
        match self.get(base) {
            Some(existing) => assert_eq!(existing, den, "{name}: base {base} disagrees"),
            None => self.push(base, den, base_unit),
        }
        self.push(name, ratio(num, den), "ratio");
    }

    fn to_json(&self) -> Value {
        self.rows
            .iter()
            .fold(ObjectBuilder::new(), |b, (name, value, unit)| {
                b.set(
                    name,
                    ObjectBuilder::new()
                        .set("value", *value)
                        .set("unit", *unit)
                        .build(),
                )
            })
            .build()
    }

    fn print(&self) {
        for (name, value, unit) in &self.rows {
            println!("  {name:<36} {value:>16.6} {unit}");
        }
    }
}

/// Correctness bookkeeping: every job attempted, every job failed, and
/// why. A failing run is counted, never dropped or retried.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn fail_all(&mut self, jobs: usize, why: String) {
        self.failed += jobs as u64;
        self.problems.push(why);
    }
}

/// The outcome of one simulation, checked.
struct Checked {
    result: Option<RunResult>,
    digest: String,
}

/// Runs one cell through `run_scenario`, timing it, and checks the
/// result: every scenario job has exactly one outcome with a sane
/// timeline and a normalized performance in [0, 1], and a strict auditor
/// saw no violation. `expect_digest` is the digest earlier runs of this
/// cell produced at this seed.
fn run_checked(
    prepared: &Prepared,
    cell: usize,
    seed: u64,
    expect_digest: Option<&str>,
    checks: &mut Checks,
) -> (Checked, f64) {
    let scenario = &prepared.scenario;
    let jobs = scenario.jobs().len();
    let cfg = &prepared.cells[cell];
    let factory = RngFactory::new(seed);
    let auditor = cfg.auditor();
    let ctx = RunCtx::new(&factory).with_auditor(&auditor);
    checks.attempted += jobs as u64;
    let label = cfg.config.strategy.id();
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_scenario(scenario, &cfg.config, &ctx)
    }));
    let run_s = start.elapsed().as_secs_f64();
    let failed = |checks: &mut Checks, why: String| {
        checks.fail_all(jobs, format!("{label}: {why}"));
        Checked {
            result: None,
            digest: String::new(),
        }
    };
    let r = match outcome {
        Err(_) => return (failed(checks, "run panicked".into()), run_s),
        Ok(Err(v)) => return (failed(checks, format!("audit violation: {v}")), run_s),
        Ok(Ok(r)) => r,
    };
    if cfg.strict_audit && auditor.summary().violations != 0 {
        let n = auditor.summary().violations;
        return (failed(checks, format!("{n} audit violations")), run_s);
    }
    let digest = run_digest(&r);
    if let Some(expected) = expect_digest {
        if digest != expected {
            let why = format!("digest {digest} differs from {expected} at the same seed");
            return (failed(checks, why), run_s);
        }
    }
    let bad = bad_outcomes(scenario, &r);
    if bad > 0 {
        checks.failed += bad as u64;
        checks.problems.push(format!(
            "{label}: {bad} of {jobs} jobs missing or malformed"
        ));
    }
    (
        Checked {
            result: Some(r),
            digest,
        },
        run_s,
    )
}

/// Jobs without exactly one well-formed outcome.
fn bad_outcomes(scenario: &hcloud_workloads::Scenario, r: &RunResult) -> usize {
    let arrivals: BTreeMap<u64, hcloud_sim::SimTime> = scenario
        .jobs()
        .iter()
        .map(|j| (j.id.0, j.arrival))
        .collect();
    let mut seen = BTreeMap::new();
    for o in &r.outcomes {
        let sane = arrivals.get(&o.id.0) == Some(&o.arrival)
            && o.arrival <= o.started
            && o.started <= o.finished
            && o.finished <= r.makespan
            && (0.0..=1.0).contains(&o.normalized_perf);
        *seen.entry(o.id.0).or_insert(0usize) += if sane { 1 } else { 2 };
    }
    arrivals
        .keys()
        .filter(|id| seen.get(id) != Some(&1))
        .count()
}

/// The reduction a bench binary does on a finished run: bill it, then
/// render its JSON summary. Returns (cost $, pricing s, render s, bytes).
fn reduce(r: &RunResult) -> (f64, f64, f64, usize) {
    let start = Instant::now();
    let cost = r.cost(&Rates::default(), &PricingModel::aws());
    let pricing_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let perf = r.normalized_perf(None);
    let summary = ObjectBuilder::new()
        .set("strategy", r.strategy.id())
        .set("jobs", r.outcomes.len() as f64)
        .set("makespan_h", r.makespan.as_hours_f64())
        .set("perf_mean", r.mean_normalized_perf())
        .set("perf_p95", r.p95_normalized_perf())
        .set("slo_attainment", slo_share(&perf))
        .set(
            "cost",
            ObjectBuilder::new()
                .set("total", cost.total())
                .set("reserved", cost.reserved)
                .set("on_demand", cost.on_demand)
                .build(),
        )
        .set("spot_hours", r.spot_hours())
        .set("spot_savings", r.spot_savings(&Rates::default()))
        .set("reserved_cores", f64::from(r.reserved_cores))
        .set("od_acquired", r.counters.od_acquired as f64)
        .set("spot_acquired", r.counters.spot_acquired as f64)
        .set("reschedules", r.counters.reschedules as f64)
        .set("queued_jobs", r.counters.queued_jobs as f64)
        .set("events_processed", r.counters.events_processed as f64)
        .set("tenant_fairness", r.tenant_admission_fairness())
        .build();
    let text = summary.to_pretty();
    let render_s = start.elapsed().as_secs_f64();
    (cost.total(), pricing_s, render_s, text.len())
}

fn slo_share(perf: &[f64]) -> f64 {
    ratio(
        perf.iter().filter(|&&p| p >= SLO_THRESHOLD).count() as f64,
        perf.len() as f64,
    )
}

/// The modelled outcome of one repetition, summed over its cells.
#[derive(Default)]
struct SimOutcome {
    cost_usd: f64,
    perf_sum: f64,
    slo_kept: usize,
    outcomes: usize,
}

impl SimOutcome {
    fn add(&mut self, r: &RunResult, cost: f64) {
        self.cost_usd += cost;
        self.perf_sum += r.outcomes.iter().map(|o| o.normalized_perf).sum::<f64>();
        self.slo_kept += r
            .outcomes
            .iter()
            .filter(|o| o.normalized_perf >= SLO_THRESHOLD)
            .count();
        self.outcomes += r.outcomes.len();
    }
}

/// Input size of a workload at a seed, for the printed header.
fn describe(prepared: &Prepared, results: &[&RunResult]) -> String {
    let horizon_h = results
        .iter()
        .map(|r| r.makespan.as_hours_f64())
        .fold(0.0, f64::max);
    let events: usize = results.iter().map(|r| r.counters.events_processed).sum();
    let instances: usize = results.iter().map(|r| r.usage_records.len()).sum();
    format!(
        "{} jobs x {} run(s), simulated horizon {horizon_h:.1} h, {events} events, {instances} instances",
        prepared.scenario.jobs().len(),
        prepared.cells.len(),
    )
}

struct Report {
    checks: Checks,
    table: Table,
}

/// End-to-end metrics: repeat the workload until `seconds` are used
/// (always at least once), then report medians.
fn bench_untraced(name: &str, seed: u64, seconds: f64, size: Size) -> Result<Report, String> {
    let mut checks = Checks::default();
    let mut digests: Vec<String> = Vec::new();
    let (mut setup, mut run, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let mut sim = SimOutcome::default();
    let mut header = String::new();
    let started = Instant::now();
    loop {
        let rep_start = Instant::now();
        let prepared = workloads::prepare(name, seed, size)?;
        let setup_s = rep_start.elapsed().as_secs_f64();
        let (mut run_s, mut reduce_s) = (0.0, 0.0);
        let mut rep_sim = SimOutcome::default();
        let mut results = Vec::new();
        for cell in 0..prepared.cells.len() {
            let expect = digests.get(cell).map(String::as_str);
            let (checked, secs) = run_checked(&prepared, cell, seed, expect, &mut checks);
            run_s += secs;
            let Some(r) = checked.result else { continue };
            let t = Instant::now();
            let (cost, ..) = reduce(&r);
            reduce_s += t.elapsed().as_secs_f64();
            rep_sim.add(&r, cost);
            if digests.len() == cell {
                digests.push(checked.digest);
            }
            results.push(r);
        }
        if header.is_empty() {
            header = describe(&prepared, &results.iter().collect::<Vec<_>>());
            sim = rep_sim;
        }
        drop(results);
        setup.push(setup_s);
        run.push(run_s);
        total.push(setup_s + run_s + reduce_s);
        let rep_s = rep_start.elapsed().as_secs_f64();
        if size == Size::Smoke || started.elapsed().as_secs_f64() + rep_s > seconds {
            break;
        }
    }
    // Set-up is short next to a run on most workloads; sample it a few
    // more times so its median rests on more than one or two values.
    while size == Size::Full && setup.len() < SETUP_SAMPLES {
        let t = Instant::now();
        let prepared = workloads::prepare(name, seed, size)?;
        setup.push(t.elapsed().as_secs_f64());
        drop(prepared);
    }
    println!(
        "{name} @ seed {seed}: {header}; {} repetition(s)",
        run.len()
    );
    let spread = relative_spread(&run).map_or("n/a".to_string(), |s| format!("{s:.4}"));
    println!(
        "  run_s samples: {} (IQR/median {spread})",
        fmt_samples(&run)
    );
    let mut table = Table::default();
    let med = |v: &[f64]| median(v).expect("at least one repetition");
    table.push("setup_s", med(&setup), "s");
    table.push("run_s", med(&run), "s");
    table.push("total_s", med(&total), "s");
    table.push("peak_rss_mb", peak_rss_mb()?, "MB");
    table.push("sim_cost_usd", sim.cost_usd, "USD");
    table.push(
        "sim_perf_mean",
        ratio(sim.perf_sum, sim.outcomes as f64),
        "ratio",
    );
    table.push(
        "slo_attainment",
        ratio(sim.slo_kept as f64, sim.outcomes as f64),
        "ratio",
    );
    table.push(
        "jobs_completed_frac",
        1.0 - ratio(checks.failed as f64, checks.attempted as f64),
        "ratio",
    );
    Ok(Report { checks, table })
}

fn fmt_samples(v: &[f64]) -> String {
    v.iter()
        .map(|s| format!("{s:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Peak resident memory of this process, which runs one workload.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Per-layer metrics: one untraced run per cell (the reference digest
/// and `run_s`), then the same cell through the traced replay.
fn bench_traced(name: &str, seed: u64, size: Size) -> Result<Report, String> {
    let mut checks = Checks::default();
    let prepared = workloads::prepare(name, seed, size)?;
    let mut spans = Spans::default();
    let timer_ns = spans.calibrate_timer_ns(CALIBRATION_PAIRS);

    let mut strategy_run_s: BTreeMap<&'static str, f64> = StrategyRegistry::builtin()
        .ids()
        .into_iter()
        .map(|id| (id, 0.0))
        .collect();
    let (mut run_s, mut pricing_s, mut render_s, mut json_bytes) = (0.0, 0.0, 0.0, 0usize);
    let (mut wall_s, mut max_depth) = (0.0, 0usize);
    let mut mismatch: Vec<String> = Vec::new();
    let mut results = Vec::new();
    for cell in 0..prepared.cells.len() {
        let cfg = &prepared.cells[cell];
        let (checked, secs) = run_checked(&prepared, cell, seed, None, &mut checks);
        run_s += secs;
        *strategy_run_s.entry(cfg.config.strategy.id()).or_default() += secs;
        let Some(r) = checked.result else {
            mismatch.push(format!("{}: untraced run failed", cfg.config.strategy.id()));
            continue;
        };
        let (_, p, j, bytes) = reduce(&r);
        (pricing_s, render_s, json_bytes) = (pricing_s + p, render_s + j, json_bytes + bytes);

        let factory = RngFactory::new(seed);
        let auditor = cfg.auditor();
        let (traced, back) =
            trace::run_traced(&prepared.scenario, &cfg.config, &factory, &auditor, spans);
        spans = back;
        wall_s += traced.wall_s;
        max_depth = max_depth.max(traced.max_depth);
        match traced.result {
            Ok(t) if run_digest(&t) == checked.digest => {}
            Ok(t) => mismatch.push(format!(
                "{}: traced digest {} != untraced {}",
                cfg.config.strategy.id(),
                run_digest(&t),
                checked.digest
            )),
            Err(e) => mismatch.push(format!(
                "{}: traced run failed: {e}",
                cfg.config.strategy.id()
            )),
        }
        results.push(r);
    }
    println!(
        "{name} @ seed {seed}: {}",
        describe(&prepared, &results.iter().collect::<Vec<_>>())
    );
    if !mismatch.is_empty() {
        println!(
            "per-layer table INVALID: the traced replay no longer matches run_scenario ({})",
            mismatch.join("; ")
        );
    }

    let s = |l: Layer| spans.stat(l);
    let secs = |ns: u64| ns as f64 * 1e-9;
    let sum = |f: fn(&RunResult) -> f64| results.iter().map(f).sum::<f64>();
    let events = sum(|r| r.counters.events_processed as f64);
    let mut t = Table::default();
    t.push("workloads.generate_s", prepared.generate_s, "s");
    t.push(
        "workloads.jobs",
        prepared.scenario.jobs().len() as f64,
        "count",
    );
    t.push("tenancy.plan_s", prepared.plan_s, "s");
    t.push("sim.events_processed", events, "count");
    for (layer, name) in [(Layer::Schedule, "schedule"), (Layer::Drain, "drain")] {
        t.push(
            format!("sim.queue.{name}_calls"),
            s(layer).calls as f64,
            "count",
        );
        t.push(format!("sim.queue.{name}_s"), secs(s(layer).total_ns), "s");
    }
    t.push("sim.queue.max_depth", max_depth as f64, "count");
    t.push(
        "core.scheduler_new_s",
        secs(s(Layer::SchedulerNew).total_ns),
        "s",
    );
    for (layer, kind) in Layer::DISPATCH {
        t.push(
            format!("core.dispatch.{kind}.events"),
            s(layer).calls as f64,
            "count",
        );
        t.push(
            format!("core.dispatch.{kind}.self_s"),
            secs(s(layer).self_ns),
            "s",
        );
    }
    t.push(
        "core.into_result_s",
        secs(s(Layer::IntoResult).total_ns),
        "s",
    );
    let completed = sum(|r| r.outcomes.len() as f64);
    t.ratio(
        "core.finish.useful_ratio",
        completed,
        "core.dispatch.finish.events",
        s(Layer::Finish).calls as f64,
        "count",
    );
    t.push("core.jobs_completed", completed, "count");
    for (name, unit, counter) in PROGRAM_COUNTERS {
        t.push(name, sum(counter), unit);
    }
    for (id, secs) in &strategy_run_s {
        t.push(format!("strategy.{id}.run_s"), *secs, "s");
    }
    t.push(
        "audit.step_check_calls",
        s(Layer::StepCheck).calls as f64,
        "count",
    );
    t.push(
        "audit.step_check_s",
        secs(s(Layer::StepCheck).total_ns),
        "s",
    );
    t.push("audit.finalize_s", secs(s(Layer::Finalize).total_ns), "s");
    t.push("pricing.cost_s", pricing_s, "s");
    t.push("json.render_s", render_s, "s");
    t.push("json.bytes", json_bytes as f64, "bytes");
    t.push("trace.untraced_run_s", run_s, "s");
    t.push("host_ns_per_event", ratio(run_s * 1e9, events), "ns");
    t.push("trace.wall_s", wall_s, "s");
    t.push("trace.overhead_ratio", ratio(wall_s, run_s), "ratio");
    t.push("trace.timer_ns", timer_ns, "ns");
    t.push("trace.timer_calls", spans.timer_calls() as f64, "count");
    let uncovered_s = (wall_s - secs(spans.covered_ns())).max(0.0);
    t.push("trace.residual_frac", ratio(uncovered_s, wall_s), "ratio");
    let matched = if mismatch.is_empty() { 1.0 } else { 0.0 };
    t.push("trace.digest_match", matched, "bool");
    Ok(Report { checks, table: t })
}

/// Counters the program itself keeps, reported per layer and summed over
/// a workload's cells.
type Counter = (&'static str, &'static str, fn(&RunResult) -> f64);
const PROGRAM_COUNTERS: [Counter; 16] = [
    ("core.placement.fastpath", "count", |r| {
        r.counters.placement_fastpath as f64
    }),
    ("core.placement.index_ops", "count", |r| {
        r.counters.index_rebuilds as f64
    }),
    ("core.reserved.queued_jobs", "count", |r| {
        r.counters.queued_jobs as f64
    }),
    ("core.qos.reschedules", "count", |r| {
        r.counters.reschedules as f64
    }),
    ("cloud.instances", "count", |r| r.usage_records.len() as f64),
    ("cloud.od_acquired", "count", |r| {
        r.counters.od_acquired as f64
    }),
    ("cloud.spot_acquired", "count", |r| {
        r.counters.spot_acquired as f64
    }),
    ("cloud.spot_terminations", "count", |r| {
        r.counters.spot_terminations as f64
    }),
    ("tenancy.deferred_jobs", "count", |r| {
        r.counters.tenant_deferred_jobs as f64
    }),
    ("tenancy.drained_jobs", "count", |r| {
        r.counters.tenant_drained_jobs as f64
    }),
    ("tenancy.preemptions", "count", |r| {
        r.counters.tenant_preemptions as f64
    }),
    ("tenancy.borrowed_admissions", "count", |r| {
        r.counters.tenant_borrowed_admissions as f64
    }),
    ("faults.acquire_retries", "count", |r| {
        r.counters.acquire_retries as f64
    }),
    ("faults.capacity_errors", "count", |r| {
        r.counters.capacity_errors as f64
    }),
    ("faults.storm_preemptions", "count", |r| {
        r.counters.storm_preemptions as f64
    }),
    ("faults.work_lost_core_s", "core_s", |r| {
        r.counters.work_lost_core_secs
    }),
];

/// Prints one report and its result line; returns whether it passed.
fn emit(report: &Report) -> bool {
    report.table.print();
    for p in &report.checks.problems {
        println!("  CHECK FAILED: {p}");
    }
    let correct = report.checks.failed == 0 && report.checks.problems.is_empty();
    let line = ObjectBuilder::new()
        .set("correct", correct)
        .set("attempted", report.checks.attempted as f64)
        .set("failed", report.checks.failed as f64)
        .set("metrics", report.table.to_json())
        .build();
    println!("{line}");
    correct
}

/// Runs every workload in a child process of its own, so each one's
/// peak memory is its own, and folds their result lines into one.
fn run_all(raw: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = ObjectBuilder::new();
    for name in workloads::NAMES {
        let mut child_args: Vec<String> = raw.to_vec();
        let pos = child_args.iter().position(|a| a == "--workload");
        match pos {
            Some(i) => child_args[i + 1] = name.to_string(),
            None => child_args.extend(["--workload".to_string(), name.to_string()]),
        }
        let mut child = Command::new(&exe)
            .args(&child_args)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut last = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("{name}: reading output: {e}"))?;
            println!("{line}");
            last = line;
        }
        let status = child.wait().map_err(|e| format!("{name}: {e}"))?;
        let parsed =
            hcloud_json::parse(&last).map_err(|e| format!("{name}: no result line: {e}"))?;
        correct &= status.success() && parsed.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += parsed
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        failed += parsed.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        if let Some(Value::Object(pairs)) = parsed.get("metrics") {
            for (k, v) in pairs {
                metrics = metrics.set(&format!("{name}.{k}"), v.clone());
            }
        }
    }
    let line = ObjectBuilder::new()
        .set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics.build())
        .build();
    println!("{line}");
    Ok(correct)
}

fn run(args: &Args, raw: &[String]) -> Result<bool, String> {
    if args.workload == "all" {
        return run_all(raw);
    }
    let name = args.workload.as_str();
    match args.mode {
        Mode::Untraced => Ok(emit(&bench_untraced(
            name,
            args.seed,
            args.seconds,
            Size::Full,
        )?)),
        Mode::Traced => Ok(emit(&bench_traced(name, args.seed, Size::Full)?)),
        Mode::Smoke => {
            let mut report = bench_untraced(name, args.seed, args.seconds, Size::Smoke)?;
            let traced = bench_traced(name, args.seed, Size::Smoke)?;
            if traced.table.get("trace.digest_match") != Some(1.0) {
                report
                    .checks
                    .problems
                    .push("traced replay digest differs from run_scenario".into());
            }
            report.checks.attempted += traced.checks.attempted;
            report.checks.failed += traced.checks.failed;
            report.checks.problems.extend(traced.checks.problems);
            report.table.rows.extend(traced.table.rows);
            Ok(emit(&report))
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, &raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_carry_their_base() {
        let mut t = Table::default();
        t.ratio("useful", 3.0, "finish.events", 12.0, "count");
        assert_eq!(t.get("useful"), Some(0.25));
        assert_eq!(
            t.get("finish.events"),
            Some(12.0),
            "base pushed with the ratio"
        );
        t.ratio("other", 6.0, "finish.events", 12.0, "count");
        assert_eq!(t.rows.len(), 3, "an existing base is not duplicated");
    }

    #[test]
    #[should_panic(expected = "disagrees")]
    fn a_ratio_cannot_contradict_its_base() {
        let mut t = Table::default();
        t.push("finish.events", 10.0, "count");
        t.ratio("useful", 3.0, "finish.events", 12.0, "count");
    }

    #[test]
    fn arguments_parse_and_reject() {
        let raw = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&raw(
            "--workload tenant-zipf --seed 7 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.mode), (7, 5.0, Mode::Traced));
        assert_eq!(parse_args(&raw("--smoke")).unwrap().workload, "all");
        assert_eq!(
            parse_args(&raw("--workload fleet-churn")).unwrap().seed,
            DEFAULT_SEED
        );
        assert!(parse_args(&raw("--workload nope")).is_err());
        assert!(parse_args(&raw("--workload fleet-churn --trace 2")).is_err());
        assert!(parse_args(&raw("--workload fleet-churn --seconds -1")).is_err());
        assert!(parse_args(&raw("")).is_err());
    }
}
