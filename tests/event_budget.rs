//! The event loop's work stays proportional to jobs plus monitor ticks.
//!
//! Every monitor tick re-projects each running batch job's finish from
//! fresh interference. A projection the next tick supersedes is never
//! scheduled, so a job that runs for hours costs its ticks plus a few
//! events of its own, not one dead `Finish` per tick on top.

use hcloud::runner::{run_scenario, RunCtx};
use hcloud::{RunConfig, StrategyId};
use hcloud_interference::ResourceVector;
use hcloud_sim::rng::RngFactory;
use hcloud_sim::time::SimTime;
use hcloud_workloads::{AppClass, JobId, JobKind, JobSpec, Scenario, ScenarioConfig, ScenarioKind};

/// One batch job of `hours` on `cores` cores, alone on a reserved pool.
fn lone_batch_job(hours: u64, cores: u32) -> Scenario {
    let job = JobSpec {
        id: JobId(0),
        class: AppClass::SparkBatch,
        arrival: SimTime::ZERO,
        kind: JobKind::Batch {
            work_core_secs: (cores as u64 * hours * 3600) as f64,
        },
        cores,
        sensitivity: ResourceVector::ZERO,
    };
    Scenario::from_jobs(
        ScenarioConfig::scaled(ScenarioKind::Static, 0.05, 10),
        vec![job],
    )
}

#[test]
fn long_batch_job_costs_its_ticks_plus_a_few_events() {
    let scenario = lone_batch_job(6, 4);
    let mut config = RunConfig::new(StrategyId::SR);
    config.reserved_cores_override = Some(16);
    let r = run_scenario(&scenario, &config, &RunCtx::new(&RngFactory::new(3)))
        .expect("no auditor attached");

    assert_eq!(r.outcomes.len(), 1);
    let ran = r.outcomes[0]
        .finished
        .saturating_since(r.outcomes[0].started);
    assert!(
        ran.as_secs_f64() >= 6.0 * 3600.0,
        "the job must run for hours, ran {ran:?}"
    );
    let ticks = (r.makespan.as_micros() / config.monitor_interval.as_micros()) as usize + 1;
    // Arrival, Start and one or two live Finish projections per job; a
    // per-tick reschedule would add about one event per tick.
    let budget = ticks + 4 * r.outcomes.len();
    assert!(
        r.counters.events_processed <= budget,
        "{} events for {ticks} ticks and 1 job: superseded Finish events are back",
        r.counters.events_processed
    );
}
