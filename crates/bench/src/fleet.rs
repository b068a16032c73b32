//! Shared plumbing for the perf benches: the FNV result digest and the
//! fleet-scale scenario.
//!
//! The digest is the identity oracle the perf benches (and CI) use to
//! prove an optimisation changed no simulation outcome: FNV-1a 64-bit
//! over every per-job outcome, usage record and decision counter. Both
//! `perf_hotpath` and `perf_fleet` hash through this one implementation,
//! so their committed goldens stay comparable across refactors.

use hcloud::RunResult;
use hcloud_sim::time::SimDuration;
use hcloud_workloads::{ScenarioConfig, ScenarioKind};

/// FNV-1a 64-bit, the digest primitive (no external deps, stable).
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` bit pattern (bit-exact, NaN-safe).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// A deterministic digest of everything the simulation decided: per-job
/// outcomes (bit-exact), usage records and the decision counters. Two
/// builds disagreeing on any placement, timing or accounting byte
/// disagree here.
///
/// Engine work counters such as `events_processed` are deliberately
/// left out: they measure how the event loop got to the outcome, so an
/// optimisation that drops events nothing would act on keeps the digest.
pub fn run_digest(r: &RunResult) -> String {
    let mut h = Fnv::new();
    h.u64(r.makespan.as_micros());
    h.u64(r.outcomes.len() as u64);
    for o in &r.outcomes {
        h.u64(o.id.0);
        h.u64(o.started.as_micros());
        h.u64(o.finished.as_micros());
        h.u64(o.cores as u64);
        h.u64(o.on_reserved as u64);
        h.f64(o.normalized_perf);
        h.u64(o.queue_delay.as_micros());
        h.u64(o.spinup_delay.as_micros());
    }
    h.u64(r.usage_records.len() as u64);
    for u in &r.usage_records {
        h.u64(u.itype.vcpus() as u64);
        h.u64(u.reserved as u64);
        h.u64(u.from.as_micros());
        h.u64(u.to.as_micros());
    }
    h.u64(r.counters.od_acquired as u64);
    h.u64(r.counters.queued_jobs as u64);
    h.u64(r.counters.reschedules as u64);
    format!("{:016x}", h.finish())
}

/// The fleet scenario: the paper's 2-hour high-variability arrival
/// window densified to ~1M jobs (mean inter-arrival 7.2 ms instead of
/// Table 2's 1 s). Under OdM — the strategy that spawns the most
/// instances — this acquires well past 100k instances, the scale the
/// reservation auto-scaling and multi-tenant directions need. Fast mode
/// keeps the same shape at ~36k jobs for CI smoke runs.
pub fn fleet_config(fast: bool) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper(ScenarioKind::HighVariability);
    if fast {
        config.duration = SimDuration::from_mins(12);
        config.mean_interarrival = SimDuration::from_micros(20_000);
        config.load_scale = 0.25;
    } else {
        config.mean_interarrival = SimDuration::from_micros(7_200);
        config.load_scale = 5.0;
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64-bit reference values.
        let mut h = Fnv::new();
        assert_eq!(h.finish(), 0xcbf29ce484222325, "offset basis");
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    /// Engine counters stay out of the digest; any outcome byte moves it.
    #[test]
    fn digest_covers_outcomes_not_engine_counters() {
        use hcloud::runner::{run_scenario, RunCtx};
        use hcloud::{RunConfig, StrategyId};
        use hcloud_sim::rng::RngFactory;
        use hcloud_workloads::Scenario;

        let factory = RngFactory::new(7);
        let scenario = Scenario::generate(
            ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.02, 10),
            &factory,
        );
        let base = run_scenario(
            &scenario,
            &RunConfig::new(StrategyId::HM),
            &RunCtx::new(&factory),
        )
        .expect("no auditor attached");
        assert!(!base.outcomes.is_empty() && !base.usage_records.is_empty());
        let want = run_digest(&base);

        let mut r = base.clone();
        r.counters.events_processed += 1_000;
        assert_eq!(run_digest(&r), want, "events_processed is engine work");

        let mut r = base.clone();
        r.outcomes[0].finished += SimDuration::from_micros(1);
        assert_ne!(run_digest(&r), want, "an outcome's finish time");

        let mut r = base.clone();
        r.outcomes[0].normalized_perf = f64::from_bits(r.outcomes[0].normalized_perf.to_bits() ^ 1);
        assert_ne!(run_digest(&r), want, "an outcome's normalized perf");

        let mut r = base;
        r.usage_records[0].to += SimDuration::from_micros(1);
        assert_ne!(run_digest(&r), want, "a usage record's end");
    }

    #[test]
    fn fleet_config_is_fleet_sized() {
        let full = fleet_config(false);
        let expected = full.duration.as_secs_f64() / full.mean_interarrival.as_secs_f64();
        assert!(
            expected > 900_000.0,
            "~1M-job arrival window, got {expected}"
        );
        let fast = fleet_config(true);
        let expected = fast.duration.as_secs_f64() / fast.mean_interarrival.as_secs_f64();
        assert!(
            (10_000.0..100_000.0).contains(&expected),
            "fast mode stays smoke-sized, got {expected}"
        );
    }
}
