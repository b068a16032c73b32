//! The five paper strategies are byte-identical to the committed goldens.
//!
//! The paper's five are data rows (a Table 3 `StrategyCaps` value each)
//! whose every hook is a trait default behind the registry. These tests
//! pin them two ways:
//!
//! * registry-resolved handles reproduce the committed
//!   `BENCH_hotpath_fast.json` digests exactly (the same digests CI
//!   compares after running `perf_hotpath`);
//! * a shared registry handle reused across runs and a handle from a
//!   freshly built registry agree byte-for-byte across a
//!   property-searched grid of strategy × fault plan × tenancy × seed,
//!   so no run-local strategy state leaks between runs.
//!
//! A behavioural regression fails here, in-tree, before it fails in CI.

use hcloud::runner::{run_scenario, RunCtx};
use hcloud::{RunConfig, StrategyId, StrategyRef, StrategyRegistry};
use hcloud_bench::fleet::run_digest;
use hcloud_faults::FaultPlanId;
use hcloud_sim::rng::RngFactory;
use hcloud_tenancy::TenancyPlan;
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};

/// The committed fast-mode hot-path golden (the digests CI enforces).
fn hotpath_golden() -> hcloud_json::Value {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/goldens/BENCH_hotpath_fast.json"
    );
    let text = std::fs::read_to_string(path).expect("committed golden exists");
    hcloud_json::parse(&text).expect("golden is valid JSON")
}

/// Registry-resolved paper strategies reproduce the committed hot-path
/// golden digests on the exact scenario `perf_hotpath` runs in fast
/// mode (high-variability ×0.25, 20 minutes, seed 42).
#[test]
fn registry_strategies_match_the_committed_hotpath_golden() {
    let scenario = Scenario::generate(
        ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.25, 20),
        &RngFactory::new(42),
    );
    let golden = hotpath_golden();
    let rows = golden
        .get("strategies")
        .and_then(|v| v.as_array())
        .expect("golden has strategy rows");
    assert_eq!(rows.len(), StrategyId::PAPER.len());
    for row in rows {
        let short = row
            .get("strategy")
            .and_then(|v| v.as_str())
            .expect("row names a strategy");
        let strategy = StrategyRegistry::builtin()
            .get(short)
            .expect("golden strategy is registered");
        let factory = RngFactory::new(42);
        let r = run_scenario(
            &scenario,
            &RunConfig::new(&strategy),
            &RunCtx::new(&factory),
        )
        .expect("no auditor attached");
        let want = row.get("digest").and_then(|v| v.as_str()).expect("digest");
        assert_eq!(
            run_digest(&r),
            want,
            "{short}: trait-ported strategy drifted from the committed golden"
        );
        let events = row.get("events").and_then(|v| v.as_f64()).expect("events");
        assert_eq!(r.counters.events_processed as f64, events, "{short} events");
        let instances = row
            .get("instances")
            .and_then(|v| v.as_f64())
            .expect("instances");
        assert_eq!(r.usage_records.len() as f64, instances, "{short} instances");
    }
}

/// A small tenanted-or-not scenario for the property search.
fn property_scenario(seed: u64, tenants: usize) -> Scenario {
    let scenario = Scenario::generate(
        ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.04, 10),
        &RngFactory::new(seed),
    );
    if tenants == 0 {
        return scenario;
    }
    let mut plan = TenancyPlan::zipf(tenants, 1.1, 48, 0.5);
    let ids: Vec<u64> = scenario.jobs().iter().map(|j| j.id.0).collect();
    plan.assign_jobs(&ids, &mut RngFactory::new(seed).stream("tenant-assign"));
    scenario.with_tenancy(plan)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
    /// Every builtin strategy simulates byte-identically through the
    /// shared registry handle (after it already ran once) and through a
    /// handle from a freshly built registry, under any fault plan, with
    /// or without a tenancy gate, at any seed.
    #[test]
    fn shared_and_fresh_handles_are_byte_identical(
        seed in 0u64..1024,
        strategy_idx in 0usize..StrategyRegistry::builtin().all().len(),
        fault_idx in 0usize..FaultPlanId::ALL.len(),
        tenants in 0usize..10,
    ) {
        use proptest::prelude::prop_assert_eq;

        let shared = StrategyRegistry::builtin().all()[strategy_idx].clone();
        let fresh = StrategyRegistry::with_builtins().all()[strategy_idx].clone();
        let fault_plan = FaultPlanId::ALL[fault_idx];
        let scenario = property_scenario(seed, tenants);
        let run = |strategy: &StrategyRef| {
            let config = RunConfig::new(strategy).with_faults(fault_plan.plan());
            let factory = RngFactory::new(seed);
            run_digest(
                &run_scenario(&scenario, &config, &RunCtx::new(&factory))
                    .expect("no auditor attached"),
            )
        };
        let first = run(&shared);
        prop_assert_eq!(
            &first,
            &run(&shared),
            "{}/{}/{} tenants: a reused handle diverged",
            shared, fault_plan.name(), tenants
        );
        prop_assert_eq!(
            first,
            run(&fresh),
            "{}/{}/{} tenants: shared and fresh handles diverged",
            shared, fault_plan.name(), tenants
        );
    }
}
