//! Differential tests: `FairShare`, which visits only the tenants that
//! have work, against the scan-every-tenant reference model in
//! `reference/`. Both are driven by the same operations, the way the
//! scheduler drives them, and must agree on every `Gate`, `Release`,
//! `Preemption` and `stats()` output. A deterministic op-count test pins
//! the cost model: drain work does not grow with idle tenants.

mod reference;

use hcloud_sim::rng::RngFactory;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_tenancy::{FairShare, Gate, QueueState, TenancyPlan, TenantSpec};
use proptest::prelude::*;
use rand::Rng;
use reference::RefFairShare;

/// Where a job is, as the scheduler would see it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum JobState {
    Idle,
    Deferred {
        cores: u32,
    },
    /// Admitted into the pool, or bypassed (running outside it).
    Running {
        cores: u32,
    },
}

#[derive(Debug, Clone)]
enum Op {
    /// Gate the `pick`-th idle job.
    Gate {
        pick: usize,
        cores: u32,
    },
    /// Finish the `pick`-th running job.
    Finish {
        pick: usize,
    },
    Drain,
    /// One monitor tick's tenancy step: starvation scan, preempt and
    /// re-gate every victim, then drain.
    Tick,
}

/// Both models side by side, plus the job ledger that keeps the driven
/// sequence realistic (a job is gated only while idle, released only
/// while running).
struct Pair {
    fast: FairShare,
    slow: RefFairShare,
    plan: TenancyPlan,
    jobs: Vec<JobState>,
    now: SimTime,
    tally: Tally,
}

/// Which paths a driven sequence reached.
#[derive(Debug, Default)]
struct Tally {
    drains: usize,
    victims: usize,
    closing_defers: usize,
    closed_bypasses: usize,
    zero_guarantee_admits: usize,
}

impl Pair {
    fn new(plan: &TenancyPlan, jobs: usize) -> Pair {
        Pair {
            fast: FairShare::new(plan),
            slow: RefFairShare::new(plan),
            plan: plan.clone(),
            jobs: vec![JobState::Idle; jobs],
            now: SimTime::ZERO,
            tally: Tally::default(),
        }
    }

    fn spec_of(&self, job: usize) -> Option<&TenantSpec> {
        let tenant = self.plan.tenant_of(job as u64)?;
        self.plan.tenants.iter().find(|t| t.id == tenant)
    }

    fn nth(&self, pick: usize, running: bool) -> Option<usize> {
        let matching: Vec<usize> = (0..self.jobs.len())
            .filter(|&j| match self.jobs[j] {
                JobState::Running { .. } => running,
                JobState::Idle => !running,
                JobState::Deferred { .. } => false,
            })
            .collect();
        (!matching.is_empty()).then(|| matching[pick % matching.len()])
    }

    fn gate(&mut self, job: usize, cores: u32) -> Result<(), TestCaseError> {
        let got = self.fast.gate(job as u64, cores, self.now);
        let want = self.slow.gate(job as u64, cores, self.now);
        prop_assert_eq!(got, want, "gate job {} ({} cores)", job, cores);
        if let Some(spec) = self.spec_of(job) {
            match (got, spec.state) {
                (Gate::Defer { .. }, QueueState::Closing) => self.tally.closing_defers += 1,
                (Gate::Bypass, QueueState::Closed) => self.tally.closed_bypasses += 1,
                (Gate::Admit { .. }, _) if spec.guaranteed_cores == 0 => {
                    self.tally.zero_guarantee_admits += 1
                }
                _ => {}
            }
        }
        self.jobs[job] = match got {
            Gate::Defer { .. } => JobState::Deferred { cores },
            Gate::Admit { .. } | Gate::Bypass => JobState::Running { cores },
        };
        Ok(())
    }

    fn release(&mut self, job: usize) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            self.fast.release(job as u64),
            self.slow.release(job as u64),
            "release job {}",
            job
        );
        self.jobs[job] = JobState::Idle;
        Ok(())
    }

    fn drain(&mut self) -> Result<(), TestCaseError> {
        let got = self.fast.drain(self.now);
        let want = self.slow.drain(self.now);
        prop_assert_eq!(&got, &want, "drain at {:?}", self.now);
        self.tally.drains += 1;
        for r in got {
            let JobState::Deferred { cores } = self.jobs[r.job as usize] else {
                return Err(TestCaseError::fail(format!(
                    "released job {} was not deferred",
                    r.job
                )));
            };
            prop_assert_eq!(cores, r.cores);
            self.jobs[r.job as usize] = JobState::Running { cores };
        }
        Ok(())
    }

    fn tick(&mut self) -> Result<(), TestCaseError> {
        let got = self.fast.starved_victims(self.now);
        let want = self.slow.starved_victims(self.now);
        prop_assert_eq!(&got, &want, "starved_victims at {:?}", self.now);
        self.tally.victims += got.len();
        for v in &got {
            let job = v.victim_job as usize;
            let JobState::Running { cores } = self.jobs[job] else {
                return Err(TestCaseError::fail(format!("victim {job} was not running")));
            };
            self.release(job)?;
            self.gate(job, cores)?;
        }
        self.drain()
    }

    fn apply(&mut self, op: &Op, dt: u64) -> Result<(), TestCaseError> {
        self.now += SimDuration::from_secs(dt);
        match *op {
            Op::Gate { pick, cores } => {
                if let Some(job) = self.nth(pick, false) {
                    self.gate(job, cores)?;
                }
            }
            Op::Finish { pick } => {
                if let Some(job) = self.nth(pick, true) {
                    self.release(job)?;
                }
            }
            Op::Drain => self.drain()?,
            Op::Tick => self.tick()?,
        }
        Ok(())
    }

    fn check_state(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.fast.total_running(), self.slow.total_running());
        prop_assert_eq!(self.fast.stats(), self.slow.stats());
        for spec in &self.plan.tenants {
            let t = spec.id;
            let q = self.fast.queue(t).expect("plan tenant has a queue");
            prop_assert_eq!(Some(q.pending_depth()), self.slow.pending_depth(t));
            prop_assert_eq!(Some(q.running_cores()), self.slow.running_cores(t));
            prop_assert_eq!(
                self.fast.fair_share(t).to_bits(),
                self.slow.fair_share(t).to_bits()
            );
        }
        Ok(())
    }
}

/// Random plans and operation streams, drawn straight from the test RNG.
/// Plans have shuffled (non-plan-order) tenant ids, zero guarantees and
/// every queue state, and leave some jobs unassigned; small plans and
/// long streams make the DRR cursor wrap many times.
struct Workload;

impl Strategy for Workload {
    type Value = (TenancyPlan, Vec<(Op, u64)>);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let mut pool: Vec<u64> = (0..64).collect();
        let n = 1 + rng.below(8) as usize;
        for i in 0..n {
            let j = i + rng.below((pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
        let ids = &pool[..n];
        let mut plan = TenancyPlan::new(1 + rng.below(32) as u32)
            .with_quantum(0.5 + rng.next_f64() * 5.5)
            .with_starvation_secs(1.0 + rng.below(120) as f64);
        for &id in ids {
            let weight = 0.1 + rng.next_f64() * 7.9;
            let guaranteed = rng.below(9) as u32;
            let cap = guaranteed + rng.below(13) as u32;
            let state = match rng.below(6) {
                0..=3 => QueueState::Open,
                4 => QueueState::Closing,
                _ => QueueState::Closed,
            };
            plan = plan.tenant(TenantSpec::new(id, weight, guaranteed, cap).with_state(state));
        }
        for job in 0..JOBS as u64 {
            if rng.below(10) != 0 {
                plan.assign(job, ids[rng.below(n as u64) as usize]);
            }
        }
        let ops = (0..1 + rng.below(200))
            .map(|_| {
                let pick = rng.next_u64() as usize;
                let op = match rng.below(12) {
                    0..=4 => Op::Gate {
                        pick,
                        cores: 1 + rng.below(12) as u32,
                    },
                    5..=7 => Op::Finish { pick },
                    8 | 9 => Op::Drain,
                    _ => Op::Tick,
                };
                (op, rng.below(41))
            })
            .collect();
        (plan, ops)
    }
}

const JOBS: usize = 32;
const CASES: u32 = 512;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn fair_share_matches_the_reference_model(case in Workload) {
        let (plan, ops) = case;
        let mut pair = Pair::new(&plan, JOBS);
        for (op, dt) in &ops {
            pair.apply(op, *dt)?;
            pair.check_state()?;
        }
    }
}

/// The property is not vacuous: replaying its cases reaches starvation
/// preemption, closing-queue deferral, closed-queue bypass, admission
/// into a zero-guarantee queue, and more drains than tenants (the DRR
/// cursor wraps).
#[test]
fn property_cases_reach_every_path() {
    let mut rng = TestRng::deterministic("fair_share_matches_the_reference_model");
    let mut total = Tally::default();
    let mut wrapped = 0;
    for _ in 0..CASES {
        let (plan, ops) = Workload.generate(&mut rng);
        let mut pair = Pair::new(&plan, JOBS);
        for (op, dt) in &ops {
            pair.apply(op, *dt).expect("models agree");
        }
        if pair.tally.drains > plan.tenants.len() {
            wrapped += 1;
        }
        total.victims += pair.tally.victims;
        total.closing_defers += pair.tally.closing_defers;
        total.closed_bypasses += pair.tally.closed_bypasses;
        total.zero_guarantee_admits += pair.tally.zero_guarantee_admits;
    }
    assert!(total.victims > 0, "{total:?}");
    assert!(total.closing_defers > 0, "{total:?}");
    assert!(total.closed_bypasses > 0, "{total:?}");
    assert!(total.zero_guarantee_admits > 0, "{total:?}");
    assert!(wrapped > 0, "no case wrapped the cursor");
}

/// A 300-tenant Zipf plan (the production shape, scaled down) under a
/// long seeded operation stream: many tenants are needy at once and
/// starvation preempts. The full-state comparison runs every 250 ops.
#[test]
fn zipf_plan_matches_the_reference_model() {
    let mut plan = TenancyPlan::zipf(300, 1.1, 256, 0.6).with_starvation_secs(30.0);
    let jobs = 1500usize;
    let mut rng = RngFactory::new(11).stream("tenancy.differential");
    let ids: Vec<u64> = (0..jobs as u64).collect();
    plan.assign_jobs(&ids, &mut rng);
    let mut pair = Pair::new(&plan, jobs);
    for step in 0..10_000 {
        let op = match rng.gen_range(0..10) {
            0..=4 => Op::Gate {
                pick: rng.gen(),
                cores: rng.gen_range(1..=16),
            },
            5..=7 => Op::Finish { pick: rng.gen() },
            8 => Op::Drain,
            _ => Op::Tick,
        };
        pair.apply(&op, rng.gen_range(0..=5)).expect("models agree");
        if step % 250 == 0 {
            pair.check_state().expect("models agree");
        }
    }
    pair.check_state().expect("models agree");
    assert!(
        pair.tally.victims > 0,
        "the stream exercises starvation preemption"
    );
}

/// Tenant visits per drain while one tenant works and `idle` tenants in
/// the plan have nothing pending.
fn visits_per_drain(idle: u64) -> Vec<u64> {
    // The busy tenant sits mid-plan so the cursor passes it both before
    // and after wrapping.
    let mut plan = TenancyPlan::new(8);
    for id in 0..=idle {
        plan = if id == idle / 2 {
            plan.tenant(TenantSpec::new(id, 1.0, 4, 8))
        } else {
            plan.tenant(TenantSpec::new(id, 1.0, 1, 4))
        };
    }
    for job in 0..24 {
        plan.assign(job, idle / 2);
    }
    let mut fs = FairShare::new(&plan);
    for job in 0..24 {
        fs.gate(job, 2, SimTime::from_secs(job));
    }
    let mut running: Vec<u64> = (0..4).collect();
    let mut visits = Vec::new();
    for step in 0..40 {
        let now = SimTime::from_secs(100 + step);
        if let Some(job) = running.first().copied() {
            running.remove(0);
            fs.release(job);
        }
        let before = fs.tenant_visits();
        running.extend(fs.drain(now).iter().map(|r| r.job));
        visits.push(fs.tenant_visits() - before);
    }
    visits
}

#[test]
fn drain_work_does_not_grow_with_idle_tenants() {
    let small = visits_per_drain(10);
    let large = visits_per_drain(10_000);
    assert!(
        small.iter().any(|&v| v > 0),
        "drains did visit the busy tenant"
    );
    assert_eq!(small, large);
}
