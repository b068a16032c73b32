//! Job placement, packing, retention, queueing and QoS monitoring.
//!
//! The [`Scheduler`] owns all mutable state of a scenario run: the cloud
//! instances it holds, the jobs running on them, the reserved queue, the
//! quality monitor, the dynamic limits and the queueing-time estimator.
//! The [`crate::runner`] drives it with discrete events.
//!
//! Placement follows Section 3.3:
//!
//! * with profiling info, jobs are sized from Quasar estimates and placed
//!   on the candidate instance that minimizes predicted interference
//!   (greedy search);
//! * without profiling info, jobs are sized by error-prone user
//!   reservations and placed least-loaded, interference-oblivious.
//!
//! On-demand instances are retained idle for `retention_mult ×` their
//! spin-up overhead, but only if they delivered predictably high quality;
//! poorly-performing instances are released immediately (Section 3.2).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use hcloud_audit::{AuditViolation, AuditViolationKind, Auditor};
use hcloud_cloud::{AcquireFailure, Cloud, Family, InstanceId, InstanceType};
use hcloud_faults::FaultInjector;
use hcloud_interference::{Resource, ResourceVector};
use hcloud_quasar::{JobEstimate, ProfilingEnvironment, QuasarEngine};
use hcloud_sim::event::EventSink;
use hcloud_sim::rng::{RngFactory, SimRng};
use hcloud_sim::series::StepSeries;
use hcloud_sim::slot::{SlotKey, SlotMap};
use hcloud_sim::{SimDuration, SimTime};
use hcloud_telemetry::{trace_event, ProfSpan, Profiler, TraceKind, Tracer};
use hcloud_tenancy::{FairShare, Gate, Preemption};
use hcloud_workloads::{AppClass, JobId, JobKind, JobSpec, LatencyModel, Scenario};

use crate::config::RunConfig;
use crate::dynamic::DynamicLimits;
use crate::mapping::{MappingContext, Placement};
use crate::monitor::QualityMonitor;
use crate::placement::{InstanceHandle, Placement as PoolMatch, PlacementQuery, SearchPolicy};
use crate::queue_estimator::QueueEstimator;
use crate::result::{
    JobOutcome, PlacementDecision, PlacementReason, RunCounters, RunResult, UtilizationSample,
    WaitSample,
};
use crate::strategy::{PlacementCtx, ProvisioningStrategy, RetentionCtx, RetentionDecision};

/// Discrete events driving the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// The job with this scenario id arrives. Typed: an id the scenario
    /// does not contain fails [`Scheduler::on_arrival`] instead of
    /// silently indexing another job's spec.
    Arrival(JobId),
    /// A job begins executing on its assigned instance.
    Start(JobId),
    /// A job's projected finish; `u64` is the projection version (stale
    /// versions are ignored).
    Finish(JobId, u64),
    /// Periodic monitor tick.
    Tick,
    /// Retention timeout for an instance with token `u64`. The handle is
    /// stale (and the event a no-op) when the instance was released.
    Retention(InstanceHandle, u64),
    /// The spot market outbids an instance: it is terminated and its
    /// jobs must be evacuated.
    SpotTermination(InstanceHandle),
}

/// An arrival for a [`JobId`] this scenario does not contain — the typed
/// failure that replaces silent out-of-bounds indexing on the scheduler's
/// public surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownJob {
    /// The foreign id.
    pub id: JobId,
}

impl std::fmt::Display for UnknownJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} is not part of this scenario", self.id.0)
    }
}

impl std::error::Error for UnknownJob {}

/// One instance as the scheduler sees it.
#[derive(Debug, Clone)]
struct SchedInstance {
    cloud_id: InstanceId,
    itype: InstanceType,
    reserved: bool,
    spot: bool,
    ready_at: SimTime,
    used_cores: u32,
    /// Jobs bound to this instance, in arrival order, each with its slot
    /// in the running-job arena so hot paths (interference sums) reach
    /// job state in O(1) without an id lookup. Kept as a small vector
    /// (not a set): interference sums iterate it in insertion order,
    /// which floating-point addition makes order-bearing.
    jobs: Vec<(JobId, SlotKey)>,
    retention_token: u64,
}

impl SchedInstance {
    fn free_cores(&self) -> u32 {
        debug_assert!(
            self.used_cores <= self.itype.vcpus(),
            "instance {} binds {} cores on {} vCPUs",
            self.cloud_id.raw(),
            self.used_cores,
            self.itype.vcpus()
        );
        self.itype.vcpus().saturating_sub(self.used_cores)
    }
}

/// Measures `now - earlier` with checked arithmetic. A negative span is
/// the silent-underflow class `saturating_since` clamps away (the
/// `detach_job` double-release bug shipped exactly that way), so it is
/// reported as a typed [`AuditViolationKind::TimeInversion`] and then
/// clamped — byte-identical behaviour to the old code on clean runs.
fn audited_since(
    auditor: &Auditor,
    now: SimTime,
    earlier: SimTime,
    job: u64,
    context: &'static str,
) -> SimDuration {
    match now.checked_since(earlier) {
        Some(d) => d,
        None => {
            auditor.report(AuditViolation::new(
                now,
                AuditViolationKind::TimeInversion {
                    job,
                    context,
                    at_us: now.as_micros(),
                    earlier_us: earlier.as_micros(),
                },
            ));
            SimDuration::ZERO
        }
    }
}

/// A job currently assigned to an instance.
#[derive(Debug, Clone)]
struct RunningJob {
    spec_idx: usize,
    instance: InstanceHandle,
    cores: u32,
    started: bool,
    start_at: SimTime,
    queue_delay: SimDuration,
    // Batch progress state.
    remaining_work: f64,
    last_progress: SimTime,
    finish_version: u64,
    // Latency-critical accumulators.
    lat_weighted_sum: f64,
    lat_weight: f64,
    isolation_p99: f64,
    qos_bad_ticks: u32,
    rescheduled: bool,
}

/// The outcome of a pool placement search: an instance that satisfies the
/// job's QoS headroom, and the least-bad alternative when none does.
#[derive(Debug, Clone, Copy, Default)]
struct PoolCandidate {
    acceptable: Option<InstanceHandle>,
    fallback: Option<InstanceHandle>,
}

impl PoolCandidate {
    /// Collapses the pair into the typed search result: an acceptable
    /// instance, or the least-bad fallback flagged as such.
    fn into_match(self) -> Option<PoolMatch> {
        match (self.acceptable, self.fallback) {
            (Some(instance), _) => Some(PoolMatch {
                instance,
                fallback: false,
            }),
            (None, Some(instance)) => Some(PoolMatch {
                instance,
                fallback: true,
            }),
            (None, None) => None,
        }
    }
}

/// A job waiting for reserved capacity.
#[derive(Debug, Clone)]
struct QueuedJob {
    spec_idx: usize,
    cores: u32,
    est_quality: f64,
    est_sensitivity: ResourceVector,
    enqueued: SimTime,
    /// Wait already served before entering this queue (the tenancy
    /// gate); zero in untenanted runs. Added to the realized queue wait
    /// wherever that is credited.
    prior_wait: SimDuration,
    estimated_wait: Option<SimDuration>,
    carry: Option<Carryover>,
}

/// State a preempted job carries into its re-admission, so the new life
/// resumes where the old one checkpointed instead of restarting.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Carryover {
    /// Batch work still owed (as of the last checkpoint tick).
    remaining_work: f64,
    /// Queueing delay already accumulated in previous lives.
    queue_delay: SimDuration,
    /// Highest finish-projection version the old life issued; the new
    /// life must start above it so stale `Finish` events stay stale.
    finish_version: u64,
}

/// Multi-tenant runtime state: the weighted fair-share gate plus the
/// admission specs of jobs currently held behind it, keyed by job id so
/// a DRR drain can re-enter each release into placement with the same
/// estimate it arrived with.
#[derive(Debug)]
struct TenancyState {
    fair: FairShare,
    deferred: BTreeMap<u64, DeferredAdmit>,
}

/// What a tenancy-deferred job needs to resume the admission path once
/// the gate releases it.
#[derive(Debug, Clone)]
struct DeferredAdmit {
    spec_idx: usize,
    est: JobEstimate,
    /// Wait already served before this deferral (reserved queue or a
    /// previous gate pass); the drain adds its own wait on top.
    prior_wait: SimDuration,
    carry: Option<Carryover>,
}

/// The scheduler state for one scenario run.
#[derive(Debug)]
pub struct Scheduler<'a> {
    scenario: &'a Scenario,
    config: &'a RunConfig,
    /// The per-run strategy instance (see
    /// [`ProvisioningStrategy::fresh_run`]). `Option` only so `&mut`
    /// hooks can be called while the scheduler is borrowed: hook sites
    /// `take()` the box, call in, and put it back before returning.
    strategy: Option<Box<dyn ProvisioningStrategy>>,
    cloud: Cloud,
    quasar: Option<QuasarEngine>,
    profiled_classes: Vec<AppClass>,
    monitor: QualityMonitor,
    limits: DynamicLimits,
    queue_est: QueueEstimator,
    mapping_rng: SimRng,
    latency_model: LatencyModel,

    /// All instances ever held, in acquisition order. The arena is
    /// append-only: releasing retires the slot (outstanding handles fail
    /// typed) but never reuses its index, so `InstanceHandle::index` is a
    /// stable telemetry identifier.
    instances: SlotMap<SchedInstance>,
    /// The reserved full-server pool, in provisioning (= index) order.
    /// Fixed for the whole run; reserved instances are never released.
    reserved_handles: Vec<InstanceHandle>,
    /// Live on-demand instances (everything non-reserved still held),
    /// ascending by index — the iteration order of the old full scans.
    live_od: BTreeSet<InstanceHandle>,
    /// Live on-demand *pool* instances (full servers, spot included):
    /// the candidates of the pool placement search and of consolidation.
    od_pool: BTreeSet<InstanceHandle>,
    /// Idle retained on-demand instances, keyed `(family, size, handle)`
    /// so dedicated reuse is an ordered range probe (smallest fitting
    /// size first, then acquisition order) instead of a full scan.
    idle_buckets: BTreeSet<(Family, u32, InstanceHandle)>,
    reserved_total: u32,
    queue: VecDeque<QueuedJob>,
    /// Running-job state lives in an append-only slot arena; instances
    /// hold `(JobId, SlotKey)` pairs for O(1) access on interference hot
    /// paths, and `running_by_id` resolves scenario ids. The id index is
    /// a `BTreeMap` because the tick loop iterates it ascending by id —
    /// an order floating-point accumulation makes order-bearing.
    running: SlotMap<RunningJob>,
    running_by_id: BTreeMap<JobId, SlotKey>,
    /// Scratch buffer for the tick's snapshot of running job ids, kept
    /// across ticks so the per-tick job update allocates nothing.
    tick_jobs: Vec<JobId>,
    /// Scenario job id → index into `scenario.jobs()`, built once at
    /// construction so typed arrivals resolve without trusting raw
    /// indices (`Scenario::from_jobs` permits arbitrary ids).
    job_index: BTreeMap<JobId, usize>,

    outcomes: Vec<JobOutcome>,
    od_allocated: StepSeries,
    reserved_busy: StepSeries,
    wait_samples: Vec<WaitSample>,
    utilization_samples: Vec<UtilizationSample>,
    counters: RunCounters,
    decisions: Vec<PlacementDecision>,
    last_finish: SimTime,
    tracer: Tracer,
    auditor: Auditor,
    /// Per-subsystem profiling spans (placement search, monitor
    /// quantiles); disabled unless `HCLOUD_TRACE` reports spans.
    profiler: Profiler,
    /// Which side of the dynamic limits the last traced decision saw:
    /// 0 below soft, 1 between, 2 above hard. Only consulted when tracing.
    last_band: u8,
    /// Whether the QoS monitor signal is currently dropped out (fault
    /// injection); while `true`, the dynamic policy degrades to the
    /// static soft-limit rule.
    monitor_dropped: bool,
    /// Multi-tenant fair-share admission gate; `None` (no tenant section
    /// in the scenario) keeps every path byte-identical to an untenanted
    /// build — one branch per hook site, the tracer/auditor idiom.
    tenancy: Option<TenancyState>,
}

/// Acquisition attempts before giving up on fault-aware retries and
/// forcing a plain (never-failing) acquisition.
const MAX_ACQUIRE_ATTEMPTS: u32 = 6;

/// Wire names for the utilization bands of a `limit-crossing` event.
const BAND_NAMES: [&str; 3] = ["below-soft", "between-limits", "above-hard"];

impl<'a> Scheduler<'a> {
    /// Builds the scheduler: provisions reserved capacity and seeds the
    /// classification engine. Every instrumented decision (placement,
    /// limit crossings, queueing, QoS actions, instance lifecycle) is
    /// recorded into `tracer`; semantic accounting events (work credited,
    /// cores bound, instance lifecycle) feed `auditor`'s conservation
    /// ledgers; hot-path subsystems attribute their wall clock to
    /// `profiler`'s spans.
    pub fn with_instruments(
        scenario: &'a Scenario,
        config: &'a RunConfig,
        factory: &RngFactory,
        tracer: Tracer,
        auditor: Auditor,
        profiler: Profiler,
    ) -> Self {
        let injector = FaultInjector::new(config.faults.clone(), factory.child("faults"));
        let mut cloud = Cloud::with_instruments(
            config.cloud.clone(),
            factory.child("cloud"),
            tracer.clone(),
            injector,
        );
        let reserved_cores = config.reserved_cores(scenario);
        let reserved_servers =
            (reserved_cores as f64 / InstanceType::full_server().vcpus() as f64).ceil() as usize;
        let reserved_ids = cloud.provision_reserved(reserved_servers, SimTime::ZERO);
        let mut instances = SlotMap::new();
        let reserved_handles: Vec<InstanceHandle> = reserved_ids
            .iter()
            .map(|&id| {
                InstanceHandle::new(instances.insert(SchedInstance {
                    cloud_id: id,
                    itype: InstanceType::full_server(),
                    reserved: true,
                    spot: false,
                    ready_at: SimTime::ZERO,
                    used_cores: 0,
                    jobs: Vec::new(),
                    retention_token: 0,
                }))
            })
            .collect();
        for &id in &reserved_ids {
            auditor.instance_acquired(SimTime::ZERO, id.raw(), InstanceType::full_server().vcpus());
        }
        let quasar = config
            .profiling
            .then(|| QuasarEngine::new(config.quasar.clone(), &factory.child("quasar")));
        let job_index: BTreeMap<JobId, usize> = scenario
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, spec)| (spec.id, i))
            .collect();
        Scheduler {
            scenario,
            config,
            strategy: Some(config.strategy.fresh_run()),
            cloud,
            quasar,
            profiled_classes: Vec::new(),
            monitor: QualityMonitor::default(),
            limits: match config.dynamic_limits {
                Some((soft, hard)) => DynamicLimits::new(soft, hard),
                None => DynamicLimits::default(),
            },
            queue_est: QueueEstimator::default(),
            mapping_rng: factory.stream("scheduler.mapping"),
            latency_model: scenario.config().latency_model,
            instances,
            reserved_handles,
            live_od: BTreeSet::new(),
            od_pool: BTreeSet::new(),
            idle_buckets: BTreeSet::new(),
            reserved_total: (reserved_servers as u32) * InstanceType::full_server().vcpus(),
            queue: VecDeque::new(),
            running: SlotMap::new(),
            running_by_id: BTreeMap::new(),
            tick_jobs: Vec::new(),
            job_index,
            outcomes: Vec::new(),
            od_allocated: StepSeries::new(0.0),
            reserved_busy: StepSeries::new(0.0),
            wait_samples: Vec::new(),
            utilization_samples: Vec::new(),
            counters: RunCounters::default(),
            decisions: Vec::new(),
            last_finish: SimTime::ZERO,
            tracer,
            auditor,
            profiler,
            last_band: 0,
            monitor_dropped: false,
            tenancy: scenario.tenancy().map(|plan| TenancyState {
                fair: FairShare::new(plan),
                deferred: BTreeMap::new(),
            }),
        }
    }

    /// Reserved cores provisioned.
    pub fn reserved_cores(&self) -> u32 {
        self.reserved_total
    }

    /// The per-run strategy instance, for immutable hook queries
    /// (flags). `&mut` hooks take/put the box instead.
    fn strat(&self) -> &dyn ProvisioningStrategy {
        self.strategy
            .as_deref()
            .expect("strategy present outside hook calls")
    }

    /// Jobs still running, queued, or held at the tenancy gate. Keeping
    /// deferred jobs in this count keeps the runner's monitor tick alive
    /// until the DRR drain has released every one of them.
    pub fn pending_jobs(&self) -> usize {
        self.running_by_id.len()
            + self.queue.len()
            + self.tenancy.as_ref().map_or(0, |ts| ts.deferred.len())
    }

    // ------------------------------------------------------------------
    // Instance arena & index bookkeeping
    // ------------------------------------------------------------------

    /// The live instance behind `h`. Internal call sites only hold
    /// handles to live instances; a stale handle here is a logic error.
    fn inst(&self, h: InstanceHandle) -> &SchedInstance {
        self.instances.get(h.key()).expect("live instance handle")
    }

    /// Mutable access to the live instance behind `h`.
    fn inst_mut(&mut self, h: InstanceHandle) -> &mut SchedInstance {
        self.instances
            .get_mut(h.key())
            .expect("live instance handle")
    }

    /// The running job with scenario id `jid`, if any.
    fn running_job(&self, jid: JobId) -> Option<&RunningJob> {
        let &key = self.running_by_id.get(&jid)?;
        Some(self.running.get(key).expect("id-index entry is live"))
    }

    /// Mutable access to the running job with scenario id `jid`.
    fn running_job_mut(&mut self, jid: JobId) -> Option<&mut RunningJob> {
        let &key = self.running_by_id.get(&jid)?;
        Some(self.running.get_mut(key).expect("id-index entry is live"))
    }

    /// Removes `jid` from the running set, retiring its arena slot so any
    /// key still held for it (e.g. in an instance's job list) fails typed.
    fn remove_running(&mut self, jid: JobId) -> Option<RunningJob> {
        let key = self.running_by_id.remove(&jid)?;
        let job = self
            .running
            .get(key)
            .expect("id-index entry is live")
            .clone();
        self.running.retire(key).expect("id-index entry is live");
        Some(job)
    }

    /// Binds `jid` (living in arena slot `key`) to `h`, charging `cores`,
    /// and keeps the idle-retention index in sync: an idle instance that
    /// takes a job leaves it.
    fn attach_job(
        &mut self,
        h: InstanceHandle,
        jid: JobId,
        key: SlotKey,
        cores: u32,
        now: SimTime,
    ) {
        let inst = self
            .instances
            .get_mut(h.key())
            .expect("attach to live instance");
        inst.used_cores += cores;
        inst.jobs.push((jid, key));
        let od = !inst.reserved;
        let cloud_id = inst.cloud_id.raw();
        let bucket = (inst.itype.family(), inst.itype.vcpus(), h);
        self.auditor.cores_bound(now, cloud_id, cores);
        if od && self.idle_buckets.remove(&bucket) {
            self.counters.index_rebuilds += 1;
        }
    }

    /// Unbinds `jid` from `h`, freeing `cores`. Returns `true` when the
    /// instance is left empty; the caller then decides between retention
    /// (which re-enters the idle index) and release.
    ///
    /// Freeing more cores than are bound is a conservation bug (e.g. a
    /// double unbind): it is reported as a typed [`AuditViolation`]
    /// instead of being silently clamped by saturating arithmetic.
    fn detach_job(
        &mut self,
        h: InstanceHandle,
        jid: JobId,
        cores: u32,
        now: SimTime,
    ) -> Result<bool, AuditViolation> {
        let inst = self
            .instances
            .get_mut(h.key())
            .expect("detach from live instance");
        let Some(remaining) = inst.used_cores.checked_sub(cores) else {
            let violation = AuditViolation::new(
                now,
                AuditViolationKind::CoreUnderflow {
                    instance: inst.cloud_id.raw(),
                    bound: inst.used_cores,
                    unbind: cores,
                },
            );
            self.auditor.report(violation.clone());
            return Err(violation);
        };
        inst.used_cores = remaining;
        inst.jobs.retain(|&(j, _)| j != jid);
        let empty = inst.jobs.is_empty();
        let cloud_id = inst.cloud_id.raw();
        self.auditor.cores_unbound(now, cloud_id, cores);
        Ok(empty)
    }

    // ------------------------------------------------------------------
    // Estimation
    // ------------------------------------------------------------------

    /// Estimates a job's needs: Quasar when profiling info is on,
    /// user-reservation defaults otherwise.
    fn estimate(&mut self, spec: &JobSpec) -> JobEstimate {
        // Profiling on small shared instances (the only kind OdM holds)
        // yields noisier signals.
        let noisy = self.strat().profiles_noisily();
        match self.quasar.as_mut() {
            Some(engine) => {
                if !self.profiled_classes.contains(&spec.class) {
                    self.profiled_classes.push(spec.class);
                    self.counters.profiled += 1;
                }
                self.counters.classified += 1;
                let env = if noisy {
                    ProfilingEnvironment::noisy()
                } else {
                    ProfilingEnvironment::clean()
                };
                let mut est = engine.estimate(spec, &env);
                est.cores = est.cores.clamp(1, 16);
                est
            }
            None => JobEstimate {
                sensitivity: ResourceVector::ZERO,
                quality: 0.0,
                cores: spec.user_sized_cores().clamp(1, 16),
            },
        }
    }

    // ------------------------------------------------------------------
    // Arrival & placement
    // ------------------------------------------------------------------

    /// Handles a job arrival, resolving the typed scenario id. An id the
    /// scenario does not contain fails with [`UnknownJob`] instead of
    /// silently indexing another job's spec.
    pub fn on_arrival(
        &mut self,
        id: JobId,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), UnknownJob> {
        let &idx = self.job_index.get(&id).ok_or(UnknownJob { id })?;
        let est = self.estimate(&self.scenario.jobs()[idx]);
        if self.auditor.is_enabled() {
            let spec = &self.scenario.jobs()[idx];
            let demanded = match spec.kind {
                JobKind::Batch { work_core_secs } => work_core_secs,
                JobKind::LatencyCritical { .. } => 0.0,
            };
            self.auditor.job_admitted(now, spec.id.0, demanded);
            if self.tenancy.is_some() {
                let tenant = self.tenant_of(spec.id);
                self.auditor
                    .tenant_job_admitted(now, tenant, spec.id.0, demanded);
            }
        }
        self.admit(idx, &est, now, SimDuration::ZERO, None, events);
        Ok(())
    }

    /// The tenant a job is assigned to under the active tenancy plan
    /// (`None` when tenancy is off or the job is unassigned).
    fn tenant_of(&self, jid: JobId) -> Option<u64> {
        self.tenancy
            .as_ref()
            .and_then(|ts| ts.fair.tenant_of(jid.0))
            .map(|t| t.0)
    }

    /// The single admission path: every job — fresh arrival, preemption
    /// victim being requeued, or tenancy-gate release — goes through the
    /// same gate, placement decision, tracing and dispatch. `carry` is
    /// `Some` for re-admissions; `wait` is delay already served outside
    /// the reserved queue (the tenancy gate) that must ride into the
    /// job's queue-delay accounting.
    fn admit(
        &mut self,
        idx: usize,
        est: &JobEstimate,
        now: SimTime,
        wait: SimDuration,
        carry: Option<Carryover>,
        events: &mut impl EventSink<Event>,
    ) {
        if self.gate_tenancy(idx, est, now, wait, carry) {
            return;
        }
        self.admit_placed(idx, est, now, wait, carry, events);
    }

    /// Tenancy gate in front of placement. Returns `true` when the job
    /// was deferred into its tenant queue — no placement happens now; a
    /// later [`Self::drain_tenancy`] re-admits it. One branch when
    /// tenancy is off.
    fn gate_tenancy(
        &mut self,
        idx: usize,
        est: &JobEstimate,
        now: SimTime,
        wait: SimDuration,
        carry: Option<Carryover>,
    ) -> bool {
        let Some(ts) = self.tenancy.as_mut() else {
            return false;
        };
        let jid = self.scenario.jobs()[idx].id;
        match ts.fair.gate(jid.0, est.cores, now) {
            Gate::Bypass => false,
            Gate::Admit { borrowed, .. } => {
                if borrowed {
                    self.counters.tenant_borrowed_admissions += 1;
                }
                false
            }
            Gate::Defer { tenant, depth } => {
                self.counters.tenant_deferred_jobs += 1;
                ts.deferred.insert(
                    jid.0,
                    DeferredAdmit {
                        spec_idx: idx,
                        est: est.clone(),
                        prior_wait: wait,
                        carry,
                    },
                );
                trace_event!(
                    self.tracer,
                    now,
                    TraceKind::TenantDefer {
                        job: jid.0,
                        tenant: tenant.0,
                        depth,
                    }
                );
                true
            }
        }
    }

    /// Releases whatever the fair-share gate can now admit (guarantees
    /// first in DRR order, then elastic borrowing of the idle remainder)
    /// and re-enters each released job into placement, crediting the
    /// time it waited behind the gate as queue delay.
    fn drain_tenancy(&mut self, now: SimTime, events: &mut impl EventSink<Event>) {
        let Some(ts) = self.tenancy.as_mut() else {
            return;
        };
        let released = ts.fair.drain(now);
        if released.is_empty() {
            return;
        }
        let mut admits = Vec::with_capacity(released.len());
        for r in released {
            let d = ts
                .deferred
                .remove(&r.job)
                .expect("released job was deferred");
            admits.push((r, d));
        }
        for (r, d) in admits {
            if r.borrowed {
                self.counters.tenant_borrowed_admissions += 1;
            }
            self.counters.tenant_drained_jobs += 1;
            trace_event!(
                self.tracer,
                now,
                TraceKind::TenantRelease {
                    job: r.job,
                    tenant: r.tenant.0,
                    waited_us: r.waited.as_micros(),
                    borrowed: r.borrowed,
                }
            );
            self.admit_placed(
                d.spec_idx,
                &d.est,
                now,
                d.prior_wait + r.waited,
                d.carry,
                events,
            );
        }
    }

    /// Placement and dispatch for an admitted job (the pre-tenancy body
    /// of `admit`; the gate never re-enters here).
    #[allow(clippy::too_many_arguments)]
    fn admit_placed(
        &mut self,
        idx: usize,
        est: &JobEstimate,
        now: SimTime,
        wait: SimDuration,
        carry: Option<Carryover>,
        events: &mut impl EventSink<Event>,
    ) {
        let spec = &self.scenario.jobs()[idx];
        let class = spec.class;
        let mut placement = self.decide_placement(idx, est, now);
        let mut data_override = false;
        // Data-aware mitigation: when the transfer would dominate the
        // job, prefer the side where the data lives (if the policy's
        // choice disagrees and the job can run there).
        if let Some(data) = self.config.data {
            if data.data_aware_placement && self.strat().is_hybrid() {
                let spec = &self.scenario.jobs()[idx];
                let transfer = data.transfer_delay(spec.dataset_gb());
                let heavy = transfer.as_secs_f64() > 0.25 * spec.ideal_duration().as_secs_f64();
                if heavy {
                    let private = data.data_in_private(spec.id.0);
                    let before = placement;
                    placement = match (placement, private) {
                        // Data in the private facility: pull back to
                        // reserved while below the hard limit.
                        (Placement::OnDemand, true)
                            if self.reserved_utilization() < self.limits.hard() =>
                        {
                            Placement::Reserved
                        }
                        // Data in the cloud: don't drag it into the
                        // private facility for a tolerant job.
                        (Placement::Reserved, false) if est.quality < 0.8 => Placement::OnDemand,
                        (p, _) => p,
                    };
                    data_override = placement != before;
                }
            }
        }
        if self.config.record_decisions || self.tracer.is_enabled() {
            let spot = placement == Placement::OnDemand
                && carry.is_none()
                && self.spot_eligible(&self.scenario.jobs()[idx], est);
            let util = self.reserved_utilization();
            let reason = if data_override {
                PlacementReason::DataLocality
            } else if spot {
                PlacementReason::Spot
            } else if self.strat().is_hybrid()
                && self.config.policy == crate::mapping::MappingPolicy::Dynamic
            {
                match placement {
                    Placement::Reserved if util < self.limits.soft() => {
                        PlacementReason::BelowSoftLimit
                    }
                    Placement::Reserved => PlacementReason::QualityNeedsReserved,
                    Placement::OnDemand => PlacementReason::OnDemandGoodEnough,
                    Placement::Queue => PlacementReason::QueuedAtHardLimit,
                    Placement::OnDemandLarge => PlacementReason::EscapedToLargeOnDemand,
                }
            } else {
                PlacementReason::FixedByStrategy
            };
            if self.config.record_decisions {
                self.decisions.push(PlacementDecision {
                    job: self.scenario.jobs()[idx].id,
                    at: now,
                    estimated_quality: est.quality,
                    reserved_utilization: util,
                    reason,
                });
            }
            if self.tracer.is_enabled() {
                // The Q90-vs-QT comparison the dynamic policy makes: Q90 of
                // the on-demand type this job would get, against the job's
                // quality target. NaN (=> null) when no monitor is consulted.
                let q90 = if self.strat().is_hybrid() {
                    let spec = &self.scenario.jobs()[idx];
                    self.monitor.q90(self.od_itype_for(est, spec.class))
                } else {
                    f64::NAN
                };
                self.tracer.record(
                    now,
                    TraceKind::Decision {
                        job: self.scenario.jobs()[idx].id.0,
                        placement: match placement {
                            Placement::Reserved => "reserved",
                            Placement::OnDemand => "on-demand",
                            Placement::OnDemandLarge => "on-demand-large",
                            Placement::Queue => "queue",
                        },
                        reason: reason.to_string(),
                        quality_target: est.quality,
                        utilization: util,
                        q90,
                    },
                );
                let band = if util < self.limits.soft() {
                    0
                } else if util < self.limits.hard() {
                    1
                } else {
                    2
                };
                if band != self.last_band {
                    self.tracer.record(
                        now,
                        TraceKind::LimitCrossing {
                            from: BAND_NAMES[self.last_band as usize],
                            to: BAND_NAMES[band as usize],
                            utilization: util,
                            soft: self.limits.soft(),
                            hard: self.limits.hard(),
                        },
                    );
                    self.last_band = band;
                }
            }
        }
        match placement {
            Placement::Reserved => {
                if !self.try_place_reserved(idx, est, now, wait, carry, events) {
                    self.enqueue(idx, est, now, wait, carry);
                }
            }
            Placement::OnDemand => {
                // Full-only strategies pool full servers; strategies
                // that never buy on-demand (SR) fall back to the pool
                // path too when QoS actions force an acquisition.
                if self.strat().on_demand_full_only() || !self.strat().uses_on_demand() {
                    self.place_od_pool(idx, est, now, wait, carry, events);
                } else {
                    self.place_od_dedicated(idx, est, class, now, wait, carry, events);
                }
            }
            Placement::OnDemandLarge => {
                self.place_od_pool(idx, est, now, wait, carry, events);
            }
            Placement::Queue => {
                self.enqueue(idx, est, now, wait, carry);
            }
        }
    }

    /// Decides between reserved and on-demand via the strategy's
    /// placement hook.
    fn decide_placement(&mut self, idx: usize, est: &JobEstimate, now: SimTime) -> Placement {
        let spec = &self.scenario.jobs()[idx];
        let od_itype = self.od_itype_for(est, spec.class);
        // Graceful degradation: while the QoS monitor signal is dropped
        // out, the dynamic policy cannot trust its Q90 data, so it
        // falls back to the static soft-limit rule.
        let policy = if self.monitor_dropped
            && self.config.policy == crate::mapping::MappingPolicy::Dynamic
        {
            crate::mapping::MappingPolicy::UtilizationLimit(self.limits.soft())
        } else {
            self.config.policy
        };
        let mut strategy = self.strategy.take().expect("strategy present");
        let ctx = PlacementCtx {
            mapping: MappingContext {
                reserved_utilization: self.reserved_utilization(),
                job_quality: est.quality,
                od_itype,
                job_cores: est.cores,
                queue_len: self.queue.len(),
                expected_spinup_large: self
                    .config
                    .cloud
                    .spin_up
                    .expected(InstanceType::full_server()),
                monitor: &self.monitor,
                limits: &self.limits,
                queue_estimator: &self.queue_est,
                now,
            },
            policy,
            reserved_cores: self.reserved_total,
        };
        let placement = strategy.place(&ctx, &mut self.mapping_rng);
        self.strategy = Some(strategy);
        placement
    }

    /// The on-demand instance type this job would be offered: a full
    /// server for full-only strategies, a per-job-sized instance otherwise.
    fn od_itype_for(&self, est: &JobEstimate, class: AppClass) -> InstanceType {
        if self.strat().on_demand_full_only() {
            InstanceType::full_server()
        } else {
            self.dedicated_itype(est, class)
        }
    }

    /// Current reserved-pool utilization.
    pub fn reserved_utilization(&self) -> f64 {
        if self.reserved_total == 0 {
            return 1.0;
        }
        self.reserved_busy.last_value() / self.reserved_total as f64
    }

    /// Attempts to place a job on the reserved pool. Returns `false` when
    /// no reserved instance has enough free cores.
    fn try_place_reserved(
        &mut self,
        idx: usize,
        est: &JobEstimate,
        now: SimTime,
        queue_delay: SimDuration,
        carry: Option<Carryover>,
        events: &mut impl EventSink<Event>,
    ) -> bool {
        let query = PlacementQuery {
            family: Family::Standard,
            min_cores: est.cores,
            policy: SearchPolicy::ReservedPool {
                sensitivity: est.sensitivity,
                quality: est.quality,
            },
        };
        // The reserved pool accepts fallbacks: a degraded placement beats
        // queueing behind the hard limit.
        match self.find_placement(&query, now) {
            Some(m) => {
                self.assign(idx, est, m.instance, now, queue_delay, carry, events);
                true
            }
            None => false,
        }
    }

    /// The single placement-search front door: every policy (P1–P8 and
    /// any future one) routes through here, so placement always answers
    /// from the maintained indices — see [`crate::placement`].
    ///
    /// Being the single front door also makes it the natural profiling
    /// boundary: with spans enabled, every placement search attributes
    /// its wall clock to [`ProfSpan::FindPlacement`].
    pub fn find_placement(&mut self, query: &PlacementQuery, now: SimTime) -> Option<PoolMatch> {
        if self.profiler.is_enabled() {
            let profiler = self.profiler.clone();
            profiler.time(ProfSpan::FindPlacement, || {
                self.find_placement_inner(query, now)
            })
        } else {
            self.find_placement_inner(query, now)
        }
    }

    fn find_placement_inner(&mut self, query: &PlacementQuery, now: SimTime) -> Option<PoolMatch> {
        match query.policy {
            SearchPolicy::ReservedPool {
                sensitivity,
                quality,
            } => self
                .best_pool_instance(true, query.min_cores, &sensitivity, quality, now)
                .into_match(),
            SearchPolicy::OnDemandPool {
                sensitivity,
                quality,
            } => {
                let found = self
                    .best_pool_instance(false, query.min_cores, &sensitivity, quality, now)
                    .into_match();
                if matches!(found, Some(m) if !m.fallback) {
                    self.counters.placement_fastpath += 1;
                }
                found
            }
            SearchPolicy::IdleDedicated {
                spot_ok,
                min_quality,
            } => {
                let h = self.find_idle_dedicated(
                    query.family,
                    query.min_cores,
                    spot_ok,
                    min_quality,
                    now,
                )?;
                self.counters.placement_fastpath += 1;
                Some(PoolMatch {
                    instance: h,
                    fallback: false,
                })
            }
        }
    }

    /// The greedy search of Section 3.3 over a pool of full-server
    /// instances (reserved pool or on-demand pool).
    ///
    /// With profiling info the search is QoS-aware and consolidating:
    /// among instances whose predicted interference still satisfies the
    /// job (more-sensitive jobs accept less), pick the most loaded — so
    /// load dips leave whole instances idle and releasable. If no
    /// instance is acceptable, fall back to the least-interfering one.
    /// Without profiling info, placement is least-loaded and oblivious.
    fn best_pool_instance(
        &self,
        reserved: bool,
        cores: u32,
        sensitivity: &ResourceVector,
        quality: f64,
        now: SimTime,
    ) -> PoolCandidate {
        let mut acceptable: Option<(InstanceHandle, u32)> = None; // most loaded
        let mut fallback: Option<(InstanceHandle, f64)> = None; // min slowdown
        let mut least_loaded: Option<(InstanceHandle, u32)> = None;
        // A sensitive job (high Q) tolerates little predicted slowdown; a
        // tolerant one accepts more.
        let headroom = 1.0 + 0.6 * (1.0 - quality).max(0.08);
        // The candidate pool is an index now, not a scan over every
        // instance ever acquired: the fixed reserved prefix, or the live
        // on-demand pool set. Both iterate ascending by index — the
        // visit order of the old full scan, so ties break identically.
        let mut consider = |h: InstanceHandle| {
            let inst = self.inst(h);
            debug_assert_eq!(inst.reserved, reserved, "pool index invariant");
            debug_assert!(inst.itype.is_full_server(), "pool index invariant");
            if inst.spot || inst.free_cores() < cores {
                return;
            }
            // On-demand pool instances keep ~2 cores of headroom to absorb
            // unpredictability (the overprovisioning the paper attributes
            // to OdF/HF "only requesting the largest instances").
            if !reserved && inst.used_cores + cores > inst.itype.vcpus().saturating_sub(2) {
                return;
            }
            if !self.config.profiling {
                if least_loaded.is_none_or(|(_, u)| inst.used_cores < u) {
                    least_loaded = Some((h, inst.used_cores));
                }
                return;
            }
            let mut pressure = self.internal_pressure(h, None);
            if !reserved {
                pressure = pressure.add(&self.cloud.external_pressure(inst.cloud_id, now));
            }
            let slowdown = self.cloud.slowdown_model().slowdown(sensitivity, &pressure);
            if slowdown <= headroom {
                if acceptable.is_none_or(|(_, u)| inst.used_cores > u) {
                    acceptable = Some((h, inst.used_cores));
                }
            } else if fallback.is_none_or(|(_, s)| slowdown < s) {
                fallback = Some((h, slowdown));
            }
        };
        if reserved {
            for &h in &self.reserved_handles {
                consider(h);
            }
        } else {
            for &h in &self.od_pool {
                consider(h);
            }
        }
        if !self.config.profiling {
            return PoolCandidate {
                acceptable: least_loaded.map(|(i, _)| i),
                fallback: None,
            };
        }
        PoolCandidate {
            acceptable: acceptable.map(|(i, _)| i),
            fallback: fallback.map(|(i, _)| i),
        }
    }

    /// Places a job on the on-demand full-server pool, packing onto an
    /// existing instance when possible. `queue_delay` is the waiting
    /// interval the job just finished serving (non-zero when arriving
    /// here from the starvation-relief path), so it is credited to the
    /// job rather than dropped.
    fn place_od_pool(
        &mut self,
        idx: usize,
        est: &JobEstimate,
        now: SimTime,
        queue_delay: SimDuration,
        carry: Option<Carryover>,
        events: &mut impl EventSink<Event>,
    ) {
        // Pack onto an acceptable existing pool instance; acquire a fresh
        // one rather than degrade the job on an unacceptable instance.
        let query = PlacementQuery {
            family: Family::Standard,
            min_cores: est.cores,
            policy: SearchPolicy::OnDemandPool {
                sensitivity: est.sensitivity,
                quality: est.quality,
            },
        };
        let inst = match self.find_placement(&query, now) {
            Some(m) if !m.fallback => m.instance,
            _ => self.acquire(InstanceType::full_server(), now),
        };
        self.assign(idx, est, inst, now, queue_delay, carry, events);
    }

    /// The instance type a mixed-size strategy requests for this job:
    /// smallest fitting size, family matched to the dominant estimated
    /// sensitivity (Section 3.3: "standard, compute- or memory-optimized").
    fn dedicated_itype(&self, est: &JobEstimate, _class: AppClass) -> InstanceType {
        let size = InstanceType::smallest_fitting(est.cores).unwrap_or(16);
        if !self.config.profiling {
            return InstanceType::new(Family::Standard, size);
        }
        let s = &est.sensitivity;
        let mem = s
            .get(Resource::MemCapacity)
            .max(s.get(Resource::MemBandwidth));
        let cpu = s.get(Resource::Cpu);
        let family = if mem > 0.6 && mem > cpu {
            Family::MemoryOptimized
        } else if cpu > 0.6 && cpu > mem {
            Family::ComputeOptimized
        } else {
            Family::Standard
        };
        InstanceType::new(family, size)
    }

    /// Places a job on a per-job-sized on-demand instance, reusing an
    /// idle retained instance of the same type when one exists.
    /// `queue_delay` is wait already served (tenancy gate), credited to
    /// the job rather than dropped.
    #[allow(clippy::too_many_arguments)]
    fn place_od_dedicated(
        &mut self,
        idx: usize,
        est: &JobEstimate,
        class: AppClass,
        now: SimTime,
        queue_delay: SimDuration,
        carry: Option<Carryover>,
        events: &mut impl EventSink<Event>,
    ) {
        let itype = self.dedicated_itype(est, class);
        // Preemption victims never ride spot again: re-admitting them onto
        // another doomed instance at the same instant would loop forever.
        let spot_ok = carry.is_none() && self.spot_eligible(&self.scenario.jobs()[idx], est);
        // Hybrids: free cores on an already-held full-server on-demand
        // instance (e.g. one acquired by the hard-limit escape hatch) are
        // paid for whether used or not, and deliver full-server quality;
        // fill them first. OdM has no such pool — the paper's OdM
        // requests the smallest instance per job.
        if self.strat().is_hybrid() {
            let query = PlacementQuery {
                family: Family::Standard,
                min_cores: est.cores,
                policy: SearchPolicy::OnDemandPool {
                    sensitivity: est.sensitivity,
                    quality: est.quality,
                },
            };
            if let Some(m) = self.find_placement(&query, now) {
                if !m.fallback {
                    self.assign(idx, est, m.instance, now, queue_delay, carry, events);
                    return;
                }
            }
        }
        // Reuse an idle retained instance of the same family whose size
        // fits without gross waste (up to 2× the requested size), smallest
        // first — but only if it currently delivers the quality the job
        // needs (Section 3.3: match "the resource capabilities of
        // instances to the interference requirements of a job").
        let reuse_query = PlacementQuery {
            family: itype.family(),
            min_cores: itype.vcpus(),
            policy: SearchPolicy::IdleDedicated {
                spot_ok,
                min_quality: est.quality * 0.9,
            },
        };
        let inst = match self.find_placement(&reuse_query, now) {
            Some(m) => m.instance,
            None if spot_ok => {
                let bid = self
                    .config
                    .spot
                    .expect("spot_eligible checked")
                    .bid_multiplier;
                self.acquire_spot(itype, bid, now, events)
            }
            None => self.acquire(itype, now),
        };
        self.assign(idx, est, inst, now, queue_delay, carry, events);
    }

    /// The idle-retention reuse search: an ordered range probe over the
    /// `(family, size, handle)` index, so the first eligible hit is the
    /// smallest fitting size in acquisition order — the same instance the
    /// old `min_by_key` full scan chose.
    fn find_idle_dedicated(
        &self,
        family: Family,
        vcpus: u32,
        spot_ok: bool,
        min_quality: f64,
        now: SimTime,
    ) -> Option<InstanceHandle> {
        let margin = SimDuration::from_mins(2);
        let lo = (family, vcpus, InstanceHandle::MIN);
        let hi = (family, vcpus * 2, InstanceHandle::MAX);
        for &(_, _, h) in self.idle_buckets.range(lo..=hi) {
            let inst = self.inst(h);
            debug_assert!(
                !inst.reserved && inst.jobs.is_empty(),
                "idle index invariant"
            );
            if inst.ready_at > now {
                continue;
            }
            // Spot instances only host spot-tolerant jobs, and only while
            // the market is not about to reclaim them.
            if inst.spot
                && !(spot_ok
                    && self
                        .cloud
                        .instance(inst.cloud_id)
                        .terminates_at()
                        .is_none_or(|t| t > now + margin))
            {
                continue;
            }
            if self.config.profiling
                && self.cloud.delivered_quality(inst.cloud_id, now) < min_quality
            {
                continue;
            }
            return Some(h);
        }
        None
    }

    /// Acquires a fresh on-demand instance, retrying with exponential
    /// backoff when fault injection makes the attempt fail. Repeated
    /// failures on an optimized family fall back to the widely-available
    /// standard family; after [`MAX_ACQUIRE_ATTEMPTS`] the acquisition is
    /// forced through the never-failing path so placement always
    /// terminates. Without an active fault plan the first attempt always
    /// succeeds and this is identical to a plain acquisition.
    fn acquire(&mut self, itype: InstanceType, now: SimTime) -> InstanceHandle {
        let mut itype = itype;
        // Failed attempts push the instance's effective request time out:
        // the caller only learns about the failure after waiting for it.
        let mut delay = SimDuration::ZERO;
        let mut acquired = None;
        for attempt in 0..MAX_ACQUIRE_ATTEMPTS {
            match self.cloud.try_acquire(itype, now + delay) {
                Ok(id) => {
                    acquired = Some(id);
                    break;
                }
                Err(failure) => {
                    self.counters.acquire_retries += 1;
                    match failure {
                        AcquireFailure::OutOfCapacity => {
                            self.counters.capacity_errors += 1;
                            trace_event!(
                                self.tracer,
                                now + delay,
                                TraceKind::FaultOutOfCapacity {
                                    vcpus: itype.vcpus(),
                                    attempt,
                                }
                            );
                        }
                        AcquireFailure::SpinUpTimeout { waited } => {
                            self.counters.spinup_timeouts += 1;
                            trace_event!(
                                self.tracer,
                                now + delay,
                                TraceKind::FaultSpinUpTimeout {
                                    vcpus: itype.vcpus(),
                                    attempt,
                                    waited_us: waited.as_micros(),
                                }
                            );
                            delay += waited;
                        }
                    }
                    let backoff = SimDuration::from_secs_f64(2.0 * 2f64.powi(attempt as i32));
                    delay += backoff;
                    trace_event!(
                        self.tracer,
                        now + delay,
                        TraceKind::RecoveryRetry {
                            attempt,
                            backoff_us: backoff.as_micros(),
                        }
                    );
                    // Two strikes on an optimized family: assume the
                    // shortage is family-specific and fall back.
                    if attempt >= 1 && itype.family() != Family::Standard {
                        itype = InstanceType::standard(itype.vcpus());
                        self.counters.family_fallbacks += 1;
                        trace_event!(
                            self.tracer,
                            now + delay,
                            TraceKind::RecoveryFamilyFallback {
                                vcpus: itype.vcpus(),
                            }
                        );
                    }
                }
            }
        }
        let id = acquired.unwrap_or_else(|| self.cloud.acquire(itype, now + delay));
        let ready_at = self.cloud.instance(id).ready_at();
        self.counters.od_acquired += 1;
        if self.cloud.instance(id).performance_fault().is_some() {
            self.counters.degraded_instances += 1;
        }
        self.od_allocated.record_delta(now, itype.vcpus() as f64);
        self.track_od_instance(
            SchedInstance {
                cloud_id: id,
                itype,
                reserved: false,
                spot: false,
                ready_at,
                used_cores: 0,
                jobs: Vec::new(),
                retention_token: 0,
            },
            itype,
        )
    }

    /// Registers a freshly acquired on-demand instance in the arena and
    /// the secondary indices.
    fn track_od_instance(&mut self, inst: SchedInstance, itype: InstanceType) -> InstanceHandle {
        if self.auditor.is_enabled() {
            // Ledger acquisition time must match what the provider bills
            // from: the (possibly retry-delayed) request time, not `now`.
            let requested = self.cloud.instance(inst.cloud_id).requested_at();
            if inst.spot {
                self.auditor
                    .instance_acquired_spot(requested, inst.cloud_id.raw(), itype.vcpus());
            } else {
                self.auditor
                    .instance_acquired(requested, inst.cloud_id.raw(), itype.vcpus());
            }
        }
        let h = InstanceHandle::new(self.instances.insert(inst));
        self.live_od.insert(h);
        if itype.is_full_server() {
            self.od_pool.insert(h);
        }
        self.counters.index_rebuilds += 1;
        h
    }

    /// Acquires a fresh spot instance and schedules its market
    /// termination (if the price path outbids it within the horizon).
    fn acquire_spot(
        &mut self,
        itype: InstanceType,
        bid: f64,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> InstanceHandle {
        let id = self.cloud.acquire_spot(itype, bid, now);
        let inst = self.cloud.instance(id);
        let ready_at = inst.ready_at();
        let terminates_at = inst.terminates_at();
        self.counters.spot_acquired += 1;
        if inst.performance_fault().is_some() {
            self.counters.degraded_instances += 1;
        }
        self.od_allocated.record_delta(now, itype.vcpus() as f64);
        let h = self.track_od_instance(
            SchedInstance {
                cloud_id: id,
                itype,
                reserved: false,
                spot: true,
                ready_at,
                used_cores: 0,
                jobs: Vec::new(),
                retention_token: 0,
            },
            itype,
        );
        trace_event!(
            self.tracer,
            now,
            TraceKind::SpotAcquired {
                instance: id.raw(),
                bid_multiplier: bid,
                terminates_us: terminates_at.map(|t| t.as_micros()),
            }
        );
        if let Some(t) = terminates_at {
            events.schedule(t.max(now), Event::SpotTermination(h));
        }
        h
    }

    /// Whether a job is eligible for spot capacity under the configured
    /// policy: a tolerant, non-latency-critical batch job.
    fn spot_eligible(&self, spec: &JobSpec, est: &JobEstimate) -> bool {
        match self.config.spot {
            Some(policy) => {
                self.strat().is_hybrid()
                    && self.config.profiling
                    && !spec.class.is_latency_metric()
                    && !spec.class.is_sensitive()
                    && est.quality <= policy.max_quality
            }
            None => false,
        }
    }

    /// The spot market (or an injected preemption storm) outbid an
    /// instance: release it and requeue its jobs through the regular
    /// admission path, carrying their remaining work (progress since the
    /// last monitor tick is lost — the checkpointing granularity).
    pub fn on_spot_termination(
        &mut self,
        h: InstanceHandle,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        // A stale handle means the instance was already released (e.g.
        // drained by consolidation before the market event fired).
        let Ok(inst) = self.instances.get(h.key()) else {
            return Ok(());
        };
        let victims: Vec<(JobId, SlotKey)> = inst.jobs.clone();
        trace_event!(
            self.tracer,
            now,
            TraceKind::SpotTerminated {
                instance: inst.cloud_id.raw(),
                evicted: victims.len(),
            }
        );
        if self.cloud.fault_injector().in_storm(now) {
            self.counters.storm_preemptions += 1;
        }
        // Detach every victim, accounting for the work its preemption
        // destroys, before releasing the instance — re-admission must
        // never pack onto the dying host.
        let mut displaced = Vec::with_capacity(victims.len());
        for &(jid, _) in &victims {
            // Field-level lookup (not `running_job`) so the job borrow
            // stays disjoint from the counters we bump below.
            let Some(job) = self
                .running_by_id
                .get(&jid)
                .and_then(|&key| self.running.get(key).ok())
            else {
                continue;
            };
            self.counters.spot_terminations += 1;
            let cores = job.cores;
            let spec = &self.scenario.jobs()[job.spec_idx];
            // Work done since the last checkpoint tick is redone from
            // the checkpoint: it was real core-time, now lost.
            let lost = if job.started && matches!(spec.kind, JobKind::Batch { .. }) {
                let eff = cores.min(spec.cores).max(1) as f64;
                let slowdown = self.current_slowdown(jid, now);
                let since = audited_since(
                    &self.auditor,
                    now,
                    job.last_progress,
                    jid.0,
                    "spot-termination work loss",
                );
                since.as_secs_f64() * eff / slowdown
            } else {
                0.0
            };
            self.counters.work_lost_core_secs += lost;
            self.auditor.work_lost(now, jid.0, lost);
            self.auditor.job_requeued(now, jid.0);
            if self.tenancy.is_some() {
                if let Some(ts) = self.tenancy.as_mut() {
                    ts.fair.release(jid.0);
                }
                if self.auditor.is_enabled() {
                    let tenant = self.tenant_of(jid);
                    self.auditor.tenant_work_lost(now, tenant, jid.0, lost);
                }
            }
            trace_event!(
                self.tracer,
                now,
                TraceKind::RecoveryRequeue {
                    job: jid.0,
                    work_lost_core_secs: lost,
                }
            );
            self.detach_job(h, jid, cores, now)?;
            let job = self.remove_running(jid).expect("victim is running");
            displaced.push(job);
        }
        self.release_instance(h, now);
        // Requeue through the same admission path as a fresh arrival
        // (spot-ineligible: `carry` is set), so a preempted job is never
        // silently dropped — it is placed, queued, or escaped exactly
        // like any other job.
        for job in displaced {
            let spec = &self.scenario.jobs()[job.spec_idx];
            let est = JobEstimate {
                sensitivity: spec.sensitivity,
                quality: 0.0,
                cores: job.cores,
            };
            let carry = Carryover {
                remaining_work: job.remaining_work,
                queue_delay: job.queue_delay,
                finish_version: job.finish_version,
            };
            self.admit(
                job.spec_idx,
                &est,
                now,
                SimDuration::ZERO,
                Some(carry),
                events,
            );
        }
        self.drain_tenancy(now, events);
        Ok(())
    }

    /// Tenancy step of the monitor tick: ask the fair-share gate for
    /// starvation-relief preemptions (borrowed capacity first, then
    /// over-share tenants), execute them, then drain whatever the gate
    /// can now admit — the starved queue's head, since re-gated victims
    /// defer behind the borrow gate.
    fn tick_tenancy(
        &mut self,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        let victims = match self.tenancy.as_mut() {
            Some(ts) => ts.fair.starved_victims(now),
            None => return Ok(()),
        };
        for p in &victims {
            self.preempt_job(p, now, events)?;
        }
        self.drain_tenancy(now, events);
        Ok(())
    }

    /// Executes one cross-queue preemption: the victim's progress since
    /// its last checkpoint is lost (the same granularity as spot
    /// termination) and it re-enters admission behind the gate it just
    /// vacated, where the borrow gate keeps it from reclaiming the freed
    /// cores before the starved tenant does. A victim still waiting in
    /// the reserved queue is pulled back behind the gate without work
    /// loss.
    fn preempt_job(
        &mut self,
        p: &Preemption,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        let jid = JobId(p.victim_job);
        self.counters.tenant_preemptions += 1;
        if let Some(ts) = self.tenancy.as_mut() {
            ts.fair.release(jid.0);
        }
        if self.running_by_id.contains_key(&jid) {
            let (lost, cores, inst_h) = {
                let job = self.running_job(jid).expect("victim is running");
                let spec = &self.scenario.jobs()[job.spec_idx];
                let lost = if job.started && matches!(spec.kind, JobKind::Batch { .. }) {
                    let eff = job.cores.min(spec.cores).max(1) as f64;
                    let slowdown = self.current_slowdown(jid, now);
                    let since = audited_since(
                        &self.auditor,
                        now,
                        job.last_progress,
                        jid.0,
                        "tenant-preemption work loss",
                    );
                    since.as_secs_f64() * eff / slowdown
                } else {
                    0.0
                };
                (lost, job.cores, job.instance)
            };
            self.counters.work_lost_core_secs += lost;
            self.auditor.work_lost(now, jid.0, lost);
            self.auditor.job_requeued(now, jid.0);
            if self.auditor.is_enabled() {
                let tenant = self.tenant_of(jid);
                self.auditor.tenant_work_lost(now, tenant, jid.0, lost);
            }
            trace_event!(
                self.tracer,
                now,
                TraceKind::TenantPreempt {
                    job: jid.0,
                    victim_tenant: p.victim_tenant.0,
                    starved_tenant: p.starved_tenant.0,
                    work_lost_core_secs: lost,
                }
            );
            let reserved = self.inst(inst_h).reserved;
            let now_idle = self.detach_job(inst_h, jid, cores, now)?;
            let job = self.remove_running(jid).expect("victim is running");
            if reserved {
                self.reserved_busy.record_delta(now, -(cores as f64));
                self.queue_est.record_release(cores, now);
            } else if now_idle {
                self.handle_idle_od(inst_h, now, events);
            }
            let spec = &self.scenario.jobs()[job.spec_idx];
            let est = JobEstimate {
                sensitivity: spec.sensitivity,
                quality: 0.0,
                cores: job.cores,
            };
            let carry = Carryover {
                remaining_work: job.remaining_work,
                queue_delay: job.queue_delay,
                finish_version: job.finish_version,
            };
            self.admit(
                job.spec_idx,
                &est,
                now,
                SimDuration::ZERO,
                Some(carry),
                events,
            );
        } else if let Some(pos) = self
            .queue
            .iter()
            .position(|q| self.scenario.jobs()[q.spec_idx].id == jid)
        {
            let qj = self.queue.remove(pos).expect("position in bounds");
            self.auditor.queue_left(now, jid.0);
            self.auditor.job_requeued(now, jid.0);
            if self.auditor.is_enabled() {
                let tenant = self.tenant_of(jid);
                self.auditor.tenant_work_lost(now, tenant, jid.0, 0.0);
            }
            trace_event!(
                self.tracer,
                now,
                TraceKind::TenantPreempt {
                    job: jid.0,
                    victim_tenant: p.victim_tenant.0,
                    starved_tenant: p.starved_tenant.0,
                    work_lost_core_secs: 0.0,
                }
            );
            let est = JobEstimate {
                sensitivity: qj.est_sensitivity,
                quality: qj.est_quality,
                cores: qj.cores,
            };
            let waited = qj.prior_wait
                + audited_since(&self.auditor, now, qj.enqueued, jid.0, "preempt queue wait");
            self.admit(qj.spec_idx, &est, now, waited, qj.carry, events);
        }
        Ok(())
    }

    /// Binds a job to an instance and schedules its start. `carry` (set
    /// for re-admitted preemption victims) resumes the job from its last
    /// checkpoint instead of restarting it.
    #[allow(clippy::too_many_arguments)]
    fn assign(
        &mut self,
        spec_idx: usize,
        est: &JobEstimate,
        h: InstanceHandle,
        now: SimTime,
        queue_delay: SimDuration,
        carry: Option<Carryover>,
        events: &mut impl EventSink<Event>,
    ) {
        let spec = &self.scenario.jobs()[spec_idx];
        let cores = est.cores.min(self.inst(h).free_cores()).max(1);
        debug_assert!(self.inst(h).free_cores() >= cores, "overpacked instance");
        let (reserved_side, ready_at) = {
            let inst = self.inst_mut(h);
            inst.retention_token += 1;
            (inst.reserved, inst.ready_at)
        };
        let mut start_at = now.max(ready_at);
        if reserved_side {
            self.reserved_busy.record_delta(now, cores as f64);
        }
        // Data-locality extension: running a job away from its dataset
        // first copies it across the inter-cluster link.
        if let Some(data) = self.config.data {
            if data.data_in_private(spec.id.0) != reserved_side {
                let gb = spec.dataset_gb();
                start_at += data.transfer_delay(gb);
                self.counters.data_transfers += 1;
                self.counters.data_transferred_gb += gb;
            }
        }
        let isolation_p99 = match spec.kind {
            JobKind::LatencyCritical { offered_rps, .. } => self
                .latency_model
                .isolation_p99_us(offered_rps, spec.cores.max(1)),
            JobKind::Batch { .. } => 0.0,
        };
        let remaining_work = match (spec.kind, carry) {
            (JobKind::Batch { .. }, Some(c)) => c.remaining_work,
            (JobKind::Batch { work_core_secs }, None) => work_core_secs,
            (JobKind::LatencyCritical { .. }, _) => 0.0,
        };
        let key = self.running.insert(RunningJob {
            spec_idx,
            instance: h,
            cores,
            started: false,
            start_at,
            queue_delay: queue_delay + carry.map_or(SimDuration::ZERO, |c| c.queue_delay),
            remaining_work,
            last_progress: start_at,
            // Resume above the old life's projection versions so its
            // stale Finish events are ignored.
            finish_version: carry.map_or(0, |c| c.finish_version),
            lat_weighted_sum: 0.0,
            lat_weight: 0.0,
            isolation_p99,
            qos_bad_ticks: 0,
            rescheduled: carry.is_some(),
        });
        self.running_by_id.insert(spec.id, key);
        self.attach_job(h, spec.id, key, cores, now);
        events.schedule(start_at, Event::Start(spec.id));
    }

    /// Adds a job to the reserved queue. `wait` is delay already served
    /// before entering (the tenancy gate).
    fn enqueue(
        &mut self,
        spec_idx: usize,
        est: &JobEstimate,
        now: SimTime,
        wait: SimDuration,
        carry: Option<Carryover>,
    ) {
        self.counters.queued_jobs += 1;
        self.auditor
            .queue_entered(now, self.scenario.jobs()[spec_idx].id.0);
        let estimated_wait = self
            .queue_est
            .estimate_wait(est.cores, self.queue.len(), now);
        trace_event!(
            self.tracer,
            now,
            TraceKind::QueueEnter {
                job: self.scenario.jobs()[spec_idx].id.0,
                cores: est.cores,
                depth: self.queue.len(),
                estimated_wait_us: estimated_wait.map(|d| d.as_micros()),
            }
        );
        self.queue.push_back(QueuedJob {
            spec_idx,
            cores: est.cores,
            est_quality: est.quality,
            est_sensitivity: est.sensitivity,
            enqueued: now,
            prior_wait: wait,
            estimated_wait,
            carry,
        });
    }

    /// Tries to place queued jobs after capacity freed up (FIFO with
    /// skipping: a small job behind a large one may go first).
    fn drain_queue(&mut self, now: SimTime, events: &mut impl EventSink<Event>) {
        let mut i = 0;
        while i < self.queue.len() {
            let qj = self.queue[i].clone();
            let est = JobEstimate {
                sensitivity: qj.est_sensitivity,
                quality: qj.est_quality,
                cores: qj.cores,
            };
            let wait = qj.prior_wait
                + audited_since(
                    &self.auditor,
                    now,
                    qj.enqueued,
                    self.scenario.jobs()[qj.spec_idx].id.0,
                    "queue drain wait",
                );
            if self.try_place_reserved(qj.spec_idx, &est, now, wait, qj.carry, events) {
                self.auditor
                    .queue_left(now, self.scenario.jobs()[qj.spec_idx].id.0);
                self.queue_est.record_wait(qj.cores, wait);
                self.wait_samples.push(WaitSample {
                    size: qj.cores,
                    estimated: qj.estimated_wait,
                    actual: wait,
                });
                trace_event!(
                    self.tracer,
                    now,
                    TraceKind::QueueExit {
                        job: self.scenario.jobs()[qj.spec_idx].id.0,
                        cores: qj.cores,
                        estimated_wait_us: qj.estimated_wait.map(|d| d.as_micros()),
                        actual_wait_us: wait.as_micros(),
                        relieved: false,
                    }
                );
                self.queue.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Escape hatch for starving queued jobs (hybrids only): after waiting
    /// far beyond the expected spin-up, reroute to a large on-demand
    /// instance.
    fn relieve_starving_queue(&mut self, now: SimTime, events: &mut impl EventSink<Event>) {
        if !self.strat().is_hybrid() {
            return;
        }
        let spinup = self
            .config
            .cloud
            .spin_up
            .expected(InstanceType::full_server());
        let deadline = spinup.mul_f64(4.0).max(SimDuration::from_secs(60));
        let mut i = 0;
        while i < self.queue.len() {
            if now.saturating_since(self.queue[i].enqueued) > deadline {
                let qj = self.queue.remove(i).expect("index in bounds");
                let est = JobEstimate {
                    sensitivity: qj.est_sensitivity,
                    quality: qj.est_quality,
                    cores: qj.cores,
                };
                let wait = qj.prior_wait
                    + audited_since(
                        &self.auditor,
                        now,
                        qj.enqueued,
                        self.scenario.jobs()[qj.spec_idx].id.0,
                        "starvation-relief wait",
                    );
                self.auditor
                    .queue_left(now, self.scenario.jobs()[qj.spec_idx].id.0);
                self.wait_samples.push(WaitSample {
                    size: qj.cores,
                    estimated: qj.estimated_wait,
                    actual: wait,
                });
                trace_event!(
                    self.tracer,
                    now,
                    TraceKind::QueueExit {
                        job: self.scenario.jobs()[qj.spec_idx].id.0,
                        cores: qj.cores,
                        estimated_wait_us: qj.estimated_wait.map(|d| d.as_micros()),
                        actual_wait_us: now.saturating_since(qj.enqueued).as_micros(),
                        relieved: true,
                    }
                );
                // The waiting interval just served must ride along: the
                // assignment credits it to the job's queue delay, on top
                // of any delay carried from earlier preemptions.
                self.place_od_pool(qj.spec_idx, &est, now, wait, qj.carry, events);
            } else {
                i += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Interference
    // ------------------------------------------------------------------

    /// Aggregate pressure on instance `inst_idx` from co-scheduled jobs
    /// (true sensitivities, scaled by their core share), excluding
    /// `exclude`.
    fn internal_pressure(&self, h: InstanceHandle, exclude: Option<JobId>) -> ResourceVector {
        let inst = self.inst(h);
        let server = InstanceType::full_server().vcpus() as f64;
        let mut total = ResourceVector::ZERO;
        for &(jid, key) in &inst.jobs {
            if Some(jid) == exclude {
                continue;
            }
            // O(1) arena access; a stale key is a job no longer running.
            let Ok(job) = self.running.get(key) else {
                continue;
            };
            if !job.started {
                continue;
            }
            let spec = &self.scenario.jobs()[job.spec_idx];
            total = total.add(&spec.sensitivity.scale(job.cores as f64 / server));
        }
        total.scale(self.config.internal_pressure_scale)
    }

    /// The total pressure a job experiences right now: external tenants
    /// plus co-scheduled jobs.
    fn pressure_on(&self, jid: JobId, now: SimTime) -> ResourceVector {
        let job = self.running_job(jid).expect("running");
        let inst = self.inst(job.instance);
        let external = self.cloud.external_pressure(inst.cloud_id, now);
        external.add(&self.internal_pressure(job.instance, Some(jid)))
    }

    /// The multiplicative slowdown `jid` currently suffers: interference
    /// from external tenants and co-scheduled jobs, times any injected
    /// performance fault on the host (1.0 without an active fault plan).
    pub fn current_slowdown(&self, jid: JobId, now: SimTime) -> f64 {
        let job = self.running_job(jid).expect("running");
        let spec = &self.scenario.jobs()[job.spec_idx];
        let pressure = self.pressure_on(jid, now);
        let host = self.inst(job.instance).cloud_id;
        self.cloud
            .slowdown_model()
            .slowdown(&spec.sensitivity, &pressure)
            * self.cloud.fault_slowdown(host, now)
    }

    // ------------------------------------------------------------------
    // Execution events
    // ------------------------------------------------------------------

    /// A job starts executing.
    pub fn on_start(&mut self, jid: JobId, now: SimTime, events: &mut impl EventSink<Event>) {
        let Some(job) = self.running_job_mut(jid) else {
            return;
        };
        if job.started {
            return;
        }
        if now < job.start_at {
            // A stale Start from a pre-preemption life of this job id;
            // the re-admitted job's own Start is still in flight.
            return;
        }
        job.started = true;
        job.last_progress = now;
        let spec_idx = job.spec_idx;
        let spec = &self.scenario.jobs()[spec_idx];
        match spec.kind {
            JobKind::Batch { .. } => {
                let job = self.running_job(jid).expect("running");
                let slowdown = self.current_slowdown(jid, now);
                let eff = job.cores.min(spec.cores).max(1) as f64;
                let finish = now + SimDuration::from_secs_f64(job.remaining_work * slowdown / eff);
                let v = {
                    let job = self.running_job_mut(jid).expect("running");
                    job.finish_version += 1;
                    job.finish_version
                };
                events.schedule(finish, Event::Finish(jid, v));
            }
            JobKind::LatencyCritical { lifetime, .. } => {
                // Requests issued while the service waited for spin-up or
                // in the queue saw effectively unbounded latency; charge
                // the wait at saturation level so delayed starts hurt the
                // latency metric the way they do in the paper.
                let wait = audited_since(&self.auditor, now, spec.arrival, jid.0, "LC start wait")
                    .as_secs_f64();
                let saturated = self.latency_model.saturated_p99_us();
                let v = {
                    let job = self.running_job_mut(jid).expect("running");
                    job.lat_weighted_sum += saturated * wait;
                    job.lat_weight += wait;
                    job.finish_version += 1;
                    job.finish_version
                };
                events.schedule(now + lifetime, Event::Finish(jid, v));
            }
        }
    }

    /// A job's projected finish fires.
    pub fn on_finish(
        &mut self,
        jid: JobId,
        version: u64,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        let Some(job) = self.running_job(jid) else {
            return Ok(()); // already finished
        };
        if job.finish_version != version || !job.started {
            return Ok(()); // stale projection
        }
        let job = self.remove_running(jid).expect("running");
        // The projection completes exactly the work still outstanding at
        // the last checkpoint; credit it to the executed ledger.
        self.auditor.work_executed(now, jid.0, job.remaining_work);
        self.auditor.job_completed(now, jid.0);
        if self.tenancy.is_some() && self.auditor.is_enabled() {
            let tenant = self.tenant_of(jid);
            self.auditor
                .tenant_work_executed(now, tenant, jid.0, job.remaining_work);
            self.auditor.tenant_job_completed(now, tenant, jid.0);
        }
        let spec = &self.scenario.jobs()[job.spec_idx];
        let inst_h = job.instance;

        // Record the outcome.
        let arrival = spec.arrival;
        let (completion, p99, isolation, normalized) = match spec.kind {
            JobKind::Batch { .. } => {
                let completion =
                    audited_since(&self.auditor, now, arrival, jid.0, "batch completion");
                let ideal = spec.ideal_duration().as_secs_f64().max(1e-9);
                let norm = (ideal / completion.as_secs_f64().max(1e-9)).min(1.0);
                (Some(completion), None, None, norm)
            }
            JobKind::LatencyCritical { offered_rps, .. } => {
                let p99 = if job.lat_weight > 0.0 {
                    job.lat_weighted_sum / job.lat_weight
                } else {
                    // Finished before any tick: sample once now.
                    let slowdown = {
                        let pressure = {
                            let inst = self.inst(inst_h);
                            let external = self.cloud.external_pressure(inst.cloud_id, now);
                            external.add(&self.internal_pressure(inst_h, Some(jid)))
                        };
                        self.cloud
                            .slowdown_model()
                            .slowdown(&spec.sensitivity, &pressure)
                    };
                    self.latency_model
                        .p99_latency_us(offered_rps, job.cores, slowdown)
                };
                let norm = (job.isolation_p99 / p99.max(1e-9)).min(1.0);
                (None, Some(p99), Some(job.isolation_p99), norm)
            }
        };
        self.outcomes.push(JobOutcome {
            id: spec.id,
            class: spec.class,
            arrival,
            started: job.start_at,
            finished: now,
            on_reserved: self.inst(inst_h).reserved,
            cores: job.cores,
            completion,
            p99_latency_us: p99,
            isolation_p99_us: isolation,
            normalized_perf: normalized,
            queue_delay: job.queue_delay,
            spinup_delay: self
                .inst(inst_h)
                .ready_at
                .saturating_since(arrival)
                .min(job.start_at.saturating_since(arrival)),
            rescheduled: job.rescheduled,
        });
        self.last_finish = self.last_finish.max(now);

        // Free the capacity.
        let freed = job.cores;
        let reserved = self.inst(inst_h).reserved;
        let now_idle = self.detach_job(inst_h, jid, freed, now)?;
        if reserved {
            self.reserved_busy.record_delta(now, -(freed as f64));
            self.queue_est.record_release(freed, now);
            self.drain_queue(now, events);
        } else if now_idle {
            self.handle_idle_od(inst_h, now, events);
        }
        // Tenancy: the finished job leaves the pool; the freed share may
        // admit deferred work.
        if let Some(ts) = self.tenancy.as_mut() {
            ts.fair.release(jid.0);
            self.drain_tenancy(now, events);
        }
        Ok(())
    }

    /// Decides what to do with a newly idle on-demand instance: release
    /// immediately if its delivered quality is poor, otherwise retain for
    /// `retention_mult ×` its spin-up overhead.
    fn handle_idle_od(
        &mut self,
        h: InstanceHandle,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) {
        let (cloud_id, spin_up) = {
            let inst = self.inst(h);
            (
                inst.cloud_id,
                self.cloud.instance(inst.cloud_id).spin_up_overhead(),
            )
        };
        let quality = self.cloud.delivered_quality(cloud_id, now);
        let decision = self.strat().retention(&RetentionCtx {
            spin_up,
            delivered_quality: quality,
            profiling: self.config.profiling,
            retention_mult: self.config.retention_mult,
            quality_retention_threshold: self.config.quality_retention_threshold,
        });
        let retention = match decision {
            RetentionDecision::ReleaseNow => {
                // Poorly-performing instance: release immediately.
                self.counters.od_released_immediately += 1;
                self.release_instance(h, now);
                return;
            }
            RetentionDecision::Retain(d) => d,
        };
        let inst = self.inst_mut(h);
        inst.retention_token += 1;
        let token = inst.retention_token;
        let bucket = (inst.itype.family(), inst.itype.vcpus(), h);
        let raw_id = inst.cloud_id.raw();
        self.auditor.instance_idle(now, raw_id);
        self.idle_buckets.insert(bucket);
        self.counters.index_rebuilds += 1;
        events.schedule(now + retention, Event::Retention(h, token));
    }

    /// Retention timer fired: release the instance if it is still idle.
    /// A stale handle means the instance was already released — the
    /// typed-no-op analogue of the old `released` flag check.
    pub fn on_retention(&mut self, h: InstanceHandle, token: u64, now: SimTime) {
        let Ok(inst) = self.instances.get(h.key()) else {
            return;
        };
        if inst.retention_token != token || !inst.jobs.is_empty() {
            return;
        }
        trace_event!(
            self.tracer,
            now,
            TraceKind::RetentionExpired {
                instance: inst.cloud_id.raw(),
            }
        );
        self.release_instance(h, now);
    }

    /// Releases an on-demand instance: retires its arena slot (every
    /// outstanding handle turns stale) and drops it from all indices.
    /// Stale handles make double releases impossible by construction.
    fn release_instance(&mut self, h: InstanceHandle, now: SimTime) {
        let Ok(inst) = self.instances.get(h.key()) else {
            return;
        };
        debug_assert!(!inst.reserved, "reserved instances are never released");
        let vcpus = inst.itype.vcpus() as f64;
        let id = inst.cloud_id;
        let bucket = (inst.itype.family(), inst.itype.vcpus(), h);
        self.auditor.instance_released(now, id.raw());
        self.instances.retire(h.key()).expect("checked live above");
        self.live_od.remove(&h);
        self.od_pool.remove(&h);
        self.idle_buckets.remove(&bucket);
        self.counters.index_rebuilds += 1;
        self.od_allocated.record_delta(now, -vcpus);
        self.cloud.release(id, now);
    }

    // ------------------------------------------------------------------
    // Monitor tick
    // ------------------------------------------------------------------

    /// Periodic monitoring: quality sampling, progress re-projection,
    /// QoS actions, feedback loops.
    /// Feeds the quality monitor one delivered-quality sample per ready
    /// live on-demand instance — the per-tick quantile churn that the
    /// `QuantileSet` made incremental, and what the
    /// [`ProfSpan::MonitorQuantiles`] span times.
    fn sample_delivered_quality(&mut self, now: SimTime) {
        // `live_od` iterates ascending by index — the same order the
        // old full scan visited live on-demand instances in.
        for &h in &self.live_od {
            let inst = self.instances.get(h.key()).expect("live index entry");
            if inst.ready_at > now {
                continue;
            }
            let q = self.cloud.delivered_quality(inst.cloud_id, now);
            self.monitor.record(inst.itype, q);
        }
    }

    pub fn on_tick(
        &mut self,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        // 0. Fault injection: while the monitor signal is dropped out, no
        // quality samples arrive and the dynamic policy degrades to the
        // static soft-limit rule (see `decide_placement`).
        let dropped = self.cloud.fault_injector().monitor_dropped(now);
        if dropped != self.monitor_dropped {
            self.monitor_dropped = dropped;
            trace_event!(
                self.tracer,
                now,
                TraceKind::FaultMonitorDropout { active: dropped }
            );
            if self.config.policy == crate::mapping::MappingPolicy::Dynamic
                && self.strat().is_hybrid()
            {
                if dropped {
                    self.counters.policy_fallbacks += 1;
                }
                trace_event!(
                    self.tracer,
                    now,
                    TraceKind::RecoveryPolicyFallback { active: dropped }
                );
            }
        }

        // 1. Sample delivered quality of active on-demand instances.
        if dropped {
            self.counters.monitor_dropout_ticks += 1;
        } else if self.profiler.is_enabled() {
            let profiler = self.profiler.clone();
            profiler.time(ProfSpan::MonitorQuantiles, || {
                self.sample_delivered_quality(now)
            });
        } else {
            self.sample_delivered_quality(now);
        }

        // 2. Update running jobs, ascending by scenario id — the iteration
        // order of the old id-keyed map, which floating-point accumulation
        // makes order-bearing. The snapshot lives in a reused buffer.
        let mut jids = std::mem::take(&mut self.tick_jobs);
        jids.clear();
        jids.extend(self.running_by_id.keys().copied());
        let updated = jids
            .iter()
            .try_for_each(|&jid| self.update_job(jid, now, events));
        self.tick_jobs = jids;
        updated?;

        // 2b. Tenancy: starvation-relief preemption, then drain the gate.
        if self.tenancy.is_some() {
            self.tick_tenancy(now, events)?;
        }

        // 3. Feedback loops, starting with the strategy's soft-limit
        // adaptation hook (the paper's linear transfer functions by
        // default).
        let mut strategy = self.strategy.take().expect("strategy present");
        strategy.adapt_limits(&mut self.limits, self.queue.len(), now);
        self.strategy = Some(strategy);
        self.relieve_starving_queue(now, events);
        self.consolidate_od_pool(now, events)?;

        // 4. Optional utilization heat-map samples. Reserved instances
        // occupy the index prefix, so "reserved prefix, then live
        // on-demand ascending" is exactly the old whole-arena scan order.
        if self.config.record_utilization {
            for &h in self.reserved_handles.iter().chain(self.live_od.iter()) {
                let inst = self.instances.get(h.key()).expect("live index entry");
                if inst.ready_at > now {
                    continue;
                }
                self.utilization_samples.push(UtilizationSample {
                    instance_index: h.index(),
                    reserved: inst.reserved,
                    time: now,
                    utilization: inst.used_cores as f64 / inst.itype.vcpus() as f64,
                });
            }
        }
        Ok(())
    }

    /// Consolidates the hybrids' on-demand pool: when a full-server
    /// on-demand instance is lightly used and another pool instance can
    /// absorb its jobs, migrate them over so the drained instance can be
    /// released after its retention window. Both instances are already
    /// up, so migration pays no spin-up. At most one migration per tick
    /// to avoid thrash. The pure on-demand baselines do not do this —
    /// consolidation is part of HCloud's active management.
    fn consolidate_od_pool(
        &mut self,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        if !self.strat().is_hybrid() || !self.config.profiling {
            return Ok(());
        }
        // The on-demand pool index (spot included, matching the old
        // whole-arena filter), ascending by index like the old scan.
        let pool: Vec<InstanceHandle> = self
            .od_pool
            .iter()
            .copied()
            .filter(|&h| self.inst(h).ready_at <= now)
            .collect();
        if pool.len() < 2 {
            return Ok(());
        }
        // Source: the least-used instance with at most 4 busy cores.
        let Some(&src) = pool
            .iter()
            .filter(|&&h| {
                let u = self.inst(h).used_cores;
                u > 0 && u <= 4
            })
            .min_by_key(|&&h| self.inst(h).used_cores)
        else {
            return Ok(());
        };
        let need = self.inst(src).used_cores;
        // Destination: the fullest other instance that still fits the
        // whole source load within the packing headroom.
        let cap = InstanceType::full_server().vcpus().saturating_sub(2);
        let Some(&dst) = pool
            .iter()
            .filter(|&&h| h != src && self.inst(h).used_cores + need <= cap)
            .max_by_key(|&&h| self.inst(h).used_cores)
        else {
            return Ok(());
        };
        let moving: Vec<(JobId, SlotKey)> = self.inst(src).jobs.clone();
        for (jid, key) in moving {
            let Ok(job) = self.running.get_mut(key) else {
                continue;
            };
            let cores = job.cores;
            job.instance = dst;
            self.detach_job(src, jid, cores, now)?;
            self.attach_job(dst, jid, key, cores, now);
        }
        self.inst_mut(dst).retention_token += 1;
        if self.inst(src).jobs.is_empty() {
            self.handle_idle_od(src, now, events);
        }
        Ok(())
    }

    /// Progress + QoS update for one job.
    fn update_job(
        &mut self,
        jid: JobId,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        let Some(job) = self.running_job(jid) else {
            return Ok(());
        };
        if !job.started {
            return Ok(());
        }
        let spec_idx = job.spec_idx;
        let inst_h = job.instance;
        let cores = job.cores;
        let spec = &self.scenario.jobs()[spec_idx];
        let slowdown = self.current_slowdown(jid, now);

        match spec.kind {
            JobKind::Batch { .. } => {
                let eff = cores.min(spec.cores).max(1) as f64;
                let last_progress = self.running_job(jid).expect("running").last_progress;
                let dt = audited_since(&self.auditor, now, last_progress, jid.0, "batch tick dt")
                    .as_secs_f64();
                let (executed, v, finish) = {
                    let job = self.running_job_mut(jid).expect("running");
                    let before = job.remaining_work;
                    job.remaining_work = (job.remaining_work - eff * dt / slowdown).max(0.0);
                    job.last_progress = now;
                    job.finish_version += 1;
                    (
                        before - job.remaining_work,
                        job.finish_version,
                        now + SimDuration::from_secs_f64(job.remaining_work * slowdown / eff),
                    )
                };
                self.auditor.work_executed(now, jid.0, executed);
                if self.tenancy.is_some() && self.auditor.is_enabled() {
                    let tenant = self.tenant_of(jid);
                    self.auditor
                        .tenant_work_executed(now, tenant, jid.0, executed);
                }
                events.schedule(finish, Event::Finish(jid, v));
            }
            JobKind::LatencyCritical { offered_rps, .. } => {
                let rho = self.latency_model.utilization(offered_rps, cores, slowdown);
                // Local QoS action: grow the allocation on the same
                // server when the service nears saturation (Section 3.3).
                if self.config.profiling && rho > 0.85 {
                    let free = self.inst(inst_h).free_cores();
                    if free > 0 {
                        let grow = free.min(cores);
                        self.inst_mut(inst_h).used_cores += grow;
                        let raw_id = self.inst(inst_h).cloud_id.raw();
                        self.auditor.cores_bound(now, raw_id, grow);
                        if self.inst(inst_h).reserved {
                            self.reserved_busy.record_delta(now, grow as f64);
                        }
                        self.running_job_mut(jid).expect("running").cores += grow;
                        trace_event!(
                            self.tracer,
                            now,
                            TraceKind::LocalBoost {
                                job: jid.0,
                                extra_cores: grow,
                                cores: cores + grow,
                            }
                        );
                    }
                }
                // Deliberately saturating, NOT `audited_since`: a
                // rescheduled service's checkpoint sits in the future
                // (the replacement instance's ready time), and ticks
                // before it must contribute zero weight.
                let (dt, grown_cores) = {
                    let job = self.running_job_mut(jid).expect("running");
                    let dt = now.saturating_since(job.last_progress).as_secs_f64();
                    job.last_progress = now;
                    (dt, job.cores)
                };
                let p99 = self
                    .latency_model
                    .p99_latency_us(offered_rps, grown_cores, slowdown);
                // Rescheduling: persistent severe degradation on an
                // on-demand instance (rare; Section 3.3 "the latter is
                // unlikely in practice").
                let (badly, bad_ticks, threshold, rescheduled) = {
                    let job = self.running_job_mut(jid).expect("running");
                    job.lat_weighted_sum += p99 * dt;
                    job.lat_weight += dt;
                    let threshold = 6.0 * job.isolation_p99;
                    let badly = p99 > threshold;
                    if badly {
                        job.qos_bad_ticks += 1;
                    } else {
                        job.qos_bad_ticks = 0;
                    }
                    (badly, job.qos_bad_ticks, threshold, job.rescheduled)
                };
                if badly {
                    trace_event!(
                        self.tracer,
                        now,
                        TraceKind::QosViolation {
                            job: jid.0,
                            p99,
                            threshold,
                            bad_ticks,
                        }
                    );
                }
                let should_reschedule = self.config.profiling
                    && bad_ticks >= 3
                    && !rescheduled
                    && !self.inst(inst_h).reserved;
                if should_reschedule {
                    self.reschedule(jid, now, events)?;
                }
            }
        }
        Ok(())
    }

    /// Moves a persistently degraded job to a fresh on-demand instance.
    fn reschedule(
        &mut self,
        jid: JobId,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        self.counters.reschedules += 1;
        let (cores, old_inst) = {
            let job = self.running_job(jid).expect("running");
            (job.cores, job.instance)
        };
        trace_event!(
            self.tracer,
            now,
            TraceKind::Reschedule {
                job: jid.0,
                from_instance: self.inst(old_inst).cloud_id.raw(),
            }
        );
        // The replacement matches the old type; read it before the old
        // instance can be released (its handle would then be stale).
        let itype = self.inst(old_inst).itype;
        // Free the old slot.
        if self.detach_job(old_inst, jid, cores, now)? {
            // A degraded instance we are fleeing: release immediately.
            self.counters.od_released_immediately += 1;
            self.release_instance(old_inst, now);
        }
        // Acquire a replacement of the same type.
        let new_h = self.acquire(itype, now);
        let key = *self.running_by_id.get(&jid).expect("running");
        self.attach_job(new_h, jid, key, cores, now);
        let ready = {
            let inst = self.inst_mut(new_h);
            inst.retention_token += 1;
            inst.ready_at
        };
        let job = self.running_job_mut(jid).expect("running");
        job.instance = new_h;
        job.rescheduled = true;
        job.qos_bad_ticks = 0;
        // Service resumes once the replacement is up; the LC finish event
        // (fixed lifetime) remains valid, so no rescheduling of events.
        job.last_progress = ready.max(now);
        let _ = events;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Finalization
    // ------------------------------------------------------------------

    /// Consumes the scheduler and produces the run result.
    ///
    /// The makespan is the completion time of the last job (`end` only
    /// matters for empty scenarios); pending retention or spot-market
    /// events past that instant do not extend the run.
    pub fn into_result(mut self, end: SimTime) -> RunResult {
        let makespan = if self.outcomes.is_empty() {
            end
        } else {
            self.last_finish
        };
        // Release everything still held, ascending by index (the order
        // the old whole-arena scan released in).
        let still_open: Vec<InstanceHandle> = self.live_od.iter().copied().collect();
        for h in still_open {
            self.release_instance(h, makespan.max(SimTime::ZERO));
        }
        RunResult {
            strategy: self.config.strategy.clone(),
            outcomes: self.outcomes,
            usage_records: self.cloud.usage_records(makespan),
            makespan,
            reserved_cores: self.reserved_total,
            od_allocated: self.od_allocated,
            reserved_busy: self.reserved_busy,
            soft_limit_trace: self.limits.trace().to_vec(),
            wait_samples: self.wait_samples,
            utilization_samples: self.utilization_samples,
            counters: self.counters,
            decisions: self.decisions,
            tenant_stats: self
                .tenancy
                .as_ref()
                .map(|ts| ts.fair.stats())
                .unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpotPolicy;
    use crate::strategy::StrategyKind;
    use hcloud_sim::event::EventQueue;
    use hcloud_tenancy::{TenancyPlan, TenantSpec};
    use hcloud_workloads::{ScenarioConfig, ScenarioKind};

    fn job(id: u64, class: AppClass, cores: u32, secs: u64) -> JobSpec {
        let mut rng = SimRng::from_seed_u64(id);
        let kind = if class.is_latency_metric() {
            JobKind::LatencyCritical {
                offered_rps: LatencyModel::default().offered_rps_for(cores),
                lifetime: SimDuration::from_secs(secs),
            }
        } else {
            JobKind::Batch {
                work_core_secs: (cores as u64 * secs) as f64,
            }
        };
        JobSpec {
            id: JobId(id),
            class,
            arrival: SimTime::ZERO,
            kind,
            cores,
            sensitivity: class.sample_sensitivity(&mut rng),
        }
    }

    fn scenario_of(jobs: Vec<JobSpec>) -> Scenario {
        Scenario::from_jobs(ScenarioConfig::scaled(ScenarioKind::Static, 0.05, 10), jobs)
    }

    fn scheduler<'a>(
        scenario: &'a Scenario,
        config: &'a RunConfig,
    ) -> (Scheduler<'a>, EventQueue<Event>) {
        (
            Scheduler::with_instruments(
                scenario,
                config,
                &RngFactory::new(1),
                Tracer::disabled(),
                Auditor::disabled(),
                Profiler::disabled(),
            ),
            EventQueue::new(),
        )
    }

    /// Tests that attach ad-hoc jobs directly (bypassing `assign`) still
    /// need an arena slot for the `(JobId, SlotKey)` pair; this inserts a
    /// placeholder running-job record and returns its key.
    fn fake_slot(sched: &mut Scheduler<'_>, h: InstanceHandle, cores: u32, at: SimTime) -> SlotKey {
        sched.running.insert(RunningJob {
            spec_idx: 0,
            instance: h,
            cores,
            started: false,
            start_at: at,
            queue_delay: SimDuration::ZERO,
            remaining_work: 0.0,
            last_progress: at,
            finish_version: 0,
            lat_weighted_sum: 0.0,
            lat_weight: 0.0,
            isolation_p99: 0.0,
            qos_bad_ticks: 0,
            rescheduled: false,
        })
    }

    #[test]
    fn estimate_without_profiling_uses_user_sizing() {
        let jobs = vec![job(0, AppClass::HadoopSvm, 8, 300)];
        let scenario = scenario_of(jobs);
        let config = RunConfig::new(StrategyKind::StaticReserved).without_profiling();
        let (mut sched, _) = scheduler(&scenario, &config);
        let est = sched.estimate(&scenario.jobs()[0]);
        assert_eq!(est.cores, scenario.jobs()[0].user_sized_cores());
        assert_eq!(est.quality, 0.0);
        assert_eq!(est.sensitivity, ResourceVector::ZERO);
        assert_eq!(sched.counters.classified, 0);
    }

    #[test]
    fn estimate_with_profiling_charges_one_profile_per_class() {
        let jobs = vec![
            job(0, AppClass::Memcached, 2, 300),
            job(1, AppClass::Memcached, 2, 300),
            job(2, AppClass::SparkBatch, 4, 300),
        ];
        let scenario = scenario_of(jobs);
        let config = RunConfig::new(StrategyKind::HybridMixed);
        let (mut sched, _) = scheduler(&scenario, &config);
        for spec in scenario.jobs() {
            let _ = sched.estimate(spec);
        }
        assert_eq!(sched.counters.classified, 3);
        assert_eq!(sched.counters.profiled, 2, "one profiling run per class");
    }

    #[test]
    fn dedicated_itype_matches_dominant_sensitivity() {
        let scenario = scenario_of(vec![job(0, AppClass::SparkBatch, 4, 300)]);
        let config = RunConfig::new(StrategyKind::OnDemandMixed);
        let (sched, _) = scheduler(&scenario, &config);
        // Memory-dominant estimate → memory-optimized family.
        let mem = JobEstimate {
            sensitivity: ResourceVector::ZERO.with(Resource::MemCapacity, 0.9),
            quality: 0.9,
            cores: 3,
        };
        let t = sched.dedicated_itype(&mem, AppClass::SparkBatch);
        assert_eq!(t.family(), Family::MemoryOptimized);
        assert_eq!(t.vcpus(), 4, "3 cores round up to the next size");
        // CPU-dominant → compute-optimized.
        let cpu = JobEstimate {
            sensitivity: ResourceVector::ZERO.with(Resource::Cpu, 0.9),
            quality: 0.9,
            cores: 2,
        };
        assert_eq!(
            sched.dedicated_itype(&cpu, AppClass::HadoopSvm).family(),
            Family::ComputeOptimized
        );
        // Balanced → standard.
        let flat = JobEstimate {
            sensitivity: ResourceVector::uniform(0.4),
            quality: 0.5,
            cores: 2,
        };
        assert_eq!(
            sched.dedicated_itype(&flat, AppClass::HadoopSvm).family(),
            Family::Standard
        );
    }

    #[test]
    fn internal_pressure_respects_config_scale() {
        let jobs = vec![
            job(0, AppClass::SparkBatch, 8, 600),
            job(1, AppClass::SparkBatch, 8, 600),
        ];
        let scenario = scenario_of(jobs);
        let mut config = RunConfig::new(StrategyKind::StaticReserved);
        config.reserved_cores_override = Some(16);
        config.internal_pressure_scale = 1.0;
        let run_pressure = |config: &RunConfig| {
            let (mut sched, mut events) = scheduler(&scenario, config);
            sched
                .on_arrival(JobId(0), SimTime::ZERO, &mut events)
                .unwrap();
            sched
                .on_arrival(JobId(1), SimTime::ZERO, &mut events)
                .unwrap();
            sched.on_start(JobId(0), SimTime::ZERO, &mut events);
            sched.on_start(JobId(1), SimTime::ZERO, &mut events);
            let h = sched.reserved_handles[0];
            sched.internal_pressure(h, Some(JobId(0))).sum()
        };
        let full = run_pressure(&config);
        config.internal_pressure_scale = 0.1;
        let tenth = run_pressure(&config);
        assert!(full > 0.0);
        assert!((tenth - full * 0.1).abs() < 1e-9, "{tenth} vs {full}");
    }

    #[test]
    fn consolidation_drains_lightly_used_pool_instances() {
        // Two od pool instances, one holding a small job: a tick should
        // migrate the job and idle the source.
        let jobs = vec![
            job(0, AppClass::HadoopSvm, 2, 3600),
            job(1, AppClass::HadoopSvm, 8, 3600),
        ];
        let scenario = scenario_of(jobs);
        let mut config = RunConfig::new(StrategyKind::HybridMixed);
        config.reserved_cores_override = Some(16);
        let (mut sched, mut events) = scheduler(&scenario, &config);
        // Force both jobs onto separate od pool instances.
        let e0 = sched.estimate(&scenario.jobs()[0]);
        let e1 = sched.estimate(&scenario.jobs()[1]);
        sched.place_od_pool(0, &e0, SimTime::ZERO, SimDuration::ZERO, None, &mut events);
        let first_pool = *sched.od_pool.iter().next().expect("pool instance acquired");
        let h = sched.acquire(InstanceType::full_server(), SimTime::ZERO);
        sched.assign(
            1,
            &e1,
            h,
            SimTime::ZERO,
            SimDuration::ZERO,
            None,
            &mut events,
        );
        sched.on_start(JobId(0), SimTime::from_secs(30), &mut events);
        sched.on_start(JobId(1), SimTime::from_secs(30), &mut events);
        assert!(sched.inst(first_pool).used_cores > 0);
        sched
            .consolidate_od_pool(SimTime::from_secs(60), &mut events)
            .unwrap();
        // The small job moved off one of the two instances.
        let empties = sched
            .instances
            .iter()
            .filter(|(_, i)| !i.reserved && i.jobs.is_empty())
            .count();
        assert_eq!(empties, 1, "one pool instance should have been drained");
        // Bookkeeping stays consistent.
        let total_assigned: u32 = sched.instances.iter().map(|(_, i)| i.used_cores).sum();
        assert_eq!(total_assigned, e0.cores + e1.cores);
    }

    #[test]
    fn spot_eligibility_gates_correctly() {
        let jobs = vec![
            job(0, AppClass::HadoopSvm, 4, 300),   // tolerant batch
            job(1, AppClass::Memcached, 2, 300),   // latency-critical
            job(2, AppClass::SparkRealtime, 1, 5), // sensitive batch
        ];
        let scenario = scenario_of(jobs);
        let mut config = RunConfig::new(StrategyKind::HybridMixed);
        config.spot = Some(SpotPolicy {
            bid_multiplier: 0.6,
            max_quality: 0.99,
        });
        let (mut sched, _) = scheduler(&scenario, &config);
        let est = |sched: &mut Scheduler, i: usize| sched.estimate(&scenario.jobs()[i]);
        let e0 = est(&mut sched, 0);
        let e1 = est(&mut sched, 1);
        let e2 = est(&mut sched, 2);
        assert!(sched.spot_eligible(&scenario.jobs()[0], &e0));
        assert!(
            !sched.spot_eligible(&scenario.jobs()[1], &e1),
            "LC never rides spot"
        );
        assert!(
            !sched.spot_eligible(&scenario.jobs()[2], &e2),
            "sensitive batch never rides spot"
        );
        // OdM (non-hybrid) never uses spot even for tolerant jobs.
        let mut odm = RunConfig::new(StrategyKind::OnDemandMixed);
        odm.spot = config.spot;
        let (mut sched, _) = scheduler(&scenario, &odm);
        let e0 = sched.estimate(&scenario.jobs()[0]);
        assert!(!sched.spot_eligible(&scenario.jobs()[0], &e0));
    }

    #[test]
    fn queue_drain_is_fifo_with_skip() {
        // Reserved pool of 16 cores; a 16-core job fills it, then a
        // 16-core job and a 2-core job queue. On release, the 16-core job
        // (head of queue) is placed; the 2-core one waits if no room, or
        // fits if there is.
        let jobs = vec![
            job(0, AppClass::Memcached, 16, 600),
            job(1, AppClass::Memcached, 16, 600),
            job(2, AppClass::Memcached, 2, 600),
        ];
        let scenario = scenario_of(jobs);
        let mut config = RunConfig::new(StrategyKind::StaticReserved);
        config.reserved_cores_override = Some(16);
        let (mut sched, mut events) = scheduler(&scenario, &config);
        sched
            .on_arrival(JobId(0), SimTime::ZERO, &mut events)
            .unwrap();
        sched
            .on_arrival(JobId(1), SimTime::ZERO, &mut events)
            .unwrap();
        sched
            .on_arrival(JobId(2), SimTime::ZERO, &mut events)
            .unwrap();
        assert_eq!(sched.queue.len(), 2, "both later jobs queue");
        sched.on_start(JobId(0), SimTime::ZERO, &mut events);
        // Finish the first job: the queue head (16-core) takes the slot.
        let version = sched.running_job(JobId(0)).unwrap().finish_version;
        sched
            .on_finish(JobId(0), version, SimTime::from_secs(600), &mut events)
            .unwrap();
        assert_eq!(sched.queue.len(), 1);
        assert!(sched.running_by_id.contains_key(&JobId(1)));
        assert!(!sched.running_by_id.contains_key(&JobId(2)) || sched.queue.is_empty());
    }

    #[test]
    fn foreign_job_id_fails_typed() {
        let scenario = scenario_of(vec![job(0, AppClass::HadoopSvm, 2, 100)]);
        let config = RunConfig::new(StrategyKind::StaticReserved);
        let (mut sched, mut events) = scheduler(&scenario, &config);
        let err = sched
            .on_arrival(JobId(999), SimTime::ZERO, &mut events)
            .expect_err("an id outside the scenario must fail typed");
        assert_eq!(err, UnknownJob { id: JobId(999) });
        assert_eq!(sched.pending_jobs(), 0, "nothing was admitted");
        assert!(events.is_empty(), "nothing was scheduled");
        // The in-scenario id still works.
        sched
            .on_arrival(JobId(0), SimTime::ZERO, &mut events)
            .unwrap();
        assert_eq!(sched.pending_jobs(), 1);
    }

    #[test]
    fn retention_token_prevents_stale_release() {
        let jobs = vec![
            job(0, AppClass::HadoopSvm, 2, 100),
            job(1, AppClass::HadoopSvm, 2, 100),
        ];
        let scenario = scenario_of(jobs);
        let config = RunConfig::new(StrategyKind::OnDemandMixed);
        let (mut sched, mut events) = scheduler(&scenario, &config);
        sched
            .on_arrival(JobId(0), SimTime::ZERO, &mut events)
            .unwrap();
        let h = *sched.live_od.iter().next().expect("od instance acquired");
        let token_before = sched.inst(h).retention_token;
        // A new job lands on the instance (reuse) before the retention
        // timer fires; the stale token must not release it.
        let key = fake_slot(&mut sched, h, 2, SimTime::ZERO);
        sched.inst_mut(h).jobs.push((JobId(99), key));
        sched.inst_mut(h).retention_token += 1;
        sched.on_retention(h, token_before, SimTime::from_secs(500));
        assert!(
            sched.instances.contains(h.key()),
            "stale token must not release the instance"
        );
    }

    #[test]
    fn released_instance_handles_turn_stale() {
        let scenario = scenario_of(vec![job(0, AppClass::HadoopSvm, 2, 100)]);
        let config = RunConfig::new(StrategyKind::OnDemandMixed);
        let (mut sched, _) = scheduler(&scenario, &config);
        let h = sched.acquire(InstanceType::standard(2), SimTime::ZERO);
        assert!(sched.live_od.contains(&h));
        sched.release_instance(h, SimTime::from_secs(1));
        assert!(!sched.instances.contains(h.key()), "handle is stale");
        assert!(!sched.live_od.contains(&h), "dropped from the live index");
        assert!(!sched.od_pool.contains(&h));
        // Double release and late retention are typed no-ops.
        sched.release_instance(h, SimTime::from_secs(2));
        sched.on_retention(h, 0, SimTime::from_secs(3));
        assert_eq!(sched.instances.live_len(), sched.reserved_handles.len());
    }

    #[test]
    fn idle_index_tracks_retained_instances() {
        let scenario = scenario_of(vec![job(0, AppClass::HadoopSvm, 2, 100)]);
        let config = RunConfig::new(StrategyKind::OnDemandMixed).without_profiling();
        let (mut sched, mut events) = scheduler(&scenario, &config);
        let h = sched.acquire(InstanceType::standard(2), SimTime::ZERO);
        assert!(sched.idle_buckets.is_empty());
        // Retained idle: the instance enters the idle index...
        sched.handle_idle_od(h, SimTime::from_secs(10), &mut events);
        assert_eq!(sched.idle_buckets.len(), 1);
        // ...and a reuse query finds it through the range probe.
        let found =
            sched.find_idle_dedicated(Family::Standard, 2, false, 0.0, SimTime::from_secs(3600));
        assert_eq!(found, Some(h));
        // Attaching a job removes it from the idle index.
        let key = fake_slot(&mut sched, h, 2, SimTime::from_secs(3600));
        sched.attach_job(h, JobId(0), key, 2, SimTime::from_secs(3600));
        assert!(sched.idle_buckets.is_empty());
    }

    /// The pre-index semantics of the idle-reuse search: a linear scan
    /// over the retained set in acquisition order, smallest fitting size
    /// first with first-seen tie-break.
    fn naive_idle_search(
        sched: &Scheduler<'_>,
        retained: &[InstanceHandle],
        family: Family,
        vcpus: u32,
        now: SimTime,
    ) -> Option<InstanceHandle> {
        retained
            .iter()
            .copied()
            .filter(|&h| {
                let inst = sched.inst(h);
                inst.itype.family() == family
                    && inst.itype.vcpus() >= vcpus
                    && inst.itype.vcpus() <= vcpus * 2
                    && inst.ready_at <= now
                    && !inst.spot
            })
            .min_by_key(|&h| (sched.inst(h).itype.vcpus(), h))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Any interleaving of acquire / retain-idle / reuse / release
        /// leaves the secondary indices exactly equal to a from-scratch
        /// recomputation over the arena, and the indexed idle-reuse
        /// search returns the same instance as the naive linear scan it
        /// replaced.
        #[test]
        fn placement_indices_match_naive_reference(
            steps in proptest::collection::vec((0u8..6, proptest::prelude::any::<u16>()), 1..48),
            q_size in 0usize..4,
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};

            const SIZES: [u32; 4] = [2, 4, 8, 16];
            let scenario = scenario_of(vec![job(0, AppClass::HadoopSvm, 2, 100)]);
            let config = RunConfig::new(StrategyKind::OnDemandMixed).without_profiling();
            let (mut sched, mut events) = scheduler(&scenario, &config);
            // Reference model mirroring the instance lifecycle: fresh
            // acquisitions are empty but unretained, `handle_idle_od`
            // moves them into the retained set, a reuse occupies them,
            // and a finish empties them back into retention. `retained`
            // stays in handle (= acquisition) order. Sim time advances
            // monotonically across steps.
            let mut unretained: Vec<InstanceHandle> = Vec::new();
            let mut occupied: Vec<(InstanceHandle, JobId)> = Vec::new();
            let mut retained: Vec<InstanceHandle> = Vec::new();
            let retain = |list: &mut Vec<InstanceHandle>, h: InstanceHandle| {
                let pos = list.partition_point(|&r| r < h);
                list.insert(pos, h);
            };
            let mut t = SimTime::ZERO;
            let mut next_job = 1000u64;
            for (op, x) in steps {
                t += SimDuration::from_secs(1);
                match op {
                    0 | 1 => {
                        let size = SIZES[x as usize % SIZES.len()];
                        unretained.push(sched.acquire(InstanceType::standard(size), t));
                    }
                    2 if !unretained.is_empty() => {
                        let h = unretained.remove(x as usize % unretained.len());
                        sched.handle_idle_od(h, t, &mut events);
                        retain(&mut retained, h);
                    }
                    3 if !retained.is_empty() => {
                        // Reuse: a job lands on a retained instance.
                        let h = retained.remove(x as usize % retained.len());
                        let jid = JobId(next_job);
                        next_job += 1;
                        let key = fake_slot(&mut sched, h, 1, t);
                        sched.attach_job(h, jid, key, 1, t);
                        occupied.push((h, jid));
                    }
                    4 if !occupied.is_empty() => {
                        // Finish: the instance empties and is retained again.
                        let (h, jid) = occupied.remove(x as usize % occupied.len());
                        prop_assert!(sched.detach_job(h, jid, 1, t).expect("single detach"));
                        sched.handle_idle_od(h, t, &mut events);
                        retain(&mut retained, h);
                    }
                    5 if !retained.is_empty() => {
                        let h = retained.remove(x as usize % retained.len());
                        sched.release_instance(h, t);
                    }
                    _ => {}
                }
            }
            // Query well past every spin-up so readiness never filters.
            let now = t + SimDuration::from_secs(3600);
            // The indexed range probe agrees with the naive scan.
            let want_size = SIZES[q_size];
            prop_assert_eq!(
                sched.find_idle_dedicated(Family::Standard, want_size, false, 0.0, now),
                naive_idle_search(&sched, &retained, Family::Standard, want_size, now)
            );
            // Each index equals a from-scratch recomputation over the arena.
            let live_naive: Vec<InstanceHandle> = sched
                .instances
                .iter()
                .filter(|(_, i)| !i.reserved)
                .map(|(k, _)| InstanceHandle::new(k))
                .collect();
            prop_assert_eq!(
                sched.live_od.iter().copied().collect::<Vec<_>>(),
                live_naive.clone()
            );
            let pool_naive: Vec<InstanceHandle> = live_naive
                .iter()
                .copied()
                .filter(|&h| sched.inst(h).itype.is_full_server())
                .collect();
            prop_assert_eq!(sched.od_pool.iter().copied().collect::<Vec<_>>(), pool_naive);
            for &(family, vcpus, h) in &sched.idle_buckets {
                let inst = sched.inst(h);
                prop_assert!(!inst.reserved && inst.jobs.is_empty(), "idle index invariant");
                prop_assert_eq!(inst.itype.family(), family);
                prop_assert_eq!(inst.itype.vcpus(), vcpus);
            }
            let mut idle_handles: Vec<InstanceHandle> =
                sched.idle_buckets.iter().map(|&(_, _, h)| h).collect();
            idle_handles.sort();
            prop_assert_eq!(idle_handles, retained, "idle index = retained set");
        }
    }

    /// Regression: `detach_job` used `saturating_sub`, so unbinding more
    /// cores than are bound (e.g. a double unbind) silently clamped to
    /// zero and corrupted the core ledger. It must be a typed accounting
    /// error instead.
    #[test]
    fn double_detach_is_a_typed_accounting_error() {
        let scenario = scenario_of(vec![job(0, AppClass::HadoopSvm, 2, 100)]);
        let config = RunConfig::new(StrategyKind::OnDemandMixed);
        let (mut sched, _) = scheduler(&scenario, &config);
        let h = sched.acquire(InstanceType::standard(4), SimTime::ZERO);
        let key = fake_slot(&mut sched, h, 2, SimTime::ZERO);
        sched.attach_job(h, JobId(0), key, 2, SimTime::ZERO);
        assert!(sched
            .detach_job(h, JobId(0), 2, SimTime::from_secs(1))
            .expect("first unbind is legal"));
        let err = sched
            .detach_job(h, JobId(0), 2, SimTime::from_secs(2))
            .expect_err("second unbind of the same cores must be caught");
        assert_eq!(err.at, SimTime::from_secs(2));
        assert!(
            matches!(
                err.kind,
                AuditViolationKind::CoreUnderflow {
                    bound: 0,
                    unbind: 2,
                    ..
                }
            ),
            "unexpected violation: {err}"
        );
        // The instance state is untouched by the rejected unbind.
        assert_eq!(sched.inst(h).used_cores, 0);
    }

    /// Regression: the starvation-relief path re-placed a queued job with
    /// a zero queue delay, dropping the waiting interval it had just
    /// served. A job that queues, is relieved to on-demand, is preempted
    /// there, queues again (twice over) must end up with a queue delay
    /// equal to the sum of its distinct waiting intervals — no dropped
    /// and no double-counted interval.
    #[test]
    fn queue_delay_accumulates_across_preemptions() {
        let jobs = vec![
            job(0, AppClass::HadoopSvm, 16, 10_000),
            job(1, AppClass::HadoopSvm, 2, 10_000),
        ];
        let scenario = scenario_of(jobs);
        let mut config = RunConfig::new(StrategyKind::HybridFull);
        config.reserved_cores_override = Some(16);
        // Always prefer reserved, so job 1 queues whenever job 0 holds
        // the whole reserved pool.
        config.policy = crate::mapping::MappingPolicy::UtilizationLimit(2.0);
        let (mut sched, mut events) = scheduler(&scenario, &config);

        // Job 0 fills the reserved pool; job 1 queues behind it.
        sched
            .on_arrival(JobId(0), SimTime::ZERO, &mut events)
            .unwrap();
        sched.on_start(JobId(0), SimTime::ZERO, &mut events);
        sched
            .on_arrival(JobId(1), SimTime::ZERO, &mut events)
            .unwrap();
        assert_eq!(sched.queue.len(), 1, "job 1 must queue behind job 0");

        // Wait 1: starved for 3600s, then relieved to the od pool.
        let t1 = SimTime::from_secs(3600);
        sched.on_tick(t1, &mut events).unwrap();
        assert!(sched.queue.is_empty(), "job 1 must be relieved");
        assert!(sched.running_by_id.contains_key(&JobId(1)));

        // Preemption 1 kills the od instance; job 1 queues again.
        let h1 = *sched.od_pool.iter().next().expect("od pool instance");
        let t2 = SimTime::from_secs(4000);
        sched.on_spot_termination(h1, t2, &mut events).unwrap();
        assert_eq!(sched.queue.len(), 1, "job 1 requeued after preemption");

        // Wait 2: starved for 7200s, relieved again.
        let t3 = SimTime::from_secs(4000 + 7200);
        sched.on_tick(t3, &mut events).unwrap();
        assert!(sched.queue.is_empty());

        // Preemption 2.
        let h2 = *sched.od_pool.iter().next().expect("od pool instance");
        let t4 = SimTime::from_secs(12_000);
        sched.on_spot_termination(h2, t4, &mut events).unwrap();
        assert_eq!(sched.queue.len(), 1);

        // Wait 3: job 0 finishes; the queue drains onto reserved.
        let t5 = SimTime::from_secs(20_000);
        let version = sched.running_job(JobId(0)).unwrap().finish_version;
        sched.on_finish(JobId(0), version, t5, &mut events).unwrap();
        let job1 = sched.running_job(JobId(1)).unwrap();
        assert_eq!(
            job1.queue_delay,
            SimDuration::from_secs(3600 + 7200 + 8000),
            "total queueing time must equal the sum of the three distinct waits"
        );
    }

    /// Two-job tenancy scenario: a pool sized for one job at a time, so
    /// the second arrival defers behind the gate and drains when the
    /// first finishes, with the gate wait credited as queue delay.
    fn tenanted_pair() -> Scenario {
        let jobs = vec![
            job(0, AppClass::SparkBatch, 4, 100),
            job(1, AppClass::SparkBatch, 4, 100),
        ];
        // Without profiling the scheduler sizes jobs by user reservation,
        // which is deterministic per job id; size the pool so either job
        // fits alone but never both.
        let c0 = jobs[0].user_sized_cores().clamp(1, 16);
        let c1 = jobs[1].user_sized_cores().clamp(1, 16);
        let pool = c0.max(c1);
        let mut plan = TenancyPlan::new(pool)
            .with_quantum(16.0)
            .with_starvation_secs(1e9)
            .tenant(TenantSpec::new(0, 1.0, pool, pool));
        plan.assign(0, 0);
        plan.assign(1, 0);
        scenario_of(jobs).with_tenancy(plan)
    }

    #[test]
    fn tenancy_gate_defers_and_finish_drains() {
        let scenario = tenanted_pair();
        let mut config = RunConfig::new(StrategyKind::StaticReserved).without_profiling();
        config.reserved_cores_override = Some(32);
        let (mut sched, mut events) = scheduler(&scenario, &config);
        sched
            .on_arrival(JobId(0), SimTime::ZERO, &mut events)
            .unwrap();
        sched
            .on_arrival(JobId(1), SimTime::ZERO, &mut events)
            .unwrap();
        assert!(sched.running_by_id.contains_key(&JobId(0)));
        assert!(
            !sched.running_by_id.contains_key(&JobId(1)),
            "job 1 must be held at the tenancy gate"
        );
        assert_eq!(sched.counters.tenant_deferred_jobs, 1);
        assert_eq!(sched.pending_jobs(), 2, "deferred jobs count as pending");

        // Finishing job 0 frees the share; the drain admits job 1 and
        // credits its 100s behind the gate as queue delay.
        sched.on_start(JobId(0), SimTime::ZERO, &mut events);
        let v = sched.running_job(JobId(0)).unwrap().finish_version;
        sched
            .on_finish(JobId(0), v, SimTime::from_secs(100), &mut events)
            .unwrap();
        assert!(sched.running_by_id.contains_key(&JobId(1)));
        assert_eq!(sched.counters.tenant_drained_jobs, 1);
        assert_eq!(
            sched.running_job(JobId(1)).unwrap().queue_delay,
            SimDuration::from_secs(100)
        );
    }

    #[test]
    fn tenancy_starved_guarantee_reclaims_via_preemption() {
        let jobs = vec![
            job(0, AppClass::SparkBatch, 4, 100_000),
            job(1, AppClass::SparkBatch, 4, 100_000),
        ];
        let c0 = jobs[0].user_sized_cores().clamp(1, 16);
        let c1 = jobs[1].user_sized_cores().clamp(1, 16);
        let pool = c0.max(c1);
        // Tenant 0 is guaranteed the whole pool; tenant 1 (guarantee 0)
        // can only borrow.
        let mut plan = TenancyPlan::new(pool)
            .with_quantum(16.0)
            .with_starvation_secs(30.0)
            .tenant(TenantSpec::new(0, 4.0, pool, pool))
            .tenant(TenantSpec::new(1, 1.0, 0, pool));
        plan.assign(0, 1);
        plan.assign(1, 0);
        let scenario = scenario_of(jobs).with_tenancy(plan);
        let mut config = RunConfig::new(StrategyKind::StaticReserved).without_profiling();
        config.reserved_cores_override = Some(32);
        let (mut sched, mut events) = scheduler(&scenario, &config);

        // The borrower takes the idle pool; the guaranteed tenant's job
        // then defers and the tenant goes needy.
        sched
            .on_arrival(JobId(0), SimTime::ZERO, &mut events)
            .unwrap();
        sched.on_start(JobId(0), SimTime::ZERO, &mut events);
        sched
            .on_arrival(JobId(1), SimTime::ZERO, &mut events)
            .unwrap();
        assert_eq!(sched.counters.tenant_borrowed_admissions, 1);
        assert!(!sched.running_by_id.contains_key(&JobId(1)));

        // Tick past the starvation window: the borrower is evicted, the
        // guaranteed job reclaims the pool, and the victim re-defers
        // behind the borrow gate.
        sched.on_tick(SimTime::from_secs(60), &mut events).unwrap();
        assert_eq!(sched.counters.tenant_preemptions, 1);
        assert!(sched.running_by_id.contains_key(&JobId(1)));
        assert!(
            !sched.running_by_id.contains_key(&JobId(0)),
            "victim must wait behind the gate, not re-grab the pool"
        );
        assert_eq!(sched.counters.tenant_drained_jobs, 1);
        assert_eq!(sched.counters.tenant_deferred_jobs, 2);

        let result = sched.into_result(SimTime::from_secs(60));
        assert_eq!(result.tenant_stats.len(), 2);
        assert_eq!(result.tenant_stats[0].id, 0);
        assert_eq!(result.tenant_stats[0].reclaims, 1);
        assert_eq!(result.tenant_stats[1].victims, 1);
    }

    #[test]
    fn audited_since_measures_forward_spans_exactly() {
        let auditor = Auditor::new(hcloud_audit::AuditMode::Final);
        let span = audited_since(
            &auditor,
            SimTime::from_secs(20),
            SimTime::from_secs(15),
            3,
            "forward",
        );
        assert_eq!(span, SimDuration::from_secs(5));
        assert!(auditor.violations().is_empty());
        // Zero-width spans are forward, not inverted.
        let zero = audited_since(
            &auditor,
            SimTime::from_secs(20),
            SimTime::from_secs(20),
            3,
            "forward",
        );
        assert_eq!(zero, SimDuration::ZERO);
        assert!(auditor.violations().is_empty());
    }

    #[test]
    fn audited_since_reports_time_inversion_and_clamps() {
        let auditor = Auditor::new(hcloud_audit::AuditMode::Final);
        let span = audited_since(
            &auditor,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            7,
            "test inversion",
        );
        assert_eq!(span, SimDuration::ZERO, "inverted spans clamp to zero");
        let violations = auditor.violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].at, SimTime::from_secs(10));
        match violations[0].kind {
            AuditViolationKind::TimeInversion {
                job,
                context,
                at_us,
                earlier_us,
            } => {
                assert_eq!(job, 7);
                assert_eq!(context, "test inversion");
                assert_eq!(at_us, 10_000_000);
                assert_eq!(earlier_us, 20_000_000);
            }
            ref other => panic!("expected TimeInversion, got {other:?}"),
        }
    }

    #[test]
    fn audited_since_is_silent_when_auditing_is_off() {
        // The disabled auditor still clamps — identical arithmetic to the
        // old `saturating_since` path — but records nothing.
        let auditor = Auditor::new(hcloud_audit::AuditMode::Off);
        let span = audited_since(
            &auditor,
            SimTime::ZERO,
            SimTime::from_secs(1),
            1,
            "off-mode inversion",
        );
        assert_eq!(span, SimDuration::ZERO);
        assert!(auditor.violations().is_empty());
    }
}
