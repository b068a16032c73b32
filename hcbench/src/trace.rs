//! The traced replay: `run_scenario`'s batched event loop replayed from
//! the benchmark's own code against the scheduler's public handlers, with
//! a span around every call into a layer.
//!
//! Spans are folded into per-layer accumulators in memory as they close
//! and read out once the run ends; nothing is written while the run is
//! timed. A span's self time is its duration minus the part covered by
//! its child spans, so a handler's self time excludes the
//! `EventQueue::schedule` calls it makes through the timing sink.
//!
//! The replay must stay step-for-step identical to
//! `hcloud::runner::run_scenario`: the caller compares the two runs'
//! digests and marks the layer table invalid when they differ.

use std::time::Instant;

use hcloud::result::RunResult;
use hcloud::runner::AuditViolation;
use hcloud::scheduler::{Event, Scheduler};
use hcloud::RunConfig;
use hcloud_audit::Auditor;
use hcloud_sim::event::{EventQueue, EventSink, EventToken};
use hcloud_sim::rng::RngFactory;
use hcloud_sim::SimTime;
use hcloud_telemetry::{Profiler, Tracer};
use hcloud_workloads::Scenario;

/// A layer boundary the replay times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    SchedulerNew,
    Schedule,
    Drain,
    Arrival,
    Start,
    Finish,
    Retention,
    SpotTermination,
    Tick,
    StepCheck,
    IntoResult,
    Finalize,
}

impl Layer {
    pub const ALL: [Layer; 12] = [
        Layer::SchedulerNew,
        Layer::Schedule,
        Layer::Drain,
        Layer::Arrival,
        Layer::Start,
        Layer::Finish,
        Layer::Retention,
        Layer::SpotTermination,
        Layer::Tick,
        Layer::StepCheck,
        Layer::IntoResult,
        Layer::Finalize,
    ];

    /// The six `Scheduler::on_*` handlers, with their metric names.
    pub const DISPATCH: [(Layer, &'static str); 6] = [
        (Layer::Arrival, "arrival"),
        (Layer::Start, "start"),
        (Layer::Finish, "finish"),
        (Layer::Retention, "retention"),
        (Layer::SpotTermination, "spot_termination"),
        (Layer::Tick, "tick"),
    ];
}

/// What one layer accumulated: completed spans, their summed duration,
/// and their summed self time.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerStat {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

/// Nested spans over one monotonic clock. [`Spans::open`] and
/// [`Spans::close`] take explicit timestamps so the arithmetic is
/// testable; [`Spans::enter`] and [`Spans::exit`] read the clock.
pub struct Spans {
    base: Instant,
    stats: [LayerStat; Layer::ALL.len()],
    stack: Vec<Open>,
    covered_ns: u64,
    timer_calls: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            base: Instant::now(),
            stats: [LayerStat::default(); Layer::ALL.len()],
            stack: Vec::new(),
            covered_ns: 0,
            timer_calls: 0,
        }
    }
}

impl Spans {
    /// Nanoseconds since this recorder was created; one timer call.
    fn now(&mut self) -> u64 {
        self.timer_calls += 1;
        self.base.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, layer: Layer, at_ns: u64) {
        self.stack.push(Open {
            layer,
            start_ns: at_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span at `at_ns`: charges its duration to
    /// its layer, its duration minus its children's to the layer's self
    /// time, and its duration to its parent's children (or, for a
    /// top-level span, to the covered total).
    pub fn close(&mut self, at_ns: u64) {
        let span = self.stack.pop().expect("close matches an open span");
        let dur = at_ns.saturating_sub(span.start_ns);
        let stat = &mut self.stats[span.layer as usize];
        stat.calls += 1;
        stat.total_ns += dur;
        stat.self_ns += dur.saturating_sub(span.child_ns);
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.covered_ns += dur,
        }
    }

    pub fn enter(&mut self, layer: Layer) {
        let now = self.now();
        self.open(layer, now);
    }

    pub fn exit(&mut self) {
        let now = self.now();
        self.close(now);
    }

    /// Closes the innermost span and opens its sibling `next` at the same
    /// instant: one timer call for two boundaries with no work between.
    pub fn exit_enter(&mut self, next: Layer) {
        let now = self.now();
        self.close(now);
        self.open(next, now);
    }

    pub fn stat(&self, layer: Layer) -> LayerStat {
        self.stats[layer as usize]
    }

    /// Nanoseconds covered by top-level spans.
    pub fn covered_ns(&self) -> u64 {
        self.covered_ns
    }

    pub fn timer_calls(&self) -> u64 {
        self.timer_calls
    }

    /// Mean cost of one span's timer pair (two clock reads), measured
    /// over `pairs` back-to-back reads. The reads are not counted as
    /// timer calls of the traced run.
    pub fn calibrate_timer_ns(&mut self, pairs: u32) -> f64 {
        let start = Instant::now();
        let mut sink = 0u64;
        for _ in 0..pairs {
            sink ^= self.base.elapsed().as_nanos() as u64;
            sink ^= self.base.elapsed().as_nanos() as u64;
        }
        std::hint::black_box(sink);
        start.elapsed().as_nanos() as f64 / f64::from(pairs.max(1))
    }
}

/// The event queue behind a timing [`EventSink`]: every `schedule` the
/// scheduler or the replay makes is a `Schedule` span, nested under the
/// handler span that made it.
struct TimedQueue {
    queue: EventQueue<Event>,
    spans: Spans,
}

impl EventSink<Event> for TimedQueue {
    fn schedule(&mut self, at: SimTime, event: Event) -> EventToken {
        self.spans.enter(Layer::Schedule);
        let token = self.queue.schedule(at, event);
        self.spans.exit();
        token
    }
}

/// A traced run's outcome and the spans it recorded.
pub struct TracedRun {
    pub result: Result<RunResult, String>,
    /// Host seconds from scheduler construction to the end of the audit.
    pub wall_s: f64,
    pub max_depth: usize,
}

/// Replays `run_scenario(scenario, config, ctx)` with `ctx` carrying
/// `factory` and `auditor`, timing every layer call into `spans`.
pub fn run_traced(
    scenario: &Scenario,
    config: &RunConfig,
    factory: &RngFactory,
    auditor: &Auditor,
    spans: Spans,
) -> (TracedRun, Spans) {
    let mut q = TimedQueue {
        queue: EventQueue::default(),
        spans,
    };
    let wall = Instant::now();
    let result = replay(scenario, config, factory, auditor, &mut q);
    let run = TracedRun {
        result,
        wall_s: wall.elapsed().as_secs_f64(),
        max_depth: q.queue.max_depth(),
    };
    (run, q.spans)
}

fn replay(
    scenario: &Scenario,
    config: &RunConfig,
    factory: &RngFactory,
    auditor: &Auditor,
    q: &mut TimedQueue,
) -> Result<RunResult, String> {
    q.spans.enter(Layer::SchedulerNew);
    let mut sched = Scheduler::with_instruments(
        scenario,
        config,
        factory,
        Tracer::disabled(),
        auditor.clone(),
        Profiler::disabled(),
    );
    q.spans.exit();
    for job in scenario.jobs() {
        q.schedule(job.arrival, Event::Arrival(job.id));
    }
    let last_arrival = scenario
        .jobs()
        .last()
        .map(|j| j.arrival)
        .unwrap_or(SimTime::ZERO);
    q.schedule(SimTime::ZERO, Event::Tick);

    let mut end = SimTime::ZERO;
    let mut events_processed = 0usize;
    let mut batch: Vec<Event> = Vec::new();
    loop {
        q.spans.enter(Layer::Drain);
        let next = q.queue.drain_next_batch(&mut batch);
        q.spans.exit();
        let Some(t) = next else { break };
        end = t;
        for event in batch.drain(..) {
            q.queue.ack();
            events_processed += 1;
            let stepped: Result<(), AuditViolation> = match event {
                Event::Arrival(id) => {
                    q.spans.enter(Layer::Arrival);
                    if let Err(e) = sched.on_arrival(id, t, q) {
                        return Err(format!("arrival rejected: {e}"));
                    }
                    Ok(())
                }
                Event::Start(jid) => {
                    q.spans.enter(Layer::Start);
                    sched.on_start(jid, t, q);
                    Ok(())
                }
                Event::Finish(jid, v) => {
                    q.spans.enter(Layer::Finish);
                    sched.on_finish(jid, v, t, q)
                }
                Event::Retention(idx, token) => {
                    q.spans.enter(Layer::Retention);
                    sched.on_retention(idx, token, t);
                    Ok(())
                }
                Event::SpotTermination(idx) => {
                    q.spans.enter(Layer::SpotTermination);
                    sched.on_spot_termination(idx, t, q)
                }
                Event::Tick => {
                    q.spans.enter(Layer::Tick);
                    let r = sched.on_tick(t, q);
                    if t < last_arrival || sched.pending_jobs() > 0 {
                        q.schedule(t + config.monitor_interval, Event::Tick);
                    }
                    r
                }
            };
            q.spans.exit_enter(Layer::StepCheck);
            let checked = stepped.and_then(|()| auditor.step_check());
            q.spans.exit();
            checked.map_err(|v| format!("audit violation: {v}"))?;
        }
    }

    q.spans.enter(Layer::IntoResult);
    let mut run = sched.into_result(end);
    q.spans.exit();
    run.counters.events_processed = events_processed;
    if auditor.is_enabled() {
        q.spans.enter(Layer::Finalize);
        let mut billed: u128 = 0;
        let mut billed_spot: u128 = 0;
        for u in &run.usage_records {
            let micro = u.duration().as_micros() as u128 * u.itype.vcpus() as u128;
            billed += micro;
            if u.spot {
                billed_spot += micro;
            }
        }
        auditor.spot_billed(billed_spot);
        let finalized = auditor.finalize(run.makespan, billed, run.counters.work_lost_core_secs);
        q.spans.exit();
        finalized.map_err(|v| format!("audit violation at finalize: {v}"))?;
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::workloads::{self, Size};
    use hcloud::runner::{run_scenario, RunCtx};

    #[test]
    fn replay_reproduces_run_scenario() {
        // Tenancy, faults and strict audit, then every registered strategy.
        for name in ["tenant-zipf", "strategy-sweep"] {
            let p = workloads::prepare(name, 7, Size::Smoke).unwrap();
            for cell in &p.cells {
                let factory = RngFactory::new(7);
                let auditor = cell.auditor();
                let ctx = RunCtx::new(&factory).with_auditor(&auditor);
                let want = run_scenario(&p.scenario, &cell.config, &ctx).unwrap();
                let auditor = cell.auditor();
                let (got, spans) = run_traced(
                    &p.scenario,
                    &cell.config,
                    &factory,
                    &auditor,
                    Spans::default(),
                );
                let id = cell.config.strategy.id();
                assert_eq!(got.result.unwrap(), want, "{name}/{id}");
                let events = want.counters.events_processed as u64;
                let dispatched: u64 = Layer::DISPATCH
                    .iter()
                    .map(|&(l, _)| spans.stat(l).calls)
                    .sum();
                assert_eq!(
                    dispatched, events,
                    "{name}/{id}: one handler span per event"
                );
                assert_eq!(spans.stat(Layer::StepCheck).calls, events);
            }
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut s = Spans::default();
        s.open(Layer::Tick, 100);
        s.open(Layer::Schedule, 110);
        s.close(130);
        s.open(Layer::Schedule, 150);
        s.close(155);
        s.close(200);
        let tick = s.stat(Layer::Tick);
        assert_eq!(tick.calls, 1);
        assert_eq!(tick.total_ns, 100);
        assert_eq!(tick.self_ns, 100 - 20 - 5);
        let sched = s.stat(Layer::Schedule);
        assert_eq!(sched.calls, 2);
        assert_eq!(sched.total_ns, 25);
        assert_eq!(sched.self_ns, 25, "leaf spans are all self time");
        assert_eq!(s.covered_ns(), 100, "only top-level spans cover wall");
    }

    #[test]
    fn grandchildren_are_charged_once() {
        let mut s = Spans::default();
        s.open(Layer::Finish, 0);
        s.open(Layer::Tick, 10);
        s.open(Layer::Schedule, 20);
        s.close(50);
        s.close(60);
        s.close(100);
        assert_eq!(s.stat(Layer::Schedule).self_ns, 30);
        assert_eq!(s.stat(Layer::Tick).self_ns, 50 - 30);
        assert_eq!(s.stat(Layer::Finish).self_ns, 100 - 50);
        let self_sum: u64 = Layer::ALL.iter().map(|&l| s.stat(l).self_ns).sum();
        assert_eq!(
            self_sum,
            s.covered_ns(),
            "self times partition the covered wall"
        );
    }

    #[test]
    fn siblings_share_a_boundary_and_count_timer_calls() {
        let mut s = Spans::default();
        s.enter(Layer::Arrival);
        s.exit_enter(Layer::StepCheck);
        s.exit();
        assert_eq!(s.timer_calls(), 3);
        assert_eq!(s.stat(Layer::Arrival).calls, 1);
        assert_eq!(s.stat(Layer::StepCheck).calls, 1);
        assert_eq!(
            s.stat(Layer::Arrival).total_ns + s.stat(Layer::StepCheck).total_ns,
            s.covered_ns()
        );
    }

    #[test]
    fn timer_calibration_is_positive() {
        let mut s = Spans::default();
        let ns = s.calibrate_timer_ns(1000);
        assert!(ns > 0.0 && ns.is_finite());
        assert_eq!(
            s.timer_calls(),
            0,
            "calibration reads are not run timer calls"
        );
    }
}
