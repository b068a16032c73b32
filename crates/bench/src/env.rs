//! Typed reader for the ambient `HCLOUD_*` experiment variables.
//!
//! Every bench binary and the CI smoke jobs are steered by seven
//! environment variables — `HCLOUD_SEED`, `HCLOUD_FAST`, `HCLOUD_JOBS`,
//! `HCLOUD_TRACE`, `HCLOUD_FAULTS`, `HCLOUD_AUDIT`, `HCLOUD_STRATEGY`.
//! [`EnvOpts`] is their one typed home: each variable is parsed exactly
//! once, and a malformed value is a hard error naming the variable, the
//! offending value, and what was expected — never a silent fallback to a
//! default the user did not ask for.

use hcloud::{StrategyId, StrategyRegistry};
use hcloud_audit::AuditMode;
use hcloud_faults::FaultPlanId;
use hcloud_telemetry::TraceMode;

/// The seven ambient experiment variables, parsed and typed.
///
/// [`crate::ExperimentCtx`] is built from this; binaries that need only
/// the raw knobs (e.g. a perf harness that sizes its own scenario) can
/// read [`EnvOpts`] directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvOpts {
    /// `HCLOUD_SEED` (default 42): the master seed every ambient-seeded
    /// run derives from.
    pub seed: u64,
    /// `HCLOUD_FAST=1`: shrink scenarios for smoke runs.
    pub fast: bool,
    /// `HCLOUD_JOBS`: explicit worker count (1 = sequential); `None`
    /// uses `std::thread::available_parallelism`.
    pub jobs: Option<usize>,
    /// `HCLOUD_TRACE`: `off` (default), `summary` or `full`.
    pub trace: TraceMode,
    /// `HCLOUD_FAULTS`: `off` (default) or a built-in fault-plan name.
    pub faults: FaultPlanId,
    /// `HCLOUD_AUDIT`: `off` (default), `final` or `strict`.
    pub audit: AuditMode,
    /// `HCLOUD_STRATEGY`: focus the run on one registered strategy
    /// (registry id or short name); `None` runs each binary's full
    /// strategy set.
    pub strategy: Option<StrategyId>,
}

impl Default for EnvOpts {
    fn default() -> Self {
        EnvOpts {
            seed: 42,
            fast: false,
            jobs: None,
            trace: TraceMode::Off,
            faults: FaultPlanId::Off,
            audit: AuditMode::Off,
            strategy: None,
        }
    }
}

impl EnvOpts {
    /// Parses the seven ambient variables from their raw string values.
    /// Malformed values are an error with a message naming the variable,
    /// the offending value, and what was expected.
    pub fn parse(
        seed: Option<&str>,
        fast: Option<&str>,
        jobs: Option<&str>,
        trace: Option<&str>,
        faults: Option<&str>,
        audit: Option<&str>,
        strategy: Option<&str>,
    ) -> Result<Self, String> {
        let seed = match seed {
            None => 42,
            Some(s) => s.trim().parse::<u64>().map_err(|_| {
                format!("invalid HCLOUD_SEED {s:?}: expected an unsigned 64-bit integer")
            })?,
        };
        let fast = match fast {
            None | Some("0") => false,
            Some("1") => true,
            Some(s) => {
                return Err(format!(
                    "invalid HCLOUD_FAST {s:?}: expected 1 (fast smoke mode) or 0"
                ))
            }
        };
        let jobs = match jobs {
            None => None,
            Some(s) => match s.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => {
                    return Err(format!(
                        "invalid HCLOUD_JOBS {s:?}: expected a worker count >= 1"
                    ))
                }
            },
        };
        let trace = TraceMode::parse(trace)?;
        let faults = FaultPlanId::parse(faults)?;
        let audit = AuditMode::parse(audit)?;
        let strategy = match strategy {
            None => None,
            Some(s) => Some(s.trim().parse::<StrategyId>().map_err(|_| {
                format!(
                    "invalid HCLOUD_STRATEGY {s:?}: expected a registered strategy id or \
                     short name ({})",
                    StrategyRegistry::builtin().ids().join(", ")
                )
            })?),
        };
        Ok(EnvOpts {
            seed,
            fast,
            jobs,
            trace,
            faults,
            audit,
            strategy,
        })
    }

    /// Reads the seven `HCLOUD_*` variables from the process environment.
    pub fn from_env() -> Result<Self, String> {
        let var = |name: &str| std::env::var(name).ok();
        Self::parse(
            var("HCLOUD_SEED").as_deref(),
            var("HCLOUD_FAST").as_deref(),
            var("HCLOUD_JOBS").as_deref(),
            var("HCLOUD_TRACE").as_deref(),
            var("HCLOUD_FAULTS").as_deref(),
            var("HCLOUD_AUDIT").as_deref(),
            var("HCLOUD_STRATEGY").as_deref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Which of the seven variables a table row exercises.
    #[derive(Clone, Copy)]
    enum Var {
        Seed,
        Fast,
        Jobs,
        Trace,
        Faults,
        Audit,
        Strategy,
    }

    fn parse_one(var: Var, value: &str) -> Result<EnvOpts, String> {
        let v = Some(value);
        match var {
            Var::Seed => EnvOpts::parse(v, None, None, None, None, None, None),
            Var::Fast => EnvOpts::parse(None, v, None, None, None, None, None),
            Var::Jobs => EnvOpts::parse(None, None, v, None, None, None, None),
            Var::Trace => EnvOpts::parse(None, None, None, v, None, None, None),
            Var::Faults => EnvOpts::parse(None, None, None, None, v, None, None),
            Var::Audit => EnvOpts::parse(None, None, None, None, None, v, None),
            Var::Strategy => EnvOpts::parse(None, None, None, None, None, None, v),
        }
    }

    #[test]
    fn table_of_valid_and_malformed_values() {
        // (variable, raw value, Ok(check) | Err(expected substrings)).
        type Check = fn(&EnvOpts) -> bool;
        let ok: Vec<(Var, &str, Check)> = vec![
            (Var::Seed, "7", |o| o.seed == 7),
            (Var::Seed, " 123 ", |o| o.seed == 123),
            (Var::Fast, "1", |o| o.fast),
            (Var::Fast, "0", |o| !o.fast),
            (Var::Jobs, "1", |o| o.jobs == Some(1)),
            (Var::Jobs, "8", |o| o.jobs == Some(8)),
            (Var::Trace, "off", |o| o.trace == TraceMode::Off),
            (Var::Trace, "summary", |o| o.trace == TraceMode::Summary),
            (Var::Trace, "full", |o| o.trace == TraceMode::Full),
            (Var::Faults, "off", |o| o.faults == FaultPlanId::Off),
            (Var::Faults, "full-chaos", |o| {
                o.faults == FaultPlanId::FullChaos
            }),
            (Var::Audit, "off", |o| o.audit == AuditMode::Off),
            (Var::Audit, "final", |o| o.audit == AuditMode::Final),
            (Var::Audit, "strict", |o| o.audit == AuditMode::Strict),
            (Var::Strategy, "hybrid-mixed", |o| {
                o.strategy.map(|s| s.as_str()) == Some("hybrid-mixed")
            }),
            (Var::Strategy, "HM", |o| {
                o.strategy.map(|s| s.as_str()) == Some("hybrid-mixed")
            }),
            (Var::Strategy, "reservation-autoscale", |o| {
                o.strategy.map(|s| s.as_str()) == Some("reservation-autoscale")
            }),
            (Var::Strategy, "qc", |o| {
                o.strategy.map(|s| s.as_str()) == Some("queueing-capacity")
            }),
        ];
        for (var, value, check) in ok {
            let opts = parse_one(var, value)
                .unwrap_or_else(|e| panic!("{value:?} should parse, got: {e}"));
            assert!(check(&opts), "{value:?} parsed to the wrong value");
        }

        let bad: Vec<(Var, &str, &[&str])> = vec![
            (Var::Seed, "banana", &["HCLOUD_SEED", "banana"]),
            (Var::Seed, "-1", &["HCLOUD_SEED", "-1"]),
            (Var::Fast, "yes", &["HCLOUD_FAST", "yes"]),
            (Var::Fast, "2", &["HCLOUD_FAST", "2"]),
            (Var::Jobs, "0", &["HCLOUD_JOBS", "0"]),
            (Var::Jobs, "many", &["HCLOUD_JOBS", "many"]),
            (Var::Trace, "loud", &["HCLOUD_TRACE", "loud"]),
            (Var::Faults, "mayhem", &["HCLOUD_FAULTS", "mayhem"]),
            (Var::Audit, "paranoid", &["HCLOUD_AUDIT", "paranoid"]),
            (
                Var::Strategy,
                "bogus",
                &["HCLOUD_STRATEGY", "bogus", "queueing-capacity"],
            ),
        ];
        for (var, value, needles) in bad {
            let e =
                parse_one(var, value).expect_err(&format!("{value:?} should be rejected loudly"));
            for needle in needles {
                assert!(e.contains(needle), "error {e:?} should mention {needle:?}");
            }
        }
    }

    #[test]
    fn unset_environment_is_all_defaults() {
        let opts = EnvOpts::parse(None, None, None, None, None, None, None).unwrap();
        assert_eq!(opts, EnvOpts::default());
        assert_eq!(opts.strategy, None);
    }
}
