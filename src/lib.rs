//! Umbrella crate for the HCloud reproduction workspace.
//!
//! This root package exists to host the cross-crate integration tests in
//! `tests/` and the runnable examples in `examples/`. The actual library
//! surface lives in the member crates:
//!
//! * [`hcloud`] — the provisioning system (strategies, policies, runner);
//! * [`hcloud_sim`] — discrete-event simulation substrate;
//! * [`hcloud_interference`] — shared-resource interference model;
//! * [`hcloud_cloud`] — cloud provider model;
//! * [`hcloud_workloads`] — workload and scenario generators;
//! * [`hcloud_quasar`] — profiling/classification substrate;
//! * [`hcloud_pricing`] — pricing models and cost accounting.

pub use hcloud;
pub use hcloud_cloud;
pub use hcloud_interference;
pub use hcloud_pricing;
pub use hcloud_quasar;
pub use hcloud_sim;
pub use hcloud_workloads;

/// The README's Rust snippets, compiled as doctests so they cannot rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
