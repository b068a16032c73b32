//! Tables 1 and 3: qualitative comparison of provisioning configurations
//! and the strategy resource matrix.

use hcloud::{OnDemand, StrategyId, StrategyRef};
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::Table;

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::TAB01_03;

fn main() {
    registry::announce(INFO);
    println!("Table 1: Comparison of system configurations\n");
    let mut t1 = Table::new(vec![
        "Configuration",
        "Cost",
        "Perf. unpredictability",
        "Spin-up",
        "Flexibility",
        "Typical usage",
    ]);
    t1.row(vec![
        "Reserved".into(),
        "High upfront, low per hour".into(),
        "no".into(),
        "no".into(),
        "no".into(),
        "long-term".into(),
    ]);
    t1.row(vec![
        "On-demand".into(),
        "No upfront, high per hour".into(),
        "yes".into(),
        "yes".into(),
        "yes".into(),
        "short-term".into(),
    ]);
    t1.row(vec![
        "Hybrid".into(),
        "Medium upfront, medium per hour".into(),
        "low".into(),
        "some".into(),
        "yes".into(),
        "long-term".into(),
    ]);
    println!("{t1}");

    println!("Table 3: Resource provisioning strategies\n");
    let mut t3 = Table::new(vec!["", "SR", "OdF", "OdM", "HF", "HM"]);
    let caps: Vec<_> = StrategyId::PAPER
        .iter()
        .map(|&s| StrategyRef::from(s).caps())
        .collect();
    t3.row(
        std::iter::once("Reserved resources".to_string())
            .chain(
                caps.iter()
                    .map(|c| if c.reserved { "Yes" } else { "No" }.into()),
            )
            .collect(),
    );
    t3.row(
        std::iter::once("On-demand resources".to_string())
            .chain(caps.iter().map(|c| {
                match c.on_demand {
                    OnDemand::None => "No",
                    OnDemand::FullServers => "Yes (full servers)",
                    OnDemand::AnySize => "Yes",
                }
                .into()
            }))
            .collect(),
    );
    println!("{t3}");
}
