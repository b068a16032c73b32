//! Property-based tests for the cloud substrate.

use hcloud_cloud::{Cloud, CloudConfig, ExternalLoadModel, InstanceId, InstanceType, SpotMarket};
use hcloud_interference::{Resource, ResourceVector};
use hcloud_sim::rng::RngFactory;
use hcloud_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// The uncached external pressure on `id` at `t`: the pure model's
/// pressure with the cloud's partitioning shield applied by hand.
fn reference_pressure(
    cloud: &Cloud,
    factory: &RngFactory,
    id: InstanceId,
    t: SimTime,
) -> ResourceVector {
    let inst = cloud.instance(id);
    if inst.is_reserved() {
        return ResourceVector::ZERO;
    }
    let mut p =
        cloud
            .external_model()
            .pressure(factory, id.raw(), t, inst.itype().external_share());
    let iso = cloud.config().partitioning;
    if iso > 0.0 {
        for r in [
            Resource::CacheLlc,
            Resource::MemBandwidth,
            Resource::NetBandwidth,
        ] {
            p[r] *= 1.0 - iso;
        }
    }
    p
}

fn bits(v: ResourceVector) -> Vec<u64> {
    v.as_array().iter().map(|x| x.to_bits()).collect()
}

/// One step of the cache differential test.
#[derive(Debug, Clone)]
enum CloudOp {
    /// Acquire an on-demand (or spot) instance of catalog type `.0`.
    Acquire(usize, bool),
    /// Provision one reserved server.
    Reserve,
    /// Release the `.0`-th issued instance, if it is still held.
    Release(usize),
    /// Advance the clock by `.0` microseconds.
    Advance(u64),
    /// Read the `.0`-th issued instance `.1` seconds before now.
    Read(usize, u64),
}

fn cloud_op() -> impl Strategy<Value = CloudOp> {
    (0u8..17, any::<u64>(), 0u64..60).prop_map(|(kind, x, back)| match kind {
        0..=2 => CloudOp::Acquire((x % 8) as usize, kind == 0 && x % 5 == 0),
        3 => CloudOp::Reserve,
        4..=5 => CloudOp::Release(x as usize),
        // Mostly steps inside one 10-s interval, sometimes across several.
        6..=7 => CloudOp::Advance(x % 3_000_000),
        8 => CloudOp::Advance(9_000_000 + x % 31_000_000),
        // Half the reads are at `now`, so consecutive ones share an interval.
        _ => CloudOp::Read(x as usize, if kind % 2 == 0 { 0 } else { back }),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// External load stays within its documented bounds for any mean.
    #[test]
    fn external_level_bounds(mean in 0.0f64..=1.0, seed in any::<u64>(), server in any::<u64>(), t in 0u64..1_000_000) {
        let m = ExternalLoadModel::with_mean(mean);
        let f = RngFactory::new(seed);
        let level = m.level(&f, server, SimTime::from_secs(t));
        prop_assert!((0.0..=0.95).contains(&level), "level {level}");
    }

    /// Pressure scales with the external share and vanishes for full
    /// servers.
    #[test]
    fn pressure_respects_share(seed in any::<u64>(), server in any::<u64>(), t in 0u64..100_000) {
        let m = ExternalLoadModel::default();
        let f = RngFactory::new(seed);
        let t = SimTime::from_secs(t);
        let zero = m.pressure(&f, server, t, 0.0);
        prop_assert_eq!(zero.sum(), 0.0);
        let half = m.pressure(&f, server, t, 0.5).sum();
        let most = m.pressure(&f, server, t, 15.0 / 16.0).sum();
        prop_assert!(most >= half - 1e-12);
    }

    /// Spin-up samples are non-negative and zero under the instant model.
    #[test]
    fn spin_up_samples_bounded(seed in any::<u64>(), vcpus_idx in 0usize..5) {
        use hcloud_cloud::SpinUpModel;
        use hcloud_cloud::instance_type::VALID_SIZES;
        let itype = InstanceType::standard(VALID_SIZES[vcpus_idx]);
        let mut rng = hcloud_sim::rng::SimRng::from_seed_u64(seed);
        let d = SpinUpModel::default().sample(itype, &mut rng);
        prop_assert!(d.as_secs_f64() >= 0.0);
        prop_assert!(d.as_secs_f64() < 3600.0, "absurd spin-up {d}");
        let zero = SpinUpModel::instant().sample(itype, &mut rng);
        prop_assert_eq!(zero, SimDuration::ZERO);
    }

    /// Spot terminations never precede the acquisition instant, and
    /// higher bids never terminate earlier.
    #[test]
    fn spot_termination_ordering(seed in any::<u64>(), from in 0u64..100_000, bid in 0.1f64..1.5) {
        let m = SpotMarket::default();
        let f = RngFactory::new(seed);
        let from = SimTime::from_secs(from);
        let horizon = SimDuration::from_hours(4);
        let itype = InstanceType::standard(4);
        let low = m.first_termination(&f, itype, bid, from, horizon);
        let high = m.first_termination(&f, itype, bid + 0.5, from, horizon);
        if let Some(t) = low {
            prop_assert!(t >= from);
        }
        match (low, high) {
            (Some(a), Some(b)) => prop_assert!(b >= a, "higher bid terminated earlier"),
            (None, Some(_)) => prop_assert!(false, "higher bid terminated but lower survived"),
            _ => {}
        }
    }

    /// Usage records never have negative durations and spot records carry
    /// sub-unit multipliers on average.
    #[test]
    fn usage_records_are_sane(seed in any::<u64>(), release_after in 1u64..5000) {
        let mut cloud = Cloud::new(CloudConfig::default(), RngFactory::new(seed));
        let a = cloud.acquire(InstanceType::standard(2), SimTime::ZERO);
        let s = cloud.acquire_spot(InstanceType::standard(2), 0.6, SimTime::ZERO);
        cloud.release(a, SimTime::from_secs(release_after));
        cloud.release(s, SimTime::from_secs(release_after));
        for rec in cloud.usage_records(SimTime::from_secs(10_000)) {
            prop_assert!(rec.to >= rec.from);
            prop_assert!(rec.rate_multiplier > 0.0);
        }
    }

    /// Partitioning only ever reduces external pressure.
    #[test]
    fn partitioning_reduces_pressure(seed in any::<u64>(), iso in 0.0f64..=1.0, t in 0u64..50_000) {
        let mk = |partitioning: f64| {
            Cloud::new(
                CloudConfig {
                    partitioning,
                    ..CloudConfig::default()
                },
                RngFactory::new(seed),
            )
        };
        let mut plain = mk(0.0);
        let mut shielded = mk(iso);
        let a = plain.acquire(InstanceType::standard(1), SimTime::ZERO);
        let b = shielded.acquire(InstanceType::standard(1), SimTime::ZERO);
        let t = SimTime::from_secs(t);
        let p = plain.external_pressure(a, t).sum();
        let q = shielded.external_pressure(b, t).sum();
        prop_assert!(q <= p + 1e-12, "partitioned pressure {q} exceeds plain {p}");
    }

    /// The cloud's cached external pressure and delivered quality equal
    /// the pure model bit for bit, over any acquire/release history:
    /// repeated reads inside one interval, reads across interval
    /// boundaries and back in time, reserved, full-server and shared
    /// types, released ids, partitioning off and on, and a silent model.
    #[test]
    fn cached_pressure_matches_the_pure_model(
        seed in any::<u64>(),
        shape in 0u8..10,
        ops in prop::collection::vec(cloud_op(), 1..120),
    ) {
        let catalog = [
            InstanceType::MICRO,
            InstanceType::standard(1),
            InstanceType::standard(2),
            InstanceType::standard(4),
            InstanceType::standard(8),
            InstanceType::standard(16),
            InstanceType::full_server(),
            InstanceType::new(hcloud_cloud::Family::MemoryOptimized, 4),
        ];
        let factory = RngFactory::new(seed);
        let mut cloud = Cloud::new(
            CloudConfig {
                partitioning: if shape % 2 == 0 { 0.0 } else { 0.5 },
                external: if shape == 9 {
                    ExternalLoadModel::none()
                } else {
                    ExternalLoadModel::default()
                },
                ..CloudConfig::default()
            },
            factory,
        );
        let mut ids: Vec<InstanceId> = Vec::new();
        let mut now = SimTime::from_secs(60);
        for op in ops {
            match op {
                CloudOp::Acquire(k, false) => ids.push(cloud.acquire(catalog[k], now)),
                CloudOp::Acquire(k, true) => ids.push(cloud.acquire_spot(catalog[k], 0.6, now)),
                CloudOp::Reserve => ids.extend(cloud.provision_reserved(1, now)),
                CloudOp::Release(i) if !ids.is_empty() => {
                    let id = ids[i % ids.len()];
                    if cloud.instance(id).released_at().is_none() {
                        cloud.release(id, now);
                    }
                }
                CloudOp::Release(_) => {}
                CloudOp::Advance(us) => now += SimDuration::from_micros(us),
                CloudOp::Read(i, back) if !ids.is_empty() => {
                    let id = ids[i % ids.len()];
                    let t = SimTime::from_micros(now.as_micros() - back * 1_000_000);
                    let want = reference_pressure(&cloud, &factory, id, t);
                    // Twice: the second read of an interval is a memo hit.
                    for _ in 0..2 {
                        prop_assert_eq!(bits(cloud.external_pressure(id, t)), bits(want));
                        let q = cloud.slowdown_model().delivered_quality(&want)
                            / cloud.fault_slowdown(id, t);
                        prop_assert_eq!(cloud.delivered_quality(id, t).to_bits(), q.to_bits());
                    }
                }
                CloudOp::Read(..) => {}
            }
        }
    }
}
