//! Cross-validation of the pooled gossip engine against the reference
//! implementation of the legacy `gossip_block`
//! ([`support::reference`]): the original [`EventQueue`]-based
//! engine with boxed events and per-node `BTreeMap` delivery logs. The
//! pooled engine claims bit-identical behaviour by construction (same
//! schedule order, same time-tie insertion-sequence break, same `δ(u,v)`
//! call directions, same transfer floats); this suite checks the claim
//! event for event across both modes, bandwidth models and adversarial
//! behaviours.
//!
//! [`EventQueue`]: support::event::EventQueue

mod support;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use perigee_netsim::{
    gossip_block, Behavior, ConnectionLimits, GeoLatencyModel, GossipConfig, GossipMode,
    GossipScratch, NodeId, Population, PopulationBuilder, SimTime, Topology, TopologyView,
    TransferModel,
};
use support::reference::gossip_block as legacy_gossip_block;

fn random_world(n: usize, seed: u64) -> (Population, GeoLatencyModel, Topology, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let mut topo = Topology::new(n, ConnectionLimits::paper_default());
    for i in 0..n as u32 {
        let _ = topo.connect(NodeId::new(i), NodeId::new((i + 1) % n as u32));
    }
    for _ in 0..3 * n {
        let u = NodeId::new(rng.gen_range(0..n as u32));
        let v = NodeId::new(rng.gen_range(0..n as u32));
        let _ = topo.connect(u, v);
    }
    (pop, lat, topo, rng)
}

/// Asserts the pooled engine (both through the wrapper and through a
/// reused scratch) equals the legacy replica bit for bit: arrivals AND the
/// full per-neighbor delivery logs.
fn assert_engines_agree(
    pop: &Population,
    lat: &GeoLatencyModel,
    topo: &Topology,
    src: NodeId,
    cfg: &GossipConfig,
) {
    let (legacy_arrival, legacy_deliveries) = legacy_gossip_block(topo, lat, pop, src, cfg);
    let out = gossip_block(topo, lat, pop, src, cfg);
    assert_eq!(out.arrivals(), legacy_arrival.as_slice(), "arrivals differ");
    for i in 0..pop.len() as u32 {
        let v = NodeId::new(i);
        assert_eq!(
            out.neighbor_deliveries(v),
            &legacy_deliveries[v.index()],
            "delivery log of {v} differs"
        );
    }

    let view = TopologyView::new(topo, lat, pop);
    let mut scratch = GossipScratch::new();
    view.gossip_into(src, cfg, &mut scratch);
    assert_eq!(scratch.arrivals(), legacy_arrival.as_slice());
    assert_eq!(scratch.to_outcome(&view), out);
}

#[test]
fn flood_mode_is_bit_identical_to_legacy_engine() {
    for seed in 0..6 {
        let (pop, lat, topo, mut rng) = random_world(70, seed);
        for _ in 0..3 {
            let src = NodeId::new(rng.gen_range(0..70));
            assert_engines_agree(&pop, &lat, &topo, src, &GossipConfig::flood());
        }
    }
}

#[test]
fn inv_getdata_mode_is_bit_identical_to_legacy_engine() {
    for seed in 0..6 {
        let (pop, lat, topo, mut rng) = random_world(70, seed + 100);
        for _ in 0..3 {
            let src = NodeId::new(rng.gen_range(0..70));
            assert_engines_agree(&pop, &lat, &topo, src, &GossipConfig::inv_getdata(0.0));
        }
    }
}

#[test]
fn push_pull_mode_is_bit_identical_to_legacy_engine() {
    for seed in 0..6 {
        let (pop, lat, topo, mut rng) = random_world(70, seed + 200);
        for push_degree in [1, 3, 8] {
            let src = NodeId::new(rng.gen_range(0..70));
            assert_engines_agree(
                &pop,
                &lat,
                &topo,
                src,
                &GossipConfig::push_pull(0.001, push_degree),
            );
        }
    }
}

#[test]
fn bandwidth_limited_transfers_are_bit_identical_to_legacy_engine() {
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(seed + 500);
        let pop = PopulationBuilder::new(60)
            .bandwidth_skew(true)
            .build(&mut rng)
            .unwrap();
        let lat = GeoLatencyModel::new(&pop, seed);
        let mut topo = Topology::new(60, ConnectionLimits::paper_default());
        for i in 0..60u32 {
            let _ = topo.connect(NodeId::new(i), NodeId::new((i + 1) % 60));
        }
        for _ in 0..180 {
            let u = NodeId::new(rng.gen_range(0..60));
            let v = NodeId::new(rng.gen_range(0..60));
            let _ = topo.connect(u, v);
        }
        for cfg in [
            GossipConfig {
                mode: GossipMode::Flood,
                transfer: TransferModel::new(1.0),
            },
            GossipConfig::inv_getdata(1.0),
            GossipConfig::push_pull(1.0, 2),
        ] {
            let src = NodeId::new(rng.gen_range(0..60));
            assert_engines_agree(&pop, &lat, &topo, src, &cfg);
        }
    }
}

#[test]
fn adversarial_behaviors_are_bit_identical_to_legacy_engine() {
    let (mut pop, lat, topo, _) = random_world(50, 77);
    pop.profile_mut(NodeId::new(4)).behavior = Behavior::Silent;
    pop.profile_mut(NodeId::new(9)).behavior = Behavior::Delay(SimTime::from_ms(300.0));
    for cfg in [
        GossipConfig::flood(),
        GossipConfig::inv_getdata(0.0),
        GossipConfig::push_pull(0.0, 2),
    ] {
        // An honest source, the delaying node, and a silent (withholding)
        // source that never announces at all.
        for src in [0u32, 9, 4] {
            assert_engines_agree(&pop, &lat, &topo, NodeId::new(src), &cfg);
        }
    }
}
