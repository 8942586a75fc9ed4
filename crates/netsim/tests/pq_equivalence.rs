//! Golden cross-engine tests for the calendar queue: the calendar-queue
//! flood and gossip engines must be **event-for-event identical** to the
//! heap-driven seed engine [`support::reference::gossip_block`]
//! (a `BinaryHeap`-backed [`EventQueue`]) — same arrivals, same
//! per-neighbor delivery logs — across seeds, network sizes, gossip
//! modes, bandwidth models and adversarial behaviours. The analytic flood
//! is checked against the oracle's arrivals under
//! [`GossipConfig::flood()`].
//!
//! Queue-level equality (calendar vs `BinaryHeap` pop for pop) lives in
//! `tests/proptests.rs` and the `pq` unit tests. Thread-count
//! independence of rounds is covered by the engine-level suite in
//! `crates/core/tests/determinism.rs` (blocks within a round are
//! simulated on per-worker scratches; this file pins down the per-block
//! engines the workers run).
//!
//! [`EventQueue`]: support::event::EventQueue

mod support;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use perigee_netsim::{
    Behavior, BroadcastScratch, ConnectionLimits, GeoLatencyModel, GossipConfig, GossipMode,
    GossipScratch, NodeId, Population, PopulationBuilder, SimTime, Topology, TopologyView,
    TransferModel,
};
use support::reference::gossip_block as heap_gossip_block;

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

/// Floods `src` on the calendar-queue analytic engine and asserts its
/// arrivals are bit-equal to the heap oracle's flood-gossip arrivals.
fn assert_flood_agrees(
    topo: &Topology,
    lat: &GeoLatencyModel,
    pop: &Population,
    view: &TopologyView,
    src: NodeId,
    cal: &mut BroadcastScratch,
) {
    let (heap_arrivals, _) = heap_gossip_block(topo, lat, pop, src, &GossipConfig::flood());
    view.broadcast_into(src, cal);
    assert_eq!(cal.arrivals(), &heap_arrivals[..], "arrival times diverged");
}

/// Simulates `src` under `cfg` on the calendar-queue gossip engine and
/// asserts the full event record is bit-equal to the heap oracle's:
/// arrivals and every node's per-neighbor delivery log.
fn assert_gossip_agrees(
    topo: &Topology,
    lat: &GeoLatencyModel,
    pop: &Population,
    view: &TopologyView,
    src: NodeId,
    cfg: &GossipConfig,
    cal: &mut GossipScratch,
) {
    let (heap_arrivals, heap_logs) = heap_gossip_block(topo, lat, pop, src, cfg);
    view.gossip_into(src, cfg, cal);
    assert_eq!(cal.arrivals(), &heap_arrivals[..], "arrival times diverged");
    let outcome = cal.to_outcome(view);
    for (i, log) in heap_logs.iter().enumerate() {
        let v = NodeId::new(i as u32);
        assert_eq!(
            outcome.neighbor_deliveries(v),
            log,
            "deliveries at {v:?} diverged"
        );
    }
}

#[test]
fn calendar_flood_is_bit_identical_across_seeds_and_sizes() {
    for (n, seed) in [(20usize, 0u64), (50, 1), (50, 2), (120, 3), (250, 4)] {
        let (pop, lat, topo, mut rng) = random_world(n, seed);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut cal = BroadcastScratch::new();
        for _ in 0..4 {
            let src = NodeId::new(rng.gen_range(0..n as u32));
            assert_flood_agrees(&topo, &lat, &pop, &view, src, &mut cal);
        }
    }
}

#[test]
fn calendar_gossip_is_bit_identical_across_seeds_modes_and_sizes() {
    for (n, seed) in [(20usize, 10u64), (60, 11), (60, 12), (150, 13)] {
        let (pop, lat, topo, mut rng) = random_world(n, seed);
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut cal = GossipScratch::new();
        for cfg in [
            GossipConfig::flood(),
            GossipConfig::inv_getdata(0.0),
            GossipConfig::inv_getdata(1.0),
        ] {
            for _ in 0..3 {
                let src = NodeId::new(rng.gen_range(0..n as u32));
                assert_gossip_agrees(&topo, &lat, &pop, &view, src, &cfg, &mut cal);
            }
        }
    }
}

#[test]
fn calendar_engines_agree_under_bandwidth_skew() {
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(seed + 700);
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
        let view = TopologyView::new(&topo, &lat, &pop);
        let mut cal = GossipScratch::new();
        for cfg in [
            GossipConfig {
                mode: GossipMode::Flood,
                transfer: TransferModel::new(1.0),
            },
            GossipConfig::inv_getdata(1.0),
        ] {
            let src = NodeId::new(rng.gen_range(0..60));
            assert_gossip_agrees(&topo, &lat, &pop, &view, src, &cfg, &mut cal);
        }
    }
}

#[test]
fn calendar_engines_agree_under_adversarial_behaviors() {
    // Silent absorbers and long withholding delays push event times far
    // from the typical latency band — including past whole-second marks —
    // without breaking bit-identity.
    let (mut pop, lat, topo, mut rng) = random_world(50, 77);
    pop.profile_mut(NodeId::new(3)).behavior = Behavior::Silent;
    pop.profile_mut(NodeId::new(11)).behavior = Behavior::Delay(SimTime::from_ms(2_500.0));
    pop.profile_mut(NodeId::new(29)).behavior = Behavior::Delay(SimTime::from_ms(301.5));
    let view = TopologyView::new(&topo, &lat, &pop);
    let mut fcal = BroadcastScratch::new();
    let mut gcal = GossipScratch::new();
    for _ in 0..4 {
        let src = NodeId::new(rng.gen_range(0..50));
        assert_flood_agrees(&topo, &lat, &pop, &view, src, &mut fcal);
        for cfg in [GossipConfig::flood(), GossipConfig::inv_getdata(0.0)] {
            assert_gossip_agrees(&topo, &lat, &pop, &view, src, &cfg, &mut gcal);
        }
    }
}

#[test]
fn scratch_reuse_across_blocks_matches_the_heap_oracle() {
    // The epoch-stamped delivery matrix and the calendar's O(1) clear
    // must leave no residue between blocks: simulate a long block
    // sequence on ONE scratch and compare every block against the heap
    // oracle (a fresh-scratch run would hide stale-state bugs).
    let (pop, lat, topo, mut rng) = random_world(80, 99);
    let view = TopologyView::new(&topo, &lat, &pop);
    let mut cal = GossipScratch::new();
    let cfg = GossipConfig::inv_getdata(0.0);
    for _ in 0..25 {
        let src = NodeId::new(rng.gen_range(0..80));
        assert_gossip_agrees(&topo, &lat, &pop, &view, src, &cfg, &mut cal);
    }
    // And a fresh calendar scratch agrees with the reused one — reuse is
    // residue-free in both directions.
    let src = NodeId::new(17);
    view.gossip_into(src, &cfg, &mut cal);
    let mut fresh = GossipScratch::new();
    view.gossip_into(src, &cfg, &mut fresh);
    assert_eq!(cal.arrivals(), fresh.arrivals());
    for e in 0..view.directed_edge_count() {
        assert_eq!(cal.delivery(e), fresh.delivery(e));
    }
}
