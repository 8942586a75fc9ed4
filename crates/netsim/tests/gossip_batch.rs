//! Batched-vs-sequential bit-equality: a k-message
//! [`TopologyView::gossip_batch_into`] pass must produce delivery
//! matrices, arrivals and coverage times **bit-identical** to k
//! independent [`TopologyView::gossip_into`] calls — the correctness
//! contract that lets the traffic layer
//! amortize per-message buffer resets without changing a single float.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use perigee_netsim::gossip::BatchMessage;
use perigee_netsim::{
    ConnectionLimits, GeoLatencyModel, GossipConfig, GossipScratch, NodeId, Population,
    PopulationBuilder, SimTime, Topology, TopologyView, TrafficConfig,
};

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

/// Mixed-policy batch over `n` nodes, deterministic in `rng`.
fn mixed_batch(n: u32, k: usize, rng: &mut StdRng) -> Vec<BatchMessage> {
    let configs = [
        GossipConfig::flood(),
        GossipConfig::inv_getdata(0.0005),
        GossipConfig::push_pull(0.002, 3),
        GossipConfig::inv_getdata(0.0),
    ];
    (0..k)
        .map(|i| BatchMessage {
            source: NodeId::new(rng.gen_range(0..n)),
            config: configs[i % configs.len()],
        })
        .collect()
}

/// Runs `batch` once batched and once as k sequential single passes,
/// asserting every per-message observable is bit-identical.
fn assert_batch_equals_sequential(view: &TopologyView, batch: &[BatchMessage]) {
    let m = view.directed_edge_count();
    let mut batched = GossipScratch::new();
    let mut single = GossipScratch::new();
    let mut visited = 0usize;
    view.gossip_batch_into(batch, &mut batched, |i, s| {
        visited += 1;
        let msg = &batch[i];
        view.gossip_into(msg.source, &msg.config, &mut single);
        assert_eq!(s.source(), msg.source);
        for v in 0..view.len() as u32 {
            let v = NodeId::new(v);
            assert_eq!(
                s.batch_arrival(v).as_ms().to_bits(),
                single.arrival(v).as_ms().to_bits(),
                "message {i} arrival at {v}"
            );
        }
        for e in 0..m {
            assert_eq!(
                s.delivery(e).as_ms().to_bits(),
                single.delivery(e).as_ms().to_bits(),
                "message {i} delivery matrix entry {e}"
            );
        }
        assert_eq!(s.batch_reached(), single.reached());
        let fractions = [0.5, 0.9, 1.0];
        let mut via_batch = [SimTime::ZERO; 3];
        s.batch_coverage_times_into(view, &fractions, &mut via_batch);
        let mut via_single = [SimTime::ZERO; 3];
        single.coverage_times_into(view, &fractions, &mut via_single);
        assert_eq!(via_batch, via_single, "message {i} coverage");
    });
    assert_eq!(visited, batch.len());
}

#[test]
fn batch_is_bit_identical_to_sequential() {
    for seed in 0..3 {
        let (pop, lat, topo, mut rng) = random_world(60, seed + 40);
        let view = TopologyView::new(&topo, &lat, &pop);
        let batch = mixed_batch(60, 24, &mut rng);
        assert_batch_equals_sequential(&view, &batch);
    }
}

#[test]
fn repeated_batches_reuse_the_scratch_without_drift() {
    let (pop, lat, topo, mut rng) = random_world(50, 7);
    let view = TopologyView::new(&topo, &lat, &pop);
    // Three consecutive batches through ONE scratch (epochs keep
    // climbing) must equal fresh-scratch runs of the same batches.
    let mut carried = GossipScratch::new();
    for round in 0..3 {
        let batch = mixed_batch(50, 16, &mut rng);
        let mut fresh = GossipScratch::new();
        let mut expect: Vec<Vec<SimTime>> = Vec::new();
        view.gossip_batch_into(&batch, &mut fresh, |_, s| {
            expect.push((0..50).map(|v| s.batch_arrival(NodeId::new(v))).collect());
        });
        let mut got: Vec<Vec<SimTime>> = Vec::new();
        view.gossip_batch_into(&batch, &mut carried, |_, s| {
            got.push((0..50).map(|v| s.batch_arrival(NodeId::new(v))).collect());
        });
        assert_eq!(expect, got, "round {round}");
    }
}

#[test]
fn traffic_stream_batches_match_sequential_passes() {
    let (pop, lat, topo, _) = random_world(80, 11);
    let view = TopologyView::new(&topo, &lat, &pop);
    let traffic = TrafficConfig::paper_stream(31);
    let messages = traffic.messages_for_round(2, &pop);
    assert!(messages.len() > 400, "paper stream should be dense");
    let mut batch = Vec::new();
    traffic.batch_for(&messages, &mut batch);
    // Sample-check the first 200 messages of the stream.
    assert_batch_equals_sequential(&view, &batch[..200]);
}
