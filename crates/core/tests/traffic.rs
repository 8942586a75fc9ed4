//! Combined block + transaction-stream rounds: the traffic phase must
//! change *nothing* about the determinism contract. Batched observation
//! rows are bit-identical to one `gossip_into` call per message, rounds
//! with a workload installed are bit-identical across thread counts,
//! the per-class λ-statistics are backend-independent, and
//! a traffic workload rides checkpoints through the on-disk envelope.

use perigee_core::{
    ObservationBackend, ObservationCollector, PerigeeConfig, PerigeeEngine, PropagationMode,
    RoundStats, RunSnapshot, ScoringMethod, TrafficRoundStats,
};
use perigee_netsim::{
    ConnectionLimits, GeoLatencyModel, GossipConfig, GossipScratch, PopulationBuilder,
    TopologyView, TrafficConfig,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine_with(
    n: usize,
    blocks: usize,
    seed: u64,
    backend: ObservationBackend,
) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
    cfg.blocks_per_round = blocks;
    cfg.observation_backend = backend;
    let mut engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
    engine
        .set_traffic(TrafficConfig::paper_stream(seed ^ 0x7AFF))
        .unwrap();
    (engine, rng)
}

/// The satellite contract at the observation layer: a k-message batch
/// pass records observation rows **bit-identical** to k single-message
/// passes through the same collector pipeline.
#[test]
fn batched_observation_rows_match_sequential_single_passes() {
    let mut rng = StdRng::seed_from_u64(3);
    let pop = PopulationBuilder::new(50).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, 3);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let view = TopologyView::new(&topo, &lat, &pop);

    let traffic = TrafficConfig::paper_stream(5);
    let messages = traffic.messages_for_round(1, &pop);
    assert!(messages.len() > 200, "stream should be dense");
    let mut batch = Vec::new();
    traffic.batch_for(&messages, &mut batch);
    batch.truncate(150);

    let mut batched = ObservationCollector::from_view(&view);
    let mut scratch = GossipScratch::new();
    view.gossip_batch_into(&batch, &mut scratch, |_, s| {
        batched.record_gossip_scratch(&view, s);
    });

    let mut sequential = ObservationCollector::from_view(&view);
    let mut single = GossipScratch::new();
    for m in &batch {
        view.gossip_into(m.source, &m.config, &mut single);
        sequential.record_gossip_scratch(&view, &single);
    }

    assert_eq!(
        batched.finish(),
        sequential.finish(),
        "batched rows must equal sequential rows"
    );
}

/// Messages each worker gossips per traffic window — mirrors the
/// engine's private window size, so the sketch variant below can prove
/// its world spans several windows plus a partial last one.
const TRAFFIC_WINDOW: usize = 128;

type Trajectory = (Vec<RoundStats>, TrafficRoundStats, Vec<f64>);

/// Runs `rounds` rounds of `build()`'s engine under every execution
/// variant: the default pool and pinned 1/2/8-thread rayon pools (the
/// 1-thread pool is the sequential run). Returns the default run first.
fn trajectories<L, F>(rounds: usize, build: F) -> Vec<Trajectory>
where
    L: perigee_netsim::LatencyModel,
    F: Fn() -> (PerigeeEngine<L>, StdRng),
{
    let run = |engine: &mut PerigeeEngine<L>, rng: &mut StdRng| {
        let stats = engine.run_rounds(rounds, rng);
        let traffic = engine.last_traffic_stats().unwrap().clone();
        (stats, traffic, engine.evaluate(0.9))
    };
    let (mut engine, mut rng) = build();
    let mut out = vec![run(&mut engine, &mut rng)];
    // Pinned pools: the window layout changes, the results must not.
    for threads in [1, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        out.push(pool.install(|| {
            let (mut engine, mut rng) = build();
            run(&mut engine, &mut rng)
        }));
    }
    out
}

fn assert_all_equal(runs: &[Trajectory]) {
    let reference = &runs[0];
    for (i, variant) in runs.iter().enumerate().skip(1) {
        assert_eq!(&reference.0, &variant.0, "RoundStats differ (variant {i})");
        assert_eq!(
            &reference.1, &variant.1,
            "traffic stats differ (variant {i})"
        );
        assert_eq!(&reference.2, &variant.2, "evaluation differs (variant {i})");
    }
}

/// Combined rounds are bit-identical across the default pool and
/// pinned 1/2/8-thread rayon pools — the
/// same guarantee the blocks-only engine gives, now under ~10× more
/// messages per round — on both observation backends.
#[test]
fn combined_rounds_are_thread_count_independent() {
    const ROUNDS: usize = 3;
    assert_all_equal(&trajectories(ROUNDS, || {
        engine_with(60, 8, 17, ObservationBackend::Dense)
    }));

    // The sketch store folds each traffic window edge-parallel. A
    // four-fold paper stream makes every round span at least two full
    // windows plus a partial last one at every worker count up to 8,
    // so window boundaries and the partial-window split are exercised.
    let heavy = || {
        let (mut engine, rng) = engine_with(60, 8, 17, ObservationBackend::Sketch);
        let mut traffic = TrafficConfig::paper_stream(17 ^ 0x7AFF);
        for class in &mut traffic.classes {
            class.lambda_per_node *= 4.0;
        }
        engine.set_traffic(traffic).unwrap();
        (engine, rng)
    };
    const SKETCH_ROUNDS: usize = 2;
    let (engine, _) = heavy();
    for round in 0..SKETCH_ROUNDS as u64 {
        let messages = engine
            .traffic()
            .unwrap()
            .messages_for_round(round, engine.population())
            .len();
        assert!(
            messages > 2 * 8 * TRAFFIC_WINDOW && messages % TRAFFIC_WINDOW != 0,
            "{messages} messages must span >= 2 windows plus a partial one"
        );
    }
    assert_all_equal(&trajectories(SKETCH_ROUNDS, heavy));
}

/// The per-class λ-statistics come from the propagation phase, not the
/// observation store, so dense and sketch backends must report the
/// identical floats — while the sketch keeps the round's memory flat.
#[test]
fn traffic_stats_are_backend_independent_and_cover_every_class() {
    // One round only: the backends share the initial world, so the
    // traffic phase sees the same snapshot. (From round two on the
    // *scoring* legitimately diverges — sketch strategies read
    // percentile estimates — so the topologies, and with them the λ
    // values, part ways.)
    let (mut dense, mut rng_d) = engine_with(60, 6, 29, ObservationBackend::Dense);
    let (mut sketch, mut rng_s) = engine_with(60, 6, 29, ObservationBackend::Sketch);
    dense.run_round(&mut rng_d);
    sketch.run_round(&mut rng_s);
    let d = dense.last_traffic_stats().unwrap();
    let s = sketch.last_traffic_stats().unwrap();
    assert_eq!(d, s, "per-class λ must not depend on the backend");

    let config = dense.traffic().unwrap();
    assert_eq!(d.per_class.len(), config.classes.len());
    let mut total = 0;
    for (stats, class) in d.per_class.iter().zip(&config.classes) {
        assert_eq!(stats.name, class.name);
        assert!(
            stats.messages > 0,
            "class {} originated nothing",
            stats.name
        );
        assert!(stats.mean_lambda90_ms.is_finite());
        assert!(stats.mean_lambda50_ms <= stats.mean_lambda90_ms);
        total += stats.messages;
    }
    assert_eq!(total, d.messages);
    assert_eq!(
        d.messages,
        config.messages_for_round(0, dense.population()).len(),
        "the round must carry its whole stream"
    );
}

/// Traffic composes with the message-level block path: a gossip-mode
/// engine with a workload installed still runs bit-identically on a
/// pinned 1-thread pool.
#[test]
fn gossip_block_mode_composes_with_traffic() {
    let (mut par, mut rng_par) = engine_with(50, 5, 41, ObservationBackend::Dense);
    let (mut seq, mut rng_seq) = engine_with(50, 5, 41, ObservationBackend::Dense);
    for engine in [&mut par, &mut seq] {
        engine.set_propagation_mode(PropagationMode::Gossip(GossipConfig::inv_getdata(0.001)));
    }
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    for _ in 0..2 {
        let a = par.run_round(&mut rng_par);
        let b = one.install(|| seq.run_round(&mut rng_seq));
        assert_eq!(a, b);
    }
    assert_eq!(par.last_traffic_stats(), seq.last_traffic_stats());
    assert_eq!(par.topology(), seq.topology());
}

/// A workload rides checkpoints: checkpoint mid-run, serialize through
/// the on-disk envelope, resume, continue — bit-identical to the
/// uninterrupted run, traffic statistics included, and the restored
/// engine still carries the workload.
#[test]
fn traffic_rides_checkpoints_bit_identically() {
    const TOTAL: usize = 6;
    const K: usize = 3;

    let (mut straight, mut rng) = engine_with(55, 6, 53, ObservationBackend::Dense);
    let straight_stats = straight.run_rounds(TOTAL, &mut rng);
    let straight_traffic = straight.last_traffic_stats().unwrap().clone();

    let (mut first, mut rng1) = engine_with(55, 6, 53, ObservationBackend::Dense);
    let mut resumed_stats = first.run_rounds(K, &mut rng1);
    let bytes = first.checkpoint(&rng1).to_bytes();
    let snapshot = RunSnapshot::from_bytes(&bytes).unwrap();
    let (mut second, mut rng2) =
        PerigeeEngine::<GeoLatencyModel>::resume(snapshot).expect("resume");
    assert_eq!(
        second.traffic(),
        first.traffic(),
        "the workload must survive the envelope"
    );
    resumed_stats.extend(second.run_rounds(TOTAL - K, &mut rng2));

    assert_eq!(straight_stats, resumed_stats);
    assert_eq!(&straight_traffic, second.last_traffic_stats().unwrap());
    assert_eq!(straight.topology(), second.topology());
    assert_eq!(straight.evaluate(0.9), second.evaluate(0.9));
}

/// `set_traffic` validates up front and refuses to clobber a working
/// workload with a broken one; `take_traffic` returns rounds to
/// blocks-only.
#[test]
fn set_traffic_validates_and_take_traffic_uninstalls() {
    let (mut engine, mut rng) = engine_with(40, 4, 61, ObservationBackend::Dense);
    let mut bad = TrafficConfig::paper_stream(0);
    bad.classes[0].lambda_per_node = f64::NAN;
    assert!(engine.set_traffic(bad).is_err());
    assert!(
        engine.traffic().is_some(),
        "a rejected config must leave the old workload installed"
    );

    engine.run_round(&mut rng);
    let stats = engine.last_traffic_stats().unwrap().clone();
    assert!(stats.messages > 0);

    assert!(engine.take_traffic().is_some());
    engine.run_round(&mut rng);
    assert_eq!(
        engine.last_traffic_stats(),
        Some(&stats),
        "blocks-only rounds keep the last traffic round's stats readable"
    );
}
