//! The parallel round engine must be *bit-identical* to the sequential
//! path: same RoundStats floats, same learned topology, same observation
//! rows — and the view-based propagation must reproduce the legacy
//! per-call `broadcast()` + `ObservationCollector::record` pipeline
//! exactly.

use perigee_core::{
    ObservationBackend, ObservationCollector, PerigeeConfig, PerigeeEngine, PropagationMode,
    ScoringMethod,
};
use perigee_netsim::{
    broadcast, gossip_block, ConnectionLimits, GeoLatencyModel, GossipConfig, MinerSampler, NodeId,
    PopulationBuilder, SimTime,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine(n: usize, blocks: usize, seed: u64) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    engine_with(n, blocks, seed, ScoringMethod::Subset)
}

fn engine_with(
    n: usize,
    blocks: usize,
    seed: u64,
    method: ScoringMethod,
) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    engine_on(n, blocks, seed, method, ObservationBackend::Dense)
}

fn engine_on(
    n: usize,
    blocks: usize,
    seed: u64,
    method: ScoringMethod,
    backend: ObservationBackend,
) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(method);
    cfg.blocks_per_round = blocks;
    cfg.observation_backend = backend;
    let engine = PerigeeEngine::new(pop, lat, topo, method, cfg).unwrap();
    (engine, rng)
}

/// Parallel fan-out vs forced single-thread: every per-round statistic is
/// the same IEEE-754 value, and the learned topologies match edge for
/// edge.
#[test]
fn parallel_rounds_are_bit_identical_to_sequential() {
    let (mut par, mut rng_par) = engine(150, 30, 42);
    let (mut seq, mut rng_seq) = engine(150, 30, 42);
    par.set_parallel(true);
    seq.set_parallel(false);
    for _ in 0..4 {
        let a = par.run_round(&mut rng_par);
        let b = seq.run_round(&mut rng_seq);
        assert_eq!(a, b, "RoundStats must match bit for bit");
    }
    assert_eq!(par.topology(), seq.topology());
    assert_eq!(
        par.evaluate(0.9),
        seq.evaluate(0.9),
        "static evaluation must not depend on the thread count"
    );
}

/// The same holds when the thread count is pinned through the rayon pool
/// rather than the engine flag.
#[test]
fn pinned_thread_pool_matches_default_pool() {
    let (engine_a, mut rng) = engine(120, 25, 7);
    let miners = MinerSampler::new(engine_a.population()).sample_round(25, &mut rng);
    let wide = engine_a.observe_round(&miners);
    let narrow = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| engine_a.observe_round(&miners));
    assert_eq!(wide.lambda90_ms(), narrow.lambda90_ms());
    assert_eq!(wide.lambda50_ms(), narrow.lambda50_ms());
    assert_eq!(wide.observations(), narrow.observations());
}

/// The view-based propagation phase reproduces the legacy sequential
/// pipeline — per-call `broadcast()`, `record()` against the latency
/// model, `coverage_time()` per fraction — bit for bit.
#[test]
fn observe_round_matches_legacy_pipeline() {
    let (engine_a, mut rng) = engine(130, 20, 11);
    let miners = MinerSampler::new(engine_a.population()).sample_round(20, &mut rng);

    let round = engine_a.observe_round(&miners);

    let mut collector = ObservationCollector::new(engine_a.topology());
    let mut legacy90 = Vec::new();
    let mut legacy50 = Vec::new();
    for &miner in &miners {
        let prop = broadcast(
            engine_a.topology(),
            engine_a.latency(),
            engine_a.population(),
            miner,
        );
        legacy90.push(prop.coverage_time(engine_a.population(), 0.9).as_ms());
        legacy50.push(prop.coverage_time(engine_a.population(), 0.5).as_ms());
        collector.record(&prop, engine_a.latency());
    }
    let legacy_obs = collector.finish();

    assert_eq!(round.lambda90_ms(), legacy90.as_slice());
    assert_eq!(round.lambda50_ms(), legacy50.as_slice());
    assert_eq!(round.observations().as_dense().unwrap(), &legacy_obs);
}

/// Gossip-mode rounds go through the same chunked fan-out; they too must
/// not depend on the thread count.
#[test]
fn gossip_mode_is_thread_count_independent() {
    let (mut par, mut rng_par) = engine(80, 12, 23);
    let (mut seq, mut rng_seq) = engine(80, 12, 23);
    par.set_propagation_mode(PropagationMode::Gossip(GossipConfig::inv_getdata(0.0)));
    seq.set_propagation_mode(PropagationMode::Gossip(GossipConfig::inv_getdata(0.0)));
    seq.set_parallel(false);
    for _ in 0..3 {
        let a = par.run_round(&mut rng_par);
        let b = seq.run_round(&mut rng_seq);
        assert_eq!(a, b);
    }
    assert_eq!(par.topology(), seq.topology());
}

/// The scratch-based Gossip arm of `observe_round` reproduces the legacy
/// sequential gossip pipeline — per-call `gossip_block()`,
/// `record_gossip()` over the BTreeMap delivery logs, multi-fraction
/// coverage on the outcome — bit for bit, for both modes and with
/// bandwidth-limited transfers.
#[test]
fn gossip_observe_round_matches_legacy_gossip_pipeline() {
    for cfg in [
        GossipConfig::flood(),
        GossipConfig::inv_getdata(0.0),
        GossipConfig::inv_getdata(1.0),
    ] {
        let (mut engine_a, mut rng) = engine(100, 15, 19);
        engine_a.set_propagation_mode(PropagationMode::Gossip(cfg));
        let miners = MinerSampler::new(engine_a.population()).sample_round(15, &mut rng);

        let round = engine_a.observe_round(&miners);

        let mut collector = ObservationCollector::new(engine_a.topology());
        let mut legacy90 = Vec::new();
        let mut legacy50 = Vec::new();
        let mut coverage = [SimTime::ZERO; 2];
        for &miner in &miners {
            let outcome = gossip_block(
                engine_a.topology(),
                engine_a.latency(),
                engine_a.population(),
                miner,
                &cfg,
            );
            outcome.coverage_times(engine_a.population(), &[0.9, 0.5], &mut coverage);
            legacy90.push(coverage[0].as_ms());
            legacy50.push(coverage[1].as_ms());
            collector.record_gossip(&outcome);
        }
        let legacy_obs = collector.finish();

        assert_eq!(round.lambda90_ms(), legacy90.as_slice());
        assert_eq!(round.lambda50_ms(), legacy50.as_slice());
        assert_eq!(round.observations().as_dense().unwrap(), &legacy_obs);
    }
}

/// Flood-mode gossip rounds are bit-identical to analytic rounds: the
/// pooled message-level engine computes the exact same arrival floats as
/// the analytic Dijkstra, both coverage paths share one implementation,
/// and the observation rows coincide — so whole learning trajectories
/// match RoundStats for RoundStats and edge for edge.
#[test]
fn flood_gossip_rounds_are_bit_identical_to_analytic_rounds() {
    let (mut analytic, mut rng_a) = engine(120, 20, 37);
    let (mut flood, mut rng_b) = engine(120, 20, 37);
    flood.set_propagation_mode(PropagationMode::Gossip(GossipConfig::flood()));
    for _ in 0..3 {
        let a = analytic.run_round(&mut rng_a);
        let b = flood.run_round(&mut rng_b);
        assert_eq!(a, b, "RoundStats must match bit for bit across engines");
    }
    assert_eq!(analytic.topology(), flood.topology());
}

/// Gossip-mode static evaluation is thread-count independent too.
#[test]
fn gossip_evaluation_is_thread_count_independent() {
    let (mut engine_a, _) = engine(90, 5, 41);
    engine_a.set_propagation_mode(PropagationMode::Gossip(GossipConfig::inv_getdata(0.5)));
    let wide = engine_a.evaluate_in_mode(0.9);
    let narrow = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| engine_a.evaluate_in_mode(0.9));
    assert_eq!(wide, narrow);
}

/// Observation rows from the view path match the legacy collector on the
/// exact same flood, node by node and neighbor by neighbor.
#[test]
fn per_neighbor_rows_match_legacy_exactly() {
    let (engine_a, _) = engine(90, 5, 31);
    let miners: Vec<NodeId> = (0..5).map(|i| NodeId::new(i * 13)).collect();
    let round = engine_a.observe_round(&miners);
    for i in 0..90u32 {
        let v = NodeId::new(i);
        let obs = round.observations().node(v);
        let neighbors: Vec<NodeId> = obs.neighbors().collect();
        assert_eq!(neighbors, engine_a.topology().neighbors(v));
        assert_eq!(obs.block_count(), 5);
    }
}

/// Whole learning trajectories are pool-width independent: a wide-pool
/// engine matches a 1-thread-pool engine RoundStats for RoundStats and
/// edge for edge — in analytic and gossip modes.
#[test]
fn wide_and_narrow_pool_rounds_match_in_both_modes() {
    for mode in [
        PropagationMode::Analytic,
        PropagationMode::Gossip(GossipConfig::inv_getdata(0.0)),
    ] {
        let (mut wide, mut rng_wide) = engine(90, 12, 53);
        let (mut narrow_engine, mut rng_narrow) = engine(90, 12, 53);
        wide.set_propagation_mode(mode);
        narrow_engine.set_propagation_mode(mode);
        let narrow = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        for _ in 0..3 {
            let a = wide.run_round(&mut rng_wide);
            let b = narrow.install(|| narrow_engine.run_round(&mut rng_narrow));
            assert_eq!(a, b, "pool widths diverged under {mode:?}");
        }
        assert_eq!(wide.topology(), narrow_engine.topology());
        assert_eq!(
            wide.evaluate_in_mode(0.9),
            narrow.install(|| narrow_engine.evaluate_in_mode(0.9)),
            "static evaluation must not depend on the thread count"
        );
    }
}

/// A *churny* 50-round run — arrivals, departures and growth driven by a
/// seeded `ChurnProcess` — is bit-identical across thread counts (1, 2
/// and 8 pinned rayon pools): same RoundStats floats (including the streaming p90 estimate and the
/// join/depart counts), same learned topology, same grown population,
/// and every run patches its snapshot incrementally (exactly one view
/// build for the whole 50 rounds — the dynamics acceptance gate).
#[test]
fn churny_rounds_are_thread_count_independent() {
    use perigee_core::RoundStats;
    use perigee_netsim::ChurnProcess;

    let run = |threads: Option<usize>| {
        let (mut e, mut rng) = engine(80, 8, 61);
        e.set_churn(ChurnProcess::steady_state(80, 0.04, 99));
        let rounds = |e: &mut PerigeeEngine<GeoLatencyModel>,
                      rng: &mut StdRng|
         -> Vec<RoundStats> { (0..50).map(|_| e.run_round(rng)).collect() };
        let stats = match threads {
            None => rounds(&mut e, &mut rng),
            Some(t) => rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
                .install(|| rounds(&mut e, &mut rng)),
        };
        assert_eq!(
            e.view_rebuilds(),
            1,
            "a churny run must never rebuild its view"
        );
        e.assert_view_consistency();
        (stats, e.topology().clone(), e.population().clone())
    };

    let (ref_stats, ref_topo, ref_pop) = run(None);
    assert!(
        ref_stats.iter().any(|s| s.joined > 0) && ref_stats.iter().any(|s| s.departed > 0),
        "the process must actually churn for this test to mean anything"
    );
    for threads in [Some(1), Some(2), Some(8)] {
        let (stats, topo, pop) = run(threads);
        assert_eq!(
            stats, ref_stats,
            "RoundStats diverged at {threads:?} threads"
        );
        assert_eq!(topo, ref_topo, "topology diverged at {threads:?}");
        assert_eq!(pop, ref_pop, "population diverged at {threads:?}");
    }
}

/// The fault layer keeps every determinism guarantee: a 50-round run
/// under an *active* `FaultPlan` — burst loss, flapping links, a timed
/// partition — with churn, stability gating and liveness eviction all
/// firing, is bit-identical across thread counts (1, 2 and 8 pinned
/// rayon pools). Fault decisions
/// are pure hashes of `(seed, round, global block, edge)` and the
/// degradation machinery consumes RNG in a fixed sequential order, so
/// nothing about the schedule can depend on the execution interleaving.
/// The same world also pins the other end of the fault layer: an *inert*
/// plan leaves an 8-round trajectory (stats, topology, population)
/// bit-identical to installing no plan at all.
#[test]
fn fault_injected_rounds_are_thread_count_independent() {
    use perigee_core::RoundStats;
    use perigee_netsim::{
        ChurnProcess, FaultPlan, FaultWindow, LinkFaultRates, LinkFlaps, PartitionWindow,
    };

    let plan = FaultPlan {
        seed: 0xFA17,
        base: LinkFaultRates {
            drop_prob: 0.03,
            extra_delay: SimTime::from_ms(2.0),
            jitter: SimTime::from_ms(10.0),
            duplicate_prob: 0.05,
        },
        windows: vec![FaultWindow {
            start: 8,
            end: 16,
            rates: LinkFaultRates {
                drop_prob: 0.6,
                extra_delay: SimTime::from_ms(20.0),
                jitter: SimTime::from_ms(40.0),
                duplicate_prob: 0.0,
            },
        }],
        flaps: Some(LinkFlaps {
            fraction: 0.1,
            period: 6,
            down: 2,
        }),
        partitions: vec![PartitionWindow {
            start: 22,
            heal: 34,
            fraction: 0.3,
        }],
        regional: Vec::new(),
    };

    let run = |plan: Option<FaultPlan>, rounds: usize, threads: Option<usize>| {
        // Hand-built engine: liveness on, so suspect→evict and backoff
        // state also prove themselves execution-order independent.
        let mut rng = StdRng::seed_from_u64(67);
        let pop = PopulationBuilder::new(80).build(&mut rng).unwrap();
        let lat = GeoLatencyModel::new(&pop, 67);
        let topo =
            RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
        let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
        cfg.blocks_per_round = 8;
        cfg.liveness = perigee_core::LivenessConfig::aggressive();
        let mut e = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
        e.set_churn(ChurnProcess::steady_state(80, 0.03, 107));
        if let Some(plan) = plan {
            e.set_fault_plan(plan).unwrap();
        }
        let stats = {
            let go =
                |e: &mut PerigeeEngine<GeoLatencyModel>, rng: &mut StdRng| -> Vec<RoundStats> {
                    (0..rounds).map(|_| e.run_round(rng)).collect()
                };
            match threads {
                None => go(&mut e, &mut rng),
                Some(t) => rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
                    .install(|| go(&mut e, &mut rng)),
            }
        };
        assert_eq!(e.view_rebuilds(), 1, "faulted rounds must still patch");
        e.assert_view_consistency();
        (stats, e.topology().clone(), e.population().clone())
    };

    let (ref_stats, ref_topo, ref_pop) = run(Some(plan.clone()), 50, None);
    assert!(
        ref_stats.iter().any(|s| s.gated > 0),
        "the burst window must trip stability gating for this test to bite"
    );
    assert!(
        ref_stats.iter().any(|s| s.joined > 0) && ref_stats.iter().any(|s| s.departed > 0),
        "churn must fire under faults too"
    );
    for threads in [Some(1), Some(2), Some(8)] {
        let (stats, topo, pop) = run(Some(plan.clone()), 50, threads);
        assert_eq!(
            stats, ref_stats,
            "faulted RoundStats diverged at {threads:?} threads"
        );
        assert_eq!(topo, ref_topo, "topology diverged at {threads:?}");
        assert_eq!(pop, ref_pop, "population diverged at {threads:?}");
    }

    assert_eq!(
        run(Some(FaultPlan::inert(99)), 8, None),
        run(None, 8, None),
        "an inert fault plan perturbed the trajectory"
    );
}

/// Fault-injected *gossip* rounds (message-level INV/GETDATA) are
/// likewise thread-count independent.
#[test]
fn fault_injected_gossip_rounds_are_thread_count_independent() {
    use perigee_core::RoundStats;
    use perigee_netsim::{FaultPlan, LinkFaultRates};

    let plan = FaultPlan {
        base: LinkFaultRates {
            drop_prob: 0.15,
            extra_delay: SimTime::from_ms(5.0),
            jitter: SimTime::from_ms(25.0),
            duplicate_prob: 0.2,
        },
        ..FaultPlan::inert(0xBEEF)
    };
    let run = |threads: Option<usize>| {
        let (mut e, mut rng) = engine(70, 10, 71);
        e.set_propagation_mode(PropagationMode::Gossip(GossipConfig::inv_getdata(0.0)));
        e.set_fault_plan(plan.clone()).unwrap();
        let rounds: Vec<RoundStats> = match threads {
            None => (0..12).map(|_| e.run_round(&mut rng)).collect(),
            Some(t) => rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
                .install(|| (0..12).map(|_| e.run_round(&mut rng)).collect()),
        };
        (rounds, e.topology().clone())
    };
    let (ref_stats, ref_topo) = run(None);
    for threads in [Some(1), Some(8)] {
        let (stats, topo) = run(threads);
        assert_eq!(stats, ref_stats, "diverged at {threads:?}");
        assert_eq!(topo, ref_topo);
    }
}

/// A full UCB run — the *stateful* strategy, parallelized through the
/// split-borrow `split_stateful` path — is bit-identical to the forced
/// sequential loop: same RoundStats floats, same per-connection history
/// evolution (observable through the learned topology), round after
/// round.
#[test]
fn ucb_parallel_rounds_are_bit_identical_to_sequential() {
    let (mut par, mut rng_par) = engine_with(150, 2, 91, ScoringMethod::Ucb);
    let (mut seq, mut rng_seq) = engine_with(150, 2, 91, ScoringMethod::Ucb);
    par.set_parallel(true);
    seq.set_parallel(false);
    for _ in 0..8 {
        let a = par.run_round(&mut rng_par);
        let b = seq.run_round(&mut rng_seq);
        assert_eq!(a, b, "UCB RoundStats must match bit for bit");
    }
    assert_eq!(par.topology(), seq.topology());
    assert_eq!(par.evaluate(0.9), seq.evaluate(0.9));
}

/// Sharded analytic floods are a pure scheduling change: whole learning
/// trajectories with `set_shards` are bit-identical to the flat flood —
/// across shard counts and thread counts (1, 2 and 8 pinned pools), with
/// an active fault plan in force so the faulted sharded path is
/// exercised too — on both observation backends. A final probe round
/// pins the observation store itself (dense matrix or per-edge
/// sketches) and its λ-curves, not just what scoring made of them.
#[test]
fn sharded_rounds_are_bit_identical_to_flat_rounds() {
    use perigee_core::RoundStats;
    use perigee_netsim::{FaultPlan, LinkFaultRates};

    let plan = FaultPlan {
        base: LinkFaultRates {
            drop_prob: 0.1,
            extra_delay: SimTime::from_ms(3.0),
            jitter: SimTime::from_ms(15.0),
            duplicate_prob: 0.1,
        },
        ..FaultPlan::inert(0x54A2)
    };
    let probe: Vec<NodeId> = (0..10).map(|i| NodeId::new(i * 9)).collect();
    let run = |backend: ObservationBackend, shards: usize, threads: Option<usize>| {
        let (mut e, mut rng) = engine_on(100, 10, 77, ScoringMethod::Subset, backend);
        e.set_shards(shards);
        e.set_fault_plan(plan.clone()).unwrap();
        let rounds = |e: &mut PerigeeEngine<GeoLatencyModel>,
                      rng: &mut StdRng|
         -> Vec<RoundStats> { (0..6).map(|_| e.run_round(rng)).collect() };
        let stats = match threads {
            None => rounds(&mut e, &mut rng),
            Some(t) => rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
                .install(|| rounds(&mut e, &mut rng)),
        };
        (stats, e.topology().clone(), e.observe_round(&probe))
    };

    for backend in [ObservationBackend::Dense, ObservationBackend::Sketch] {
        let (ref_stats, ref_topo, ref_probe) = run(backend, 1, None);
        for (shards, threads) in [
            (4, Some(1)),
            (4, Some(2)),
            (4, Some(8)),
            (7, Some(1)),
            (7, Some(8)),
            (256, Some(2)), // more shards than fits: clamps
        ] {
            let (stats, topo, probe) = run(backend, shards, threads);
            assert_eq!(
                stats, ref_stats,
                "{backend:?} run diverged at {shards} shards, {threads:?} threads"
            );
            assert_eq!(
                topo, ref_topo,
                "{backend:?} topology diverged at {shards} shards"
            );
            assert_eq!(
                probe.observations(),
                ref_probe.observations(),
                "{backend:?} store diverged at {shards} shards"
            );
            assert_eq!(probe.lambda90_ms(), ref_probe.lambda90_ms());
            assert_eq!(probe.lambda50_ms(), ref_probe.lambda50_ms());
        }
    }
}

/// Sketch-backed rounds keep the determinism guarantee: with the
/// observation store folded into per-edge P² sketches, whole learning
/// trajectories are bit-identical across thread counts (the sketch fold
/// consumes blocks in block order regardless of how chunks were
/// scheduled). And the sketch store is what it claims to be: at 100
/// blocks it is at least 4× smaller than the dense matrix (48 B against
/// 4 B per block per edge, whatever the world size), while the
/// λ-curves, computed from the floods rather than the store, are
/// bit-equal to the dense round's.
#[test]
fn sketch_backend_rounds_are_thread_count_independent() {
    use perigee_core::RoundStats;

    for method in [ScoringMethod::Vanilla, ScoringMethod::Subset] {
        let run = |threads: Option<usize>| {
            let (mut e, mut rng) = engine_on(90, 12, 83, method, ObservationBackend::Sketch);
            let rounds =
                |e: &mut PerigeeEngine<GeoLatencyModel>, rng: &mut StdRng| -> Vec<RoundStats> {
                    (0..5).map(|_| e.run_round(rng)).collect()
                };
            let stats = match threads {
                None => rounds(&mut e, &mut rng),
                Some(t) => rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
                    .install(|| rounds(&mut e, &mut rng)),
            };
            (stats, e.topology().clone())
        };
        let (ref_stats, ref_topo) = run(None);
        for threads in [Some(1), Some(2), Some(8)] {
            let (stats, topo) = run(threads);
            assert_eq!(
                stats, ref_stats,
                "sketch-backed {method:?} diverged at {threads:?} threads"
            );
            assert_eq!(topo, ref_topo);
        }
    }

    let (dense, mut rng) = engine_on(
        90,
        100,
        83,
        ScoringMethod::Subset,
        ObservationBackend::Dense,
    );
    let (sketch, _) = engine_on(
        90,
        100,
        83,
        ScoringMethod::Subset,
        ObservationBackend::Sketch,
    );
    let miners = MinerSampler::new(dense.population()).sample_round(100, &mut rng);
    let dense = dense.observe_round(&miners);
    let sketch = sketch.observe_round(&miners);
    let dense_bytes = dense.observations().matrix_bytes();
    let sketch_bytes = sketch.observations().matrix_bytes();
    assert!(
        sketch_bytes * 4 <= dense_bytes,
        "sketch store {sketch_bytes} B must be >= 4x smaller than dense {dense_bytes} B"
    );
    assert_eq!(sketch.lambda90_ms(), dense.lambda90_ms());
    assert_eq!(sketch.lambda50_ms(), dense.lambda50_ms());
}

/// The same UCB run is also independent of the rayon pool width.
#[test]
fn ucb_rounds_are_thread_count_independent() {
    let (mut wide, mut rng_a) = engine_with(100, 1, 97, ScoringMethod::Ucb);
    let (mut narrow, mut rng_b) = engine_with(100, 1, 97, ScoringMethod::Ucb);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    for _ in 0..6 {
        let a = wide.run_round(&mut rng_a);
        let b = pool.install(|| narrow.run_round(&mut rng_b));
        assert_eq!(a, b);
    }
    assert_eq!(wide.topology(), narrow.topology());
}
