//! Dynamic-world benchmarks — what churn costs per round, and proof that
//! it never costs a snapshot rebuild.
//!
//! Three criterion sections:
//!
//! * `dynamics/*` — 1000 nodes: one full engine round, static vs 2%
//!   steady-state churn, on the carried incrementally-patched view.
//! * `churn_smoke/*` — the same comparison at 300 nodes plus the
//!   patched-vs-fresh cross-check (`assert_view_consistency`), cheap
//!   enough for CI to run on every push so the `apply_world_delta` path
//!   cannot rot.
//! * `dynamics-report` — hand-timed per-round medians at 1k and 10k
//!   nodes (churny vs static), the 1k × 50-round 2%-churn acceptance run
//!   (zero rebuilds beyond the initial build, patched view equal to a
//!   fresh build) and the 1k→10k growth scenario (finite P²-tracked λ90
//!   throughout), written to `BENCH_dynamics.json` at the workspace root.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use perigee_bench::{bench_json, median, section_enabled, MemoryFootprint};
use perigee_core::{PerigeeConfig, PerigeeEngine, ScoringMethod};
use perigee_experiments::{dynamics as dynx, Scenario};
use perigee_netsim::{ChurnProcess, ConnectionLimits, GeoLatencyModel, PopulationBuilder};
use perigee_topology::{RandomBuilder, TopologyBuilder};

const NODES: usize = 1_000;
const SMOKE_NODES: usize = 300;
const BLOCKS: usize = 20;

fn engine(n: usize, blocks: usize, seed: u64) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(n).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
    cfg.blocks_per_round = blocks;
    let engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg).unwrap();
    (engine, rng)
}

/// Median hand-timed cost of one engine round over `rounds` consecutive
/// rounds (the engine keeps evolving — that is the realistic regime: the
/// carried view is patched, never rebuilt).
fn time_rounds(e: &mut PerigeeEngine<GeoLatencyModel>, rng: &mut StdRng, rounds: usize) -> f64 {
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        criterion::black_box(e.run_round(rng));
        samples.push(start.elapsed().as_secs_f64());
    }
    median(&mut samples)
}

fn bench_dynamics(c: &mut Criterion) {
    if !section_enabled("dynamics/") {
        return;
    }
    let mut group = c.benchmark_group("dynamics");
    group.sample_size(10);

    let (mut static_engine, mut static_rng) = engine(NODES, BLOCKS, 5);
    group.bench_function("static_round_1000", |b| {
        b.iter(|| static_engine.run_round(&mut static_rng));
    });

    let (mut churn_engine, mut churn_rng) = engine(NODES, BLOCKS, 5);
    churn_engine.set_churn(ChurnProcess::steady_state(NODES, 0.02, 7));
    group.bench_function("churn_round_1000", |b| {
        b.iter(|| churn_engine.run_round(&mut churn_rng));
    });
    group.finish();

    assert_eq!(
        churn_engine.view_rebuilds(),
        1,
        "churn must patch, never rebuild"
    );
    churn_engine.assert_view_consistency();
}

fn bench_churn_smoke(c: &mut Criterion) {
    if !section_enabled("churn_smoke") {
        return;
    }
    let mut group = c.benchmark_group("churn_smoke");
    group.sample_size(10);

    let (mut static_engine, mut static_rng) = engine(SMOKE_NODES, BLOCKS, 9);
    group.bench_function("static_round_300", |b| {
        b.iter(|| static_engine.run_round(&mut static_rng));
    });

    let (mut churn_engine, mut churn_rng) = engine(SMOKE_NODES, BLOCKS, 9);
    churn_engine.set_churn(ChurnProcess::steady_state(SMOKE_NODES, 0.02, 11));
    group.bench_function("churn_round_300", |b| {
        b.iter(|| churn_engine.run_round(&mut churn_rng));
    });
    group.finish();

    // The smoke pass is also CI's correctness gate for the incremental
    // path: the bench profile compiles the engine's per-round debug
    // assertion out, so cross-check the patched view against a fresh
    // build explicitly.
    assert_eq!(
        churn_engine.view_rebuilds(),
        1,
        "churn must patch, never rebuild"
    );
    churn_engine.assert_view_consistency();
}

fn bench_dynamics_report(c: &mut Criterion) {
    let _ = c;
    if !section_enabled("dynamics-report") {
        return;
    }

    // Per-round medians, churny vs static, at 1k and 10k nodes.
    let per_round = |n: usize, churn: bool| -> f64 {
        let (mut e, mut rng) = engine(n, BLOCKS, 5);
        if churn {
            e.set_churn(ChurnProcess::steady_state(n, 0.02, 7));
        }
        let t = time_rounds(&mut e, &mut rng, 7);
        if churn {
            assert_eq!(e.view_rebuilds(), 1);
            e.assert_view_consistency();
        }
        t
    };
    let static_1k = per_round(1_000, false);
    let churn_1k = per_round(1_000, true);
    let static_10k = per_round(10_000, false);
    let churn_10k = per_round(10_000, true);

    // The acceptance run: 1k nodes, 50 rounds, 2% per-round churn — all
    // deltas through `apply_world_delta`, zero rebuilds past the initial
    // build, patched view exactly equal to a fresh build at the end.
    let (mut accept, mut accept_rng) = engine(1_000, 10, 21);
    accept.set_churn(ChurnProcess::steady_state(1_000, 0.02, 23));
    let accept_start = Instant::now();
    let mut accept_joined = 0;
    let mut accept_departed = 0;
    for _ in 0..50 {
        let stats = accept.run_round(&mut accept_rng);
        accept_joined += stats.joined;
        accept_departed += stats.departed;
    }
    let accept_s = accept_start.elapsed().as_secs_f64();
    assert_eq!(
        accept.view_rebuilds(),
        1,
        "acceptance: zero rebuilds past the initial build"
    );
    accept.assert_view_consistency();
    assert!(accept_joined > 0 && accept_departed > 0);

    // The growth scenario: 1k → 10k mid-run with λ90 tracked per round.
    let scenario = Scenario {
        nodes: 1_000,
        rounds: 30,
        blocks_per_round: 10,
        seeds: vec![1],
        ..Scenario::paper()
    };
    let growth_start = Instant::now();
    let growth = dynx::run_growth(&scenario, 1, 10_000);
    let growth_s = growth_start.elapsed().as_secs_f64();
    assert!(growth.lambda_always_finite(), "growth λ90 diverged");
    assert_eq!(growth.view_rebuilds, 1);

    println!(
        "dynamics: per-round {BLOCKS}-block cost — 1k static {static_1k:.4} s vs 2% churn \
         {churn_1k:.4} s ({:.2}x); 10k static {static_10k:.4} s vs churn {churn_10k:.4} s \
         ({:.2}x); 1k x 50-round acceptance run {accept_s:.2} s \
         ({accept_joined} joined / {accept_departed} departed, 1 view build); \
         1k->10k growth in {growth_s:.2} s, final {} nodes, run-median p90 λ90 {:.1} ms",
        churn_1k / static_1k,
        churn_10k / static_10k,
        growth.final_nodes,
        growth.run_median_p90_ms,
    );
    let fields = format!(
        "  \"blocks_per_round\": {BLOCKS},\n  \
         \"churn_fraction_per_round\": 0.02,\n  \
         \"per_round_1k\": {{ \"static_s\": {static_1k:.4}, \"churn_s\": {churn_1k:.4}, \
         \"churn_overhead\": {:.3} }},\n  \
         \"per_round_10k\": {{ \"static_s\": {static_10k:.4}, \"churn_s\": {churn_10k:.4}, \
         \"churn_overhead\": {:.3} }},\n  \
         \"acceptance_1k_50_rounds\": {{ \"total_s\": {accept_s:.2}, \"joined\": {accept_joined}, \
         \"departed\": {accept_departed}, \"view_rebuilds\": 1 }},\n  \
         \"growth_1k_to_10k\": {{ \"total_s\": {growth_s:.2}, \"rounds\": 30, \
         \"final_nodes\": {}, \"joined\": {}, \"view_rebuilds\": {}, \
         \"run_median_p90_lambda90_ms\": {:.1}, \"lambda_always_finite\": {} }}\n",
        churn_1k / static_1k,
        churn_10k / static_10k,
        growth.final_nodes,
        growth.joined,
        growth.view_rebuilds,
        growth.run_median_p90_ms,
        growth.lambda_always_finite(),
    );
    // Dominant structure: the dense per-round observation store of the
    // acceptance world (directed edges x blocks x 4-byte sample).
    let directed = accept.topology().edge_count() * 2;
    let mem = MemoryFootprint::per_edge(directed * BLOCKS * 4, directed);
    let json = bench_json(
        "dynamics",
        &format!("blocks={BLOCKS},churn=0.02"),
        mem,
        &fields,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dynamics.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    }
}

criterion_group!(
    benches,
    bench_dynamics,
    bench_churn_smoke,
    bench_dynamics_report
);
criterion_main!(benches);
