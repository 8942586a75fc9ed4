//! Quickstart: build a simulated blockchain p2p network, let Perigee learn
//! a topology, and compare block propagation against Bitcoin's random
//! connection policy.
//!
//! Run with: `cargo run --release --example quickstart`

use perigee::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 42;
    let n = 400;
    let mut rng = StdRng::seed_from_u64(seed);

    // 1. A Bitnodes-like population: regions, hash power, validation delays.
    let population = PopulationBuilder::new(n).build(&mut rng)?;
    // 2. Geographic link latencies (2-D latency-space embedding).
    let latency = GeoLatencyModel::new(&population, seed);

    // 3. Both protocols start from the same random topology.
    let limits = ConnectionLimits::paper_default();
    let random_topology = RandomBuilder::new().build(&population, &latency, limits, &mut rng);

    // Evaluate the random baseline: for every possible miner, how long
    // until 90% of the network's hash power has the block?
    let baseline: DelayCurve =
        perigee::core::evaluate_topology_multi(&random_topology, &latency, &population, &[0.9])
            .swap_remove(0)
            .into_iter()
            .collect();

    // 4. Run Perigee-Subset for 15 rounds of 50 blocks each.
    let mut config = PerigeeConfig::paper_default(ScoringMethod::Subset);
    config.blocks_per_round = 50;
    let mut engine = PerigeeEngine::new(
        population,
        latency,
        random_topology,
        ScoringMethod::Subset,
        config,
    )?;
    for round in 0..15 {
        let stats = engine.run_round(&mut rng);
        println!(
            "round {round:2}: mean λ90 over this round's blocks = {:7.1} ms ({} links rewired)",
            stats.mean_lambda90_ms, stats.dropped
        );
    }

    // 5. Compare.
    let learned: DelayCurve = engine.evaluate(0.9).into_iter().collect();
    println!(
        "\nrandom topology : median λ90 = {:7.1} ms",
        baseline.median()
    );
    println!("perigee topology: median λ90 = {:7.1} ms", learned.median());
    println!(
        "improvement     : {:+.1}%  (paper reports ~33% at 1000 nodes)",
        learned.improvement_over(&baseline) * 100.0
    );
    Ok(())
}
