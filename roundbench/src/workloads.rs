//! The benchmark's seeded worlds.
//!
//! Each workload is a full engine configuration built from the seed
//! alone, so the same seed always yields the same inputs. The three of
//! them load the round's layers in different proportions (see
//! `README.md` beside this crate for the layer → end-to-end mapping).

use perigee_core::{
    LivenessConfig, ObservationBackend, PerigeeConfig, PerigeeEngine, PropagationMode,
    ScoringMethod,
};
use perigee_netsim::{
    ChurnProcess, ConnectionLimits, FaultPlan, FaultWindow, GeoLatencyModel, GossipConfig,
    LinkFaultRates, LinkFlaps, PopulationBuilder, SimTime, TrafficConfig,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The engine type every workload drives.
pub type Engine = PerigeeEngine<GeoLatencyModel>;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1000 nodes, paper defaults: Subset, 100 blocks per round, dense
    /// store, analytic flood, static world. No gossip, no traffic.
    PaperBlocks,
    /// 300 nodes, 50 blocks plus the `paper_stream` transaction stream,
    /// sketch store, static world.
    StreamSketch,
    /// The same stream on the dense store, blocks over INV/GETDATA, with
    /// link faults, 2% steady churn and aggressive liveness.
    ChurnStreamDense,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperBlocks,
        Workload::StreamSketch,
        Workload::ChurnStreamDense,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBlocks => "paper_blocks",
            Workload::StreamSketch => "stream_sketch",
            Workload::ChurnStreamDense => "churn_stream_dense",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured rounds in one trajectory (after the warm-up round). A
    /// fixed count keeps the trajectory — and so `lambda90_ratio` and the
    /// result digest — a pure function of the seed.
    pub fn trajectory_rounds(self) -> usize {
        match self {
            Workload::PaperBlocks => 40,
            Workload::StreamSketch | Workload::ChurnStreamDense => 6,
        }
    }

    /// Builds the world: population, latency model, random initial
    /// topology, engine and every installer the workload uses.
    pub fn build(self, seed: u64) -> (Engine, StdRng) {
        let nodes = match self {
            Workload::PaperBlocks => 1000,
            Workload::StreamSketch | Workload::ChurnStreamDense => 300,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = PopulationBuilder::new(nodes)
            .build(&mut rng)
            .expect("valid population");
        let lat = GeoLatencyModel::new(&pop, seed);
        let topo =
            RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
        let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Subset);
        match self {
            Workload::PaperBlocks => {}
            Workload::StreamSketch => {
                cfg.blocks_per_round = 50;
                cfg.observation_backend = ObservationBackend::Sketch;
            }
            Workload::ChurnStreamDense => {
                cfg.blocks_per_round = 50;
                cfg.liveness = LivenessConfig::aggressive();
            }
        }
        let mut engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Subset, cfg)
            .expect("valid engine config");
        if self != Workload::PaperBlocks {
            engine
                .set_traffic(TrafficConfig::paper_stream(seed ^ 0x7AFF))
                .expect("valid traffic");
        }
        if self == Workload::ChurnStreamDense {
            engine.set_propagation_mode(PropagationMode::Gossip(GossipConfig::inv_getdata(1.0)));
            engine
                .set_fault_plan(fault_plan(seed ^ 0x7E1E))
                .expect("valid fault plan");
            engine.set_churn(ChurnProcess::steady_state(nodes, 0.02, seed ^ 0x51EA));
        }
        (engine, rng)
    }
}

/// Background loss, delay and duplication on every link, a burst window
/// over rounds 2–4 and flapping links, so faults stay active through a
/// whole trajectory.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        base: LinkFaultRates {
            drop_prob: 0.03,
            extra_delay: SimTime::from_ms(2.0),
            jitter: SimTime::from_ms(10.0),
            duplicate_prob: 0.05,
        },
        windows: vec![FaultWindow {
            start: 2,
            end: 5,
            rates: LinkFaultRates {
                drop_prob: 0.4,
                extra_delay: SimTime::from_ms(20.0),
                jitter: SimTime::from_ms(40.0),
                duplicate_prob: 0.0,
            },
        }],
        flaps: Some(LinkFlaps {
            fraction: 0.1,
            period: 4,
            down: 1,
        }),
        partitions: Vec::new(),
        regional: Vec::new(),
    }
}
