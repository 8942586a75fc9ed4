//! The layer probe: one round's work, re-run through the public layer
//! functions one call at a time, each call inside a span.
//!
//! Before a measured round the probe rebuilds the round's inputs from
//! the engine's public state — a fresh [`TopologyView`], the round's
//! fault compilation, its block sources and its traffic messages — and
//! pushes them sequentially through the same layer functions the engine
//! fans out over its thread pool. It reads the engine and never changes
//! it, so probing leaves the run's results untouched. The traffic half
//! reproduces the engine's work exactly (messages are a pure function of
//! the round and the population), which the run checks by comparing the
//! probe's per-class λ means with the engine's own after the round.

use std::hint::black_box;

use perigee_core::{
    ObservationBackend, ObservationCollector, PropagationMode, RoundStore, ScoringMethod,
    SketchObservationStore,
};
use perigee_netsim::{
    BroadcastScratch, GossipScratch, MinerSampler, NodeId, RoundFaults, SimTime, TopologyView,
};
use rand::rngs::StdRng;

use crate::spans::{self_seconds_by_name, wall_seconds, Span, SpanRecorder};
use crate::workloads::Engine;

/// Rows the sketch backend folds at a time (the engine's chunk cap).
const SKETCH_CHUNK_ROWS: usize = 8;

/// What one probed round did and how long each layer took.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// Engine round index the probe reproduced.
    pub round: usize,
    /// Per traffic class: messages, mean λ90 and mean λ50 (ms), summed
    /// in message order exactly like the engine.
    pub classes: Vec<(usize, f64, f64)>,
    /// Traffic messages generated.
    pub messages: usize,
    /// Blocks propagated.
    pub blocks: usize,
    /// Nodes scored.
    pub scored: usize,
    /// Bytes of the round's observation store.
    pub store_bytes: usize,
    /// Every span, in open order.
    pub spans: Vec<Span>,
}

impl ProbeReport {
    /// Observation rows recorded (blocks plus messages).
    pub fn rows(&self) -> usize {
        self.blocks + self.messages
    }

    /// Per-layer figures of this round, by metric name.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let by_name = self_seconds_by_name(&self.spans);
        let self_s = |name: &str| -> f64 {
            by_name
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, s)| s)
                .sum()
        };
        let us_per = |secs: f64, n: usize| secs * 1e6 / n.max(1) as f64;
        let wall_ms = |name: &str| wall_seconds(&self.spans, name) * 1e3;
        vec![
            ("view.build_s", wall_seconds(&self.spans, "view.build")),
            (
                "view.broadcast_us_per_block",
                us_per(self_s("view.broadcast"), self.blocks),
            ),
            (
                "gossip.batch_us_per_msg",
                us_per(self_s("gossip.batch"), self.messages),
            ),
            ("traffic.generate_ms", wall_ms("traffic.generate")),
            (
                "observation.record_us_per_row",
                us_per(self_s("observation.record"), self.rows()),
            ),
            (
                "observation.fold_us_per_row",
                us_per(self_s("observation.fold"), self.rows()),
            ),
            ("observation.store_bytes", self.store_bytes as f64),
            (
                "score.retain_us_per_node",
                us_per(wall_seconds(&self.spans, "score.retain"), self.scored),
            ),
            ("faults.compile_ms", wall_ms("faults.compile")),
        ]
    }
}

/// The round's observation store under construction. Rows are recorded
/// into a chunk collector and folded into the round store chunk by
/// chunk, as the engine's workers do: appended to the dense matrix, or
/// ingested into the per-edge sketches.
struct Store {
    chunk: ObservationCollector,
    pending: usize,
    acc: Acc,
}

enum Acc {
    Dense(Option<ObservationCollector>),
    Sketch(SketchObservationStore),
}

impl Store {
    fn new(view: &TopologyView, backend: ObservationBackend, percentile: f64) -> Self {
        Store {
            chunk: ObservationCollector::from_view(view),
            pending: 0,
            acc: match backend {
                ObservationBackend::Dense => Acc::Dense(None),
                ObservationBackend::Sketch => {
                    Acc::Sketch(SketchObservationStore::from_view(view, percentile))
                }
            },
        }
    }

    /// The engine's chunk length for `len` rows of one phase: an even
    /// split over the worker threads, capped on the sketch backend.
    fn chunk_rows(&self, len: usize) -> usize {
        let rows = len
            .max(1)
            .div_ceil(rayon::current_num_threads().clamp(1, len.max(1)));
        match self.acc {
            Acc::Dense(_) => rows,
            Acc::Sketch(_) => rows.min(SKETCH_CHUNK_ROWS),
        }
    }

    /// Notes `rows` freshly recorded rows and folds the chunk once it
    /// holds `chunk_rows` of them (or when `flush` is set).
    fn rows_recorded(
        &mut self,
        view: &TopologyView,
        rows: usize,
        chunk_rows: usize,
        flush: bool,
        spans: &mut SpanRecorder,
        parent: usize,
    ) {
        self.pending += rows;
        if self.pending < chunk_rows && !(flush && self.pending > 0) {
            return;
        }
        self.pending = 0;
        let full = std::mem::replace(&mut self.chunk, ObservationCollector::from_view(view));
        let acc = &mut self.acc;
        spans.time("observation.fold", Some(parent), || match acc {
            Acc::Dense(Some(d)) => d.append(full),
            Acc::Dense(first) => *first = Some(full),
            Acc::Sketch(s) => s.ingest(&full.finish()),
        });
    }

    fn finish(self, view: &TopologyView) -> RoundStore {
        match self.acc {
            Acc::Dense(d) => RoundStore::Dense(
                d.unwrap_or_else(|| ObservationCollector::from_view(view))
                    .finish(),
            ),
            Acc::Sketch(s) => RoundStore::Sketch(s),
        }
    }
}

/// Probes the round the engine runs next. `rng` draws the probe's own
/// block sources (the engine's are private to its RNG stream; any
/// sources of the same hash-power distribution cost the same).
///
/// Every layer's call site is spanned whether or not the workload gives
/// it work, like the engine's own phase laps: a layer a workload skips
/// reports the measured cost of skipping it.
pub fn probe_round(engine: &Engine, rng: &mut StdRng) -> ProbeReport {
    let mut spans = SpanRecorder::new();
    let root = spans.open("probe", None);
    let round = engine.rounds_run();
    let cfg = *engine.config();
    let population = engine.population();

    let view = spans.time("view.build", Some(root), || {
        TopologyView::new(engine.topology(), engine.latency(), population)
    });
    let faults: Option<RoundFaults> = spans
        .time("faults.compile", Some(root), || {
            engine.fault_plan().map(|plan| {
                let regions: Vec<_> = population.iter().map(|p| p.region).collect();
                plan.compile(round, &view, &regions)
            })
        })
        .filter(|f| !f.is_inert());
    let mut store = Store::new(&view, cfg.observation_backend, cfg.percentile);
    let mut gossip = GossipScratch::with_capacity(view.len(), view.directed_edge_count());
    let mut coverage = [SimTime::ZERO; 2];

    // Blocks, through the engine's propagation mode.
    let miners = MinerSampler::new(population).sample_round(cfg.blocks_per_round, rng);
    let chunk_rows = store.chunk_rows(miners.len());
    let prop = spans.open("propagation", Some(root));
    let mut flood = BroadcastScratch::with_capacity(view.len());
    for (j, &miner) in miners.iter().enumerate() {
        let bf = faults.as_ref().map(|rf| rf.block(j));
        match engine.propagation_mode() {
            PropagationMode::Analytic => {
                spans.time("view.broadcast", Some(prop), || {
                    view.broadcast_into_faulted(miner, &mut flood, bf.as_ref());
                    flood.coverage_times_into(&view, &[0.9, 0.5], &mut coverage);
                });
                spans.time("observation.record", Some(prop), || match &bf {
                    Some(b) => store.chunk.record_scratch_faulted(&view, &flood, b),
                    None => store.chunk.record_scratch(&view, &flood),
                });
            }
            PropagationMode::Gossip(gcfg) => {
                spans.time("view.broadcast", Some(prop), || {
                    view.gossip_into_faulted(miner, &gcfg, &mut gossip, bf.as_ref());
                    gossip.coverage_times_into(&view, &[0.9, 0.5], &mut coverage);
                });
                spans.time("observation.record", Some(prop), || {
                    store.chunk.record_gossip_scratch(&view, &gossip)
                });
            }
        }
        let last = j + 1 == miners.len();
        store.rows_recorded(&view, 1, chunk_rows, last, &mut spans, prop);
    }
    spans.close(prop);

    // The traffic stream, exactly as the engine generates and chunks it.
    let traffic = engine.traffic();
    let (messages, batch) = spans.time("traffic.generate", Some(root), || {
        let mut batch = Vec::new();
        let messages = traffic.map_or(Vec::new(), |tc| {
            let messages = tc.messages_for_round(round as u64, population);
            tc.batch_for(&messages, &mut batch);
            messages
        });
        (messages, batch)
    });
    let mut classes = vec![(0usize, 0.0f64, 0.0f64); traffic.map_or(0, |tc| tc.classes.len())];
    let chunk_rows = store.chunk_rows(batch.len());
    let gossip_span = spans.open("gossip.batch", Some(root));
    for (ci, chunk) in batch.chunks(chunk_rows).enumerate() {
        let base = ci * chunk_rows;
        view.gossip_batch_into(chunk, &mut gossip, |i, s| {
            spans.time("gossip.coverage", Some(gossip_span), || {
                s.batch_coverage_times_into(&view, &[0.9, 0.5], &mut coverage)
            });
            spans.time("observation.record", Some(gossip_span), || {
                store.chunk.record_gossip_scratch(&view, s)
            });
            let c = &mut classes[messages[base + i].class as usize];
            c.0 += 1;
            c.1 += coverage[0].as_ms();
            c.2 += coverage[1].as_ms();
        });
        store.rows_recorded(
            &view,
            chunk.len(),
            chunk_rows,
            true,
            &mut spans,
            gossip_span,
        );
    }
    spans.close(gossip_span);
    for c in &mut classes {
        if c.0 > 0 {
            c.1 /= c.0 as f64;
            c.2 /= c.0 as f64;
        } else {
            c.1 = f64::INFINITY;
            c.2 = f64::INFINITY;
        }
    }
    let store = store.finish(&view);
    let store_bytes = match &store {
        RoundStore::Dense(d) => d.matrix_bytes(),
        RoundStore::Sketch(s) => s.sketch_bytes(),
    };

    // Scoring: every live node with outgoing links, as a stateless
    // Subset scorer sees the round.
    let strategy = ScoringMethod::Subset.strategy(
        population.len(),
        cfg.retain_count(),
        cfg.percentile,
        cfg.ucb_c,
    );
    let topology = engine.topology();
    let mut scored = 0;
    spans.time("score.retain", Some(root), || {
        for i in 0..population.len() as u32 {
            let v = NodeId::new(i);
            let outgoing = topology.outgoing_vec(v);
            if !population.is_alive(v) || outgoing.is_empty() {
                continue;
            }
            black_box(strategy.retain_stateless(v, &outgoing, store.node(v)));
            scored += 1;
        }
    });
    spans.close(root);

    ProbeReport {
        round,
        classes,
        messages: messages.len(),
        blocks: miners.len(),
        scored,
        store_bytes,
        spans: spans.spans().to_vec(),
    }
}
