//! Closed-loop trajectories: set up a world, run its rounds back to back
//! and check every round as it returns.
//!
//! A trajectory is one seeded world driven through
//! [`Workload::trajectory_rounds`] measured rounds. The untimed checks
//! between rounds are the benchmark's correctness gate:
//!
//! * every round mines the configured block count and carries exactly
//!   `messages_for_round(..).len()` traffic messages;
//! * the engine built its CSR view once (`view_rebuilds == 1`), by the
//!   public accessor and, when traced, by every round record;
//! * a probed round's per-class λ means equal the engine's
//!   `last_traffic_stats()` bit for bit;
//! * nothing panics.
//!
//! The trajectory also folds its `RoundStats`, traffic statistics, final
//! topology and final λ90 vector into digests, so a traced and an
//! untraced run of one seed — or a parent commit and a change — can be
//! compared for bit-identity.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use perigee_core::{RoundStats, TrafficRoundStats};
use perigee_netsim::NodeId;
use perigee_telemetry::{MemorySink, RunTelemetry, TraceRecord, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probe::{probe_round, ProbeReport};
use crate::stats::median;
use crate::sys::cpu_seconds;
use crate::workloads::{Engine, Workload};

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Bit-identity digests of one trajectory's results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Every round's `RoundStats` and traffic statistics, in order.
    pub rounds: u64,
    /// The final learned topology (every node's outgoing list).
    pub topology: u64,
    /// The final `evaluate_alive(0.9)` vector.
    pub lambda90: u64,
}

fn fold_round(h: &mut Fnv, s: &RoundStats, traffic: Option<&TrafficRoundStats>) {
    h.word(s.round as u64);
    h.word(s.mean_lambda90_ms.to_bits());
    h.word(s.mean_lambda50_ms.to_bits());
    h.word(s.p90_lambda90_ms.to_bits());
    for n in [
        s.blocks, s.dropped, s.joined, s.departed, s.gated, s.evicted,
    ] {
        h.word(n as u64);
    }
    if let Some(t) = traffic {
        h.word(t.messages as u64);
        for c in &t.per_class {
            h.word(c.messages as u64);
            h.word(c.mean_lambda90_ms.to_bits());
            h.word(c.mean_lambda50_ms.to_bits());
        }
    }
}

/// A [`TraceSink`] that keeps the engine's records in a [`MemorySink`]
/// the benchmark can still read while the engine owns the handle.
#[derive(Debug, Clone, Default)]
struct SharedMemory(Arc<Mutex<MemorySink>>);

impl TraceSink for SharedMemory {
    fn record(&mut self, rec: &TraceRecord) {
        self.0.lock().expect("sink lock").record(rec);
    }
}

/// How a trajectory is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Telemetry off: the end-to-end timings.
    Plain,
    /// Telemetry on, with the layer probe before the first `probes`
    /// measured rounds.
    Traced {
        /// Rounds to probe.
        probes: usize,
    },
}

/// Everything one trajectory measured and checked.
#[derive(Debug, Default)]
pub struct Trajectory {
    /// Set-up time: world build, initial evaluation and warm-up round.
    pub setup_s: f64,
    /// Host time of each measured round.
    pub round_s: Vec<f64>,
    /// Process CPU time over the measured rounds.
    pub cpu_s: f64,
    /// Simulated messages (blocks plus traffic) of each measured round.
    pub messages: Vec<usize>,
    /// Median λ90 before round 0 and after the last round, in ms.
    pub lambda90_before_ms: f64,
    /// See `lambda90_before_ms`.
    pub lambda90_after_ms: f64,
    /// Result digests.
    pub digest: Digest,
    /// Measured rounds attempted.
    pub attempted: usize,
    /// Measured rounds that panicked or failed a check.
    pub failed: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The engine's trace records of the measured rounds (traced only).
    pub records: Vec<TraceRecord>,
    /// Probe reports (traced only).
    pub probes: Vec<ProbeReport>,
}

impl Trajectory {
    /// Median λ90 after the trajectory ÷ median λ90 before it.
    pub fn lambda90_ratio(&self) -> f64 {
        self.lambda90_after_ms / self.lambda90_before_ms
    }
}

fn median_lambda(engine: &Engine, h: Option<&mut Fnv>) -> f64 {
    let lambda = engine.evaluate_alive(0.9);
    if let Some(h) = h {
        for x in &lambda {
            h.word(x.to_bits());
        }
    }
    median(&lambda)
}

/// Runs one trajectory of `rounds` measured rounds.
pub fn trajectory(workload: Workload, seed: u64, rounds: usize, mode: Mode) -> Trajectory {
    let mut t = Trajectory::default();
    let mut rounds_h = Fnv::default();

    let start = Instant::now();
    let (mut engine, mut rng) = workload.build(seed);
    t.lambda90_before_ms = median_lambda(&engine, None);
    let warm = engine.run_round(&mut rng);
    t.setup_s = start.elapsed().as_secs_f64();
    fold_round(&mut rounds_h, &warm, engine.last_traffic_stats());

    let sink = SharedMemory::default();
    if let Mode::Traced { .. } = mode {
        engine.set_telemetry(
            RunTelemetry::new(workload.name(), seed).with_sink(Box::new(sink.clone())),
        );
    }
    let mut probe_rng = StdRng::seed_from_u64(seed ^ 0x9E0B_E5EE);
    let blocks = engine.config().blocks_per_round;

    for r in 0..rounds {
        t.attempted += 1;
        let expected = engine.traffic().map_or(0, |tc| {
            tc.messages_for_round(engine.rounds_run() as u64, engine.population())
                .len()
        });
        let probe = match mode {
            Mode::Traced { probes } if r < probes => Some(probe_round(&engine, &mut probe_rng)),
            _ => None,
        };

        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.run_round(&mut rng)));
        t.round_s.push(t0.elapsed().as_secs_f64());
        t.cpu_s += cpu_seconds() - cpu0;

        let stats = match outcome {
            Ok(stats) => stats,
            Err(_) => {
                t.failed += 1;
                t.failures.push(format!("round {r}: run_round panicked"));
                break;
            }
        };
        let traffic = engine.last_traffic_stats();
        let got = traffic.map_or(0, |s| s.messages);
        t.messages.push(stats.blocks + got);
        fold_round(&mut rounds_h, &stats, traffic);

        let mut bad = Vec::new();
        if stats.blocks != blocks {
            bad.push(format!(
                "mined {} blocks, configured {blocks}",
                stats.blocks
            ));
        }
        if got != expected {
            bad.push(format!(
                "{got} traffic messages, messages_for_round gives {expected}"
            ));
        }
        if engine.view_rebuilds() != 1 {
            bad.push(format!("view_rebuilds = {}", engine.view_rebuilds()));
        }
        if let Mode::Traced { .. } = mode {
            let rec = sink.0.lock().expect("sink lock").records().last().cloned();
            match rec {
                Some(rec) if rec.round == stats.round as u64 => {
                    if rec.get_counter("view_rebuilds") != Some(1) {
                        bad.push(format!(
                            "record view_rebuilds = {:?}",
                            rec.get_counter("view_rebuilds")
                        ));
                    }
                    if rec.get_counter("traffic_messages") != Some(expected as u64) {
                        bad.push("record traffic_messages disagrees".to_string());
                    }
                    t.records.push(rec);
                }
                _ => bad.push("no trace record for the round".to_string()),
            }
        }
        if let Some(p) = probe {
            bad.extend(check_probe(&p, expected, traffic));
            t.probes.push(p);
        }
        if !bad.is_empty() {
            t.failed += 1;
            t.failures.extend(
                bad.into_iter()
                    .map(|b| format!("round {}: {b}", stats.round)),
            );
        }
    }

    let mut topo_h = Fnv::default();
    let topology = engine.topology();
    for i in 0..topology.len() as u32 {
        let out = topology.outgoing_vec(NodeId::new(i));
        topo_h.word(out.len() as u64);
        for u in out {
            topo_h.word(u.index() as u64);
        }
    }
    let mut lambda_h = Fnv::default();
    t.lambda90_after_ms = median_lambda(&engine, Some(&mut lambda_h));
    t.digest = Digest {
        rounds: rounds_h.finish(),
        topology: topo_h.finish(),
        lambda90: lambda_h.finish(),
    };
    t
}

/// The probe reproduced the round's traffic: same message count and
/// bit-identical per-class λ means.
fn check_probe(
    p: &ProbeReport,
    expected: usize,
    traffic: Option<&TrafficRoundStats>,
) -> Vec<String> {
    let mut bad = Vec::new();
    if p.messages != expected {
        bad.push(format!(
            "probe saw {} messages, expected {expected}",
            p.messages
        ));
    }
    let engine_classes: Vec<(usize, f64, f64)> = traffic.map_or(Vec::new(), |s| {
        s.per_class
            .iter()
            .map(|c| (c.messages, c.mean_lambda90_ms, c.mean_lambda50_ms))
            .collect()
    });
    let same = p.classes.len() == engine_classes.len()
        && p.classes.iter().zip(&engine_classes).all(|(a, b)| {
            a.0 == b.0 && a.1.to_bits() == b.1.to_bits() && a.2.to_bits() == b.2.to_bits()
        });
    if !same {
        bad.push(format!(
            "probe per-class λ {:?} differs from the engine's {:?}",
            p.classes, engine_classes
        ));
    }
    bad
}
