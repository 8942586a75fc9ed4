//! One benchmark for the Perigee round engine.
//!
//! Each process runs one workload for one seed in one of two modes:
//!
//! * **plain** — telemetry off. Repeats the seed's trajectory closed-loop
//!   (each round starts when the previous one returns; each trajectory
//!   starts with a fresh set-up) until the time budget is spent, and
//!   reports the end-to-end figures: set-up time, round-time median and
//!   tail, simulated messages per second, peak RSS and the λ90 ratio
//!   (after ÷ before the trajectory).
//! * **traced** — one trajectory of the same seed with a `RunTelemetry`
//!   handle installed and the layer probe before the first rounds. It
//!   reports the per-layer figures and writes the engine's round records
//!   and the probe's spans as JSONL.
//!
//! Both modes run the correctness gate of [`run`] on every round and
//! print one JSON object as their last line; `run.py` beside this crate
//! compares the two runs of a seed and prints the final result.

mod aggregate;
mod probe;
mod run;
mod spans;
mod stats;
pub mod sys;
pub mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use perigee_telemetry::{json_escape, json_f64};

use aggregate::{counter_total, fold_counters, laps_total, phase_median, ratio};
use run::{trajectory, Digest, Mode, Trajectory};
use stats::{median, tail, TAIL_BEYOND};
use workloads::Workload;

/// The engine phases reported per layer, in round order.
const PHASES: [&str; 10] = [
    "mine",
    "view",
    "fault_compile",
    "propagation",
    "traffic",
    "scoring",
    "liveness",
    "rewiring",
    "churn",
    "view_patch",
];

/// A flat JSON object built field by field.
#[derive(Debug, Default)]
struct JsonObject(Vec<String>);

impl JsonObject {
    /// Adds a number (`null` when not finite).
    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, json_f64(v))
    }

    /// Adds a string.
    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, format!("\"{}\"", json_escape(v)))
    }

    /// Adds pre-rendered JSON.
    fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.0.push(format!("\"{}\":{json}", json_escape(key)));
        self
    }

    /// The rendered object.
    fn render(&self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

fn json_nums(xs: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = xs.into_iter().map(json_f64).collect();
    format!("[{}]", items.join(","))
}

fn json_strs(xs: &[String]) -> String {
    let items: Vec<String> = xs
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", items.join(","))
}

fn digest_json(d: &Digest) -> String {
    let mut o = JsonObject::default();
    o.str("rounds", &format!("{:016x}", d.rounds))
        .str("topology", &format!("{:016x}", d.topology))
        .str("lambda90", &format!("{:016x}", d.lambda90));
    o.render()
}

fn stamp(o: &mut JsonObject, mode: &str, workload: Workload, seed: u64, rounds: usize) {
    o.str("mode", mode)
        .str("workload", workload.name())
        .num("seed", seed as f64)
        .num("nproc", sys::nproc() as f64)
        .num("threads", rayon::current_num_threads() as f64)
        .num("trajectory_rounds", rounds as f64);
}

/// Measured rounds a plain run always reaches, so that its tail
/// percentile has [`TAIL_BEYOND`] rounds beyond it.
const MIN_ROUNDS: usize = 2 * TAIL_BEYOND;

/// The plain (telemetry-off) run: trajectories back to back until
/// `seconds` have passed and at least [`MIN_ROUNDS`] rounds were
/// measured. Returns the JSON result line.
pub fn plain_report(workload: Workload, seed: u64, rounds: usize, seconds: f64) -> String {
    let start = Instant::now();
    let mut runs: Vec<Trajectory> = Vec::new();
    loop {
        let t = trajectory(workload, seed, rounds, Mode::Plain);
        let failed = t.failed > 0;
        runs.push(t);
        let measured: usize = runs.iter().map(|t| t.round_s.len()).sum();
        if failed || (start.elapsed().as_secs_f64() >= seconds && measured >= MIN_ROUNDS) {
            break;
        }
    }
    let setups: Vec<f64> = runs.iter().map(|t| t.setup_s).collect();
    let round_s: Vec<f64> = runs
        .iter()
        .flat_map(|t| t.round_s.iter().copied())
        .collect();
    let messages: usize = runs.iter().flat_map(|t| t.messages.iter()).sum();
    let mut failures: Vec<String> = runs.iter().flat_map(|t| t.failures.clone()).collect();
    let mut failed: usize = runs.iter().map(|t| t.failed).sum();
    let attempted: usize = runs.iter().map(|t| t.attempted).sum();
    let first = &runs[0];
    // Every repeat replays the same seed, so every digest must agree.
    for (i, t) in runs.iter().enumerate().skip(1) {
        if t.digest != first.digest {
            failed += 1;
            failures.push(format!("repeat {i} of the seed diverged from repeat 0"));
        }
    }
    let (tail_pct, tail_s) =
        tail(&round_s).unwrap_or((100, round_s.iter().copied().fold(0.0, f64::max)));
    let busy: f64 = round_s.iter().sum();

    let mut metrics = JsonObject::default();
    metrics
        .num("setup_s", median(&setups))
        .num("round_s_p50", median(&round_s))
        .num("round_s_tail", tail_s)
        .num("msgs_per_s", messages as f64 / busy)
        .num("peak_rss_mb", sys::peak_rss_mib())
        .num("lambda90_ratio", first.lambda90_ratio());
    let mut o = JsonObject::default();
    stamp(&mut o, "plain", workload, seed, rounds);
    o.num("trajectories", runs.len() as f64)
        .num("measured_rounds", round_s.len() as f64)
        .num("tail_percentile", tail_pct as f64)
        .num("lambda90_before_ms", first.lambda90_before_ms)
        .num("lambda90_after_ms", first.lambda90_after_ms)
        .raw("setup_samples_s", json_nums(setups))
        .raw("round_samples_s", json_nums(round_s))
        .raw("digest", digest_json(&first.digest))
        .num("attempted", attempted as f64)
        .num("failed", failed as f64)
        .raw("failures", json_strs(&failures))
        .raw("metrics", metrics.render());
    o.render()
}

/// Per-layer figures of a traced trajectory, by metric name. Engine
/// figures come from the round records (per-round medians, peaks as
/// maxima, ratios of run totals); probe figures are medians over the
/// probed rounds.
fn layer_metrics(t: &Trajectory, threads: usize) -> Vec<(String, f64)> {
    let recs = &t.records;
    let mut out: Vec<(String, f64)> = PHASES
        .iter()
        .map(|p| (format!("engine.{p}_s"), phase_median(recs, p)))
        .collect();
    let cover: Vec<f64> = recs
        .iter()
        .zip(&t.round_s)
        .map(|(r, &wall)| laps_total(r) / wall)
        .collect();
    out.push(("engine.phase_cover".into(), median(&cover)));

    let folded = fold_counters(recs);
    let c = |name: &str| {
        folded
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let total = |name: &str| counter_total(recs, name);
    out.push(("view.flood_relaxations".into(), c("flood_relaxations")));
    out.push((
        "view.flood_useful_ratio".into(),
        ratio(total("flood_improvements"), total("flood_relaxations")),
    ));
    out.push(("gossip.pops".into(), c("gossip_pops")));
    out.push((
        "gossip.elided_ratio".into(),
        ratio(
            total("gossip_elided"),
            total("gossip_pops") + total("gossip_elided"),
        ),
    ));
    out.push(("gossip.deliveries".into(), c("gossip_deliveries")));
    out.push(("gossip.queue_peak".into(), c("queue_peak")));
    out.push(("gossip.epoch_refills".into(), c("epoch_refills")));
    out.push((
        "gossip.epoch_reuse_ratio".into(),
        ratio(
            total("epoch_bumps"),
            total("epoch_bumps") + total("epoch_refills"),
        ),
    ));
    out.push(("traffic.messages".into(), c("traffic_messages")));
    out.push(("faults.drops".into(), c("fault_drops")));
    out.push(("faults.delays".into(), c("fault_delays")));
    out.push(("faults.dupes".into(), c("fault_dupes")));
    out.push(("score.dropped".into(), c("dropped")));
    out.push(("liveness.evicted".into(), c("evicted")));

    let probe_metrics: Vec<Vec<(&'static str, f64)>> =
        t.probes.iter().map(|p| p.metrics()).collect();
    if let Some(first) = probe_metrics.first() {
        for (i, (name, _)) in first.iter().enumerate() {
            let values: Vec<f64> = probe_metrics.iter().map(|m| m[i].1).collect();
            out.push((name.to_string(), median(&values)));
        }
    }
    let busy: f64 = t.round_s.iter().sum();
    out.push(("cpu.util".into(), t.cpu_s / (busy * threads as f64)));
    out
}

/// Measured rounds the traced run probes first.
const PROBED_ROUNDS: usize = 2;

/// The traced run: one trajectory with telemetry, probing the first
/// [`PROBED_ROUNDS`] rounds. Writes `rounds.jsonl` (the engine's records) and
/// `spans.jsonl` (the probe's spans) into `out_dir`, and returns the
/// JSON result line.
pub fn traced_report(
    workload: Workload,
    seed: u64,
    rounds: usize,
    out_dir: &Path,
) -> std::io::Result<String> {
    let t = trajectory(
        workload,
        seed,
        rounds,
        Mode::Traced {
            probes: PROBED_ROUNDS,
        },
    );
    let threads = rayon::current_num_threads();

    std::fs::create_dir_all(out_dir)?;
    let mut records = String::new();
    for rec in &t.records {
        let _ = writeln!(records, "{}", rec.to_json());
    }
    std::fs::write(out_dir.join("rounds.jsonl"), records)?;
    let mut spans = String::new();
    for p in &t.probes {
        spans.push_str(&spans::to_jsonl(&p.spans, p.round));
    }
    std::fs::write(out_dir.join("spans.jsonl"), spans)?;

    let mut layers = JsonObject::default();
    for (name, v) in layer_metrics(&t, threads) {
        layers.num(&name, v);
    }
    let mut o = JsonObject::default();
    stamp(&mut o, "traced", workload, seed, rounds);
    o.num("probed_rounds", t.probes.len() as f64)
        .num("setup_s", t.setup_s)
        .num("round_s_p50", median(&t.round_s))
        .raw("round_samples_s", json_nums(t.round_s.iter().copied()))
        .raw("digest", digest_json(&t.digest))
        .num("attempted", t.attempted as f64)
        .num("failed", t.failed as f64)
        .raw("failures", json_strs(&t.failures))
        .str("trace_dir", &out_dir.display().to_string())
        .raw("per_layer", layers.render());
    Ok(o.render())
}

/// Smoke mode: a few full-size rounds of `workload`, plain and traced,
/// with every check on. Returns the failures (empty when all passed).
pub fn smoke(workload: Workload, seed: u64, rounds: usize) -> Vec<String> {
    let plain = trajectory(workload, seed, rounds, Mode::Plain);
    let traced = trajectory(workload, seed, rounds, Mode::Traced { probes: rounds });
    let mut failures = plain.failures.clone();
    failures.extend(traced.failures.iter().cloned());
    if plain.digest != traced.digest {
        failures.push(format!(
            "traced results {:?} differ from untraced {:?}",
            traced.digest, plain.digest
        ));
    }
    if traced.records.len() != rounds || traced.probes.len() != rounds {
        failures.push("traced run lost round records or probes".to_string());
    }
    let layers = layer_metrics(&traced, rayon::current_num_threads());
    let get = |n: &str| layers.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
    if !get("engine.phase_cover").is_some_and(|c| c > 0.5 && c <= 1.0 + 1e-9) {
        failures.push(format!(
            "implausible phase cover {:?}",
            get("engine.phase_cover")
        ));
    }
    failures
}
