//! Run-level figures from the engine's per-round trace records.
//!
//! `RunTelemetry`'s registry adds every counter of every record, which is
//! right for work counts only: peaks (`queue_peak`, `batch_peak`) and
//! gauges (`view_rebuilds`, `compaction_epoch`) come out summed — a
//! 12-round run would report `view_rebuilds = 12`. This module folds the
//! records itself, by counter kind.

use perigee_telemetry::TraceRecord;

use crate::stats::median;

/// How a counter combines across rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// A per-round high-water mark: the run figure is the maximum.
    Peak,
    /// A cumulative state value: the run figure is the last round's.
    Gauge,
    /// Work done in the round: the run figure is the per-round median.
    Work,
}

/// The kind of a counter the engine emits, by name.
pub fn counter_kind(name: &str) -> CounterKind {
    match name {
        "queue_peak" | "batch_peak" => CounterKind::Peak,
        "view_rebuilds" | "compaction_epoch" => CounterKind::Gauge,
        _ => CounterKind::Work,
    }
}

/// Every counter seen in `records`, folded by its kind, in first-seen
/// order. A record missing a counter contributes 0 to it.
pub fn fold_counters(records: &[TraceRecord]) -> Vec<(String, f64)> {
    let mut names: Vec<&str> = Vec::new();
    for rec in records {
        for (name, _) in &rec.counters {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
    }
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = records
                .iter()
                .map(|r| r.get_counter(name).unwrap_or(0) as f64)
                .collect();
            let folded = match counter_kind(name) {
                CounterKind::Peak => values.iter().copied().fold(0.0, f64::max),
                CounterKind::Gauge => values.last().copied().unwrap_or(0.0),
                CounterKind::Work => median(&values),
            };
            (name.to_string(), folded)
        })
        .collect()
}

/// Sum of one counter over every record (for ratios of totals).
pub fn counter_total(records: &[TraceRecord], name: &str) -> u64 {
    records.iter().filter_map(|r| r.get_counter(name)).sum()
}

/// Per-round median of one phase's laps, in seconds (0 when no record
/// carries the phase).
pub fn phase_median(records: &[TraceRecord], phase: &str) -> f64 {
    let laps: Vec<f64> = records
        .iter()
        .map(|r| {
            r.phases_s
                .iter()
                .filter(|(n, _)| n == phase)
                .map(|(_, s)| s)
                .sum()
        })
        .collect();
    median(&laps)
}

/// Sum of every phase lap of a record, in seconds.
pub fn laps_total(rec: &TraceRecord) -> f64 {
    rec.phases_s.iter().map(|(_, s)| s).sum()
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigee_telemetry::RunTelemetry;

    fn record(round: u64, work: u64, peak: u64) -> TraceRecord {
        let mut rec = TraceRecord::new("round", "agg", 1, round);
        rec.phases_s
            .push(("traffic".into(), 0.1 * (round + 1) as f64));
        rec.counter("gossip_pops", work);
        rec.counter("queue_peak", peak);
        rec.counter("view_rebuilds", 1);
        rec.counter("compaction_epoch", round / 4);
        rec
    }

    #[test]
    fn peaks_take_the_max_gauges_the_last_and_work_the_median() {
        let records: Vec<TraceRecord> = (0..12).map(|r| record(r, 100 + r, 7 + r % 5)).collect();

        // The registry's whole-run sum is what this fold corrects.
        let mut tel = RunTelemetry::new("agg", 1);
        for rec in &records {
            tel.emit(rec);
        }
        assert_eq!(tel.registry().counter("view_rebuilds"), 12);

        let folded = fold_counters(&records);
        let get = |n: &str| folded.iter().find(|(k, _)| k == n).unwrap().1;
        assert_eq!(get("view_rebuilds"), 1.0);
        assert_eq!(get("compaction_epoch"), 2.0);
        assert_eq!(get("queue_peak"), 11.0);
        assert_eq!(get("gossip_pops"), 105.5);
        assert_eq!(
            counter_total(&records, "gossip_pops"),
            (100..112).sum::<u64>()
        );
        assert!((phase_median(&records, "traffic") - 0.65).abs() < 1e-12);
        assert_eq!(phase_median(&records, "absent"), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
