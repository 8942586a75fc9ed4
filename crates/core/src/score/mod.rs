//! Neighbor scoring and selection strategies (§4.2–§4.3).
//!
//! Algorithm 1's template is: score the current outgoing neighbors from the
//! round's observations, retain the best subset, and refill with random
//! exploration peers. The three published scoring methods are:
//!
//! * [`VanillaScoring`] (§4.2.1) — per-neighbor 90th percentile;
//! * [`UcbScoring`] (§4.2.2) — percentile with confidence bounds over the
//!   neighbor's full connection history, dropping at most one neighbor per
//!   round;
//! * [`SubsetScoring`] (§4.3) — greedy complementary group selection.
//!
//! All are [`SelectionStrategy`] implementations consumed by
//! [`PerigeeEngine`](crate::PerigeeEngine). Scoring reads the round's
//! flat [`ObservationStore`](crate::ObservationStore) through borrowed
//! [`NodeObservations`] windows, and parallelizes along one of two paths:
//! stateless strategies (Vanilla/Subset) fan out directly
//! ([`SelectionStrategy::retain_stateless`]), while stateful ones expose
//! their per-node cross-round state through the split-borrow
//! [`SelectionStrategy::split_stateful`] API so the engine can hand every
//! node a disjoint `&mut` [`NodeHistory`] on the rayon pool.

mod subset;
mod ucb;
mod vanilla;

pub use subset::SubsetScoring;
pub use ucb::{ConfidenceBounds, UcbScoring};
pub use vanilla::VanillaScoring;

use rand::RngCore;

use perigee_netsim::{NodeId, WorldDelta};

use crate::observation::NodeObservations;

/// One node's cross-round scoring state: per-neighbor sample buffers,
/// kept for as long as the connection lives (the paper's `T̿u,v`).
///
/// Samples are the finite normalized observation times, stored as `f32`
/// like the round matrix they came from. Buffers are looked up by linear
/// scan — a node has at most a handful of outgoing neighbors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeHistory {
    neighbors: Vec<NodeId>,
    samples: Vec<Vec<f32>>,
}

impl NodeHistory {
    /// The accumulated samples for neighbor `u` (empty if none).
    pub fn samples_for(&self, u: NodeId) -> &[f32] {
        match self.neighbors.iter().position(|&x| x == u) {
            Some(i) => &self.samples[i],
            None => &[],
        }
    }

    /// Appends this round's finite observations of `u` to its buffer.
    pub fn absorb(&mut self, u: NodeId, times: impl Iterator<Item = f64>) {
        let i = match self.neighbors.iter().position(|&x| x == u) {
            Some(i) => i,
            None => {
                self.neighbors.push(u);
                self.samples.push(Vec::new());
                self.neighbors.len() - 1
            }
        };
        self.samples[i].extend(times.filter(|t| t.is_finite()).map(|t| t as f32));
    }

    /// Forgets everything about `u` — the connection is gone (the paper
    /// keeps per-neighbor history only while connected).
    pub fn forget(&mut self, u: NodeId) {
        if let Some(i) = self.neighbors.iter().position(|&x| x == u) {
            self.neighbors.remove(i);
            self.samples.remove(i);
        }
    }

    /// Ages the history under churn: every neighbor buffer keeps only its
    /// newest `⌈len · staleness⌉` samples (buffers grow in round order,
    /// so the tail is the newest). `staleness = 1.0` keeps everything;
    /// smaller values make scores learned against a departed world fade
    /// geometrically round over round.
    pub fn decay(&mut self, staleness: f64) {
        debug_assert!((0.0..=1.0).contains(&staleness));
        if staleness >= 1.0 {
            return;
        }
        for buf in &mut self.samples {
            let keep = (buf.len() as f64 * staleness).ceil() as usize;
            if keep < buf.len() {
                buf.drain(..buf.len() - keep);
            }
        }
    }

    /// Forgets every neighbor at once — the node itself left the network
    /// (or reset in place).
    pub fn clear(&mut self) {
        self.neighbors.clear();
        self.samples.clear();
    }

    /// Renumbers the per-neighbor buffers under a free-list compaction
    /// plan. Entries for unmappable (dead) neighbors are dropped — the
    /// engine forgets history on disconnect, so by the time a compaction
    /// runs none should remain, but a defensive drop keeps the invariant
    /// "history references live ids" unconditional.
    pub fn compact(&mut self, plan: &perigee_netsim::IdRemap) {
        let neighbors = std::mem::take(&mut self.neighbors);
        let samples = std::mem::take(&mut self.samples);
        for (u, buf) in neighbors.into_iter().zip(samples) {
            if let Some(new) = plan.new_id(u) {
                self.neighbors.push(new);
                self.samples.push(buf);
            }
        }
    }

    /// Total number of stored samples for `u`.
    pub fn sample_count(&self, u: NodeId) -> usize {
        self.samples_for(u).len()
    }

    /// How many trailing samples per buffer one auditor pass inspects.
    /// Buffers only grow at the tail ([`NodeHistory::absorb`] appends;
    /// decay/forget drop whole prefixes or buffers), so at
    /// audit-every-round cadence every sample is inspected while it *is*
    /// the tail — full coverage paid incrementally. A full sweep would
    /// make the pass O(total samples), which grows with run length and
    /// blows the auditor's ≤ 2% per-round budget on long UCB runs.
    const AUDIT_TAIL: usize = 32;

    /// Release-mode legality check of one node's score state (see
    /// [`crate::audit`]): buffers must pair up with neighbors, neighbor
    /// entries must be unique, and stored samples must be finite — `∞`
    /// never enters `T̿u,v` ([`NodeHistory::absorb`] filters it) and a
    /// `NaN` means the state was corrupted. Sample finiteness is checked
    /// on the newest [`NodeHistory::AUDIT_TAIL`] entries per buffer.
    pub(crate) fn audit(&self, v: usize, out: &mut Vec<crate::audit::AuditViolation>) {
        use crate::audit::{AuditCheck, AuditViolation};
        if self.neighbors.len() != self.samples.len() {
            out.push(AuditViolation::new(
                AuditCheck::ScoreState,
                format!("n{v}: neighbor/buffer arrays diverge"),
            ));
            return;
        }
        for (i, u) in self.neighbors.iter().enumerate() {
            if self.neighbors[..i].contains(u) {
                out.push(AuditViolation::new(
                    AuditCheck::ScoreState,
                    format!("n{v}: duplicate history entry for {u}"),
                ));
            }
            let buf = &self.samples[i];
            let tail = &buf[buf.len().saturating_sub(Self::AUDIT_TAIL)..];
            if let Some(bad) = tail.iter().find(|t| !t.is_finite()) {
                out.push(AuditViolation::new(
                    AuditCheck::ScoreState,
                    format!("n{v}: non-finite sample {bad} for {u}"),
                ));
            }
        }
    }
}

mod codec {
    //! Checkpoint codec impls (see `serde::bin`): UCB's cross-round
    //! per-connection history is the score state a resumed run must
    //! carry to stay bit-identical with an uninterrupted one.

    use serde::bin::{Decode, DecodeError, Encode, Reader};

    use super::{NodeHistory, ScoringMethod};

    impl Encode for NodeHistory {
        fn encode(&self, out: &mut Vec<u8>) {
            self.neighbors.encode(out);
            self.samples.encode(out);
        }
    }

    impl Decode for NodeHistory {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let h = NodeHistory {
                neighbors: Vec::decode(r)?,
                samples: Vec::decode(r)?,
            };
            if h.neighbors.len() != h.samples.len() {
                return Err(DecodeError::new("node history arrays diverge"));
            }
            Ok(h)
        }
    }

    impl Encode for ScoringMethod {
        fn encode(&self, out: &mut Vec<u8>) {
            let tag: u8 = match self {
                ScoringMethod::Vanilla => 0,
                ScoringMethod::Ucb => 1,
                ScoringMethod::Subset => 2,
            };
            tag.encode(out);
        }
    }

    impl Decode for ScoringMethod {
        fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            match u8::decode(r)? {
                0 => Ok(ScoringMethod::Vanilla),
                1 => Ok(ScoringMethod::Ucb),
                2 => Ok(ScoringMethod::Subset),
                _ => Err(DecodeError::new("unknown scoring method tag")),
            }
        }
    }
}

/// The immutable scoring half of a stateful strategy, usable from any
/// thread once the per-node state has been split off.
pub trait StatefulScorer: Send + Sync {
    /// Scores node `v` using only its own split-off `state` — callable
    /// concurrently for different nodes, since each call touches exactly
    /// one [`NodeHistory`]. Must match the strategy's sequential
    /// [`SelectionStrategy::retain`] bit for bit.
    fn retain_stateful(
        &self,
        v: NodeId,
        outgoing: &[NodeId],
        observations: NodeObservations<'_>,
        state: &mut NodeHistory,
    ) -> Vec<NodeId>;
}

/// The split-borrow view of a stateful strategy: scoring parameters
/// (immutable, shared across threads) and the per-node state array
/// (mutable, indexed by node id, handed out in disjoint chunks).
///
/// Produced by [`SelectionStrategy::split_stateful`]; the borrow split is
/// what lets UCB's `retain` fan over the rayon pool — each worker mutates
/// only the [`NodeHistory`] entries of its own chunk while all workers
/// share the scorer.
pub struct StatefulSplit<'a> {
    /// The shared, immutable scoring logic.
    pub scorer: &'a dyn StatefulScorer,
    /// Per-node state, indexed by node id.
    pub states: &'a mut [NodeHistory],
}

impl std::fmt::Debug for StatefulSplit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatefulSplit")
            .field("states", &self.states.len())
            .finish_non_exhaustive()
    }
}

/// Decides which outgoing neighbors a node keeps at the end of a round.
///
/// Implementations may hold per-node state across rounds (UCB keeps each
/// neighbor's observation history for as long as the connection lives).
pub trait SelectionStrategy: Send + Sync {
    /// Returns the subset of `outgoing` that node `v` retains. Anything not
    /// returned is disconnected; the engine refills the freed slots with
    /// random exploration peers.
    fn retain(
        &mut self,
        v: NodeId,
        outgoing: &[NodeId],
        observations: NodeObservations<'_>,
        rng: &mut dyn RngCore,
    ) -> Vec<NodeId>;

    /// Returns `true` when [`SelectionStrategy::retain`] is a pure
    /// function of its inputs — no cross-round state mutated, no
    /// randomness consumed (Vanilla and Subset). The engine then fans
    /// per-node scoring across the rayon pool via
    /// [`SelectionStrategy::retain_stateless`], with results bit-identical
    /// to the sequential loop.
    fn is_stateless(&self) -> bool {
        false
    }

    /// Parallel-safe scoring, used by the engine when
    /// [`SelectionStrategy::is_stateless`] returns `true`; strategies
    /// advertising statelessness must override it to match
    /// [`SelectionStrategy::retain`] exactly.
    ///
    /// # Panics
    ///
    /// The default implementation panics: a stateful strategy has no
    /// stateless retain path.
    fn retain_stateless(
        &self,
        _v: NodeId,
        _outgoing: &[NodeId],
        _observations: NodeObservations<'_>,
    ) -> Vec<NodeId> {
        panic!("{} has no stateless retain path", self.name());
    }

    /// Splits a *stateful* strategy into shared scoring parameters and
    /// per-node state (`Some` for UCB, `None` for stateless strategies).
    /// The engine scores through this split or through
    /// [`SelectionStrategy::retain_stateless`], so a strategy it runs
    /// must offer one of the two. The split lets it run `retain` for
    /// all nodes concurrently: every
    /// node's call gets a disjoint `&mut` slice of its own history, so
    /// the fan-out is bit-identical to the sequential loop by
    /// construction.
    fn split_stateful(&mut self) -> Option<StatefulSplit<'_>> {
        None
    }

    /// Notifies the strategy that `v`'s connection to `u` is gone (history,
    /// if any, must be forgotten — the paper keeps per-neighbor history only
    /// while connected).
    fn on_disconnect(&mut self, _v: NodeId, _u: NodeId) {}

    /// Serializes the strategy's cross-round state for a checkpoint
    /// (see [`crate::snapshot`]). Stateless strategies (Vanilla/Subset)
    /// keep the default — an empty buffer, since everything they need is
    /// re-derived from the round's observations.
    fn snapshot_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores cross-round state captured by
    /// [`SelectionStrategy::snapshot_state`] on a freshly built strategy
    /// of the same method and world size. The default accepts only an
    /// empty buffer: bytes arriving at a stateless strategy mean the
    /// snapshot was written by a different method.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), serde::bin::DecodeError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(serde::bin::DecodeError::new(
                "stateless strategy given non-empty score state",
            ))
        }
    }

    /// Release-mode legality check of the cross-round state, reporting
    /// violations into `out` (see [`crate::audit`]). Stateless
    /// strategies have nothing to check (the default no-op).
    fn audit(&self, _out: &mut Vec<crate::audit::AuditViolation>) {}

    /// Notifies the strategy that the node set moved: per-node state must
    /// now cover `n` slots (new slots start blank), the state of every
    /// departed/reset node in `delta` must be dropped wholesale, and
    /// surviving buffers age by `staleness` (see
    /// [`NodeHistory::decay`]). Stateless strategies (Vanilla/Subset hold
    /// no cross-round state) keep the default no-op — churn cannot
    /// poison what is re-learned from scratch every round.
    fn on_world_delta(&mut self, _delta: &WorldDelta, _n: usize, _staleness: f64) {}

    /// Applies a free-list compaction plan (see
    /// [`perigee_netsim::Population::compact`]): per-node state must be
    /// permuted to the survivors' new ids and any stored neighbor ids
    /// renumbered. Stateless strategies keep the default no-op — they
    /// hold nothing keyed by id.
    fn compact(&mut self, _plan: &perigee_netsim::IdRemap) {}

    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// The scoring method selector used by engines, experiments and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoringMethod {
    /// Per-neighbor 90th-percentile scoring (§4.2.1).
    Vanilla,
    /// Confidence-bound scoring over connection history (§4.2.2).
    Ucb,
    /// Greedy complementary subset scoring (§4.3).
    Subset,
}

impl ScoringMethod {
    /// All three methods, in paper order.
    pub const ALL: [ScoringMethod; 3] = [
        ScoringMethod::Vanilla,
        ScoringMethod::Ucb,
        ScoringMethod::Subset,
    ];

    /// Instantiates the strategy for a network of `n` nodes, retaining
    /// `retain_count` neighbors (Vanilla/Subset) and scoring at
    /// `percentile`; `ucb_c` is the confidence-width constant of eqs. (3–4).
    pub fn strategy(
        self,
        n: usize,
        retain_count: usize,
        percentile: f64,
        ucb_c: f64,
    ) -> Box<dyn SelectionStrategy> {
        match self {
            ScoringMethod::Vanilla => Box::new(VanillaScoring::new(retain_count, percentile)),
            ScoringMethod::Ucb => Box::new(UcbScoring::new(n, percentile, ucb_c)),
            ScoringMethod::Subset => Box::new(SubsetScoring::new(retain_count, percentile)),
        }
    }

    /// The paper's round length for this method (§5.1): 100 blocks for
    /// Vanilla/Subset, a single block for UCB.
    pub fn paper_blocks_per_round(self) -> usize {
        match self {
            ScoringMethod::Ucb => 1,
            _ => 100,
        }
    }
}

impl std::fmt::Display for ScoringMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ScoringMethod::Vanilla => "perigee-vanilla",
            ScoringMethod::Ucb => "perigee-ucb",
            ScoringMethod::Subset => "perigee-subset",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(ScoringMethod::Vanilla.to_string(), "perigee-vanilla");
        assert_eq!(ScoringMethod::Ucb.to_string(), "perigee-ucb");
        assert_eq!(ScoringMethod::Subset.to_string(), "perigee-subset");
    }

    #[test]
    fn paper_round_sizes() {
        assert_eq!(ScoringMethod::Vanilla.paper_blocks_per_round(), 100);
        assert_eq!(ScoringMethod::Subset.paper_blocks_per_round(), 100);
        assert_eq!(ScoringMethod::Ucb.paper_blocks_per_round(), 1);
    }

    #[test]
    fn factory_builds_each_strategy() {
        for m in ScoringMethod::ALL {
            let mut s = m.strategy(10, 6, 90.0, 1.0);
            assert!(!s.name().is_empty());
            // Exactly one parallel path is advertised per strategy.
            assert_ne!(s.is_stateless(), s.split_stateful().is_some());
        }
    }

    #[test]
    fn node_history_tracks_per_neighbor_buffers() {
        let mut h = NodeHistory::default();
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        h.absorb(a, [1.0, f64::INFINITY, 3.0].into_iter());
        h.absorb(b, [2.0].into_iter());
        h.absorb(a, [5.0].into_iter());
        assert_eq!(h.samples_for(a), &[1.0f32, 3.0, 5.0][..]);
        assert_eq!(h.sample_count(b), 1);
        h.forget(a);
        assert_eq!(h.sample_count(a), 0);
        assert_eq!(h.sample_count(b), 1, "forgetting a leaves b intact");
    }

    #[test]
    fn node_history_decay_keeps_the_newest_tail() {
        let mut h = NodeHistory::default();
        let a = NodeId::new(1);
        h.absorb(a, (0..10).map(f64::from));
        h.decay(1.0);
        assert_eq!(h.sample_count(a), 10, "staleness 1.0 keeps everything");
        h.decay(0.5);
        assert_eq!(h.samples_for(a), &[5.0f32, 6.0, 7.0, 8.0, 9.0][..]);
        h.decay(0.2);
        assert_eq!(
            h.samples_for(a),
            &[9.0f32][..],
            "the newest sample survives"
        );
        h.clear();
        assert_eq!(h.sample_count(a), 0);
    }
}
