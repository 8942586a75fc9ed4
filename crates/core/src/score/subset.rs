//! SubsetScoring (§4.3): greedy complementary group selection.
//!
//! A node ultimately cares about how fast its neighbor *set* delivers
//! blocks, not about any individual neighbor: neighbors covering different
//! parts of the network complement each other. Exhaustive subset scoring is
//! exponential, so the paper greedily grows the retained set: each step
//! picks the neighbor minimizing the percentile of the *transformed*
//! multiset
//!
//! ```text
//! T̿u,v(u1..uk) = ( min(t̃ᵇu,v , min_{i≤k} t̃ᵇuᵢ,v) : b ∈ B )
//! ```
//!
//! i.e. a candidate is only charged for blocks the already-chosen neighbors
//! did not themselves deliver quickly.

use rand::RngCore;

use perigee_metrics::{percentile_by_key_mut, percentile_or_inf_mut};
use perigee_netsim::NodeId;

use crate::observation::NodeObservations;
use crate::score::SelectionStrategy;

/// Greedy complementary subset selection at a percentile target.
///
/// Like Vanilla, Subset keeps no cross-round state — group scores are
/// recomputed from the current round's observation matrix every time — so
/// a dynamic world ([`perigee_netsim::dynamics`]) needs no state surgery
/// here: the default no-op [`SelectionStrategy::on_world_delta`] applies,
/// and joiners/departures are picked up automatically through the
/// per-round store resize.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetScoring {
    retain_count: usize,
    percentile: f64,
}

impl SubsetScoring {
    /// Creates the strategy: grow a group of `retain_count` neighbors,
    /// scoring at `percentile` (the paper uses 90).
    pub fn new(retain_count: usize, percentile: f64) -> Self {
        assert!(
            (0.0..=100.0).contains(&percentile),
            "percentile must be in [0, 100]"
        );
        SubsetScoring {
            retain_count,
            percentile,
        }
    }

    /// The group score of an explicit neighbor set: percentile of the
    /// per-block minimum over the set. Exposed for tests and for the
    /// ablation comparing greedy vs exhaustive selection.
    ///
    /// **Dense-only** (panics on the sketch backend): the per-block joint
    /// minimum is exactly the statistic a marginal per-edge sketch cannot
    /// reconstruct — see the sketch fallback of `SubsetScoring::select`.
    pub fn group_score(&self, observations: &NodeObservations<'_>, group: &[NodeId]) -> f64 {
        if group.is_empty() {
            return f64::INFINITY;
        }
        let mut per_block: Vec<f64> = (0..observations.block_count())
            .map(|b| {
                group
                    .iter()
                    .map(|&u| observations.time_of(b, u))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        percentile_or_inf_mut(&mut per_block, self.percentile)
    }

    /// The greedy selection itself: pure in its inputs, shared by the
    /// sequential and parallel retain paths.
    ///
    /// On the sketch backend the greedy complementary objective is
    /// unavailable — it needs the per-block joint minimum across the
    /// group, and the sketch keeps only marginal per-edge percentile
    /// state — so selection **degrades to marginal ranking**: keep the
    /// `retain_count` neighbors with the best individual sketch
    /// percentiles (Vanilla's ordering, same deterministic id
    /// tie-break). This is the documented approximation of sketch mode;
    /// runs that need the joint objective keep the dense backend.
    fn select(&self, outgoing: &[NodeId], observations: NodeObservations<'_>) -> Vec<NodeId> {
        if observations.is_sketch() {
            let mut buf = Vec::new();
            let mut scored: Vec<(f64, NodeId)> = Vec::with_capacity(outgoing.len());
            for &u in outgoing {
                let score = match observations.index_of(u) {
                    Some(i) => observations.column_percentile_or_inf(i, self.percentile, &mut buf),
                    None => f64::INFINITY,
                };
                scored.push((score, u));
            }
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            return scored
                .into_iter()
                .take(self.retain_count)
                .map(|(_, u)| u)
                .collect();
        }
        let blocks = observations.block_count();
        // Gather the outgoing columns once, walking the matrix block by
        // block (one contiguous row slice per block), into a column-major
        // buffer (cols[k·B..]) that the greedy loop reads sequentially.
        // The buffer holds order keys of the f32 store values: keys keep
        // `total_cmp` order, so `min` and selection on keys pick exactly
        // the elements the f64 kernel would, and only the two closest
        // ranks are mapped back for interpolation. A listed neighbor
        // absent from the observation row (never a communication peer
        // this round) reads as all-∞.
        let positions: Vec<Option<usize>> =
            outgoing.iter().map(|&u| observations.index_of(u)).collect();
        let mut cols = vec![order_key(f32::INFINITY); outgoing.len() * blocks];
        for b in 0..blocks {
            let row = observations.row(b);
            for (k, pos) in positions.iter().enumerate() {
                if let Some(i) = *pos {
                    let t = row[i];
                    assert!(!t.is_nan(), "percentile input must not contain NaN");
                    cols[k * blocks + b] = order_key(t);
                }
            }
        }
        // Each candidate's individual score breaks ties: when two
        // candidates add nothing new to the group (equal marginal scores —
        // common once the group already covers every block well), the
        // individually-faster one wins. This also guarantees that a
        // neighbor which never delivers (all-∞ column, e.g. a free-rider)
        // is picked last.
        let column = |k: usize| &cols[k * blocks..(k + 1) * blocks];
        let mut scratch = vec![0u32; blocks];
        let solo: Vec<f64> = (0..outgoing.len())
            .map(|k| {
                scratch.copy_from_slice(column(k));
                self.key_percentile(&mut scratch)
            })
            .collect();

        let mut current_best = vec![order_key(f32::INFINITY); blocks];
        let mut remaining: Vec<usize> = (0..outgoing.len()).collect();
        let mut chosen: Vec<NodeId> = Vec::new();

        while chosen.len() < self.retain_count && !remaining.is_empty() {
            let mut best: Option<(f64, usize)> = None;
            for &idx in &remaining {
                for ((s, &c), &g) in scratch.iter_mut().zip(column(idx)).zip(&current_best) {
                    *s = g.min(c);
                }
                let score = self.key_percentile(&mut scratch);
                let better = match best {
                    None => true,
                    Some((s, i)) => {
                        let key = (score, solo[idx], outgoing[idx]);
                        let incumbent = (s, solo[i], outgoing[i]);
                        key < incumbent
                    }
                };
                if better {
                    best = Some((score, idx));
                }
            }
            let (_, pick) = best.expect("remaining non-empty");
            chosen.push(outgoing[pick]);
            for (g, &c) in current_best.iter_mut().zip(column(pick)) {
                *g = (*g).min(c);
            }
            remaining.retain(|&i| i != pick);
        }
        chosen
    }

    /// The scoring percentile of a multiset of [`order_key`]s (`∞` when
    /// empty); reorders `keys` by selection.
    fn key_percentile(&self, keys: &mut [u32]) -> f64 {
        percentile_by_key_mut(keys, self.percentile, |k| from_order_key(k) as f64)
            .unwrap_or(f64::INFINITY)
    }
}

/// `f32::total_cmp`'s order as a `u32` key: a non-negative value sets the
/// sign bit, a negative one flips every bit, so unsigned key order is
/// `-∞ < … < -0.0 < +0.0 < … < +∞`. Equal keys are bit-equal values.
fn order_key(t: f32) -> u32 {
    let bits = t.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// The inverse of [`order_key`].
fn from_order_key(key: u32) -> f32 {
    f32::from_bits(if key >> 31 == 1 {
        key & !(1 << 31)
    } else {
        !key
    })
}

impl SelectionStrategy for SubsetScoring {
    fn retain(
        &mut self,
        _v: NodeId,
        outgoing: &[NodeId],
        observations: NodeObservations<'_>,
        _rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        self.select(outgoing, observations)
    }

    fn is_stateless(&self) -> bool {
        true
    }

    fn retain_stateless(
        &self,
        _v: NodeId,
        outgoing: &[NodeId],
        observations: NodeObservations<'_>,
    ) -> Vec<NodeId> {
        self.select(outgoing, observations)
    }

    fn name(&self) -> &'static str {
        "perigee-subset"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{ObservationCollector, ObservationStore};
    use perigee_netsim::{
        broadcast, ConnectionLimits, MetricLatencyModel, NodeProfile, Population, SimTime, Topology,
    };
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Two-cluster world. Node 0 (the chooser) has three outgoing
    /// neighbors: gateways 1 and 2 both sit near mining cluster A (source
    /// node 4), gateway 3 sits near mining cluster B (source node 5).
    /// 90% of blocks come from A, so both A-gateways score well
    /// individually — but they are redundant: only the B-gateway covers
    /// the remaining blocks.
    fn cluster_world() -> (Population, MetricLatencyModel, Topology) {
        let coords: Vec<Vec<f64>> = vec![
            vec![0.5, 0.0],   // 0: chooser
            vec![0.2, 0.1],   // 1: gateway A1
            vec![0.25, 0.12], // 2: gateway A2
            vec![0.8, 0.1],   // 3: gateway B
            vec![0.1, 0.3],   // 4: source in cluster A
            vec![0.9, 0.3],   // 5: source in cluster B
        ];
        let profiles: Vec<NodeProfile> = coords
            .into_iter()
            .map(|c| NodeProfile {
                coords: c,
                hash_power: 1.0,
                validation_delay: SimTime::from_ms(0.0),
                ..NodeProfile::default()
            })
            .collect();
        let pop = Population::from_profiles(profiles).unwrap();
        let lat = MetricLatencyModel::new(&pop, 1000.0);
        let mut topo = Topology::new(6, ConnectionLimits::unlimited());
        // Chooser's outgoing neighbors: the three gateways.
        topo.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(0), NodeId::new(2)).unwrap();
        topo.connect(NodeId::new(0), NodeId::new(3)).unwrap();
        // Sources attach to their local gateways.
        topo.connect(NodeId::new(4), NodeId::new(1)).unwrap();
        topo.connect(NodeId::new(4), NodeId::new(2)).unwrap();
        topo.connect(NodeId::new(5), NodeId::new(3)).unwrap();
        (pop, lat, topo)
    }

    /// 18 blocks from cluster A, 2 from cluster B (the 90/10 mix).
    fn mixed_sources() -> Vec<u32> {
        let mut sources = vec![4u32; 18];
        sources.extend([5u32; 2]);
        sources
    }

    fn observe_rounds(sources: &[u32]) -> ObservationStore {
        let (pop, lat, topo) = cluster_world();
        let mut c = ObservationCollector::new(&topo);
        for &s in sources {
            c.record(&broadcast(&topo, &lat, &pop, NodeId::new(s)), &lat);
        }
        c.finish()
    }

    #[test]
    fn picks_a_complementary_pair_not_redundant_gateways() {
        let store = observe_rounds(&mixed_sources());
        let mut s = SubsetScoring::new(2, 90.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let mut rng = StdRng::seed_from_u64(0);
        let kept = s.retain(
            NodeId::new(0),
            &outgoing,
            store.node(NodeId::new(0)),
            &mut rng,
        );
        assert_eq!(kept.len(), 2);
        assert!(
            kept.contains(&NodeId::new(3)),
            "the only cluster-B gateway must be kept: {kept:?}"
        );
        // Plus exactly one of the redundant A-gateways.
        assert!(kept.contains(&NodeId::new(1)) ^ kept.contains(&NodeId::new(2)));
    }

    #[test]
    fn vanilla_keeps_the_redundant_gateways() {
        // Contrast with independent scoring: both A-gateways beat the
        // B-gateway individually (90% of blocks come from A), so vanilla
        // redundantly keeps {A1, A2} — the §4.3 motivation for joint
        // scoring.
        let store = observe_rounds(&mixed_sources());
        let obs = store.node(NodeId::new(0));
        let mut v = crate::score::VanillaScoring::new(2, 90.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let mut rng = StdRng::seed_from_u64(0);
        let kept = v.retain(NodeId::new(0), &outgoing, obs, &mut rng);
        assert!(kept.contains(&NodeId::new(1)) && kept.contains(&NodeId::new(2)));
        // And the subset group-score of vanilla's choice is strictly worse.
        let s = SubsetScoring::new(2, 90.0);
        let vanilla_score = s.group_score(&obs, &kept);
        let complementary = s.group_score(&obs, &[NodeId::new(2), NodeId::new(3)]);
        assert!(
            complementary < vanilla_score,
            "complementary {complementary} vs redundant {vanilla_score}"
        );
    }

    #[test]
    fn group_score_of_pair_is_min_per_block() {
        let store = observe_rounds(&mixed_sources());
        let obs = store.node(NodeId::new(0));
        let s = SubsetScoring::new(2, 90.0);
        let pair = s.group_score(&obs, &[NodeId::new(1), NodeId::new(3)]);
        let solo1 = s.group_score(&obs, &[NodeId::new(1)]);
        let solo3 = s.group_score(&obs, &[NodeId::new(3)]);
        assert!(pair <= solo1.min(solo3), "a pair can only help");
        assert_eq!(s.group_score(&obs, &[]), f64::INFINITY);
    }

    #[test]
    fn greedy_matches_exhaustive_on_this_instance() {
        let store = observe_rounds(&mixed_sources());
        let obs = store.node(NodeId::new(0));
        let mut s = SubsetScoring::new(2, 90.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let mut rng = StdRng::seed_from_u64(0);
        let kept = s.retain(NodeId::new(0), &outgoing, obs, &mut rng);
        // Exhaustive best pair:
        let mut best: Option<(f64, Vec<NodeId>)> = None;
        for i in 0..outgoing.len() {
            for j in (i + 1)..outgoing.len() {
                let g = vec![outgoing[i], outgoing[j]];
                let score = s.group_score(&obs, &g);
                if best.as_ref().is_none_or(|(b, _)| score < *b) {
                    best = Some((score, g));
                }
            }
        }
        let (best_score, best_group) = best.unwrap();
        let kept_score = s.group_score(&obs, &kept);
        assert!(
            kept_score <= best_score + 1e-9,
            "greedy {kept:?} ({kept_score}) vs exhaustive {best_group:?} ({best_score})"
        );
    }

    #[test]
    fn retains_everything_when_budget_exceeds_neighbors() {
        let store = observe_rounds(&[4]);
        let mut s = SubsetScoring::new(6, 90.0);
        let outgoing = vec![NodeId::new(1), NodeId::new(2)];
        let mut rng = StdRng::seed_from_u64(0);
        let kept = s.retain(
            NodeId::new(0),
            &outgoing,
            store.node(NodeId::new(0)),
            &mut rng,
        );
        assert_eq!(kept.len(), 2);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn bad_percentile_panics() {
        let _ = SubsetScoring::new(6, -1.0);
    }

    /// The sort-based percentile of the pre-selection greedy: sort by
    /// `total_cmp`, interpolate between the floor and ceil ranks.
    fn sorted_percentile_or_inf(values: &mut [f64], p: f64) -> f64 {
        if values.is_empty() {
            return f64::INFINITY;
        }
        assert!(values.iter().all(|v| !v.is_nan()));
        values.sort_by(|a, b| a.total_cmp(b));
        let rank = p / 100.0 * (values.len() - 1) as f64;
        let (lo_idx, hi_idx) = (rank.floor() as usize, rank.ceil() as usize);
        let frac = rank - lo_idx as f64;
        let (lo, hi) = (values[lo_idx], values[hi_idx]);
        if frac == 0.0 || lo == hi {
            lo
        } else if lo.is_infinite() || hi.is_infinite() {
            f64::INFINITY
        } else {
            lo + frac * (hi - lo)
        }
    }

    /// The reference the dense greedy must reproduce: strided f64
    /// column copies, `f64::min` group minima and a full sort for every
    /// percentile.
    fn sorting_greedy(
        s: &SubsetScoring,
        outgoing: &[NodeId],
        observations: NodeObservations<'_>,
    ) -> Vec<NodeId> {
        let blocks = observations.block_count();
        let mut cols: Vec<f64> = Vec::with_capacity(outgoing.len() * blocks);
        let mut solo: Vec<f64> = Vec::with_capacity(outgoing.len());
        let mut scratch = vec![0.0f64; blocks];
        for &u in outgoing {
            let base = cols.len();
            match observations.index_of(u) {
                Some(i) => cols.extend(observations.column(i)),
                None => cols.extend(std::iter::repeat_n(f64::INFINITY, blocks)),
            }
            scratch.copy_from_slice(&cols[base..]);
            solo.push(sorted_percentile_or_inf(&mut scratch, s.percentile));
        }
        let mut current_best = vec![f64::INFINITY; blocks];
        let mut remaining: Vec<usize> = (0..outgoing.len()).collect();
        let mut chosen: Vec<NodeId> = Vec::new();
        while chosen.len() < s.retain_count && !remaining.is_empty() {
            let mut best: Option<(f64, usize)> = None;
            for &idx in &remaining {
                let col = &cols[idx * blocks..(idx + 1) * blocks];
                for b in 0..blocks {
                    scratch[b] = current_best[b].min(col[b]);
                }
                let score = sorted_percentile_or_inf(&mut scratch, s.percentile);
                let better = match best {
                    None => true,
                    Some((sc, i)) => (score, solo[idx], outgoing[idx]) < (sc, solo[i], outgoing[i]),
                };
                if better {
                    best = Some((score, idx));
                }
            }
            let (_, pick) = best.expect("remaining non-empty");
            chosen.push(outgoing[pick]);
            let col = &cols[pick * blocks..(pick + 1) * blocks];
            for b in 0..blocks {
                current_best[b] = current_best[b].min(col[b]);
            }
            remaining.retain(|&i| i != pick);
        }
        chosen
    }

    /// One tie-prone observation: both zeros, a coarse grid of exactly
    /// repeated times, a continuous range, and `∞` with probability
    /// `inf_p`.
    fn tie_prone_time(rng: &mut StdRng, inf_p: f64) -> f32 {
        if rng.gen_bool(inf_p) {
            return f32::INFINITY;
        }
        match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => -0.0,
            2 | 3 => rng.gen_range(0..12u32) as f32 * 0.5,
            _ => rng.gen_range(0.0f32..400.0),
        }
    }

    /// A random dense store of `nodes` rows plus each node's outgoing
    /// list. Every row holds `degree` outgoing and up to `degree`
    /// incoming-only neighbors; a column is all-∞, ∞-heavy, an exact
    /// copy of its left neighbor (score ties down to the id), or
    /// tie-prone finite with a few ∞. About one outgoing list in three
    /// also names a neighbor absent from the row.
    fn random_dense_store(
        rng: &mut StdRng,
        nodes: usize,
        degree: usize,
        blocks: usize,
    ) -> (ObservationStore, Vec<Vec<NodeId>>) {
        let id_space = (nodes + 4 * degree + 1) as u32;
        let mut offsets = vec![0usize];
        let mut edges: Vec<u32> = Vec::new();
        let mut columns: Vec<Vec<f32>> = Vec::new();
        let mut outgoing_lists = Vec::with_capacity(nodes);
        for v in 0..nodes as u32 {
            let incoming = rng.gen_range(0..=degree);
            let mut row: Vec<u32> = Vec::new();
            while row.len() < degree + incoming {
                let u = rng.gen_range(0..id_space);
                if u != v && !row.contains(&u) {
                    row.push(u);
                }
            }
            let mut outgoing: Vec<NodeId> = row[..degree].iter().map(|&u| NodeId::new(u)).collect();
            if rng.gen_bool(1.0 / 3.0) {
                let absent = (0..id_space)
                    .find(|&u| u != v && !row.contains(&u))
                    .expect("the id space is larger than a row");
                outgoing.push(NodeId::new(absent));
            }
            outgoing.shuffle(rng);
            outgoing_lists.push(outgoing);
            row.sort_unstable();
            for k in 0..row.len() {
                let column: Vec<f32> = match rng.gen_range(0..6u32) {
                    0 => vec![f32::INFINITY; blocks],
                    1 => (0..blocks).map(|_| tie_prone_time(rng, 0.8)).collect(),
                    2 if k > 0 => columns[columns.len() - 1].clone(),
                    _ => (0..blocks).map(|_| tie_prone_time(rng, 0.05)).collect(),
                };
                columns.push(column);
            }
            edges.extend(row);
            offsets.push(edges.len());
        }
        let mut times = Vec::with_capacity(blocks * edges.len());
        for b in 0..blocks {
            times.extend(columns.iter().map(|c| c[b]));
        }
        let store = ObservationStore::from_parts(offsets, edges, blocks, times);
        (store, outgoing_lists)
    }

    /// Asserts the dense greedy keeps exactly the oracle's list, in the
    /// same order, for every node of `store`.
    fn assert_matches_oracle(s: &SubsetScoring, store: &ObservationStore, lists: &[Vec<NodeId>]) {
        for (v, outgoing) in lists.iter().enumerate() {
            let obs = store.node(NodeId::new(v as u32));
            assert_eq!(
                s.select(outgoing, obs),
                sorting_greedy(s, outgoing, obs),
                "node {v}, {} blocks, retain {}, p{}",
                obs.block_count(),
                s.retain_count,
                s.percentile
            );
        }
    }

    #[test]
    fn dense_greedy_matches_sorting_oracle() {
        for blocks in [0, 1, 2, 100] {
            for seed in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let degree = rng.gen_range(1..=8);
                let (store, lists) = random_dense_store(&mut rng, 10, degree, blocks);
                for retain in [0, 1, degree / 2, degree, degree + 3] {
                    for p in [0.0, 50.0, 90.0, 100.0] {
                        assert_matches_oracle(&SubsetScoring::new(retain, p), &store, &lists);
                    }
                }
            }
        }
    }

    /// Nodes checked at the benchmark's dense shape (3200 rows, degree
    /// 8): a couple in the debug suite, `PERIGEE_EQUIVALENCE_CASES` in
    /// the release-mode scoring-equivalence CI step.
    #[test]
    fn dense_greedy_matches_sorting_oracle_at_workload_shape() {
        let nodes = std::env::var("PERIGEE_EQUIVALENCE_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2);
        let mut rng = StdRng::seed_from_u64(7);
        let (store, lists) = random_dense_store(&mut rng, nodes, 8, 3200);
        assert_matches_oracle(&SubsetScoring::new(6, 90.0), &store, &lists);
    }

    #[test]
    #[should_panic(expected = "percentile input must not contain NaN")]
    fn nan_in_a_gathered_column_panics() {
        let store =
            ObservationStore::from_parts(vec![0, 2], vec![1, 2], 2, vec![1.0, 2.0, 3.0, f32::NAN]);
        let s = SubsetScoring::new(1, 90.0);
        let _ = s.select(
            &[NodeId::new(1), NodeId::new(2)],
            store.node(NodeId::new(0)),
        );
    }

    #[test]
    fn order_key_is_monotone_and_round_trips() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            -f32::from_bits(0x007f_ffff),
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::EPSILON,
        ];
        for &a in &specials {
            assert_eq!(from_order_key(order_key(a)).to_bits(), a.to_bits(), "{a:?}");
            for &b in &specials {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }
}
