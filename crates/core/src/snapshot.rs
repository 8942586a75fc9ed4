//! Deterministic checkpoint/resume: the versioned, self-describing
//! [`RunSnapshot`] of a long-running world.
//!
//! A snapshot captures *complete* cross-round run state — everything the
//! determinism contract depends on: the engine configuration and round
//! counter, the [`Population`] (free-list, stable ids, hash power), the
//! learned [`Topology`], the strategy's cross-round score state (UCB's
//! per-connection histories) as opaque bytes via
//! [`SelectionStrategy::snapshot_state`](crate::SelectionStrategy::snapshot_state),
//! the [`AddressBook`], the [`LivenessTracker`]'s counters and backoff
//! timers, the [`ChurnProcess`]'s RNG and session queue, the
//! [`FaultPlan`] (pure config — its per-block draws are keyed on the
//! checkpointed global block counter), the latency model, and the run
//! RNG's raw state. What is *not* serialized is derived state rebuilt on
//! resume: the CSR snapshot (`TopologyView`) and the miner sampler, both
//! pure functions of the state above — the patched-equals-fresh
//! invariant guarantees the rebuilt view is bit-identical to the one the
//! checkpointed run was carrying.
//!
//! # On-disk format
//!
//! Little-endian, length-prefixed (`serde::bin`), wrapped in a
//! self-describing envelope:
//!
//! ```text
//! magic "PRGS" | format_version u32 | body length u64 | body | fnv1a64(body) u64
//! ```
//!
//! [`RunSnapshot::from_bytes`] verifies magic, version and content hash
//! before touching the body, and every decoder validates its structural
//! invariants, so a truncated or bit-flipped file yields a structured
//! [`SnapshotError`] instead of garbage state. Resuming at round *k* and
//! running to *N* is bit-identical to an uninterrupted *N*-round run —
//! across thread counts, churn and active fault plans (the `resume`
//! integration suite is the enforcement).
//!
//! [`ChurnProcess`]: perigee_netsim::ChurnProcess
//! [`FaultPlan`]: perigee_netsim::FaultPlan
//! [`LivenessTracker`]: crate::LivenessTracker
//! [`AddressBook`]: crate::AddressBook

use std::fmt;

use serde::bin::{fnv1a64, Decode, DecodeError, Encode, Reader};

use perigee_netsim::{ChurnProcess, FaultPlan, Population, Topology, TrafficConfig, WorldDelta};

use crate::config::PerigeeConfig;
use crate::discovery::AddressBook;
use crate::engine::PropagationMode;
use crate::liveness::LivenessTracker;
use crate::score::ScoringMethod;

/// The envelope magic: "PRGS" (PeRiGee Snapshot).
const MAGIC: [u8; 4] = *b"PRGS";

/// Format version this build writes. It reads this version and
/// version 3. Bump on any change to the body layout.
///
/// History: **1** — the original inventory; **2** — adds the free-list
/// compaction epoch ([`RunSnapshot::compaction_epoch`]) and the latency
/// placement keys that make compaction delay-preserving (the
/// [`GeoLatencyModel`](perigee_netsim::GeoLatencyModel) codec grew two
/// fields); **3** — adds the continuous-traffic workload (an optional
/// [`TrafficConfig`] after the fault plan): traffic origination is a
/// pure hash of `(seed, round, class, node)`, so the config alone lets
/// a resumed run regenerate the identical message stream; **4** — drops
/// the priority-queue-kind byte after the scoring method (the engine has
/// one queue). A v3 body still decodes: its queue byte must be 0 (binary
/// heap) or 1 (calendar) and is discarded, which is exact because both
/// kinds pop in the same order and so gave bit-identical runs. Both
/// versions keep a bool after the scoring method (v3: after the queue
/// byte) that once held the engine's parallel fan-out switch: rounds
/// are bit-identical across thread counts, so the engine lost the
/// switch, writers put `true` there and readers check it is a bool and
/// discard it. Versions
/// 1 and 2 are rejected with [`SnapshotError::UnsupportedVersion`] —
/// re-run the capture, don't guess at a world whose id space may have
/// been renumbered.
pub const FORMAT_VERSION: u32 = 4;

/// The last format version that still carried the queue-kind byte.
const V3: u32 = 3;

/// Why a snapshot could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The body's content hash does not match — bit rot or truncation.
    HashMismatch,
    /// The envelope was sound but a field failed structural validation.
    Corrupt(DecodeError),
    /// The snapshot disagrees with itself (e.g. a liveness tracker for a
    /// config that disables the layer).
    Inconsistent(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a perigee snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::HashMismatch => write!(f, "snapshot content hash mismatch"),
            SnapshotError::Corrupt(e) => write!(f, "corrupt snapshot: {e}"),
            SnapshotError::Inconsistent(why) => write!(f, "inconsistent snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Corrupt(e)
    }
}

/// Complete cross-round state of a [`PerigeeEngine`](crate::PerigeeEngine)
/// run, as captured by [`PerigeeEngine::checkpoint`](crate::PerigeeEngine::checkpoint)
/// and consumed by [`PerigeeEngine::resume`](crate::PerigeeEngine::resume).
///
/// The latency model travels as an opaque inner encoding
/// (`latency_bytes`) so the snapshot type itself stays non-generic; the
/// engine's `resume` decodes it back to the concrete model type.
#[derive(Debug, Clone)]
pub struct RunSnapshot {
    pub(crate) round: u64,
    pub(crate) blocks_simulated: u64,
    pub(crate) compaction_epoch: u64,
    pub(crate) config: PerigeeConfig,
    pub(crate) method: ScoringMethod,
    pub(crate) mode: PropagationMode,
    pub(crate) adopters: Vec<bool>,
    pub(crate) strategy_state: Vec<u8>,
    pub(crate) population: Population,
    pub(crate) topology: Topology,
    pub(crate) address_book: Option<AddressBook>,
    pub(crate) liveness: Option<LivenessTracker>,
    pub(crate) churn: Option<ChurnProcess>,
    pub(crate) fault_plan: Option<FaultPlan>,
    pub(crate) traffic: Option<TrafficConfig>,
    pub(crate) last_delta: WorldDelta,
    pub(crate) latency_bytes: Vec<u8>,
    pub(crate) rng_state: [u64; 4],
}

impl RunSnapshot {
    /// The round counter at capture time — resuming continues from here.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The run-global block counter at capture time.
    pub fn blocks_simulated(&self) -> u64 {
        self.blocks_simulated
    }

    /// How many free-list compactions the captured run had performed
    /// (see [`PerigeeEngine::compact`](crate::PerigeeEngine::compact)).
    /// Ids name different nodes across epochs, so this is part of the
    /// world's identity.
    pub fn compaction_epoch(&self) -> u64 {
        self.compaction_epoch
    }

    /// The captured engine configuration.
    pub fn config(&self) -> &PerigeeConfig {
        &self.config
    }

    /// The captured scoring method.
    pub fn method(&self) -> ScoringMethod {
        self.method
    }

    /// Number of node slots (alive + retired) in the captured world.
    pub fn node_count(&self) -> usize {
        self.population.len()
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.blocks_simulated.encode(out);
        self.compaction_epoch.encode(out);
        self.config.encode(out);
        self.method.encode(out);
        // The retired parallel-fan-out flag's slot (see FORMAT_VERSION).
        true.encode(out);
        self.mode.encode(out);
        self.adopters.encode(out);
        self.strategy_state.encode(out);
        self.population.encode(out);
        self.topology.encode(out);
        self.address_book.encode(out);
        self.liveness.encode(out);
        self.churn.encode(out);
        self.fault_plan.encode(out);
        self.traffic.encode(out);
        self.last_delta.encode(out);
        self.latency_bytes.encode(out);
        self.rng_state.encode(out);
    }

    fn decode_body(r: &mut Reader<'_>, version: u32) -> Result<Self, SnapshotError> {
        let round = u64::decode(r)?;
        let blocks_simulated = u64::decode(r)?;
        let compaction_epoch = u64::decode(r)?;
        let config = Decode::decode(r)?;
        let method = Decode::decode(r)?;
        if version == V3 && u8::decode(r)? > 1 {
            return Err(DecodeError::new("invalid queue-kind tag").into());
        }
        bool::decode(r)?;
        let snapshot = RunSnapshot {
            round,
            blocks_simulated,
            compaction_epoch,
            config,
            method,
            mode: Decode::decode(r)?,
            adopters: Vec::decode(r)?,
            strategy_state: Vec::decode(r)?,
            population: Decode::decode(r)?,
            topology: Decode::decode(r)?,
            address_book: Option::decode(r)?,
            liveness: Option::decode(r)?,
            churn: Option::decode(r)?,
            fault_plan: Option::decode(r)?,
            traffic: Option::decode(r)?,
            last_delta: Decode::decode(r)?,
            latency_bytes: Vec::decode(r)?,
            rng_state: <[u64; 4]>::decode(r)?,
        };
        snapshot.check_consistency()?;
        Ok(snapshot)
    }

    /// Cross-field invariants a structurally valid body must still obey.
    fn check_consistency(&self) -> Result<(), SnapshotError> {
        let n = self.population.len();
        if self.topology.len() != n {
            return Err(SnapshotError::Inconsistent(
                "topology and population sizes differ",
            ));
        }
        if self.adopters.len() != n {
            return Err(SnapshotError::Inconsistent(
                "adopter flags do not cover the population",
            ));
        }
        if self.config.liveness.enabled != self.liveness.is_some() {
            return Err(SnapshotError::Inconsistent(
                "liveness state disagrees with the config switch",
            ));
        }
        if let Some(tracker) = &self.liveness {
            if tracker.len() != n {
                return Err(SnapshotError::Inconsistent(
                    "liveness tracker does not cover the population",
                ));
            }
        }
        if let Some(book) = &self.address_book {
            if book.len() != n {
                return Err(SnapshotError::Inconsistent(
                    "address book does not cover the population",
                ));
            }
        }
        if self.rng_state == [0; 4] {
            return Err(SnapshotError::Inconsistent("all-zero run RNG state"));
        }
        if let Some(traffic) = &self.traffic {
            if traffic.validate().is_err() {
                return Err(SnapshotError::Inconsistent(
                    "traffic workload fails validation",
                ));
            }
        }
        Ok(())
    }

    /// Serializes the snapshot into the self-describing on-disk envelope
    /// (magic, format version, length-prefixed body, content hash).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.encode_body(&mut body);
        let mut out = Vec::with_capacity(body.len() + 24);
        out.extend_from_slice(&MAGIC);
        FORMAT_VERSION.encode(&mut out);
        (body.len() as u64).encode(&mut out);
        let hash = fnv1a64(&body);
        out.extend_from_slice(&body);
        hash.encode(&mut out);
        out
    }

    /// Reads a snapshot back, verifying magic, version and content hash
    /// before decoding — and every structural invariant while decoding.
    ///
    /// # Errors
    ///
    /// A structured [`SnapshotError`] naming what is wrong with the file.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4).map_err(|_| SnapshotError::BadMagic)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::decode(&mut r)?;
        if version != FORMAT_VERSION && version != V3 {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let body_len = u64::decode(&mut r)? as usize;
        if body_len.saturating_add(8) != r.remaining() {
            return Err(SnapshotError::HashMismatch);
        }
        let body = r.take(body_len).map_err(SnapshotError::Corrupt)?;
        let stored = u64::decode(&mut r)?;
        if stored != fnv1a64(body) {
            return Err(SnapshotError::HashMismatch);
        }
        let mut br = Reader::new(body);
        let snapshot = Self::decode_body(&mut br, version)?;
        if br.remaining() != 0 {
            return Err(SnapshotError::Corrupt(DecodeError::new(
                "trailing bytes in snapshot body",
            )));
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Engine-level round-trip and kill-and-resume determinism live in
    // `crates/core/tests/resume.rs`; here we cover the envelope itself.

    fn tiny_snapshot() -> RunSnapshot {
        use perigee_netsim::{ConnectionLimits, NodeId, NodeProfile};
        let profiles = vec![
            NodeProfile {
                hash_power: 1.0,
                ..NodeProfile::default()
            };
            2
        ];
        let population = Population::from_profiles(profiles).unwrap();
        let mut topology = Topology::new(2, ConnectionLimits::unlimited());
        topology.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        RunSnapshot {
            round: 17,
            blocks_simulated: 1700,
            compaction_epoch: 0,
            config: PerigeeConfig::default(),
            method: ScoringMethod::Subset,
            mode: PropagationMode::Analytic,
            adopters: vec![true, true],
            strategy_state: Vec::new(),
            population,
            topology,
            address_book: None,
            liveness: None,
            churn: None,
            fault_plan: None,
            traffic: None,
            last_delta: WorldDelta::default(),
            latency_bytes: vec![1, 2, 3],
            rng_state: [1, 2, 3, 4],
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let s = tiny_snapshot();
        let bytes = s.to_bytes();
        assert_eq!(&bytes[..4], b"PRGS");
        let back = RunSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes, "decode∘encode is the identity");
        assert_eq!(back.round(), 17);
        assert_eq!(back.blocks_simulated(), 1700);
        assert_eq!(back.node_count(), 2);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            RunSnapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            RunSnapshot::from_bytes(&[]).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            RunSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn bit_flip_fails_the_content_hash() {
        let mut bytes = tiny_snapshot().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            RunSnapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::HashMismatch
        );
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = tiny_snapshot().to_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10] {
            assert!(
                RunSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn inconsistent_body_is_rejected_with_structure() {
        let mut s = tiny_snapshot();
        s.adopters = vec![true]; // one flag, two nodes
        let bytes = s.to_bytes();
        assert_eq!(
            RunSnapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::Inconsistent("adopter flags do not cover the population")
        );
    }
}
