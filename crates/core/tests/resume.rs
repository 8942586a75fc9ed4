//! Kill-and-resume determinism: checkpoint at round *k*, serialize to
//! the on-disk envelope, decode, resume, and run to round *N* — the
//! result must be **bit-identical** to the uninterrupted *N*-round run.
//! The suite exercises the hardest configuration the engine supports:
//! UCB scoring (per-arm history buffers), aggressive liveness (silence
//! counters + backoff timers), Poisson churn (its own RNG stream), an
//! *active* fault plan (burst loss, flaps, a timed partition) and an
//! address book — across pinned 1/2/8-thread rayon pools. The invariant
//! auditor runs every round on both legs and must stay green throughout.
//! Checked-in envelopes pin the format policy: v3 and v4 decode, v1 is
//! rejected.

use std::sync::OnceLock;

use perigee_core::snapshot::FORMAT_VERSION;
use perigee_core::{
    PerigeeConfig, PerigeeEngine, RoundStats, RunSnapshot, ScoringMethod, SnapshotError,
};
use perigee_netsim::{
    ChurnProcess, ConnectionLimits, FaultPlan, FaultWindow, GeoLatencyModel, LinkFaultRates,
    LinkFlaps, PartitionWindow, PopulationBuilder, TrafficConfig,
};
use perigee_topology::{RandomBuilder, TopologyBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::bin::fnv1a64;

/// An active plan: background loss, a mid-run burst window, flapping
/// links and a timed partition — every fault family at once.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        base: LinkFaultRates {
            drop_prob: 0.03,
            extra_delay: perigee_netsim::SimTime::from_ms(2.0),
            jitter: perigee_netsim::SimTime::from_ms(10.0),
            duplicate_prob: 0.05,
        },
        windows: vec![FaultWindow {
            start: 6,
            end: 12,
            rates: LinkFaultRates {
                drop_prob: 0.5,
                extra_delay: perigee_netsim::SimTime::from_ms(15.0),
                jitter: perigee_netsim::SimTime::from_ms(30.0),
                duplicate_prob: 0.0,
            },
        }],
        flaps: Some(LinkFlaps {
            fraction: 0.1,
            period: 5,
            down: 2,
        }),
        partitions: vec![PartitionWindow {
            start: 14,
            heal: 20,
            fraction: 0.25,
        }],
        regional: Vec::new(),
    }
}

/// The hardest engine we can build: UCB scores, aggressive liveness,
/// Poisson churn, the chaos plan, an address book, auditing every round.
fn chaos_engine(seed: u64) -> (PerigeeEngine<GeoLatencyModel>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = PopulationBuilder::new(70).build(&mut rng).unwrap();
    let lat = GeoLatencyModel::new(&pop, seed);
    let topo = RandomBuilder::new().build(&pop, &lat, ConnectionLimits::paper_default(), &mut rng);
    let mut cfg = PerigeeConfig::paper_default(ScoringMethod::Ucb);
    cfg.blocks_per_round = 6;
    cfg.liveness = perigee_core::LivenessConfig::aggressive();
    let mut engine = PerigeeEngine::new(pop, lat, topo, ScoringMethod::Ucb, cfg).unwrap();
    engine.set_churn(ChurnProcess::steady_state(70, 0.04, seed ^ 0x5EED));
    engine.set_fault_plan(chaos_plan(seed ^ 0xFA17)).unwrap();
    let book = perigee_core::AddressBook::bootstrap(engine.population().len(), 4, 24, &mut rng);
    engine.set_address_book(book);
    engine.set_audit_every(1);
    (engine, rng)
}

/// One uninterrupted run: `total` rounds, optionally inside a pinned
/// rayon pool.
fn run_straight(
    seed: u64,
    total: usize,
    threads: Option<usize>,
) -> (Vec<RoundStats>, PerigeeEngine<GeoLatencyModel>) {
    let (mut engine, mut rng) = chaos_engine(seed);
    let stats = match threads {
        None => (0..total).map(|_| engine.run_round(&mut rng)).collect(),
        Some(t) => rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .unwrap()
            .install(|| (0..total).map(|_| engine.run_round(&mut rng)).collect()),
    };
    (stats, engine)
}

/// The interrupted run: `k` rounds, checkpoint through the full on-disk
/// envelope (encode → bytes → decode), drop the original engine, resume,
/// and run the remaining `total - k` rounds in a pinned pool.
fn run_killed(
    seed: u64,
    total: usize,
    k: usize,
    threads: Option<usize>,
) -> (Vec<RoundStats>, PerigeeEngine<GeoLatencyModel>) {
    let (mut engine, mut rng) = chaos_engine(seed);
    let mut stats: Vec<RoundStats> = (0..k).map(|_| engine.run_round(&mut rng)).collect();
    assert!(engine.audit_failures().is_empty(), "pre-kill audit failed");

    let bytes = engine.checkpoint(&rng).to_bytes();
    drop(engine);

    let snapshot = RunSnapshot::from_bytes(&bytes).expect("envelope round-trip");
    assert_eq!(snapshot.round(), k as u64);
    let (mut resumed, mut rng) =
        PerigeeEngine::<GeoLatencyModel>::resume(snapshot).expect("resume");
    resumed.set_audit_every(1);
    let tail: Vec<RoundStats> = match threads {
        None => (k..total).map(|_| resumed.run_round(&mut rng)).collect(),
        Some(t) => rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .unwrap()
            .install(|| (k..total).map(|_| resumed.run_round(&mut rng)).collect()),
    };
    stats.extend(tail);
    (stats, resumed)
}

/// The headline guarantee: kill at round 9 of 18, resume from the
/// serialized envelope, and every per-round statistic, the learned
/// topology, the population (ids, hash power, free-list) and the final
/// evaluation are the same IEEE-754 values as the uninterrupted run,
/// regardless of which thread count either leg ran under.
#[test]
fn kill_and_resume_is_bit_identical_to_uninterrupted() {
    const SEED: u64 = 2020;
    const TOTAL: usize = 18;
    const K: usize = 9;

    let (ref_stats, ref_engine) = run_straight(SEED, TOTAL, None);
    assert!(
        ref_stats.iter().any(|s| s.joined > 0) && ref_stats.iter().any(|s| s.departed > 0),
        "churn must fire for this test to bite"
    );
    assert!(
        ref_engine.audit_failures().is_empty(),
        "reference run must audit clean"
    );
    assert_eq!(ref_engine.audits_run(), TOTAL);

    for threads in [Some(1), Some(2), Some(8)] {
        let (stats, engine) = run_killed(SEED, TOTAL, K, threads);
        assert_eq!(
            stats, ref_stats,
            "resumed RoundStats diverged at {threads:?} threads"
        );
        assert_eq!(
            engine.topology(),
            ref_engine.topology(),
            "topology diverged at {threads:?} threads"
        );
        assert_eq!(
            engine.population(),
            ref_engine.population(),
            "population diverged at {threads:?} threads"
        );
        assert_eq!(
            engine.evaluate(0.9),
            ref_engine.evaluate(0.9),
            "evaluation diverged at {threads:?} threads"
        );
        assert!(
            engine.audit_failures().is_empty(),
            "resumed run must audit clean at {threads:?} threads"
        );
        assert_eq!(engine.rounds_run(), TOTAL);
    }
}

/// Checkpointing is transparent: a second checkpoint taken from the
/// *resumed* engine at the same round encodes to the same bytes as one
/// taken from an engine that was never killed.
#[test]
fn checkpoint_of_resumed_engine_matches_original() {
    let (mut a, mut rng_a) = chaos_engine(99);
    for _ in 0..8 {
        a.run_round(&mut rng_a);
    }
    let straight = a.checkpoint(&rng_a).to_bytes();

    let (mut b, mut rng_b) = chaos_engine(99);
    for _ in 0..5 {
        b.run_round(&mut rng_b);
    }
    let bytes = b.checkpoint(&rng_b).to_bytes();
    let (mut resumed, mut rng) =
        PerigeeEngine::<GeoLatencyModel>::resume(RunSnapshot::from_bytes(&bytes).unwrap()).unwrap();
    for _ in 5..8 {
        resumed.run_round(&mut rng);
    }
    let via_kill = resumed.checkpoint(&rng).to_bytes();
    assert_eq!(via_kill, straight, "checkpoint-of-resume must be invisible");
}

/// Corrupted envelopes are rejected with *structured* errors, never a
/// panic or a silently-wrong world: bad magic, an unknown format
/// version, truncation, bit flips, and a hash-valid body that fails the
/// semantic consistency check each map to their own `SnapshotError`.
#[test]
fn corrupted_snapshots_are_rejected_with_structured_errors() {
    let (mut engine, mut rng) = chaos_engine(7);
    for _ in 0..4 {
        engine.run_round(&mut rng);
    }
    let bytes = engine.checkpoint(&rng).to_bytes();
    RunSnapshot::from_bytes(&bytes).expect("pristine bytes must decode");

    // Wrong magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert_eq!(
        RunSnapshot::from_bytes(&bad).unwrap_err(),
        SnapshotError::BadMagic
    );

    // Unknown format version (bytes 4..8, little-endian u32).
    let mut bad = bytes.clone();
    bad[4] = 0xFE;
    assert!(matches!(
        RunSnapshot::from_bytes(&bad).unwrap_err(),
        SnapshotError::UnsupportedVersion(_)
    ));

    // A flipped bit anywhere in the body trips the content hash.
    let mut bad = bytes.clone();
    let mid = 16 + (bad.len() - 24) / 2;
    bad[mid] ^= 0x01;
    assert_eq!(
        RunSnapshot::from_bytes(&bad).unwrap_err(),
        SnapshotError::HashMismatch
    );

    // Truncation can never pass the envelope length check.
    let bad = &bytes[..bytes.len() - 9];
    assert_eq!(
        RunSnapshot::from_bytes(bad).unwrap_err(),
        SnapshotError::HashMismatch
    );

    // An empty buffer cannot even produce the magic; a header-only
    // buffer is structurally corrupt.
    assert_eq!(
        RunSnapshot::from_bytes(&[]).unwrap_err(),
        SnapshotError::BadMagic
    );
    assert!(matches!(
        RunSnapshot::from_bytes(&bytes[..10]).unwrap_err(),
        SnapshotError::Corrupt(_)
    ));

    // Hash-valid but semantically impossible: zero out the RNG state
    // (the last 32 body bytes) and re-stamp the content hash. The
    // envelope passes; the consistency check must still refuse it.
    let mut bad = bytes.clone();
    let body_end = bad.len() - 8;
    for b in &mut bad[body_end - 32..body_end] {
        *b = 0;
    }
    let digest = serde::bin::fnv1a64(&bad[16..body_end]);
    bad[body_end..].copy_from_slice(&digest.to_le_bytes());
    assert!(matches!(
        RunSnapshot::from_bytes(&bad).unwrap_err(),
        SnapshotError::Inconsistent(_)
    ));
}

/// A checked-in format-version-1 envelope (written before the snapshot
/// carried the compaction epoch and the latency placement keys) is
/// rejected with a *structured* [`SnapshotError::UnsupportedVersion`] —
/// never a panic, never a misdecoded world. Truncated prefixes of the
/// old file must not panic either.
#[test]
fn version_1_snapshots_are_rejected_with_unsupported_version() {
    let bytes: &[u8] = include_bytes!("fixtures/snapshot_v1.bin");
    assert_eq!(&bytes[..4], b"PRGS", "fixture is a perigee envelope");
    assert_eq!(bytes[4], 1, "fixture was written as format version 1");
    assert!(matches!(
        RunSnapshot::from_bytes(bytes),
        Err(SnapshotError::UnsupportedVersion(1))
    ));
    for cut in [0, 3, 4, 7, 8, 20, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            RunSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must fail, not panic"
        );
    }
}

/// The checked-in format-version-3 envelope: a 24-node Subset world
/// (seed 314, 8 blocks per round, analytic flood) checkpointed after 3
/// rounds by an engine running on the binary-heap queue kind, so its
/// queue byte is the non-default 0.
const V3_FIXTURE: &[u8] = include_bytes!("fixtures/snapshot_v3.bin");

/// `mean_lambda90_ms` bits of the two rounds the v3 fixture's run
/// simulated after its checkpoint, recorded when the fixture was written.
const V3_NEXT_LAMBDA90_BITS: [u64; 2] = [0x4064_a58f_29ad_46de, 0x4067_836d_68a2_7656];

/// Envelope header: magic (4) + version (4) + body length (8).
const HEADER: usize = 16;

/// Re-stamps the trailing content hash after a body edit, so the edited
/// envelope passes the hash check and reaches the body decoder.
fn reseal(bytes: &mut [u8]) {
    let body_end = bytes.len() - 8;
    let digest = fnv1a64(&bytes[HEADER..body_end]);
    bytes[body_end..].copy_from_slice(&digest.to_le_bytes());
}

/// A v3 envelope still decodes — its queue byte is read and discarded —
/// and resumes to exactly the λ90 bits its own run produced, with the
/// auditor green. Re-checkpointing writes a v4 envelope whose body is
/// the v3 body minus the queue byte, and a queue byte outside {0, 1} is
/// a structured `Corrupt` error.
#[test]
fn version_3_snapshots_resume_bit_identically_and_recheckpoint_as_version_4() {
    assert_eq!(FORMAT_VERSION, 4);
    assert_eq!(&V3_FIXTURE[..4], b"PRGS", "fixture is a perigee envelope");
    assert_eq!(V3_FIXTURE[4], 3, "fixture was written as format version 3");

    let snapshot = RunSnapshot::from_bytes(V3_FIXTURE).expect("v3 decodes");
    let (mut engine, mut rng) =
        PerigeeEngine::<GeoLatencyModel>::resume(snapshot).expect("v3 resumes");
    let v4_at_capture = engine.checkpoint(&rng).to_bytes();
    engine.set_audit_every(1);
    let bits: Vec<u64> = (0..2)
        .map(|_| engine.run_round(&mut rng).mean_lambda90_ms.to_bits())
        .collect();
    assert_eq!(bits, V3_NEXT_LAMBDA90_BITS, "resumed λ90 bits diverged");
    assert_eq!(engine.audits_run(), 2);
    assert!(
        engine.audit_failures().is_empty(),
        "resumed run must audit clean"
    );

    let v4 = engine.checkpoint(&rng).to_bytes();
    assert_eq!(
        &v4[4..8],
        &FORMAT_VERSION.to_le_bytes(),
        "re-checkpoint is v4"
    );
    RunSnapshot::from_bytes(&v4).expect("v4 decodes");

    // The v4 body of the captured state is the v3 body with exactly one
    // byte — the queue kind, 0 for the binary heap — removed.
    let v3_body = &V3_FIXTURE[HEADER..V3_FIXTURE.len() - 8];
    let v4_body = &v4_at_capture[HEADER..v4_at_capture.len() - 8];
    assert_eq!(v3_body.len(), v4_body.len() + 1);
    let at = v3_body
        .iter()
        .zip(v4_body)
        .position(|(a, b)| a != b)
        .expect("the bodies differ");
    assert_eq!(v3_body[at], 0, "the fixture's queue byte is the heap's");
    assert_eq!(&v3_body[..at], &v4_body[..at]);
    assert_eq!(&v3_body[at + 1..], &v4_body[at..]);

    for (byte, ok) in [(1u8, true), (2, false), (0xFF, false)] {
        let mut edited = V3_FIXTURE.to_vec();
        edited[HEADER + at] = byte;
        reseal(&mut edited);
        let decoded = RunSnapshot::from_bytes(&edited);
        if ok {
            decoded.expect("queue byte 1 (calendar) decodes");
        } else {
            assert!(
                matches!(decoded, Err(SnapshotError::Corrupt(_))),
                "queue byte {byte} must be Corrupt"
            );
        }
    }
}

/// A fresh v4 envelope of the hardest world: UCB histories, liveness,
/// churn, an active fault plan, an address book and a traffic workload.
/// The workload is installed after the rounds, so the UCB histories hold
/// block observations only and the envelope stays ~50 KB (traffic rounds
/// grow it past 2 MB, which makes each decode too slow to fuzz in debug
/// builds). Built once per test binary.
fn fresh_v4_envelope() -> &'static [u8] {
    static ENVELOPE: OnceLock<Vec<u8>> = OnceLock::new();
    ENVELOPE.get_or_init(|| {
        let (mut engine, mut rng) = chaos_engine(11);
        for _ in 0..2 {
            engine.run_round(&mut rng);
        }
        engine.set_traffic(TrafficConfig::paper_stream(11)).unwrap();
        engine.checkpoint(&rng).to_bytes()
    })
}

/// Decodes `bytes` and, if that succeeds, resumes from it: either step
/// may refuse the input, neither may panic.
fn decode_and_resume(bytes: &[u8]) {
    if let Ok(snapshot) = RunSnapshot::from_bytes(bytes) {
        let _ = PerigeeEngine::<GeoLatencyModel>::resume(snapshot);
    }
}

/// Every truncation of both checked formats is refused without a panic.
#[test]
fn every_truncated_envelope_is_refused() {
    for bytes in [V3_FIXTURE, fresh_v4_envelope()] {
        for cut in 0..bytes.len() {
            assert!(
                RunSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes — raw, or sealed into an envelope with a valid
    /// magic, version, length and hash so they reach the body decoder —
    /// decode and resume to `Ok` or `Err`, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        body in proptest::collection::vec(any::<u8>(), 0..600),
        version in 3u32..5,
        raw in any::<bool>(),
    ) {
        if raw {
            decode_and_resume(&body);
        } else {
            let mut bytes = b"PRGS".to_vec();
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&body);
            bytes.extend_from_slice(&fnv1a64(&body).to_le_bytes());
            decode_and_resume(&bytes);
        }
    }

    /// Random byte and 8-byte word mutations of a real v3 or v4 body,
    /// resealed so they pass the hash check, decode and resume to `Ok`
    /// or `Err`, never a panic.
    #[test]
    fn resealed_body_mutations_never_panic_the_decoder(
        v4 in any::<bool>(),
        edits in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 1..4),
    ) {
        let mut bytes = if v4 { fresh_v4_envelope() } else { V3_FIXTURE }.to_vec();
        let body_len = bytes.len() - HEADER - 8;
        for (pos, value, word) in edits {
            let at = HEADER + (pos % body_len as u64) as usize;
            if word {
                let end = (at + 8).min(HEADER + body_len);
                bytes[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
            } else {
                bytes[at] = value as u8;
            }
        }
        reseal(&mut bytes);
        decode_and_resume(&bytes);
    }
}

/// Free-list compaction composes with kill-and-resume: an uninterrupted
/// run that compacts at round `K` is bit-identical to a run that
/// compacts, checkpoints through the on-disk envelope, resumes and
/// continues — same per-round statistics, same learned topology, same
/// renumbered population, same evaluation. The compaction epoch rides
/// the snapshot, the carried view stays patched-equals-fresh, and the
/// auditor stays green on both legs.
#[test]
fn compaction_is_checkpoint_transparent_and_deterministic() {
    const SEED: u64 = 4242;
    const TOTAL: usize = 18;
    const K: usize = 9;

    let (mut ref_engine, mut rng) = chaos_engine(SEED);
    let mut ref_stats: Vec<RoundStats> = (0..K).map(|_| ref_engine.run_round(&mut rng)).collect();
    let reclaimed = ref_engine.compact();
    assert!(
        reclaimed.is_some_and(|r| r > 0),
        "churn must have retired nodes by round {K}"
    );
    assert_eq!(ref_engine.compaction_epoch(), 1);
    ref_engine.assert_view_consistency();
    assert!(
        ref_engine.compact().is_none(),
        "back-to-back compaction has nothing to reclaim"
    );
    ref_stats.extend((K..TOTAL).map(|_| ref_engine.run_round(&mut rng)));
    assert!(
        ref_engine.audit_failures().is_empty(),
        "compacted run must audit clean"
    );

    let (mut engine, mut rng) = chaos_engine(SEED);
    let mut stats: Vec<RoundStats> = (0..K).map(|_| engine.run_round(&mut rng)).collect();
    engine.compact();
    let bytes = engine.checkpoint(&rng).to_bytes();
    drop(engine);
    let snapshot = RunSnapshot::from_bytes(&bytes).expect("envelope round-trip");
    assert_eq!(snapshot.compaction_epoch(), 1, "epoch rides the snapshot");
    let (mut resumed, mut rng) =
        PerigeeEngine::<GeoLatencyModel>::resume(snapshot).expect("resume");
    resumed.set_audit_every(1);
    assert_eq!(resumed.compaction_epoch(), 1);
    stats.extend((K..TOTAL).map(|_| resumed.run_round(&mut rng)));

    assert_eq!(stats, ref_stats, "stats diverged across resume");
    assert_eq!(resumed.topology(), ref_engine.topology());
    assert_eq!(resumed.population(), ref_engine.population());
    assert_eq!(resumed.evaluate(0.9), ref_engine.evaluate(0.9));
    assert!(resumed.audit_failures().is_empty());
    resumed.assert_view_consistency();
}
