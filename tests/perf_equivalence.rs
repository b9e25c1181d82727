//! Tier-1 guards for the hot-path allocation work: sharing key material
//! and payload buffers is an *allocation* optimization, never a semantic
//! one.
//!
//! * Arc-backed payloads + shared predicate tables + the per-run verify
//!   cache must produce byte-identical [`FdRunReport::to_json`] across
//!   ≥ 20 `(protocol × adversary × engine)` cells, compared against a
//!   deliberately unshared reference execution (every store entry
//!   deep-copied into a fresh allocation).
//! * Sweep reports stay byte-deterministic across repeats and thread
//!   counts on both engines.
//! * The large-`n` key-store memory profile is `O(n)` distinct key
//!   allocations, asserted by counting shared-table reference counts at
//!   n = 2048.
//! * The exact counters of one protocol run on dealer stores — messages,
//!   bytes, communication rounds, distinct key allocations — for chain FD
//!   and Dolev–Strong on both engines at n = 256, plus Dolev–Strong at
//!   n = 8192 as an ignored large-`n` stress test.
//! * Runs generate no keys: key distribution (real or dealer) makes the
//!   `n` keyrings, and every later run borrows them, at n = 64 on every
//!   keyed protocol and both engines, and at n = 4096 as an ignored
//!   large-`n` guard.

use local_auth_fd::core::adversary::{AdversaryKind, AdversarySpec};
use local_auth_fd::core::keys::KeyStore;
use local_auth_fd::core::runner::{Cluster, KeyDistReport};
use local_auth_fd::core::spec::{Protocol, RunSpec, Session};
use local_auth_fd::core::sweep::{run_sweep, SweepMatrix};
use local_auth_fd::crypto::{
    CryptoError, PublicKey, SchnorrScheme, SecretKey, Signature, SignatureScheme,
};
use local_auth_fd::simnet::{Engine, NodeId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn cluster(n: usize, t: usize, engine: Engine) -> Cluster {
    Cluster::new(n, t, Arc::new(SchnorrScheme::test_tiny()), 77).with_engine(engine)
}

/// Rebuild a key distribution report with every accepted predicate
/// deep-copied into a fresh private allocation and the predicate table
/// dropped — the "seed behaviour" reference with zero sharing.
fn unshared(kd: &KeyDistReport, n: usize) -> KeyDistReport {
    let stores = kd
        .stores
        .iter()
        .map(|slot| {
            slot.as_ref().map(|store| {
                let mut fresh = KeyStore::new(n, store.owner());
                for i in 0..n {
                    let node = NodeId(i as u16);
                    if let Some(pk) = store.accepted(node) {
                        fresh.accept(node, PublicKey::new(pk.as_bytes().to_vec()));
                    }
                }
                fresh
            })
        })
        .collect();
    KeyDistReport {
        stores,
        stats: kd.stats.clone(),
        anomalies: kd.anomalies.clone(),
        predicates: None,
        rings: kd.rings.clone(),
    }
}

#[test]
fn shared_and_unshared_key_material_agree_across_cells() {
    let (n, t) = (7usize, 2usize);
    let keyed = [
        Protocol::ChainFd,
        Protocol::SmallRange,
        Protocol::DolevStrong,
        Protocol::Degradable,
        Protocol::FdToBa,
    ];
    let mut cells = 0;
    for engine in [Engine::Sync, Engine::Event] {
        for protocol in keyed {
            for kind in AdversaryKind::ALL {
                if !kind.applies_to(protocol) {
                    continue;
                }
                let spec = RunSpec::new(protocol, b"perf-eq".to_vec())
                    .with_default_value(b"perf-default".to_vec())
                    .with_adversary(AdversarySpec::scripted(kind));
                let c = cluster(n, t, engine);
                let kd = c.setup_keydist();
                let shared_json = c.run_with_keys(&spec, Some(&kd)).to_json();
                let unshared_kd = unshared(&kd, n);
                let unshared_json = c.run_with_keys(&spec, Some(&unshared_kd)).to_json();
                assert_eq!(
                    shared_json,
                    unshared_json,
                    "{protocol} × {} × {engine}: sharing changed behaviour",
                    kind.name()
                );
                cells += 1;
            }
        }
    }
    assert!(cells >= 20, "only {cells} cells exercised");
}

#[test]
fn observability_never_changes_report_bytes_across_cells() {
    // The PR7 counterpart of the sharing guard: a cluster running with
    // phase observability on (round marks, verify timing, cache counters)
    // must produce byte-identical `to_json` output — `phases` is a local
    // observation, never a report surface.
    let (n, t) = (7usize, 2usize);
    let protocols = [
        Protocol::ChainFd,
        Protocol::SmallRange,
        Protocol::DolevStrong,
        Protocol::Degradable,
        Protocol::FdToBa,
        Protocol::NonAuthFd,
    ];
    let mut cells = 0;
    for engine in [Engine::Sync, Engine::Event] {
        for protocol in protocols {
            for kind in AdversaryKind::ALL {
                if !kind.applies_to(protocol) {
                    continue;
                }
                let spec = RunSpec::new(protocol, b"obs-eq".to_vec())
                    .with_default_value(b"obs-default".to_vec())
                    .with_adversary(AdversarySpec::scripted(kind));
                let plain = cluster(n, t, engine).run(&spec).to_json();
                let observed_run = cluster(n, t, engine).with_obs().run(&spec);
                assert!(
                    observed_run.phases.is_some(),
                    "{protocol} × {} × {engine}: obs cluster must record phases",
                    kind.name()
                );
                assert_eq!(
                    plain,
                    observed_run.to_json(),
                    "{protocol} × {} × {engine}: observability changed behaviour",
                    kind.name()
                );
                cells += 1;
            }
        }
    }
    assert!(cells >= 20, "only {cells} cells exercised");
}

#[test]
fn ds_fast_path_matches_unbatched_reference_at_scale() {
    // The PR8 flattening guard at protocol scale: the Dolev–Strong hot
    // path (compressed broadcasts through the flat delivery ring, cohort
    // signature batching in the verify cache) against a deliberately
    // unbatched reference — every delivery forced through the binary
    // heap, cohort verdicts disabled so every envelope is validated
    // individually. Reports must be byte-identical.
    use local_auth_fd::core::keys::VerifyCache;
    for n in [256usize, 1024] {
        let t = 1usize;
        let spec = RunSpec::new(Protocol::DolevStrong, b"ds-eq".to_vec())
            .with_default_value(b"ds-default".to_vec());
        let fast = cluster(n, t, Engine::Event);
        let kd = fast.dealer_keydist();
        let fast_run = fast.run_with_keys(&spec, Some(&kd));
        let reference = cluster(n, t, Engine::Event)
            .with_reference_scheduler(true)
            .with_verify_cache(VerifyCache::new().without_cohorts());
        let ref_run = reference.run_with_keys(&spec, Some(&kd));
        assert_eq!(
            fast_run.to_json(),
            ref_run.to_json(),
            "n={n}: fast path changed the report"
        );
        assert_eq!(fast_run.grades, ref_run.grades, "n={n}");
        assert_eq!(fast_run.outcomes, ref_run.outcomes, "n={n}");
        assert!(fast_run.all_decided(b"ds-eq"), "n={n}");
        assert_eq!(
            fast_run.stats.messages_total,
            local_auth_fd::core::metrics::dolev_strong_messages(n),
            "n={n}"
        );
    }
}

#[test]
fn key_free_protocols_unaffected_by_key_sharing_machinery() {
    for engine in [Engine::Sync, Engine::Event] {
        for protocol in [Protocol::NonAuthFd, Protocol::PhaseKing] {
            let spec = RunSpec::new(protocol, b"perf-eq".to_vec())
                .with_default_value(b"perf-default".to_vec());
            let a = cluster(9, 2, engine).run(&spec).to_json();
            let b = cluster(9, 2, engine).run(&spec).to_json();
            assert_eq!(a, b, "{protocol} × {engine}");
        }
    }
}

#[test]
fn sweep_reports_stay_byte_deterministic_on_both_engines() {
    let matrix = SweepMatrix {
        engines: vec![Engine::Sync, Engine::Event],
        sizes: vec![4, 6],
        ..SweepMatrix::quick()
    };
    let first = run_sweep(&matrix, 1);
    let second = run_sweep(&matrix, 8);
    assert_eq!(first.to_json(), second.to_json());
    assert_eq!(first.to_markdown(), second.to_markdown());
    assert!(first.all_ok(), "failures: {:?}", first.failures());
    // Event rows under synchronous latency cross-validate against the
    // sync engine inside the sweep itself; all must have matched.
    assert!(first.rows.iter().all(|r| r.cross_ok));
}

#[test]
fn keydist_interns_announcements_into_one_shared_table() {
    // The full Fig. 1 protocol: every store's accepted predicates must be
    // handles into the run's shared table — zero private allocations in
    // the honest case.
    let n = 96;
    let kd = cluster(n, 2, Engine::Sync).run_key_distribution();
    let table = kd.predicates.as_ref().expect("keydist attaches its table");
    assert_eq!(table.fresh_count(), 0, "honest announcements all interned");
    assert_eq!(table.distinct_allocations(), n);
    // Every node interns n predicates (n − 1 announcements + its own).
    assert_eq!(table.interned_count(), n * n);
    for node in NodeId::all(n) {
        // n stores hold the entry, plus the table's own handle.
        assert_eq!(table.ref_count(node), Some(n + 1), "{node}");
    }
    for store in kd.stores.iter().flatten() {
        assert_eq!(store.accepted_count(), n);
    }
}

#[test]
fn n2048_key_stores_are_built_from_linear_distinct_allocations() {
    // The ROADMAP "large-n memory profile" item: at n = 2048 the per-node
    // stores used to hold O(n²) independently allocated keys. With the
    // shared predicate table, 2048 stores × 2048 entries are all handles
    // onto 2048 distinct allocations.
    let n = 2048;
    let c = cluster(n, 1, Engine::Sync);
    let kd = c.dealer_keydist();
    let table = kd.predicates.as_ref().expect("dealer keydist shares");
    assert_eq!(table.distinct_allocations(), n);
    for node in NodeId::all(n) {
        assert_eq!(table.ref_count(node), Some(n + 1), "{node}");
    }
    // A protocol run clones every store once more (one table handle per
    // store), still without allocating any new key material.
    let mut session = Session::with_keydist(c, kd);
    let run = session.run(&RunSpec::new(Protocol::ChainFd, b"large-n".to_vec()));
    assert!(run.all_decided(b"large-n"));
    let table = session
        .keydist_report()
        .and_then(|kd| kd.predicates.clone())
        .expect("table survives the session");
    assert_eq!(table.distinct_allocations(), n, "runs allocate no keys");
}

/// The counters of one run on dealer stores (zero setup messages, one
/// shared predicate table), at seed 1 and t = 1 with tiny Schnorr keys:
/// `(messages, bytes, communication rounds, distinct key allocations)`.
/// Every node must decide the sent value, in a run whose message count
/// matches the closed form.
fn dealer_run_counters(protocol: Protocol, n: usize, engine: Engine) -> [usize; 4] {
    let t = 1;
    let c = Cluster::new(n, t, Arc::new(SchnorrScheme::test_tiny()), 1).with_engine(engine);
    let kd = c.dealer_keydist();
    let key_allocs = kd
        .predicates
        .as_ref()
        .expect("dealer keydist shares")
        .distinct_allocations();
    let mut session = Session::with_keydist(c, kd);
    let spec = RunSpec::new(protocol, b"bench-value".to_vec())
        .with_default_value(b"bench-default".to_vec());
    let run = session.run(&spec);
    assert!(run.all_decided(b"bench-value"), "{protocol} n={n} {engine}");
    assert_eq!(
        run.stats.messages_total,
        protocol.expected_messages(n, t),
        "{protocol} n={n} {engine}: closed form"
    );
    let comm_rounds = run.stats.per_round.iter().filter(|&&m| m > 0).count();
    [
        run.stats.messages_total,
        run.stats.bytes_total,
        comm_rounds,
        key_allocs,
    ]
}

#[test]
fn dealer_run_counters_are_exact_at_n256() {
    for engine in [Engine::Sync, Engine::Event] {
        assert_eq!(
            dealer_run_counters(Protocol::ChainFd, 256, engine),
            [255, 17_322, 2, 256],
            "chain FD on {engine}"
        );
        assert_eq!(
            dealer_run_counters(Protocol::DolevStrong, 256, engine),
            [65_280, 4_434_450, 2, 256],
            "Dolev–Strong on {engine}"
        );
    }
}

#[test]
#[ignore = "large-n stress; run with --release -- --ignored"]
fn dealer_run_counters_are_exact_for_ds_at_n8192() {
    assert_eq!(
        dealer_run_counters(Protocol::DolevStrong, 8192, Engine::Event),
        [67_100_672, 4_562_698_258, 2, 8192]
    );
}

/// Tiny Schnorr that counts its key generations.
#[derive(Debug)]
struct CountingScheme {
    inner: SchnorrScheme,
    keygens: Arc<AtomicUsize>,
}

impl SignatureScheme for CountingScheme {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn keypair_from_seed(&self, seed: u64) -> (SecretKey, PublicKey) {
        self.keygens.fetch_add(1, Ordering::Relaxed);
        self.inner.keypair_from_seed(seed)
    }

    fn sign(&self, sk: &SecretKey, msg: &[u8]) -> Result<Signature, CryptoError> {
        self.inner.sign(sk, msg)
    }

    fn verify(&self, pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        self.inner.verify(pk, msg, sig)
    }

    fn public_key_len(&self) -> usize {
        self.inner.public_key_len()
    }

    fn signature_len(&self) -> usize {
        self.inner.signature_len()
    }
}

/// A cluster on a [`CountingScheme`], and its key generation counter.
fn counting_cluster(n: usize, t: usize) -> (Cluster, Arc<AtomicUsize>) {
    let keygens = Arc::new(AtomicUsize::new(0));
    let scheme = CountingScheme {
        inner: SchnorrScheme::test_tiny(),
        keygens: Arc::clone(&keygens),
    };
    (Cluster::new(n, t, Arc::new(scheme), 5), keygens)
}

#[test]
fn warm_runs_generate_no_keys() {
    let n = 64;
    let (c, keygens) = counting_cluster(n, 2);
    let mut session = Session::new(c);
    session.keydist();
    assert_eq!(keygens.load(Ordering::Relaxed), n, "keydist makes n rings");
    let keyed = [
        Protocol::ChainFd,
        Protocol::SmallRange,
        Protocol::DolevStrong,
        Protocol::Degradable,
        Protocol::FdToBa,
    ];
    let event = session.cluster().clone().with_engine(Engine::Event);
    for protocol in keyed {
        let spec = RunSpec::new(protocol, vec![1]).with_default_value(vec![0]);
        assert!(session.run(&spec).all_decided(&[1]), "{protocol} sync");
        let run = event.run_with_keys(&spec, session.keydist_report());
        assert!(run.all_decided(&[1]), "{protocol} event");
    }
    assert_eq!(keygens.load(Ordering::Relaxed), n, "runs borrow the rings");

    let (c, keygens) = counting_cluster(n, 2);
    let kd = c.dealer_keydist();
    let run = c.run_with_keys(&RunSpec::new(Protocol::ChainFd, vec![1]), Some(&kd));
    assert!(run.all_decided(&[1]));
    assert_eq!(
        keygens.load(Ordering::Relaxed),
        n,
        "dealer keydist + one run"
    );
}

#[test]
#[ignore = "large-n guard; run with --release -- --ignored"]
fn chain4096_dealer_run_generates_no_keys() {
    let n = 4096;
    let (c, keygens) = counting_cluster(n, 1);
    let kd = c.dealer_keydist();
    let run = c.run_with_keys(
        &RunSpec::new(Protocol::ChainFd, b"large-n".to_vec()),
        Some(&kd),
    );
    assert!(run.all_decided(b"large-n"));
    assert_eq!(keygens.load(Ordering::Relaxed), n);
    let table = kd.predicates.as_ref().expect("dealer keydist shares");
    for node in NodeId::all(n) {
        assert_eq!(table.ref_count(node), Some(n + 1), "{node}");
    }
}
