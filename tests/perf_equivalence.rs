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
//! * Key distribution decides the same stores, anomalies and statistics
//!   on 1, 2, 3 or 7 threads per round, honest and with every keydist
//!   adversary at one or two slots, at n = 17 and 65, and at n = 192 as
//!   an ignored large-`n` guard.
//! * Every keyed protocol (chain FD, small range, FD→BA, degradable,
//!   Dolev–Strong) with the cohort layer decides and reports exactly what
//!   a cohort-free cache does, under every scripted adversary that speaks
//!   it, a node signing with its equivocated key and corrupted links on
//!   the disseminated chain, on both engines at n ∈ {7, 16, 64} and
//!   t ∈ {1, 2}; and one n = 64 run's verify-cache hit and miss counts
//!   are pinned per engine for Dolev–Strong and chain FD, as are the
//!   `scheme.verify` calls of Dolev–Strong and chain FD runs, honest and
//!   under a tampering relay.

use local_auth_fd::core::adversary::{
    AdversaryKind, AdversarySpec, EquivocatingKeyDist, KeyThiefKeyDist, SharedKeyKeyDist,
    WrongNameKeyDist,
};
use local_auth_fd::core::ba::{
    DegradableNode, DegradableParams, DolevStrongNode, DolevStrongParams, FdToBaNode, FdToBaParams,
};
use local_auth_fd::core::fd::{ChainFdNode, ChainFdParams, SmallRangeFdNode, SmallRangeParams};
use local_auth_fd::core::keys::{KeyStore, Keyring, VerifyCache};
use local_auth_fd::core::localauth::KdAnomaly;
use local_auth_fd::core::runner::{Cluster, KeyDistReport};
use local_auth_fd::core::spec::{Protocol, RunSpec, Session};
use local_auth_fd::core::sweep::{run_sweep, SweepMatrix};
use local_auth_fd::crypto::{
    CryptoError, PublicKey, SchnorrScheme, SecretKey, Signature, SignatureScheme,
};
use local_auth_fd::simnet::fault::{FaultPlan, LinkFault};
use local_auth_fd::simnet::{Engine, NetStats, Node, NodeId};
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
        round_marks: None,
        crypto_time: None,
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
    // The full Fig. 1 protocol: every store must end on the run's shared
    // table itself, whose slots are the canonical allocations — zero
    // private allocations in the honest case.
    let n = 96;
    let kd = cluster(n, 2, Engine::Sync).run_key_distribution();
    let table = kd.predicates.as_ref().expect("keydist attaches its table");
    assert_eq!(table.fresh_count(), 0, "honest announcements all interned");
    assert_eq!(table.distinct_allocations(), n);
    // Every node interns n predicates (n − 1 announcements + its own).
    assert_eq!(table.interned_count(), n * n);
    for store in kd.stores.iter().flatten() {
        assert!(store.shares_table(table), "{}", store.owner());
        assert_eq!(store.accepted_count(), n);
    }
    for node in NodeId::all(n) {
        // Only the table's own handle: no store kept a private copy.
        assert_eq!(table.ref_count(node), Some(1), "{node}");
    }
}

#[test]
fn keydist_stores_with_a_non_canonical_key_stay_private() {
    // An equivocating announcer hands every honest node a predicate other
    // than its canonical one, so every honest store keeps a private table
    // holding that node's announced bytes, and the other canonical keys
    // by handle.
    let n = 16;
    let c = cluster(n, 2, Engine::Sync);
    let scheme = Arc::clone(&c.scheme);
    let liar = NodeId(5);
    let kd = c.run_key_distribution_with(&mut |id| {
        (id == liar).then(|| {
            Box::new(EquivocatingKeyDist::new(
                id,
                n,
                Arc::clone(&scheme),
                555,
                NodeId(8),
            )) as Box<dyn Node>
        })
    });
    let table = kd.predicates.as_ref().expect("keydist attaches its table");
    let canonical = c.keyring(liar).pk;
    for store in kd.stores.iter().flatten() {
        assert!(!store.shares_table(table), "{}", store.owner());
        if let Some(pk) = store.accepted(liar) {
            assert_ne!(pk, &canonical, "{}", store.owner());
        }
    }
    // n − 1 private tables hold each honest node's canonical handle.
    assert_eq!(table.ref_count(NodeId(0)), Some(n));
}

/// What a key distribution decided: every store's accepted predicate
/// bytes per peer, every honest node's anomalies, the message statistics.
type KdOutcome = (
    Vec<Option<Vec<Option<Vec<u8>>>>>,
    Vec<(NodeId, Vec<KdAnomaly>)>,
    NetStats,
);

fn kd_outcome(kd: KeyDistReport) -> KdOutcome {
    let n = kd.stores.len();
    let stores = kd
        .stores
        .iter()
        .map(|slot| {
            slot.as_ref().map(|store| {
                NodeId::all(n)
                    .map(|peer| store.accepted(peer).map(|pk| pk.as_bytes().to_vec()))
                    .collect()
            })
        })
        .collect();
    (stores, kd.anomalies, kd.stats)
}

/// Key distribution at `n` on 1, 2, 3 and 7 threads per round must decide
/// the same outcome: honest, and with each keydist adversary substituted
/// at one slot and at two slots in different id ranges.
fn keydist_outcome_is_worker_count_invariant(n: usize) {
    let c = cluster(n, 1, Engine::Sync);
    let scheme = Arc::clone(&c.scheme);
    let victim = c.keyring(NodeId(0)).pk;
    let adversary = |kind: usize, me: NodeId| -> Box<dyn Node> {
        match kind {
            0 => Box::new(EquivocatingKeyDist::new(
                me,
                n,
                Arc::clone(&scheme),
                555,
                NodeId(n as u16 / 2),
            )),
            1 => Box::new(SharedKeyKeyDist::new(me, n, Arc::clone(&scheme), 888)),
            2 => Box::new(KeyThiefKeyDist::new(me, n, victim.clone())),
            _ => Box::new(WrongNameKeyDist::new(me, n, Arc::clone(&scheme), 77)),
        }
    };
    let one = vec![NodeId(n as u16 / 3)];
    let two = vec![NodeId(1), NodeId(n as u16 - 2)];
    let mut cases = vec![(0, Vec::new())];
    for kind in 0..4 {
        cases.push((kind, one.clone()));
        cases.push((kind, two.clone()));
    }
    for (kind, slots) in cases {
        let run = |workers: usize| {
            kd_outcome(c.run_key_distribution_on(workers, &mut |id| {
                slots.contains(&id).then(|| adversary(kind, id))
            }))
        };
        let serial = run(1);
        for workers in [2, 3, 7] {
            assert!(
                run(workers) == serial,
                "n = {n}, adversary {kind} at {slots:?}: {workers} workers differ from 1"
            );
        }
    }
}

#[test]
fn keydist_outcome_is_worker_count_invariant_at_n17_and_n65() {
    keydist_outcome_is_worker_count_invariant(17);
    keydist_outcome_is_worker_count_invariant(65);
}

#[test]
#[ignore = "large-n guard; run with --release -- --ignored"]
fn keydist_outcome_is_worker_count_invariant_at_n192() {
    keydist_outcome_is_worker_count_invariant(192);
}

#[test]
fn n2048_key_stores_are_built_from_linear_distinct_allocations() {
    // The ROADMAP "large-n memory profile" item: at n = 2048 the per-node
    // stores used to hold O(n²) independently allocated keys. With the
    // shared predicate table, the 2048 stores are one table of 2048
    // handles onto 2048 distinct allocations.
    let n = 2048;
    let c = cluster(n, 1, Engine::Sync);
    let kd = c.dealer_keydist();
    let table = kd.predicates.as_ref().expect("dealer keydist shares");
    assert_eq!(table.distinct_allocations(), n);
    assert!(kd.stores.iter().flatten().all(|s| s.shares_table(table)));
    for node in NodeId::all(n) {
        assert_eq!(table.ref_count(node), Some(1), "{node}");
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

/// Tiny Schnorr that counts its key generations and its predicate
/// evaluations.
#[derive(Debug)]
struct CountingScheme {
    inner: SchnorrScheme,
    keygens: Arc<AtomicUsize>,
    verifies: Arc<AtomicUsize>,
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
        self.verifies.fetch_add(1, Ordering::Relaxed);
        self.inner.verify(pk, msg, sig)
    }

    fn public_key_len(&self) -> usize {
        self.inner.public_key_len()
    }

    fn signature_len(&self) -> usize {
        self.inner.signature_len()
    }
}

/// A cluster on a [`CountingScheme`], and its key generation and
/// predicate evaluation counters.
fn counting_cluster(n: usize, t: usize) -> (Cluster, Arc<AtomicUsize>, Arc<AtomicUsize>) {
    let keygens = Arc::new(AtomicUsize::new(0));
    let verifies = Arc::new(AtomicUsize::new(0));
    let scheme = CountingScheme {
        inner: SchnorrScheme::test_tiny(),
        keygens: Arc::clone(&keygens),
        verifies: Arc::clone(&verifies),
    };
    (Cluster::new(n, t, Arc::new(scheme), 5), keygens, verifies)
}

#[test]
fn warm_runs_generate_no_keys() {
    let n = 64;
    let (c, keygens, _) = counting_cluster(n, 2);
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

    let (c, keygens, _) = counting_cluster(n, 2);
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
    let (c, keygens, _) = counting_cluster(n, 1);
    let kd = c.dealer_keydist();
    let run = c.run_with_keys(
        &RunSpec::new(Protocol::ChainFd, b"large-n".to_vec()),
        Some(&kd),
    );
    assert!(run.all_decided(b"large-n"));
    assert_eq!(keygens.load(Ordering::Relaxed), n);
    let table = kd.predicates.as_ref().expect("dealer keydist shares");
    assert!(kd.stores.iter().flatten().all(|s| s.shares_table(table)));
    for node in NodeId::all(n) {
        assert_eq!(table.ref_count(node), Some(1), "{node}");
    }
}

/// Every protocol whose receivers screen chains through the cohort layer.
const KEYED: [Protocol; 5] = [
    Protocol::ChainFd,
    Protocol::SmallRange,
    Protocol::FdToBa,
    Protocol::Degradable,
    Protocol::DolevStrong,
];

/// The cells the cohort hit path of `protocol` is checked on at `(n, t)`:
/// every scripted adversary kind that speaks the protocol, node 2 signing
/// with the predicate it equivocated during key distribution (so one
/// cohort key carries an `Accept` for one store view and a discovery for
/// the other), and links that corrupt the body or the tag of the chain
/// disseminated to many receivers. Each cell is a label, the spec, the
/// fault plan and whether it runs on the equivocated key distribution.
fn cohort_cells(
    protocol: Protocol,
    n: usize,
    t: usize,
    honest_kd: &KeyDistReport,
) -> Vec<(String, RunSpec, FaultPlan, bool)> {
    let spec = |adversary: AdversarySpec| {
        RunSpec::new(protocol, b"cohort".to_vec())
            .with_default_value(b"cohort-default".to_vec())
            .with_adversary(adversary)
    };
    let mut cells = Vec::new();
    for kind in AdversaryKind::ALL {
        if kind.applies_to(protocol) {
            let adversary = AdversarySpec::scripted(kind);
            cells.push((
                kind.name().to_string(),
                spec(adversary),
                FaultPlan::new(),
                false,
            ));
        }
    }
    let scheme = cluster(n, t, Engine::Sync).scheme;
    let (signer, seed) = (NodeId(2), 77);
    let sk_a = equivocator(n, &scheme).key_for(NodeId(0)).0.clone();
    // Node 2 runs the honest automaton on a store that accepted everyone,
    // but signs with predicate A: stores that accepted A verify its
    // layers, stores that accepted B discover.
    let store = honest_kd.store(signer).clone();
    let g3 = AdversarySpec::custom(move |id| {
        (id == signer).then(|| {
            let mut ring = Keyring::generate(scheme.as_ref(), id, seed);
            ring.sk = sk_a.clone();
            honest_node(protocol, n, t, &scheme, store.clone(), ring)
        })
    });
    cells.push(("g3-signer".to_string(), spec(g3), FaultPlan::new(), true));
    // Chain FD (and FD→BA's first phase) disseminates in round t from
    // P_t; the other protocols broadcast the sender's chain in round 0.
    let (round, from) = match protocol {
        Protocol::ChainFd | Protocol::FdToBa => (t as u32, NodeId(t as u16)),
        _ => (0, NodeId(0)),
    };
    for (label, offset, mask) in [("corrupt-body", 15, 0x10), ("corrupt-tag", 0, 0xFF)] {
        let corrupt = LinkFault::Corrupt { offset, mask };
        let faults = FaultPlan::new()
            .with(round, from, NodeId(t as u16 + 1), corrupt)
            .with(round, from, NodeId(n as u16 - 1), corrupt);
        cells.push((
            label.to_string(),
            spec(AdversarySpec::Honest),
            faults,
            false,
        ));
    }
    cells
}

/// `protocol`'s honest automaton for node `me`, on `store` and `ring`.
fn honest_node(
    protocol: Protocol,
    n: usize,
    t: usize,
    scheme: &Arc<dyn SignatureScheme>,
    store: KeyStore,
    ring: Keyring,
) -> Box<dyn Node> {
    let (me, scheme) = (ring.me, Arc::clone(scheme));
    let default = b"cohort-default".to_vec();
    let input = (me == NodeId(0)).then(|| b"cohort".to_vec());
    match protocol {
        Protocol::ChainFd => Box::new(ChainFdNode::new(
            me,
            ChainFdParams::new(n, t),
            scheme,
            store,
            ring,
            input,
        )),
        Protocol::SmallRange => Box::new(SmallRangeFdNode::new(
            me,
            SmallRangeParams::new(n, t, default),
            scheme,
            store,
            ring,
            input,
        )),
        Protocol::FdToBa => Box::new(FdToBaNode::new(
            me,
            FdToBaParams::new(n, t, default),
            scheme,
            store,
            ring,
            input,
        )),
        Protocol::Degradable => Box::new(DegradableNode::new(
            me,
            DegradableParams::new(n, t, default),
            scheme,
            store,
            ring,
            input,
        )),
        Protocol::DolevStrong => Box::new(DolevStrongNode::new(
            me,
            DolevStrongParams::new(n, t, default),
            scheme,
            store,
            ring,
            input,
        )),
        other => unreachable!("{other} screens no chains"),
    }
}

/// Node 2's key-distribution equivocator: predicate A to nodes below
/// `n / 2`, predicate B to the rest.
fn equivocator(n: usize, scheme: &Arc<dyn SignatureScheme>) -> EquivocatingKeyDist {
    EquivocatingKeyDist::new(NodeId(2), n, Arc::clone(scheme), 999, NodeId(n as u16 / 2))
}

/// Whether node 2, signing with the predicate it equivocated, puts its
/// signature on a chain that reaches stores holding the other predicate:
/// always in the protocols that broadcast or echo signed chains, and in
/// chain FD (and FD→BA's first phase) only when it is one of the relays
/// `P_1 … P_t`.
fn g3_signer_signs(protocol: Protocol, t: usize) -> bool {
    match protocol {
        Protocol::ChainFd | Protocol::FdToBa => t >= 2,
        _ => true,
    }
}

#[test]
fn cohort_hit_path_matches_cohort_free_cache_on_every_keyed_protocol() {
    let mut cells = 0;
    for n in [7usize, 16, 64] {
        let keyed = cluster(n, 1, Engine::Sync);
        let honest_kd = keyed.dealer_keydist();
        let scheme = Arc::clone(&keyed.scheme);
        let g3_kd = keyed.run_key_distribution_with(&mut |id| {
            (id == NodeId(2)).then(|| Box::new(equivocator(n, &scheme)) as Box<dyn Node>)
        });
        for t in [1usize, 2] {
            for engine in [Engine::Sync, Engine::Event] {
                for protocol in KEYED {
                    for (label, spec, faults, g3) in cohort_cells(protocol, n, t, &honest_kd) {
                        let kd = if g3 { &g3_kd } else { &honest_kd };
                        let c = cluster(n, t, engine).with_faults(faults);
                        let batched = c.run_with_keys(&spec, Some(kd));
                        let reference = c
                            .with_verify_cache(VerifyCache::new().without_cohorts())
                            .run_with_keys(&spec, Some(kd));
                        let cell = format!("{protocol} n={n} t={t} {engine} {label}");
                        assert_eq!(batched.to_json(), reference.to_json(), "{cell}");
                        assert_eq!(batched.outcomes, reference.outcomes, "{cell}");
                        if g3 {
                            // FD→BA reports a discovery as the fallback it
                            // takes.
                            let discovered =
                                batched.any_discovery() || batched.used_fallback.contains(&true);
                            assert_eq!(
                                discovered,
                                g3_signer_signs(protocol, t),
                                "{cell}: Theorem 4 discovery"
                            );
                        }
                        cells += 1;
                    }
                }
            }
        }
    }
    // Chain FD: 7 adversary kinds; the others: none and silent. Each adds
    // the G3 signer and two corrupted links.
    assert_eq!(cells, 3 * 2 * 2 * (10 + 4 * 5));
}

#[test]
fn vector_fd_cohort_hit_path_matches_cohort_free_cache() {
    // Interactive consistency screens every instance's chain through the
    // same cohort layer; its batched runs must decide and discover
    // exactly what cohort-free runs do, per instance.
    let mut cells = 0;
    for n in [7usize, 16] {
        let keyed = cluster(n, 1, Engine::Sync);
        let honest_kd = keyed.dealer_keydist();
        let scheme = Arc::clone(&keyed.scheme);
        let g3_kd = keyed.run_key_distribution_with(&mut |id| {
            (id == NodeId(2)).then(|| Box::new(equivocator(n, &scheme)) as Box<dyn Node>)
        });
        // Node 2 runs the honest automaton on a store that accepted
        // everyone, but signs with predicate A (as in `cohort_cells`).
        let mut rings = g3_kd.rings.clone();
        rings[2].sk = equivocator(n, &scheme).key_for(NodeId(0)).0.clone();
        let mut stores = g3_kd.stores.clone();
        stores[2] = Some(honest_kd.store(NodeId(2)).clone());
        let g3_kd = KeyDistReport {
            stores,
            stats: g3_kd.stats.clone(),
            anomalies: Vec::new(),
            round_marks: None,
            crypto_time: None,
            predicates: None,
            rings,
        };
        let values: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 3]).collect();
        for t in [1usize, 2] {
            // Instance 0's chain is disseminated by P_t in round t.
            let (from, near, far) = (NodeId(t as u16), NodeId(t as u16 + 1), NodeId(n as u16 - 1));
            let mut plans = vec![("clean", FaultPlan::new())];
            for (label, offset, mask) in [("corrupt-body", 15, 0x10), ("corrupt-tag", 0, 0xFF)] {
                let corrupt = LinkFault::Corrupt { offset, mask };
                let plan = FaultPlan::new()
                    .with(t as u32, from, near, corrupt)
                    .with(t as u32, from, far, corrupt);
                plans.push((label, plan));
            }
            plans.push((
                "late",
                FaultPlan::new().with(
                    t as u32 - 1,
                    NodeId(t as u16 - 1),
                    from,
                    LinkFault::Delay { rounds: 1 },
                ),
            ));
            for engine in [Engine::Sync, Engine::Event] {
                for (label, faults) in &plans {
                    for (kd_label, kd) in [("honest", &honest_kd), ("g3", &g3_kd)] {
                        let c = cluster(n, t, engine).with_faults(faults.clone());
                        let batched = c.run_vector(kd, &values);
                        let reference = c
                            .with_verify_cache(VerifyCache::new().without_cohorts())
                            .run_vector(kd, &values);
                        let cell = format!("n={n} t={t} {engine} {label} {kd_label}");
                        assert_eq!(batched.0.to_json(), reference.0.to_json(), "{cell}");
                        assert_eq!(batched.1, reference.1, "{cell}");
                        let clean = *label == "clean" && kd_label == "honest";
                        assert_eq!(batched.0.any_discovery(), !clean, "{cell}");
                        cells += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cells, 2 * 2 * 2 * 4 * 2);
}

#[test]
fn ds_n64_verify_cache_counters_are_pinned() {
    // Hits and misses of one traced Dolev–Strong run on dealer stores: a
    // change to the cohort hit path may make a hit cheaper, never turn it
    // into a miss or count it twice. Round 1 judges P_0's broadcast once
    // (a cohort miss and the origin signature's miss) and replays it for
    // the other 62 receivers. Round 2 judges each of the 63 relays'
    // broadcasts once (a cohort miss and the relay's new signature; the
    // origin signature hits) and replays it for the other 62 of its 63
    // receivers. Misses: 2 + 63 × 2 = 128. Hits: 62 + 63 × 62 replays and
    // 63 origin-signature hits, 4031.
    let spec = RunSpec::new(Protocol::DolevStrong, b"ds-counters".to_vec())
        .with_default_value(b"ds-default".to_vec());
    for (engine, expected) in [(Engine::Sync, [4031, 128]), (Engine::Event, [4031, 128])] {
        let c = cluster(64, 2, engine).with_obs();
        let kd = c.dealer_keydist();
        let run = c.run_with_keys(&spec, Some(&kd));
        assert!(run.all_decided(b"ds-counters"), "{engine}");
        let phases = run.phases.expect("obs cluster records phases");
        assert_eq!(
            [phases.cache_hits, phases.cache_misses],
            expected,
            "{engine}"
        );
    }
}

#[test]
fn chain_fd_n64_verify_cache_counters_are_pinned() {
    // Hits and misses of one traced chain FD run on dealer stores. Each
    // relay judges its own chain (a cohort miss and one new signature: two
    // misses; earlier layers hit the signature cache, one hit at P_2). The
    // first of the 61 disseminated receivers judges P_2's chain the same
    // way (two misses, two hits); the other 60 replay its cohort verdict,
    // so the dissemination costs one judgement, not 61. Misses: 3 × 2 = 6.
    // Hits: 1 + 2 + 60 = 63.
    let spec = RunSpec::new(Protocol::ChainFd, b"chain-counters".to_vec());
    for (engine, expected) in [(Engine::Sync, [63, 6]), (Engine::Event, [63, 6])] {
        let c = cluster(64, 2, engine).with_obs();
        let kd = c.dealer_keydist();
        let run = c.run_with_keys(&spec, Some(&kd));
        assert!(run.all_decided(b"chain-counters"), "{engine}");
        let phases = run.phases.expect("obs cluster records phases");
        assert_eq!(
            [phases.cache_hits, phases.cache_misses],
            expected,
            "{engine}"
        );
    }
}

/// `scheme.verify` calls of one `protocol` run at `(n, t = 2)` on dealer
/// stores, which verify nothing themselves.
fn run_verifies(protocol: Protocol, n: usize, adversary: AdversarySpec, engine: Engine) -> usize {
    let (c, _, verifies) = counting_cluster(n, 2);
    let c = c.with_engine(engine);
    let kd = c.dealer_keydist();
    assert_eq!(
        verifies.load(Ordering::Relaxed),
        0,
        "dealer stores verify nothing"
    );
    let spec = RunSpec::new(protocol, b"verify-count".to_vec())
        .with_default_value(b"verify-default".to_vec())
        .with_adversary(adversary);
    c.run_with_keys(&spec, Some(&kd));
    verifies.load(Ordering::Relaxed)
}

#[test]
fn scheme_verify_calls_per_run_are_pinned() {
    // The verify cache may only ever spare a predicate evaluation, never
    // add one: every distinct signature of a run is checked exactly once.
    let tamper = || AdversarySpec::scripted(AdversaryKind::TamperBody);
    for engine in [Engine::Sync, Engine::Event] {
        let counts = [
            run_verifies(Protocol::DolevStrong, 64, AdversarySpec::Honest, engine),
            run_verifies(Protocol::ChainFd, 64, AdversarySpec::Honest, engine),
            run_verifies(Protocol::ChainFd, 64, tamper(), engine),
            run_verifies(Protocol::ChainFd, 17, tamper(), engine),
        ];
        assert_eq!(counts, [64, 3, 1, 1], "{engine}");
    }
}
