//! Integration tests for the failure-discovery protocols over *locally*
//! distributed keys — the paper's headline composition (§4–§6).

use local_auth_fd::core::metrics;
use local_auth_fd::core::runner::Cluster;
use local_auth_fd::core::spec::{Protocol, RunSpec};
use local_auth_fd::crypto::{SchnorrScheme, ToyScheme};
use std::sync::Arc;

fn cluster(n: usize, t: usize, seed: u64) -> Cluster {
    Cluster::new(n, t, Arc::new(SchnorrScheme::test_tiny()), seed)
}

#[test]
fn chain_fd_over_local_auth_for_many_shapes() {
    for (n, t) in [(3usize, 1usize), (5, 1), (7, 2), (9, 3), (12, 4), (6, 0)] {
        let c = cluster(n, t, 41);
        let kd = c.run_key_distribution();
        let run = c.run_with_keys(
            &RunSpec::new(Protocol::ChainFd, b"value".to_vec()),
            Some(&kd),
        );
        assert!(run.all_decided(b"value"), "n={n} t={t}");
        assert_eq!(
            run.stats.messages_total,
            metrics::chain_fd_messages(n),
            "n={n} t={t}"
        );
    }
}

#[test]
fn amortization_crossover_measured_equals_formula() {
    // Experiment F1's core claim: after k* runs the one-time key
    // distribution has paid for itself.
    for (n, t) in [(8usize, 2usize), (12, 3), (16, 5)] {
        let c = cluster(n, t, 43);
        let kd = c.run_key_distribution();
        let auth_per_run = c
            .run_with_keys(&RunSpec::new(Protocol::ChainFd, b"v".to_vec()), Some(&kd))
            .stats
            .messages_total;
        let nonauth_per_run = c
            .run(&RunSpec::new(Protocol::NonAuthFd, b"v".to_vec()))
            .stats
            .messages_total;
        let setup = kd.stats.messages_total;

        let k_star = metrics::amortization_crossover(n, t).expect("saving exists");
        let cum_auth = |k: usize| setup + k * auth_per_run;
        let cum_non = |k: usize| k * nonauth_per_run;
        assert!(cum_auth(k_star) < cum_non(k_star), "n={n} t={t}");
        assert!(cum_auth(k_star - 1) >= cum_non(k_star - 1), "n={n} t={t}");
    }
}

#[test]
fn many_consecutive_runs_stay_cheap_and_correct() {
    let c = cluster(7, 2, 47);
    let kd = c.run_key_distribution();
    let mut total = kd.stats.messages_total;
    for k in 0..25u8 {
        let run = c.run_with_keys(
            &RunSpec::new(Protocol::ChainFd, vec![k, k.wrapping_mul(3)]),
            Some(&kd),
        );
        assert!(run.all_decided(&[k, k.wrapping_mul(3)]));
        total += run.stats.messages_total;
    }
    assert_eq!(
        total,
        metrics::keydist_messages(7) + 25 * metrics::chain_fd_messages(7)
    );
}

#[test]
fn non_auth_baseline_scales_with_t() {
    let n = 10;
    let mut last = 0usize;
    for t in [0usize, 1, 2, 4, 7] {
        let c = cluster(n, t, 53);
        let run = c.run(&RunSpec::new(Protocol::NonAuthFd, b"x".to_vec()));
        assert!(run.all_decided(b"x"), "t={t}");
        assert_eq!(run.stats.messages_total, metrics::non_auth_messages(n, t));
        assert!(run.stats.messages_total > last, "monotone in t");
        last = run.stats.messages_total;
    }
}

#[test]
fn large_values_flow_through_chains() {
    let c = cluster(5, 1, 59);
    let kd = c.run_key_distribution();
    let big: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
    let run = c.run_with_keys(&RunSpec::new(Protocol::ChainFd, big.clone()), Some(&kd));
    assert!(run.all_decided(&big));
    // Wire bytes reflect the payload size (sanity of accounting).
    assert!(run.stats.bytes_total > 2048 * (5 - 1));
}

#[test]
fn empty_value_is_legal() {
    let c = cluster(4, 1, 61);
    let kd = c.run_key_distribution();
    let run = c.run_with_keys(&RunSpec::new(Protocol::ChainFd, Vec::new()), Some(&kd));
    assert!(run.all_decided(b""));
}

#[test]
fn small_range_expected_cost_depends_on_workload() {
    let (n, t) = (8usize, 2usize);
    let c = cluster(n, t, 67);
    let kd = c.run_key_distribution();

    // 10 runs, 8 of them default: measured total vs closed form.
    let mut total = 0usize;
    for k in 0..10u8 {
        let v = if k < 8 { vec![0] } else { vec![1] };
        let run = c.run_with_keys(
            &RunSpec::new(Protocol::SmallRange, v.clone()).with_default_value(vec![0]),
            Some(&kd),
        );
        assert!(run.all_decided(&v), "k={k}");
        total += run.stats.messages_total;
    }
    assert_eq!(total, 2 * metrics::small_range_messages(n, t, false));
    // Compare against 10 witness-relay runs and 10 chain-FD runs: at an
    // 80 % default share the small-range protocol beats both (§5).
    assert!(total < 10 * metrics::non_auth_messages(n, t));
    assert!(total < 10 * metrics::chain_fd_messages(n));
}

#[test]
fn broken_signature_scheme_breaks_the_guarantees() {
    // With the deliberately broken ToyScheme (S1 violated: anyone can
    // forge), the protocols still *run*, but the security argument
    // evaporates — a forged chain verifies. This documents that the
    // guarantees rest on S1–S3, not on protocol structure alone.
    use local_auth_fd::core::chain::ChainMessage;
    use local_auth_fd::core::keys::KeyStore;
    use local_auth_fd::simnet::NodeId;

    let toy = ToyScheme::new();
    let c = Cluster::new(4, 1, Arc::new(ToyScheme::new()), 71);
    let kd = c.run_key_distribution();
    let run = c.run_with_keys(&RunSpec::new(Protocol::ChainFd, b"v".to_vec()), Some(&kd));
    assert!(run.all_decided(b"v"), "honest runs still work");

    // But: forge the sender's origin signature from its PUBLIC key only.
    let store: &KeyStore = kd.store(NodeId(1));
    let sender_pk = store.accepted(NodeId(0)).unwrap().clone();
    let mut forged = ChainMessage::originate(
        &toy,
        &local_auth_fd::crypto::SecretKey(sender_pk.as_bytes().to_vec()), // pk == sk!
        NodeId(0),
        b"forged".to_vec(),
    )
    .unwrap();
    // The forged chain verifies under every store — S1 violation in action.
    assert!(forged.verify(&toy, store, NodeId(0)).is_ok());
    forged.body = b"tampered-after".to_vec();
    assert!(forged.verify(&toy, store, NodeId(0)).is_err());
}

#[test]
fn different_seeds_give_different_keys_same_counts() {
    let a = cluster(6, 2, 100).run_key_distribution();
    let b = cluster(6, 2, 200).run_key_distribution();
    assert_eq!(a.stats.messages_total, b.stats.messages_total);
    use local_auth_fd::simnet::NodeId;
    assert_ne!(
        a.store(NodeId(0)).accepted(NodeId(1)),
        b.store(NodeId(0)).accepted(NodeId(1))
    );
}

/// Scaling smoke test at n = 128, with real key distribution (the other
/// counter tests go larger on dealer stores). CI runs it with
/// `cargo test --release --test fd_integration -- --ignored`; debug builds
/// take a while at this size because key distribution performs 3·128·127
/// signed exchanges.
#[test]
#[ignore = "large-n stress; run with --release -- --ignored"]
fn keydist_and_fd_at_n_128() {
    let (n, t) = (128usize, 42usize);
    let c = cluster(n, t, 128);
    let kd = c.run_key_distribution();
    assert_eq!(kd.stats.messages_total, metrics::keydist_messages(n));
    for (_, anoms) in &kd.anomalies {
        assert!(anoms.is_empty());
    }
    let run = c.run_with_keys(&RunSpec::new(Protocol::ChainFd, b"big".to_vec()), Some(&kd));
    assert!(run.all_decided(b"big"));
    assert_eq!(run.stats.messages_total, n - 1);
}
