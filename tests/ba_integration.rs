//! Integration tests for the Byzantine Agreement layer: the FD→BA
//! extension (failure-free runs at FD cost, experiment T6), Dolev–Strong
//! under local authentication, and the EIG baseline.

use local_auth_fd::core::adversary::{
    AdversarySpec, ChainFdAdversary, ChainMisbehavior, SilentNode,
};
use local_auth_fd::core::fd::ChainFdParams;
use local_auth_fd::core::keys::Keyring;
use local_auth_fd::core::metrics;
use local_auth_fd::core::runner::Cluster;
use local_auth_fd::core::spec::{Protocol, RunSpec};
use local_auth_fd::crypto::{SchnorrScheme, SignatureScheme};
use local_auth_fd::simnet::{Node, NodeId};
use std::sync::Arc;

fn scheme() -> Arc<dyn SignatureScheme> {
    Arc::new(SchnorrScheme::test_tiny())
}

fn cluster(n: usize, t: usize, seed: u64) -> Cluster {
    Cluster::new(n, t, scheme(), seed)
}

#[test]
fn fd_to_ba_failure_free_equals_fd_cost_t6() {
    for (n, t) in [(4usize, 1usize), (7, 2), (10, 3), (13, 4)] {
        let c = cluster(n, t, 1);
        let kd = c.run_key_distribution();
        let fd = c.run_with_keys(&RunSpec::new(Protocol::ChainFd, b"v".to_vec()), Some(&kd));
        let ba = c.run_with_keys(
            &RunSpec::new(Protocol::FdToBa, b"v".to_vec()).with_default_value(b"d".to_vec()),
            Some(&kd),
        );
        assert_eq!(
            ba.stats.messages_total, fd.stats.messages_total,
            "n={n} t={t}: T6 failure-free BA at FD cost"
        );
        assert_eq!(ba.stats.messages_total, metrics::chain_fd_messages(n));
        assert!(ba.all_decided(b"v"));
        assert!(ba.used_fallback.iter().all(|f| !f));
    }
}

#[test]
fn fd_to_ba_silent_relay_uniform_fallback_validity() {
    // Faulty chain relay goes silent: FD discovers, alarms propagate,
    // ALL correct nodes fall back together and (sender correct) decide v.
    let (n, t) = (7usize, 2usize);
    let c = cluster(n, t, 2);
    let kd = c.run_key_distribution();
    let spec = RunSpec::new(Protocol::FdToBa, b"v".to_vec())
        .with_default_value(b"d".to_vec())
        .with_adversary(AdversarySpec::custom(|id| {
            (id == NodeId(1)).then(|| Box::new(SilentNode { me: NodeId(1) }) as Box<dyn Node>)
        }));
    let run = c.run_with_keys(&spec, Some(&kd));
    let outs = run.correct_outcomes();
    for o in &outs {
        assert_eq!(
            o.decided(),
            Some(&b"v"[..]),
            "BA validity with correct sender"
        );
    }
    // Every correct node used the fallback (all-or-none).
    for (i, (outcome, fb)) in run
        .outcomes
        .iter()
        .zip(run.used_fallback.iter())
        .enumerate()
    {
        if outcome.is_some() {
            assert!(*fb, "node {i} must have taken the fallback");
        }
    }
}

#[test]
fn fd_to_ba_tampering_relay_agreement() {
    let (n, t) = (7usize, 2usize);
    let c = cluster(n, t, 3);
    let kd = c.run_key_distribution();
    let seed = c.seed;
    let spec = RunSpec::new(Protocol::FdToBa, b"v".to_vec())
        .with_default_value(b"d".to_vec())
        .with_adversary(AdversarySpec::custom(move |id| {
            (id == NodeId(2)).then(|| {
                Box::new(ChainFdAdversary::new(
                    NodeId(2),
                    ChainFdParams::new(n, t),
                    scheme(),
                    Keyring::generate(scheme().as_ref(), NodeId(2), seed),
                    ChainMisbehavior::TamperBody {
                        new_body: b"evil".to_vec(),
                    },
                    None,
                )) as Box<dyn Node>
            })
        }));
    let run = c.run_with_keys(&spec, Some(&kd));
    // Agreement among correct nodes (BA, not just FD):
    let outs = run.correct_outcomes();
    let first = outs[0].decided().expect("BA always decides").to_vec();
    for o in &outs {
        assert_eq!(o.decided(), Some(&first[..]), "BA agreement");
    }
    // And validity: sender is correct.
    assert_eq!(first, b"v".to_vec());
}

#[test]
fn dolev_strong_under_local_auth() {
    let (n, t) = (6usize, 2usize);
    let c = cluster(n, t, 4);
    let kd = c.run_key_distribution();
    let run = c.run_with_keys(
        &RunSpec::new(Protocol::DolevStrong, b"v".to_vec()).with_default_value(b"d".to_vec()),
        Some(&kd),
    );
    assert!(run.all_decided(b"v"));
    // Failure-free DS costs n(n-1) — quadratic, the contrast in T6.
    assert_eq!(run.stats.messages_total, n * (n - 1));
}

#[test]
fn dolev_strong_silent_sender_default() {
    let (n, t) = (5usize, 1usize);
    let c = cluster(n, t, 5);
    let kd = c.run_key_distribution();
    let spec = RunSpec::new(Protocol::DolevStrong, b"v".to_vec())
        .with_default_value(b"d".to_vec())
        .with_adversary(AdversarySpec::custom(|id| {
            (id == NodeId(0)).then(|| Box::new(SilentNode { me: NodeId(0) }) as Box<dyn Node>)
        }));
    let outs = c.run_with_keys(&spec, Some(&kd)).correct_outcomes();
    assert_eq!(outs.len(), n - 1);
    for o in &outs {
        assert_eq!(o.decided(), Some(&b"d"[..]));
    }
}

#[test]
fn fd_to_ba_deterministic_replay() {
    let (n, t) = (7usize, 2usize);
    let run = |seed| {
        let c = cluster(n, t, seed);
        let kd = c.run_key_distribution();
        let spec = RunSpec::new(Protocol::FdToBa, b"v".to_vec())
            .with_default_value(b"d".to_vec())
            .with_adversary(AdversarySpec::custom(|id| {
                (id == NodeId(1)).then(|| Box::new(SilentNode { me: NodeId(1) }) as Box<dyn Node>)
            }));
        let r = c.run_with_keys(&spec, Some(&kd));
        (r.stats.messages_total, r.correct_outcomes())
    };
    assert_eq!(run(9), run(9));
}
