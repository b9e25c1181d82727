//! The property matrix (experiment T4): every adversary against every
//! protocol, asserting the paper's F1–F3 on the correct nodes' outcomes.
//!
//! The invariant under test, in every single scenario: **silent
//! disagreement never happens** — either all correct deciders agree (and
//! match a correct sender), or at least one correct node discovers a
//! failure (F2/F3 are then vacuous, per the problem statement).

use local_auth_fd::core::adversary::{
    AdversarySpec, ChainFdAdversary, ChainMisbehavior, EquivocatingKeyDist, NaMisbehavior,
    NoiseNode, NonAuthAdversary, SilentNode,
};
use local_auth_fd::core::fd::{ChainFdParams, NonAuthParams};
use local_auth_fd::core::keys::Keyring;
use local_auth_fd::core::props::check_fd;
use local_auth_fd::core::runner::{Cluster, FdRunReport, KeyDistReport};
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

/// Chain-FD over an existing keydist with a scripted adversary.
fn run_chain(
    c: &Cluster,
    kd: &KeyDistReport,
    value: &[u8],
    adversary: AdversarySpec,
) -> FdRunReport {
    let spec = RunSpec::new(Protocol::ChainFd, value.to_vec()).with_adversary(adversary);
    c.run_with_keys(&spec, Some(kd))
}

/// Non-authenticated FD (no keys needed) with a scripted adversary.
fn run_nonauth(c: &Cluster, value: &[u8], adversary: AdversarySpec) -> FdRunReport {
    let spec = RunSpec::new(Protocol::NonAuthFd, value.to_vec()).with_adversary(adversary);
    c.run(&spec)
}

/// Assert F1–F3 on a run where the sender is correct with value `v`.
fn assert_props_sender_correct(outcomes: &[local_auth_fd::core::Outcome], v: &[u8], label: &str) {
    let report = check_fd(outcomes, Some(v));
    assert!(report.all_ok(), "{label}: {report:?} outcomes={outcomes:?}");
}

/// Assert F1–F3 on a run with a faulty sender.
fn assert_props_sender_faulty(outcomes: &[local_auth_fd::core::Outcome], label: &str) {
    let report = check_fd(outcomes, None);
    assert!(report.all_ok(), "{label}: {report:?} outcomes={outcomes:?}");
}

#[test]
fn chain_fd_silent_relay() {
    let (n, t) = (6usize, 2usize);
    let c = cluster(n, t, 1);
    let kd = c.run_key_distribution();
    let adversary = AdversarySpec::custom(move |id| {
        (id == NodeId(1)).then(|| Box::new(SilentNode { me: NodeId(1) }) as Box<dyn Node>)
    });
    let run = run_chain(&c, &kd, b"v", adversary);
    assert_props_sender_correct(&run.correct_outcomes(), b"v", "silent relay");
    assert!(run.any_discovery(), "silence must be discovered downstream");
}

#[test]
fn chain_fd_tampering_relay_discovered() {
    let (n, t) = (6usize, 2usize);
    let c = cluster(n, t, 2);
    let kd = c.run_key_distribution();
    let seed = c.seed;
    let adversary = AdversarySpec::custom(move |id| {
        (id == NodeId(1)).then(|| {
            Box::new(ChainFdAdversary::new(
                NodeId(1),
                ChainFdParams::new(n, t),
                scheme(),
                Keyring::generate(scheme().as_ref(), NodeId(1), seed),
                ChainMisbehavior::TamperBody {
                    new_body: b"evil".to_vec(),
                },
                None,
            )) as Box<dyn Node>
        })
    });
    let run = run_chain(&c, &kd, b"v", adversary);
    assert_props_sender_correct(&run.correct_outcomes(), b"v", "tampering relay");
    assert!(run.any_discovery(), "tampering breaks the origin signature");
}

#[test]
fn chain_fd_wrong_name_discovered_theorem_4() {
    let (n, t) = (6usize, 2usize);
    let c = cluster(n, t, 3);
    let kd = c.run_key_distribution();
    let seed = c.seed;
    let adversary = AdversarySpec::custom(move |id| {
        (id == NodeId(2)).then(|| {
            Box::new(ChainFdAdversary::new(
                NodeId(2),
                ChainFdParams::new(n, t),
                scheme(),
                Keyring::generate(scheme().as_ref(), NodeId(2), seed),
                ChainMisbehavior::WrongAssigneeName { claim: NodeId(4) },
                None,
            )) as Box<dyn Node>
        })
    });
    let run = run_chain(&c, &kd, b"v", adversary);
    assert_props_sender_correct(&run.correct_outcomes(), b"v", "wrong assignee name");
    assert!(
        run.any_discovery(),
        "name mismatch is the Theorem 4 trigger"
    );
}

#[test]
fn chain_fd_forged_origin_discovered() {
    let (n, t) = (6usize, 2usize);
    let c = cluster(n, t, 4);
    let kd = c.run_key_distribution();
    let seed = c.seed;
    let adversary = AdversarySpec::custom(move |id| {
        (id == NodeId(1)).then(|| {
            Box::new(ChainFdAdversary::new(
                NodeId(1),
                ChainFdParams::new(n, t),
                scheme(),
                Keyring::generate(scheme().as_ref(), NodeId(1), seed),
                ChainMisbehavior::ForgeOrigin {
                    value: b"forged".to_vec(),
                },
                None,
            )) as Box<dyn Node>
        })
    });
    let run = run_chain(&c, &kd, b"v", adversary);
    assert_props_sender_correct(&run.correct_outcomes(), b"v", "forged origin");
    assert!(run.any_discovery(), "S1 prevents forging the sender's key");
}

#[test]
fn chain_fd_partial_dissemination_discovered_by_starved() {
    let (n, t) = (7usize, 2usize);
    let c = cluster(n, t, 5);
    let kd = c.run_key_distribution();
    let seed = c.seed;
    let adversary = AdversarySpec::custom(move |id| {
        (id == NodeId(2)).then(|| {
            Box::new(ChainFdAdversary::new(
                NodeId(2),
                ChainFdParams::new(n, t),
                scheme(),
                Keyring::generate(scheme().as_ref(), NodeId(2), seed),
                ChainMisbehavior::PartialDissemination {
                    skip: vec![NodeId(5), NodeId(6)],
                },
                None,
            )) as Box<dyn Node>
        })
    });
    let run = run_chain(&c, &kd, b"v", adversary);
    assert_props_sender_correct(&run.correct_outcomes(), b"v", "partial dissemination");
    // The starved nodes discover MissingMessage; the others decide v.
    let outs = &run.outcomes;
    assert!(outs[5].as_ref().unwrap().is_discovered());
    assert!(outs[6].as_ref().unwrap().is_discovered());
    assert_eq!(outs[3].as_ref().unwrap().decided(), Some(&b"v"[..]));
}

#[test]
fn chain_fd_equivocating_sender_t0_discovered_or_consistent() {
    // t = 0: the sender disseminates directly and is the only possible
    // fault. Equivocation gives different values to different nodes — but
    // each is validly signed, so nobody can tell locally. F2 is vacuous
    // only if someone discovers… nobody does here; but F2/F3 require *no
    // correct node discovers* AND sender correct. The sender IS the faulty
    // one, so F3 is vacuous; F2 however is violated by design with t = 0 —
    // which is exactly why t must bound the real number of faults (here
    // faults = 1 > t = 0). This test documents the model boundary.
    let (n, t) = (5usize, 0usize);
    let c = cluster(n, t, 6);
    let kd = c.run_key_distribution();
    let seed = c.seed;
    let adversary = AdversarySpec::custom(move |id| {
        (id == NodeId(0)).then(|| {
            Box::new(ChainFdAdversary::new(
                NodeId(0),
                ChainFdParams::new(n, t),
                scheme(),
                Keyring::generate(scheme().as_ref(), NodeId(0), seed),
                ChainMisbehavior::EquivocateSenderT0 {
                    value_a: b"a".to_vec(),
                    value_b: b"b".to_vec(),
                    split: NodeId(3),
                },
                Some(b"a".to_vec()),
            )) as Box<dyn Node>
        })
    });
    let run = run_chain(&c, &kd, b"a", adversary);
    // With more faults than t, FD gives no guarantee — verify the split
    // actually happened (this is the boundary, not a bug).
    let outs = run.correct_outcomes();
    let decided: Vec<_> = outs.iter().filter_map(|o| o.decided()).collect();
    assert!(decided.contains(&&b"a"[..]) && decided.contains(&&b"b"[..]));
}

#[test]
fn chain_fd_key_equivocation_then_signing_discovered() {
    // THE Theorem 4 scenario: node 2 equivocated its predicate during key
    // distribution (A to nodes < 4, B to nodes >= 4), then relays the FD
    // chain signing with key A. Nodes holding B must discover.
    let (n, t) = (7usize, 2usize);
    let c = cluster(n, t, 7);
    let sch = scheme();
    let kd = c.run_key_distribution_with(&mut |id| {
        (id == NodeId(2)).then(|| {
            Box::new(EquivocatingKeyDist::new(
                NodeId(2),
                n,
                Arc::clone(&sch),
                999,
                NodeId(4),
            )) as Box<dyn Node>
        })
    });
    // Reconstruct the equivocator's key A deterministically.
    let reference = EquivocatingKeyDist::new(NodeId(2), n, Arc::clone(&sch), 999, NodeId(4));
    let sk_a = reference.key_for(NodeId(0)).0.clone();

    let seed = c.seed;
    let adversary = AdversarySpec::custom(move |id| {
        (id == NodeId(2)).then(|| {
            Box::new(ChainFdAdversary::new(
                NodeId(2),
                ChainFdParams::new(n, t),
                scheme(),
                Keyring::generate(scheme().as_ref(), NodeId(2), seed),
                ChainMisbehavior::SignWithKey { sk: sk_a.clone() },
                None,
            )) as Box<dyn Node>
        })
    });
    let run = run_chain(&c, &kd, b"v", adversary);
    assert_props_sender_correct(&run.correct_outcomes(), b"v", "key equivocation");
    assert!(
        run.any_discovery(),
        "nodes holding predicate B must discover (Theorem 4)"
    );
    // Nodes that accepted A (3) verify fine; nodes with B (4, 5, 6)
    // discover.
    assert_eq!(run.outcomes[3].as_ref().unwrap().decided(), Some(&b"v"[..]));
    for i in [4usize, 5, 6] {
        assert!(
            run.outcomes[i].as_ref().unwrap().is_discovered(),
            "node {i}"
        );
    }
}

#[test]
fn non_auth_equivocating_sender_discovered() {
    let (n, t) = (6usize, 2usize);
    let c = cluster(n, t, 8);
    let adversary = AdversarySpec::custom(move |id| {
        (id == NodeId(0)).then(|| {
            Box::new(NonAuthAdversary::new(
                NodeId(0),
                NonAuthParams::new(n, t),
                NaMisbehavior::EquivocateSender {
                    value_a: b"a".to_vec(),
                    value_b: b"b".to_vec(),
                    split: NodeId(3),
                },
                Some(b"a".to_vec()),
            )) as Box<dyn Node>
        })
    });
    let run = run_nonauth(&c, b"a", adversary);
    assert_props_sender_faulty(&run.correct_outcomes(), "NA equivocating sender");
    assert!(
        run.any_discovery(),
        "witness relays expose the equivocation"
    );
}

#[test]
fn non_auth_lying_witness_discovered() {
    let (n, t) = (6usize, 2usize);
    let c = cluster(n, t, 9);
    let adversary = AdversarySpec::custom(move |id| {
        (id == NodeId(2)).then(|| {
            Box::new(NonAuthAdversary::new(
                NodeId(2),
                NonAuthParams::new(n, t),
                NaMisbehavior::LieRelay {
                    value: b"lie".to_vec(),
                },
                None,
            )) as Box<dyn Node>
        })
    });
    let run = run_nonauth(&c, b"v", adversary);
    assert_props_sender_correct(&run.correct_outcomes(), b"v", "lying witness");
    assert!(run.any_discovery());
}

#[test]
fn non_auth_two_faced_witness_discovered() {
    let (n, t) = (7usize, 2usize);
    let c = cluster(n, t, 10);
    let adversary = AdversarySpec::custom(move |id| {
        (id == NodeId(1)).then(|| {
            Box::new(NonAuthAdversary::new(
                NodeId(1),
                NonAuthParams::new(n, t),
                NaMisbehavior::TwoFacedRelay {
                    lie: b"lie".to_vec(),
                    split: NodeId(4),
                },
                None,
            )) as Box<dyn Node>
        })
    });
    let run = run_nonauth(&c, b"v", adversary);
    assert_props_sender_correct(&run.correct_outcomes(), b"v", "two-faced witness");
    // Nodes at or above the split saw a conflicting relay: discovery.
    assert!(run.outcomes[5].as_ref().unwrap().is_discovered());
}

#[test]
fn non_auth_silent_witness_discovered() {
    let (n, t) = (5usize, 1usize);
    let c = cluster(n, t, 11);
    let adversary = AdversarySpec::custom(move |id| {
        (id == NodeId(2)).then(|| {
            Box::new(NonAuthAdversary::new(
                NodeId(2),
                NonAuthParams::new(n, t),
                NaMisbehavior::Silent,
                None,
            )) as Box<dyn Node>
        })
    });
    let run = run_nonauth(&c, b"v", adversary);
    assert_props_sender_correct(&run.correct_outcomes(), b"v", "silent witness");
    assert!(run.any_discovery());
}

#[test]
fn noise_flood_never_causes_silent_disagreement() {
    // A garbage-flooding node in both phases; every decode path must hold.
    for seed in 0..5u64 {
        let (n, t) = (6usize, 2usize);
        let c = cluster(n, t, 100 + seed);
        let kd = c.run_key_distribution_with(&mut |id| {
            (id == NodeId(5))
                .then(|| Box::new(NoiseNode::new(NodeId(5), n, seed, 4, 64, 4)) as Box<dyn Node>)
        });
        let adversary = AdversarySpec::custom(move |id| {
            (id == NodeId(5)).then(|| {
                Box::new(NoiseNode::new(NodeId(5), n, seed ^ 0xff, 4, 64, 6)) as Box<dyn Node>
            })
        });
        let run = run_chain(&c, &kd, b"v", adversary);
        assert_props_sender_correct(&run.correct_outcomes(), b"v", "noise flood");
    }
}

#[test]
fn matrix_sweep_over_seeds_never_silent_disagreement() {
    // A broader randomized sweep: one faulty chain relay per run with a
    // seed-dependent behaviour; the FD properties must hold in every case.
    for seed in 0..20u64 {
        let (n, t) = (7usize, 2usize);
        let c = cluster(n, t, 1000 + seed);
        let kd = c.run_key_distribution();
        let behavior = match seed % 4 {
            0 => ChainMisbehavior::Silent,
            1 => ChainMisbehavior::TamperBody {
                new_body: vec![seed as u8],
            },
            2 => ChainMisbehavior::WrongAssigneeName {
                claim: NodeId((seed % 7) as u16),
            },
            _ => ChainMisbehavior::PartialDissemination {
                skip: vec![NodeId(3 + (seed % 4) as u16)],
            },
        };
        let faulty = NodeId(1 + (seed % 2) as u16);
        let cluster_seed = c.seed;
        let behavior_for_label = behavior.clone();
        let adversary = AdversarySpec::custom(move |id| {
            (id == faulty).then(|| {
                Box::new(ChainFdAdversary::new(
                    faulty,
                    ChainFdParams::new(n, t),
                    scheme(),
                    Keyring::generate(scheme().as_ref(), faulty, cluster_seed),
                    behavior.clone(),
                    None,
                )) as Box<dyn Node>
            })
        });
        let run = run_chain(&c, &kd, b"v", adversary);
        assert_props_sender_correct(
            &run.correct_outcomes(),
            b"v",
            &format!("sweep seed={seed} behavior={behavior_for_label:?}"),
        );
    }
}

#[test]
fn shared_key_clique_runs_fd_without_discovery_g1_caveat() {
    // Paper §3.2 on G1: cooperating faulty nodes may share a secret key;
    // signatures are then assigned to whoever announced the key — but
    // consistently, and nothing is discovered. The run proceeds normally.
    let (n, t) = (6usize, 2usize);
    let c = cluster(n, t, 12);
    let sch = scheme();
    let kd = c.run_key_distribution_with(&mut |id| {
        (id == NodeId(1) || id == NodeId(2)).then(|| {
            Box::new(local_auth_fd::core::adversary::SharedKeyKeyDist::new(
                id,
                n,
                Arc::clone(&sch),
                777,
            )) as Box<dyn Node>
        })
    });
    // Both clique members hold the same accepted predicate everywhere.
    let shared_pk = kd.store(NodeId(0)).accepted(NodeId(1)).unwrap().clone();
    assert_eq!(kd.store(NodeId(3)).accepted(NodeId(2)), Some(&shared_pk));

    // FD run where the clique members act as honest-timed relays using the
    // shared key: verification passes (the predicate matches), the value
    // flows, nobody discovers.
    let reference =
        local_auth_fd::core::adversary::SharedKeyKeyDist::new(NodeId(1), n, Arc::clone(&sch), 777);
    let (shared_sk, _) = reference.shared();
    let seed = c.seed;
    let sk_for_adversary = shared_sk.clone();
    let adversary = AdversarySpec::custom(move |id| {
        (id == NodeId(1) || id == NodeId(2)).then(|| {
            Box::new(ChainFdAdversary::new(
                id,
                ChainFdParams::new(n, t),
                scheme(),
                Keyring::generate(scheme().as_ref(), id, seed),
                ChainMisbehavior::SignWithKey {
                    sk: sk_for_adversary.clone(),
                },
                None,
            )) as Box<dyn Node>
        })
    });
    let run = run_chain(&c, &kd, b"v", adversary);
    assert!(!run.any_discovery(), "key sharing alone is undetectable");
    assert!(run
        .correct_outcomes()
        .iter()
        .all(|o| o.decided() == Some(&b"v"[..])));

    // The ambiguity itself: a signature with the shared key is assigned to
    // BOTH clique members by every correct store — consistently (G3-style
    // consistency holds even though G1's "real signer" is unknowable).
    let scheme_ref = scheme();
    let sig = scheme_ref.sign(&shared_sk, b"probe").unwrap();
    for holder in [NodeId(0), NodeId(3), NodeId(5)] {
        let store = kd.store(holder);
        assert!(store.assigns(scheme_ref.as_ref(), NodeId(1), b"probe", &sig.0));
        assert!(store.assigns(scheme_ref.as_ref(), NodeId(2), b"probe", &sig.0));
    }
}
