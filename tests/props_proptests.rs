//! Property-based tests over the protocol stack: random system shapes,
//! seeds, values, and fault placements must never violate F1–F3 or the
//! message-count formulas.

use local_auth_fd::core::adversary::{
    AdversarySpec, ChainFdAdversary, ChainMisbehavior, SilentNode,
};
use local_auth_fd::core::fd::ChainFdParams;
use local_auth_fd::core::keys::Keyring;
use local_auth_fd::core::props::check_fd;
use local_auth_fd::core::runner::Cluster;
use local_auth_fd::core::spec::{Protocol, RunSpec};
use local_auth_fd::core::{metrics, Outcome};
use local_auth_fd::crypto::{SchnorrScheme, SignatureScheme};
use local_auth_fd::simnet::{Node, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

fn scheme() -> Arc<dyn SignatureScheme> {
    Arc::new(SchnorrScheme::test_tiny())
}

/// (n, t) shapes valid for the chain FD protocol.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (3usize..10).prop_flat_map(|n| (Just(n), 0usize..=(n - 2).min(4)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn honest_runs_always_decide_with_exact_counts(
        (n, t) in shape(),
        seed in any::<u64>(),
        value in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let c = Cluster::new(n, t, scheme(), seed);
        let kd = c.run_key_distribution();
        prop_assert_eq!(kd.stats.messages_total, metrics::keydist_messages(n));
        let run = c.run_with_keys(&RunSpec::new(Protocol::ChainFd, value.clone()), Some(&kd));
        prop_assert_eq!(run.stats.messages_total, metrics::chain_fd_messages(n));
        prop_assert!(run.all_decided(&value));
        let report = check_fd(&run.correct_outcomes(), Some(&value));
        prop_assert!(report.all_ok());
        prop_assert!(!report.any_discovery);
    }

    #[test]
    fn non_auth_honest_runs_always_decide(
        (n, t) in shape(),
        seed in any::<u64>(),
        value in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let c = Cluster::new(n, t, scheme(), seed);
        let run = c.run(&RunSpec::new(Protocol::NonAuthFd, value.clone()));
        prop_assert_eq!(run.stats.messages_total, metrics::non_auth_messages(n, t));
        prop_assert!(run.all_decided(&value));
    }

    #[test]
    fn one_faulty_relay_never_silent_disagreement(
        (n, t) in (4usize..9).prop_flat_map(|n| (Just(n), 1usize..=(n - 2).min(3))),
        seed in any::<u64>(),
        which in any::<usize>(),
        behavior_pick in 0u8..4,
    ) {
        let c = Cluster::new(n, t, scheme(), seed);
        let kd = c.run_key_distribution();
        let faulty = NodeId((1 + which % t) as u16); // a chain relay
        let behavior = match behavior_pick {
            0 => ChainMisbehavior::Silent,
            1 => ChainMisbehavior::TamperBody { new_body: vec![0xee] },
            2 => ChainMisbehavior::WrongAssigneeName {
                claim: NodeId((which % n) as u16),
            },
            _ => ChainMisbehavior::ForgeOrigin { value: vec![0xdd] },
        };
        let adv_behavior = behavior.clone();
        let spec = RunSpec::new(Protocol::ChainFd, b"honest-value".to_vec()).with_adversary(
            AdversarySpec::custom(move |id| {
                (id == faulty).then(|| {
                    Box::new(ChainFdAdversary::new(
                        faulty,
                        ChainFdParams::new(n, t),
                        scheme(),
                        Keyring::generate(scheme().as_ref(), faulty, seed),
                        adv_behavior.clone(),
                        None,
                    )) as Box<dyn Node>
                })
            }),
        );
        let run = c.run_with_keys(&spec, Some(&kd));
        let report = check_fd(&run.correct_outcomes(), Some(b"honest-value"));
        prop_assert!(report.all_ok(), "seed={seed} behavior={behavior:?}: {report:?}");
    }

    #[test]
    fn crashed_nodes_anywhere_never_break_f_properties(
        (n, t) in (4usize..9).prop_flat_map(|n| (Just(n), 1usize..=(n - 2).min(3))),
        seed in any::<u64>(),
        crash in any::<usize>(),
    ) {
        let c = Cluster::new(n, t, scheme(), seed);
        let crash_id = NodeId((crash % n) as u16);
        let kd = c.run_key_distribution_with(&mut |id| {
            (id == crash_id).then(|| Box::new(SilentNode { me: crash_id }) as Box<dyn Node>)
        });
        let sender_correct = crash_id != NodeId(0);
        let spec = RunSpec::new(Protocol::ChainFd, b"v".to_vec()).with_adversary(
            AdversarySpec::custom(move |id| {
                (id == crash_id).then(|| Box::new(SilentNode { me: crash_id }) as Box<dyn Node>)
            }),
        );
        let run = c.run_with_keys(&spec, Some(&kd));
        let report = check_fd(
            &run.correct_outcomes(),
            sender_correct.then_some(&b"v"[..]),
        );
        prop_assert!(report.all_ok(), "crash={crash_id}: {report:?}");
        // A crashed *chain* node must actually be noticed by someone.
        if crash_id.index() <= t {
            prop_assert!(report.any_discovery, "crash={crash_id} went unnoticed");
        }
    }

    #[test]
    fn fd_to_ba_one_crash_always_agreement(
        seed in any::<u64>(),
        crash in 1usize..7,
    ) {
        let (n, t) = (7usize, 2usize);
        let c = Cluster::new(n, t, scheme(), seed);
        let crash_id = NodeId(crash as u16);
        let kd = c.run_key_distribution();
        let spec = RunSpec::new(Protocol::FdToBa, b"v".to_vec())
            .with_default_value(b"d".to_vec())
            .with_adversary(AdversarySpec::custom(move |id| {
                (id == crash_id).then(|| Box::new(SilentNode { me: crash_id }) as Box<dyn Node>)
            }));
        let run = c.run_with_keys(&spec, Some(&kd));
        // BA: all correct nodes decide, and on the same value; sender
        // correct here, so validity pins it to v.
        let outs = run.correct_outcomes();
        for o in &outs {
            prop_assert_eq!(o.decided(), Some(&b"v"[..]), "crash={}", crash_id);
        }
        let _ = Outcome::Pending; // silence unused import lint paths
    }
}

/// (n, t) shapes valid for degradable agreement (`n > 3t`).
fn degradable_shape() -> impl Strategy<Value = (usize, usize)> {
    (4usize..12).prop_flat_map(|n| (Just(n), 1usize..=((n - 1) / 3).max(1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn degradable_honest_runs_grade_two(
        (n, t) in degradable_shape(),
        seed in any::<u64>(),
        value in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        use local_auth_fd::core::ba::Grade;
        use local_auth_fd::core::props::check_degradable;

        let c = Cluster::new(n, t, scheme(), seed);
        let kd = c.run_key_distribution();
        let run = c.run_with_keys(
            &RunSpec::new(Protocol::Degradable, value.clone())
                .with_default_value(b"dflt".to_vec()),
            Some(&kd),
        );
        let grades = run.grades.clone();
        prop_assert_eq!(run.stats.messages_total, metrics::degradable_messages(n));
        prop_assert!(run.all_decided(&value));
        prop_assert!(grades.iter().all(|g| *g == Some(Grade::Two)));
        prop_assert!(check_degradable(&run.correct_outcomes(), b"dflt").all_ok());
    }

    #[test]
    fn degradable_contract_survives_random_partial_senders(
        (n, t) in degradable_shape(),
        seed in any::<u64>(),
        reach_mask in any::<u16>(),
    ) {
        use local_auth_fd::core::ba::DgMsg;
        use local_auth_fd::core::chain::ChainMessage;
        use local_auth_fd::core::props::check_degradable;
        use local_auth_fd::simnet::codec::Encode;
        use local_auth_fd::simnet::{Envelope, Outbox};

        // A sender that reaches only the peers selected by `reach_mask`,
        // possibly with two different (validly signed) values.
        struct MaskedSender {
            ring: Keyring,
            scheme: Arc<dyn SignatureScheme>,
            n: usize,
            mask: u16,
        }
        impl Node for MaskedSender {
            fn id(&self) -> NodeId {
                self.ring.me
            }
            fn on_round(&mut self, round: u32, _inbox: &[Envelope], out: &mut Outbox) {
                if round != 0 {
                    return;
                }
                for i in 1..self.n {
                    if self.mask & (1 << (i % 16)) == 0 {
                        continue;
                    }
                    // Half the reached peers get "v", the others get "w".
                    let v = if i % 2 == 0 { b"v".to_vec() } else { b"w".to_vec() };
                    let chain = ChainMessage::originate(
                        self.scheme.as_ref(),
                        &self.ring.sk,
                        self.ring.me,
                        v,
                    )
                    .unwrap();
                    out.send(NodeId(i as u16), DgMsg { chain }.encode_to_vec());
                }
            }
        }

        let c = Cluster::new(n, t, scheme(), seed);
        let kd = c.run_key_distribution();
        let ring = c.keyring(NodeId(0));
        let s = Arc::clone(&c.scheme);
        let spec = RunSpec::new(Protocol::Degradable, b"v".to_vec())
            .with_default_value(b"dflt".to_vec())
            .with_adversary(AdversarySpec::custom(move |id| {
                (id == NodeId(0)).then(|| {
                    Box::new(MaskedSender {
                        ring: ring.clone(),
                        scheme: Arc::clone(&s),
                        n,
                        mask: reach_mask,
                    }) as Box<dyn Node>
                })
            }));
        let run = c.run_with_keys(&spec, Some(&kd));
        // The equivocating/partial sender is faulty; the degradation
        // contract must still hold among the correct nodes.
        let outs: Vec<Outcome> = run.outcomes.iter().skip(1).flatten().cloned().collect();
        let report = check_degradable(&outs, b"dflt");
        prop_assert!(report.all_ok(), "contract violated: {:?}", outs);
    }

    #[test]
    fn phase_king_agrees_under_any_single_silent_node(
        seed in any::<u64>(),
        silent in 0usize..9,
        value in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let (n, t) = (9usize, 2usize);
        let c = Cluster::new(n, t, scheme(), seed);
        let spec = RunSpec::new(Protocol::PhaseKing, value.clone())
            .with_default_value(b"dflt".to_vec())
            .with_adversary(AdversarySpec::custom(move |id| {
                (id == NodeId(silent as u16))
                    .then(|| Box::new(SilentNode { me: NodeId(silent as u16) }) as Box<dyn Node>)
            }));
        let run = c.run(&spec);
        let outs = run.correct_outcomes();
        // Full agreement: exactly one decision value among correct nodes.
        let distinct: std::collections::BTreeSet<_> =
            outs.iter().filter_map(|o| o.decided()).collect();
        prop_assert_eq!(distinct.len(), 1, "{:?}", outs);
        // Validity: if the sender is correct, that value is the sender's.
        if silent != 0 {
            prop_assert_eq!(*distinct.iter().next().unwrap(), &value[..]);
        }
    }
}
