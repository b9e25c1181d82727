//! Integration tests for the §7-extension protocols (degradable agreement,
//! Phase King) and the benign-fault wrappers, all through the public
//! facade and over *locally* distributed keys.

use local_auth_fd::core::adversary::{
    AdversarySpec, CrashNode, LaggardNode, OmissiveNode, SilentNode,
};
use local_auth_fd::core::ba::Grade;
use local_auth_fd::core::fd::{ChainFdNode, ChainFdParams};
use local_auth_fd::core::metrics;
use local_auth_fd::core::runner::Cluster;
use local_auth_fd::core::spec::{Protocol, RunSpec};
use local_auth_fd::crypto::{DsaScheme, RsaScheme, SchnorrScheme, SignatureScheme};
use local_auth_fd::simnet::{Node, NodeId};
use std::collections::BTreeSet;
use std::sync::Arc;

fn cluster(n: usize, t: usize, seed: u64) -> Cluster {
    Cluster::new(n, t, Arc::new(SchnorrScheme::test_tiny()), seed)
}

#[test]
fn degradable_over_local_auth_many_shapes() {
    for (n, t) in [(4usize, 1usize), (7, 2), (10, 3), (13, 4)] {
        let c = cluster(n, t, 51);
        let kd = c.run_key_distribution();
        let run = c.run_with_keys(
            &RunSpec::new(Protocol::Degradable, b"value".to_vec())
                .with_default_value(b"dflt".to_vec()),
            Some(&kd),
        );
        let grades = run.grades.clone();
        assert!(run.all_decided(b"value"), "n={n} t={t}");
        assert_eq!(
            run.stats.messages_total,
            metrics::degradable_messages(n),
            "n={n} t={t}"
        );
        assert!(grades.iter().all(|g| *g == Some(Grade::Two)));
        // Constant 2 communication rounds regardless of t.
        assert_eq!(
            run.stats.per_round.iter().filter(|&&x| x > 0).count(),
            metrics::DEGRADABLE_COMM_ROUNDS as usize
        );
    }
}

#[test]
fn degradable_runs_on_every_signature_scheme() {
    let schemes: Vec<Arc<dyn SignatureScheme>> = vec![
        Arc::new(SchnorrScheme::test_tiny()),
        Arc::new(DsaScheme::test_tiny()),
        Arc::new(RsaScheme::new(512)),
    ];
    for scheme in schemes {
        let name = scheme.name();
        let c = Cluster::new(5, 1, scheme, 52);
        let kd = c.run_key_distribution();
        let run = c.run_with_keys(
            &RunSpec::new(Protocol::Degradable, b"v".to_vec()).with_default_value(b"d".to_vec()),
            Some(&kd),
        );
        assert!(run.all_decided(b"v"), "{name}");
    }
}

#[test]
fn phase_king_agreement_with_byzantine_king() {
    // The king of phase 0 is node 0 = the sender; make the *second* king
    // byzantine instead so a correct king phase still exists.
    let (n, t) = (9usize, 2usize);
    let c = cluster(n, t, 53);
    let spec = RunSpec::new(Protocol::PhaseKing, b"v".to_vec())
        .with_default_value(b"d".to_vec())
        .with_adversary(AdversarySpec::custom(|id| {
            (id == NodeId(1)).then(|| Box::new(SilentNode { me: NodeId(1) }) as Box<dyn Node>)
        }));
    let run = c.run(&spec);
    let outs = run.correct_outcomes();
    let distinct: BTreeSet<_> = outs.iter().filter_map(|o| o.decided()).collect();
    assert_eq!(distinct.len(), 1, "phase king must still agree: {outs:?}");
    assert_eq!(*distinct.iter().next().unwrap(), &b"v"[..]);
}

#[test]
fn phase_king_cost_grows_with_t_chain_fd_does_not() {
    let n = 13usize;
    let c1 = cluster(n, 1, 54);
    let c3 = cluster(n, 3, 54);
    let king = RunSpec::new(Protocol::PhaseKing, b"v".to_vec()).with_default_value(b"d".to_vec());
    let pk1 = c1.run(&king);
    let pk3 = c3.run(&king);
    assert!(pk3.stats.messages_total > pk1.stats.messages_total);

    let kd1 = c1.run_key_distribution();
    let kd3 = c3.run_key_distribution();
    let chain = RunSpec::new(Protocol::ChainFd, b"v".to_vec());
    let fd1 = c1.run_with_keys(&chain, Some(&kd1));
    let fd3 = c3.run_with_keys(&chain, Some(&kd3));
    assert_eq!(fd1.stats.messages_total, fd3.stats.messages_total);
}

#[test]
fn benign_faults_never_split_small_range_fd() {
    // The wrappers compose with any honest automaton; here the small-range
    // protocol's silence-encodes-default runs under an omissive sender.
    let (n, t) = (6usize, 1usize);
    for seed in 0..10u64 {
        let c = cluster(n, t, seed);
        let kd = c.run_key_distribution();
        let scheme = Arc::clone(&c.scheme);
        let store = kd.store(NodeId(1)).clone();
        let ring = c.keyring(NodeId(1));
        let spec = RunSpec::new(Protocol::ChainFd, b"v".to_vec()).with_adversary(
            AdversarySpec::custom(move |id| {
                (id == NodeId(1)).then(|| {
                    let honest = Box::new(ChainFdNode::new(
                        NodeId(1),
                        ChainFdParams::new(n, t),
                        Arc::clone(&scheme),
                        store.clone(),
                        ring.clone(),
                        None,
                    )) as Box<dyn Node>;
                    Box::new(OmissiveNode::new(honest, seed, 500)) as Box<dyn Node>
                })
            }),
        );
        let run = c.run_with_keys(&spec, Some(&kd));
        let outs = run.correct_outcomes();
        let distinct: BTreeSet<_> = outs.iter().filter_map(|o| o.decided()).collect();
        assert!(
            outs.iter().any(|o| o.is_discovered()) || distinct.len() <= 1,
            "seed={seed}: {outs:?}"
        );
    }
}

#[test]
fn crash_during_keydist_then_fd_discovers_unknown_signer() {
    // A node that crashes mid key-distribution is only partially accepted;
    // when it later appears inside a chain, verifiers without its key
    // discover UnknownSigner instead of silently guessing.
    let (n, t) = (6usize, 2usize);
    let c = cluster(n, t, 55);
    let kd = c.run_key_distribution_with(&mut |id| {
        (id == NodeId(1)).then(|| {
            use local_auth_fd::core::localauth::KeyDistNode;
            let honest = Box::new(KeyDistNode::new(
                NodeId(1),
                n,
                Arc::clone(&c.scheme),
                c.keyring(NodeId(1)),
                c.seed,
            )) as Box<dyn Node>;
            // Crash before answering any challenge.
            Box::new(CrashNode::new(honest, 0, 2)) as Box<dyn Node>
        })
    });
    // The crashed node reached only 2 peers with its predicate, and
    // answered no challenges — nobody accepted its key.
    for store in kd.stores.iter().flatten() {
        assert!(store.accepted(NodeId(1)).is_none());
    }
    // A chain FD run routed through P1 cannot produce a verifiable chain:
    // every correct node either discovers or (downstream of the break)
    // discovers a missing message.
    let spec =
        RunSpec::new(Protocol::ChainFd, b"v".to_vec()).with_adversary(AdversarySpec::custom(
            |id| (id == NodeId(1)).then(|| Box::new(SilentNode { me: NodeId(1) }) as Box<dyn Node>),
        ));
    let run = c.run_with_keys(&spec, Some(&kd));
    assert!(run.any_discovery());
}

#[test]
fn laggard_in_keydist_is_tolerated_or_flagged() {
    // Key distribution gives challenges a full round; a one-round laggard
    // misses the window, so its key is not accepted — but the honest nodes
    // finish and later FD runs among them still work.
    let (n, t) = (5usize, 1usize);
    let c = cluster(n, t, 56);
    let kd = c.run_key_distribution_with(&mut |id| {
        (id == NodeId(4)).then(|| {
            use local_auth_fd::core::localauth::KeyDistNode;
            let honest = Box::new(KeyDistNode::new(
                NodeId(4),
                n,
                Arc::clone(&c.scheme),
                c.keyring(NodeId(4)),
                c.seed,
            )) as Box<dyn Node>;
            Box::new(LaggardNode::new(honest)) as Box<dyn Node>
        })
    });
    // FD through the first t+1 = 2 chain nodes (P0, P1) — all honest and
    // mutually accepted — still decides among the nodes that completed key
    // distribution. (P4 has no store, so it stays substituted.)
    let spec =
        RunSpec::new(Protocol::ChainFd, b"v".to_vec()).with_adversary(AdversarySpec::custom(
            |id| (id == NodeId(4)).then(|| Box::new(SilentNode { me: NodeId(4) }) as Box<dyn Node>),
        ));
    let run = c.run_with_keys(&spec, Some(&kd));
    let outs = run.correct_outcomes();
    let distinct: BTreeSet<_> = outs.iter().filter_map(|o| o.decided()).collect();
    assert!(
        outs.iter().any(|o| o.is_discovered()) || distinct.len() <= 1,
        "{outs:?}"
    );
}

#[test]
fn degradable_message_count_on_socket_transport() {
    // The new protocols are ordinary automata: they run unchanged on the
    // real socket transport with identical counts.
    use local_auth_fd::core::ba::{DegradableNode, DegradableParams};
    use local_auth_fd::simnet::transport::NbCluster;

    let (n, t) = (5usize, 1usize);
    let c = cluster(n, t, 57);
    let kd = c.run_key_distribution();
    let params = DegradableParams::new(n, t, b"d".to_vec());
    let nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|i| {
            let me = NodeId(i as u16);
            Box::new(DegradableNode::new(
                me,
                params.clone(),
                Arc::clone(&c.scheme),
                kd.store(me).clone(),
                c.keyring(me),
                (i == 0).then(|| b"v".to_vec()),
            )) as Box<dyn Node>
        })
        .collect();
    let result = NbCluster::new(params.rounds()).run(nodes);
    assert!(result.ok().is_ok(), "{:?}", result.errors);
    assert_eq!(result.stats.messages_total, metrics::degradable_messages(n));
    for boxed in result.nodes {
        let node = boxed
            .into_any()
            .downcast::<DegradableNode>()
            .expect("DegradableNode");
        assert_eq!(node.outcome().decided(), Some(&b"v"[..]));
        assert_eq!(node.grade(), Some(Grade::Two));
    }
}

mod rushing {
    //! The strongest synchronous adversary: rushing nodes act last in each
    //! round and see the correct nodes' same-round messages first
    //! (`SyncNetwork::set_rushing`). The protocols' guarantees must
    //! survive full adaptivity.

    use super::*;
    use local_auth_fd::core::ba::{DegradableNode, DegradableParams};
    use local_auth_fd::core::ba::{PhaseKingNode, PhaseKingParams, PkMsg};
    use local_auth_fd::core::keys::Keyring;
    use local_auth_fd::core::props::check_degradable;
    use local_auth_fd::simnet::codec::{Decode, Encode};
    use local_auth_fd::simnet::{Envelope, Outbox, SyncNetwork};
    use std::any::Any;

    /// A rushing Phase-King participant that reads the current round's
    /// votes and answers adaptively: it reports to each peer whichever
    /// value would keep the tally as split as possible.
    struct AdaptiveSplitter {
        me: NodeId,
        n: usize,
    }

    impl Node for AdaptiveSplitter {
        fn id(&self) -> NodeId {
            self.me
        }
        fn on_round(&mut self, _round: u32, inbox: &[Envelope], out: &mut Outbox) {
            // Tally the votes it can see (previous + previewed rounds).
            let mut counts: std::collections::BTreeMap<Vec<u8>, usize> =
                std::collections::BTreeMap::new();
            for env in inbox {
                if let Ok(PkMsg::Vote(v)) = PkMsg::decode_exact(&env.payload) {
                    *counts.entry(v).or_insert(0) += 1;
                }
            }
            let mut values: Vec<Vec<u8>> = counts.into_keys().collect();
            values.push(b"poison".to_vec());
            // Send alternating values to alternating peers, plus a fake
            // king message every round for good measure.
            for i in 0..self.n {
                if i == self.me.index() {
                    continue;
                }
                let v = values[i % values.len()].clone();
                out.send(NodeId(i as u16), PkMsg::Vote(v.clone()).encode_to_vec());
                out.send(NodeId(i as u16), PkMsg::King(v).encode_to_vec());
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn into_any(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    }

    #[test]
    fn phase_king_agrees_under_rushing_adaptive_splitter() {
        let (n, t) = (9usize, 2usize);
        for adversary in [1usize, 3, 8] {
            let params = PhaseKingParams::new(n, t, b"default".to_vec());
            let nodes: Vec<Box<dyn Node>> = (0..n)
                .map(|i| {
                    let me = NodeId(i as u16);
                    if i == adversary {
                        Box::new(AdaptiveSplitter { me, n }) as Box<dyn Node>
                    } else {
                        Box::new(PhaseKingNode::new(
                            me,
                            params.clone(),
                            (i == 0).then(|| b"v".to_vec()),
                        )) as Box<dyn Node>
                    }
                })
                .collect();
            let mut net = SyncNetwork::new(nodes);
            net.set_rushing(vec![NodeId(adversary as u16)]);
            net.run_until_done(params.rounds());
            let decided: BTreeSet<Vec<u8>> = net
                .into_nodes()
                .into_iter()
                .enumerate()
                .filter(|(i, _)| *i != adversary)
                .filter_map(|(_, b)| {
                    b.into_any()
                        .downcast::<PhaseKingNode>()
                        .ok()
                        .and_then(|nd| nd.outcome().decided().map(<[u8]>::to_vec))
                })
                .collect();
            assert_eq!(decided.len(), 1, "adversary={adversary}: {decided:?}");
            assert!(
                decided.iter().any(|d| d == b"v"),
                "validity (sender correct)"
            );
        }
    }

    /// A rushing degradable-agreement echoer: it previews the other
    /// echoes, then forwards the sender's chain only to the peers that
    /// (by its preview) received the fewest echoes — maximal asymmetry.
    struct AdaptiveWithholder {
        ring: Keyring,
        scheme: Arc<dyn SignatureScheme>,
        n: usize,
    }

    impl Node for AdaptiveWithholder {
        fn id(&self) -> NodeId {
            self.ring.me
        }
        fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
            if round != 1 {
                return;
            }
            // Find the direct chain from the sender in our inbox.
            let direct = inbox.iter().find_map(|env| {
                (env.from == NodeId(0))
                    .then(|| local_auth_fd::core::ba::DgMsg::decode_exact(&env.payload).ok())
                    .flatten()
            });
            let Some(msg) = direct else { return };
            let echo = msg
                .chain
                .extend(self.scheme.as_ref(), &self.ring.sk, NodeId(0))
                .expect("key well-formed");
            // Rushing: we previewed everyone's round-1 echoes; send ours
            // to odd peers only.
            for i in 1..self.n {
                if i != self.ring.me.index() && i % 2 == 1 {
                    out.send(
                        NodeId(i as u16),
                        local_auth_fd::core::ba::DgMsg {
                            chain: echo.clone(),
                        }
                        .encode_to_vec(),
                    );
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn into_any(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    }

    #[test]
    fn degradable_contract_under_rushing_withholder() {
        let (n, t) = (7usize, 2usize);
        let c = Cluster::new(n, t, Arc::new(SchnorrScheme::test_tiny()), 61);
        let kd = c.run_key_distribution();
        let params = DegradableParams::new(n, t, b"dflt".to_vec());
        let adversary = 3usize;
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                if i == adversary {
                    Box::new(AdaptiveWithholder {
                        ring: c.keyring(me),
                        scheme: Arc::clone(&c.scheme),
                        n,
                    }) as Box<dyn Node>
                } else {
                    Box::new(DegradableNode::new(
                        me,
                        params.clone(),
                        Arc::clone(&c.scheme),
                        kd.store(me).clone(),
                        c.keyring(me),
                        (i == 0).then(|| b"v".to_vec()),
                    )) as Box<dyn Node>
                }
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.set_rushing(vec![NodeId(adversary as u16)]);
        net.run_until_done(params.rounds());
        let outs: Vec<local_auth_fd::core::Outcome> = net
            .into_nodes()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != adversary)
            .filter_map(|(_, b)| {
                b.into_any()
                    .downcast::<DegradableNode>()
                    .ok()
                    .map(|nd| nd.outcome().clone())
            })
            .collect();
        let report = check_degradable(&outs, b"dflt");
        assert!(report.all_ok(), "{outs:?}");
        // With a correct sender the withheld echo cannot matter: everyone
        // still clears the grade-1 bar at least.
        for o in &outs {
            assert_eq!(o.decided(), Some(&b"v"[..]));
        }
    }

    /// A chain signed by a rushing tamperer still cannot be forged: the
    /// existing byzantine chain-FD adversary with rushing power gains
    /// nothing against signature checks.
    #[test]
    fn chain_fd_tamper_with_rushing_still_discovered() {
        use local_auth_fd::core::adversary::{ChainFdAdversary, ChainMisbehavior};

        let (n, t) = (6usize, 2usize);
        let c = Cluster::new(n, t, Arc::new(SchnorrScheme::test_tiny()), 62);
        let kd = c.run_key_distribution();
        let params = ChainFdParams::new(n, t);
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                if i == 1 {
                    Box::new(ChainFdAdversary::new(
                        me,
                        params.clone(),
                        Arc::clone(&c.scheme),
                        c.keyring(me),
                        ChainMisbehavior::TamperBody {
                            new_body: b"evil".to_vec(),
                        },
                        None,
                    )) as Box<dyn Node>
                } else {
                    Box::new(ChainFdNode::new(
                        me,
                        params.clone(),
                        Arc::clone(&c.scheme),
                        kd.store(me).clone(),
                        c.keyring(me),
                        (i == 0).then(|| b"v".to_vec()),
                    )) as Box<dyn Node>
                }
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.set_rushing(vec![NodeId(1)]);
        net.run_until_done(params.rounds());
        let outs: Vec<local_auth_fd::core::Outcome> = net
            .into_nodes()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .filter_map(|(_, b)| {
                b.into_any()
                    .downcast::<ChainFdNode>()
                    .ok()
                    .map(|nd| nd.outcome().clone())
            })
            .collect();
        assert!(outs.iter().any(|o| o.is_discovered()), "{outs:?}");
        let decided: BTreeSet<_> = outs.iter().filter_map(|o| o.decided()).collect();
        assert!(decided.len() <= 1);
    }

    /// Theorem 2's guarantee holds against a *rushing* key thief: even
    /// with a same-round preview of every announcement and challenge, a
    /// node cannot get a key accepted that it does not hold.
    #[test]
    fn keydist_thief_with_rushing_never_accepted() {
        use local_auth_fd::core::adversary::KeyThiefKeyDist;
        use local_auth_fd::core::localauth::{KeyDistNode, KEYDIST_ROUNDS};

        let n = 5usize;
        let c = Cluster::new(n, 1, Arc::new(SchnorrScheme::test_tiny()), 63);
        let thief = NodeId(2);
        let victim = NodeId(0);
        let victim_pk = c.keyring(victim).pk.clone();
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                if me == thief {
                    Box::new(KeyThiefKeyDist::new(me, n, victim_pk.clone())) as Box<dyn Node>
                } else {
                    Box::new(KeyDistNode::new(
                        me,
                        n,
                        Arc::clone(&c.scheme),
                        c.keyring(me),
                        c.seed,
                    )) as Box<dyn Node>
                }
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.set_rushing(vec![thief]);
        net.run_until_done(KEYDIST_ROUNDS);
        for boxed in net.into_nodes() {
            if let Ok(node) = boxed.into_any().downcast::<KeyDistNode>() {
                let (store, _, _) = node.into_parts();
                if store.owner() == thief {
                    continue;
                }
                assert!(
                    store.accepted(thief).is_none(),
                    "{:?} accepted the rushing thief's stolen key",
                    store.owner()
                );
                // The victim's real key is unaffected.
                if store.owner() != victim {
                    assert_eq!(store.accepted(victim), Some(&victim_pk));
                }
            }
        }
    }
}
