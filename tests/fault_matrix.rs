//! N1-violation coverage across the full protocol lineup: seeded random
//! `Drop`, `Duplicate` and `Corrupt` link faults against every FD/BA
//! protocol, on both engines. The contract under a broken network
//! assumption is the paper's safety property: a fault may be
//! *discovered*, it may be absorbed (hit an unused link), but it must
//! never produce silent disagreement — and any nodes that do decide must
//! agree on the value.

use local_auth_fd::core::runner::Cluster;
use local_auth_fd::core::spec::RunSpec;
use local_auth_fd::core::sweep::{classify, Protocol, SweepOutcome};
use local_auth_fd::crypto::SchnorrScheme;
use local_auth_fd::simnet::fault::{FaultPlan, LinkFault};
use local_auth_fd::simnet::Engine;
use std::collections::BTreeSet;
use std::sync::Arc;

const N: usize = 7;

/// A fault budget every protocol accepts at `n = 7` (Phase King needs
/// `n > 4t`).
fn budget(protocol: Protocol) -> usize {
    match protocol {
        Protocol::PhaseKing => 1,
        _ => 2,
    }
}

/// Inject `k` seeded faults of the given kind into one run of `protocol`
/// and classify the correct-node outcomes.
fn run_with_faults(
    protocol: Protocol,
    engine: Engine,
    kind: LinkFault,
    seed: u64,
) -> (SweepOutcome, bool) {
    let t = budget(protocol);
    let plan = FaultPlan::random(N, 3, 3, seed, &[kind]);
    let cluster = Cluster::new(N, t, Arc::new(SchnorrScheme::test_tiny()), seed)
        .with_engine(engine)
        .with_faults(plan);
    // Keys are established in the clean setup phase; the faults hit the
    // protocol run itself.
    let keydist = cluster.keydist_for(protocol);
    let value = b"fault-matrix".to_vec();
    let spec =
        RunSpec::new(protocol, value.clone()).with_default_value(b"fallback-default".to_vec());
    let run = cluster.run_with_keys(&spec, keydist.as_ref());
    let decided: BTreeSet<Vec<u8>> = run
        .correct_outcomes()
        .iter()
        .filter_map(|o| o.decided().map(<[u8]>::to_vec))
        .collect();
    (classify(&run, true), decided.len() <= 1)
}

fn assert_never_silent(kind: LinkFault) {
    for protocol in Protocol::ALL {
        for engine in [Engine::Sync, Engine::Event] {
            for seed in 0..8u64 {
                let (outcome, agreed) = run_with_faults(protocol, engine, kind, seed);
                assert_ne!(
                    outcome,
                    SweepOutcome::SilentDisagreement,
                    "{protocol} on {} engine, seed {seed}, {kind:?}",
                    engine.name()
                );
                assert!(
                    agreed,
                    "{protocol} on {} engine, seed {seed}: decided values diverged",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn drop_faults_never_cause_silent_disagreement() {
    assert_never_silent(LinkFault::Drop);
}

#[test]
fn duplicate_faults_never_cause_silent_disagreement() {
    assert_never_silent(LinkFault::Duplicate);
}

#[test]
fn corrupt_faults_never_cause_silent_disagreement() {
    assert_never_silent(LinkFault::Corrupt { offset: 0, mask: 0 });
}

/// A fault on the link the chain actually uses must *bite*: the chain is
/// the single source of truth in chain FD, so a dropped, duplicated or
/// corrupted first hop is always discovered, on both engines.
#[test]
fn faults_on_the_used_link_are_discovered() {
    for engine in [Engine::Sync, Engine::Event] {
        for kind in [
            LinkFault::Drop,
            LinkFault::Duplicate,
            LinkFault::Corrupt {
                offset: 20,
                mask: 0x01,
            },
        ] {
            let plan = FaultPlan::new().with(
                0,
                local_auth_fd::simnet::NodeId(0),
                local_auth_fd::simnet::NodeId(1),
                kind,
            );
            let cluster = Cluster::new(N, 2, Arc::new(SchnorrScheme::test_tiny()), 1)
                .with_engine(engine)
                .with_faults(plan);
            let keydist = cluster.keydist_for(Protocol::ChainFd);
            let spec =
                RunSpec::new(Protocol::ChainFd, b"v".to_vec()).with_default_value(b"d".to_vec());
            let run = cluster.run_with_keys(&spec, keydist.as_ref());
            assert_eq!(
                classify(&run, true),
                SweepOutcome::Discovered,
                "{kind:?} on {} engine was not discovered",
                engine.name()
            );
        }
    }
}

/// Copy-on-write wall for the arena-allocated delivery path (PR8): a
/// broadcast travels as *one* shared payload buffer — compressed in the
/// event engine's flat delivery ring, handle-cloned per receiver when the
/// round matures — so a link fault that mutates bytes must copy, never
/// write through. Each fault kind is checked on both engines: the faulted
/// link observes the fault, every sibling delivery of the same broadcast
/// observes the original bytes.
#[test]
fn link_faults_keep_copy_on_write_on_shared_broadcast_payloads() {
    use local_auth_fd::simnet::{Envelope, EventNetwork, Node, NodeId, Outbox, SyncNetwork};
    use std::any::Any;

    const PAYLOAD: &[u8] = b"cow-wall";

    /// Node 0 broadcasts one shared payload in round 0; everyone records
    /// every delivery verbatim.
    struct Probe {
        id: NodeId,
        n: usize,
        seen: Vec<(u32, NodeId, Vec<u8>)>,
    }
    impl Node for Probe {
        fn id(&self) -> NodeId {
            self.id
        }
        fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
            if round == 0 && self.id == NodeId(0) {
                out.broadcast(self.n, self.id, PAYLOAD.to_vec());
            }
            for env in inbox {
                self.seen.push((round, env.from, env.payload.to_vec()));
            }
        }
    }

    let n = 6usize;
    let nodes = || -> Vec<Box<dyn Node>> {
        (0..n)
            .map(|i| {
                Box::new(Probe {
                    id: NodeId(i as u16),
                    n,
                    seen: Vec::new(),
                }) as Box<dyn Node>
            })
            .collect()
    };
    let run = |engine: Engine, fault: LinkFault| -> Vec<Vec<(u32, NodeId, Vec<u8>)>> {
        // The fault hits only the 0 → 1 link of the round-0 broadcast.
        let plan = FaultPlan::new().with(0, NodeId(0), NodeId(1), fault);
        let boxed = match engine {
            Engine::Sync => {
                let mut net = SyncNetwork::new(nodes());
                net.set_fault_plan(plan);
                for _ in 0..5 {
                    net.step();
                }
                net.into_nodes()
            }
            Engine::Event => {
                let mut net = EventNetwork::new(nodes());
                net.set_fault_plan(plan);
                for _ in 0..5 {
                    net.step();
                }
                net.into_nodes()
            }
        };
        boxed
            .into_iter()
            .map(|b| (b as Box<dyn Any>).downcast::<Probe>().unwrap().seen)
            .collect()
    };

    for engine in [Engine::Sync, Engine::Event] {
        // Corrupt: P1 sees the flipped byte, every sibling the original.
        let seen = run(
            engine,
            LinkFault::Corrupt {
                offset: 0,
                mask: 0xff,
            },
        );
        let mut corrupted = PAYLOAD.to_vec();
        corrupted[0] ^= 0xff;
        assert_eq!(
            seen[1],
            vec![(1, NodeId(0), corrupted)],
            "{engine}: fault did not bite"
        );
        for (i, node) in seen.iter().enumerate().skip(2) {
            assert_eq!(
                node,
                &vec![(1, NodeId(0), PAYLOAD.to_vec())],
                "{engine}: corruption leaked into P{i}'s shared buffer"
            );
        }

        // Duplicate: two bit-exact copies at P1, one everywhere else.
        let seen = run(engine, LinkFault::Duplicate);
        assert_eq!(seen[1].len(), 2, "{engine}");
        for (i, node) in seen.iter().enumerate().skip(1) {
            for (_, from, bytes) in node {
                assert_eq!((*from, &bytes[..]), (NodeId(0), PAYLOAD), "{engine} P{i}");
            }
        }

        // Reorder: P1's copy is re-filed after everything else at the
        // boundary, bytes untouched; siblings unaffected.
        let seen = run(engine, LinkFault::Reorder);
        assert_eq!(seen[1], vec![(1, NodeId(0), PAYLOAD.to_vec())], "{engine}");
        for node in seen.iter().skip(2) {
            assert_eq!(node, &vec![(1, NodeId(0), PAYLOAD.to_vec())], "{engine}");
        }

        // Delay: P1's copy lands a round late, bytes untouched; siblings
        // deliver on time from the same shared buffer.
        let seen = run(engine, LinkFault::Delay { rounds: 2 });
        let late_round = seen[1][0].0;
        assert!(late_round > 1, "{engine}: delay fault did not delay");
        assert_eq!(
            seen[1],
            vec![(late_round, NodeId(0), PAYLOAD.to_vec())],
            "{engine}"
        );
        for node in seen.iter().skip(2) {
            assert_eq!(node, &vec![(1, NodeId(0), PAYLOAD.to_vec())], "{engine}");
        }
    }
}

/// The two new timing faults ride the same contract.
#[test]
fn delay_and_reorder_faults_never_cause_silent_disagreement() {
    for kind in [LinkFault::Delay { rounds: 1 }, LinkFault::Reorder] {
        for protocol in Protocol::ALL {
            for engine in [Engine::Sync, Engine::Event] {
                for seed in 0..4u64 {
                    let (outcome, agreed) = run_with_faults(protocol, engine, kind, seed);
                    assert_ne!(
                        outcome,
                        SweepOutcome::SilentDisagreement,
                        "{protocol} on {} engine, seed {seed}, {kind:?}",
                        engine.name()
                    );
                    assert!(agreed, "{protocol}: decided values diverged under {kind:?}");
                }
            }
        }
    }
}
