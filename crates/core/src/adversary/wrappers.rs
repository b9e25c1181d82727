//! Benign-fault wrappers: crash, omission, and timing faults.
//!
//! The paper's model is purely byzantine ("no assumptions about the type of
//! failures", §2), which subsumes the classical benign fault classes. These
//! wrappers make that subsumption executable: they wrap *any honest
//! automaton* and degrade its behaviour into one of the textbook fault
//! classes, so the test-suite can sweep the whole fault hierarchy
//! (crash ⊂ omission ⊂ timing ⊂ byzantine) against every protocol and
//! check that the failure-discovery properties hold at every level.
//!
//! * [`CrashNode`] — executes faithfully until a given round, then stops
//!   forever (optionally delivering only a prefix of its final round's
//!   messages, the classic "crash mid-broadcast").
//! * [`OmissiveNode`] — executes faithfully but drops each outgoing message
//!   with a seeded probability (send-omission faults).
//! * [`LaggardNode`] — executes faithfully but delivers every outgoing
//!   message one round late (a *node* timing fault: the network N1 is
//!   untouched, the node is just slow — in a synchronous system this is a
//!   fault, and protocols must either tolerate or discover it).

use fd_simnet::{Envelope, Node, NodeId, Outbox};

/// Tiny deterministic PRNG (SplitMix64) so omission patterns replay.
#[derive(Debug, Clone)]
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Crash-stop fault: behaves like `inner` until `crash_round`, where only
/// the first `deliver_prefix` queued messages leave; silent from then on.
pub struct CrashNode {
    inner: Box<dyn Node>,
    crash_round: u32,
    deliver_prefix: usize,
    crashed: bool,
}

impl CrashNode {
    /// Wrap `inner`; it crashes in `crash_round` after emitting at most
    /// `deliver_prefix` of that round's messages.
    pub fn new(inner: Box<dyn Node>, crash_round: u32, deliver_prefix: usize) -> Self {
        CrashNode {
            inner,
            crash_round,
            deliver_prefix,
            crashed: false,
        }
    }
}

impl Node for CrashNode {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        if self.crashed || round > self.crash_round {
            self.crashed = true;
            return;
        }
        let mut staged = Outbox::new();
        self.inner.on_round(round, inbox, &mut staged);
        let msgs = staged.into_messages();
        let keep = if round == self.crash_round {
            self.crashed = true;
            self.deliver_prefix.min(msgs.len())
        } else {
            msgs.len()
        };
        for (to, payload) in msgs.into_iter().take(keep) {
            out.send(to, payload);
        }
    }

    fn is_done(&self) -> bool {
        self.crashed || self.inner.is_done()
    }
}

impl core::fmt::Debug for CrashNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CrashNode")
            .field("id", &self.id())
            .field("crash_round", &self.crash_round)
            .field("crashed", &self.crashed)
            .finish()
    }
}

/// Send-omission fault: behaves like `inner` but drops each outgoing
/// message independently with probability `drop_permille / 1000`.
pub struct OmissiveNode {
    inner: Box<dyn Node>,
    rng: Mix,
    drop_permille: u64,
}

impl OmissiveNode {
    /// Wrap `inner` with seeded per-message send-omission.
    ///
    /// # Panics
    ///
    /// Panics if `drop_permille > 1000`.
    pub fn new(inner: Box<dyn Node>, seed: u64, drop_permille: u64) -> Self {
        assert!(drop_permille <= 1000, "permille is at most 1000");
        OmissiveNode {
            inner,
            rng: Mix(seed ^ 0x4f4d_4953_5349_4f4e), // "OMISSION" salt
            drop_permille,
        }
    }
}

impl Node for OmissiveNode {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        let mut staged = Outbox::new();
        self.inner.on_round(round, inbox, &mut staged);
        for (to, payload) in staged.into_messages() {
            if self.rng.next() % 1000 >= self.drop_permille {
                out.send(to, payload);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

impl core::fmt::Debug for OmissiveNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OmissiveNode")
            .field("id", &self.id())
            .field("drop_permille", &self.drop_permille)
            .finish()
    }
}

/// Timing fault: behaves like `inner` but every outgoing message leaves one
/// round late.
pub struct LaggardNode {
    inner: Box<dyn Node>,
    held: Vec<(NodeId, fd_simnet::Payload)>,
}

impl LaggardNode {
    /// Wrap `inner`; all its sends are deferred by one round.
    pub fn new(inner: Box<dyn Node>) -> Self {
        LaggardNode {
            inner,
            held: Vec::new(),
        }
    }
}

impl Node for LaggardNode {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        for (to, payload) in self.held.drain(..) {
            out.send(to, payload);
        }
        let mut staged = Outbox::new();
        self.inner.on_round(round, inbox, &mut staged);
        self.held = staged.into_messages();
    }

    fn is_done(&self) -> bool {
        self.held.is_empty() && self.inner.is_done()
    }
}

impl core::fmt::Debug for LaggardNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LaggardNode")
            .field("id", &self.id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{ChainFdNode, ChainFdParams};
    use crate::keys::{KeyStore, Keyring};
    use crate::outcome::Outcome;
    use fd_crypto::SignatureScheme;
    use fd_simnet::SyncNetwork;
    use std::any::Any;
    use std::sync::Arc;

    fn chain_fd_nodes(
        n: usize,
        t: usize,
        wrap: impl Fn(usize, Box<dyn Node>) -> Box<dyn Node>,
    ) -> (Vec<Box<dyn Node>>, ChainFdParams) {
        let scheme: Arc<dyn SignatureScheme> = Arc::new(fd_crypto::SchnorrScheme::test_tiny());
        let rings: Vec<Keyring> = (0..n)
            .map(|i| Keyring::generate(scheme.as_ref(), NodeId(i as u16), 41))
            .collect();
        let pks: Vec<_> = rings.iter().map(|r| r.pk.clone()).collect();
        let params = ChainFdParams::new(n, t);
        let nodes = (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                let honest = Box::new(ChainFdNode::new(
                    me,
                    params.clone(),
                    Arc::clone(&scheme),
                    KeyStore::global(me, &pks),
                    rings[i].clone(),
                    (i == 0).then(|| b"v".to_vec()),
                )) as Box<dyn Node>;
                wrap(i, honest)
            })
            .collect();
        (nodes, params)
    }

    fn outcomes(net: SyncNetwork, faulty: usize) -> Vec<Outcome> {
        net.into_nodes()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != faulty)
            .filter_map(|(_, b)| {
                (b as Box<dyn Any>)
                    .downcast::<ChainFdNode>()
                    .ok()
                    .map(|n| n.outcome().clone())
            })
            .collect()
    }

    #[test]
    fn crashed_relay_is_discovered_downstream() {
        // Chain P0 -> P1 -> P2 -> rest (t = 2). P1 crashes in its relay
        // round without sending: P2 discovers a missing message.
        let (n, t) = (6usize, 2usize);
        let (nodes, params) = chain_fd_nodes(n, t, |i, honest| {
            if i == 1 {
                Box::new(CrashNode::new(honest, 1, 0))
            } else {
                honest
            }
        });
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(params.rounds());
        let outs = outcomes(net, 1);
        assert!(
            outs.iter().any(|o| o.is_discovered()),
            "someone must discover the crash: {outs:?}"
        );
        // F2: no two correct nodes decided differently.
        let decided: std::collections::BTreeSet<_> =
            outs.iter().filter_map(|o| o.decided()).collect();
        assert!(decided.len() <= 1);
    }

    #[test]
    fn crash_after_protocol_is_invisible() {
        // A node that crashes only after all its protocol obligations are
        // met leaves a failure-free view everywhere.
        let (n, t) = (5usize, 1usize);
        let (nodes, params) = chain_fd_nodes(n, t, |i, honest| {
            if i == 4 {
                // P4 is a mere receiver in ChainFd (t+1 = 2 chain hops);
                // crashing it in a late round changes nothing.
                Box::new(CrashNode::new(honest, params_rounds_hack(), 99))
            } else {
                honest
            }
        });
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(params.rounds());
        for o in outcomes(net, 4) {
            assert_eq!(o, Outcome::Decided(b"v".to_vec()));
        }
    }

    fn params_rounds_hack() -> u32 {
        1000
    }

    #[test]
    fn partial_crash_delivers_prefix_only() {
        // The disseminator P_t crashes halfway through its broadcast: the
        // skipped recipients discover, the reached ones decide.
        let (n, t) = (6usize, 1usize);
        // Chain is P0 -> P1; P1 disseminates to P2..P5 (4 messages).
        let (nodes, params) = chain_fd_nodes(n, t, |i, honest| {
            if i == 1 {
                Box::new(CrashNode::new(honest, 1, 2))
            } else {
                honest
            }
        });
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(params.rounds());
        let outs = outcomes(net, 1);
        let discovered = outs.iter().filter(|o| o.is_discovered()).count();
        let decided = outs
            .iter()
            .filter(|o| o.decided() == Some(&b"v"[..]))
            .count();
        assert_eq!(discovered, 2, "{outs:?}");
        // P0 (sender) plus the two reached recipients decide.
        assert_eq!(decided, 3, "{outs:?}");
    }

    #[test]
    fn omissive_node_never_causes_silent_disagreement() {
        // Sweep seeds and drop rates; property F2 must hold in every run.
        let (n, t) = (6usize, 2usize);
        for seed in 0..20u64 {
            for drop in [100u64, 500, 900] {
                let (nodes, params) = chain_fd_nodes(n, t, |i, honest| {
                    if i == 1 {
                        Box::new(OmissiveNode::new(honest, seed, drop))
                    } else {
                        honest
                    }
                });
                let mut net = SyncNetwork::new(nodes);
                net.run_until_done(params.rounds());
                let outs = outcomes(net, 1);
                let decided: std::collections::BTreeSet<_> =
                    outs.iter().filter_map(|o| o.decided()).collect();
                assert!(
                    decided.len() <= 1,
                    "silent disagreement seed={seed} drop={drop}: {outs:?}"
                );
            }
        }
    }

    #[test]
    fn omission_rate_zero_is_faithful() {
        let (n, t) = (5usize, 1usize);
        let (nodes, params) = chain_fd_nodes(n, t, |i, honest| {
            if i == 1 {
                Box::new(OmissiveNode::new(honest, 7, 0))
            } else {
                honest
            }
        });
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(params.rounds());
        for o in outcomes(net, 1) {
            assert_eq!(o, Outcome::Decided(b"v".to_vec()));
        }
    }

    #[test]
    fn omission_rate_full_is_crash_from_start() {
        let (n, t) = (5usize, 1usize);
        let (nodes, params) = chain_fd_nodes(n, t, |i, honest| {
            if i == 1 {
                Box::new(OmissiveNode::new(honest, 7, 1000))
            } else {
                honest
            }
        });
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(params.rounds());
        let outs = outcomes(net, 1);
        assert!(outs.iter().any(|o| o.is_discovered()), "{outs:?}");
    }

    #[test]
    fn laggard_relay_is_discovered() {
        // The chain protocol expects the relay in a specific round; a
        // one-round-late relay is a view no failure-free run contains.
        let (n, t) = (6usize, 2usize);
        let (nodes, params) = chain_fd_nodes(n, t, |i, honest| {
            if i == 1 {
                Box::new(LaggardNode::new(honest))
            } else {
                honest
            }
        });
        let mut net = SyncNetwork::new(nodes);
        // One extra round so the laggard's held messages drain.
        net.run_until_done(params.rounds() + 1);
        let outs = outcomes(net, 1);
        assert!(
            outs.iter().any(|o| o.is_discovered()),
            "late relay must be discovered: {outs:?}"
        );
        let decided: std::collections::BTreeSet<_> =
            outs.iter().filter_map(|o| o.decided()).collect();
        assert!(decided.len() <= 1);
    }

    #[test]
    fn wrappers_preserve_identity() {
        let (nodes, _) = chain_fd_nodes(4, 1, |_, h| h);
        let id = nodes[2].id();
        let wrapped = CrashNode::new(
            {
                let (mut nodes, _) = chain_fd_nodes(4, 1, |_, h| h);
                nodes.remove(2)
            },
            3,
            0,
        );
        assert_eq!(wrapped.id(), id);
        assert!(format!("{wrapped:?}").contains("crash_round"));
    }
}
