//! Degradable agreement under local authentication (paper §7).
//!
//! The paper's closing section hopes for "improvements in … the parameters
//! of weaker types of agreement, e.g. Degradable Agreement" (its ref [7],
//! Vaidya & Pradhan). This module instantiates the weakest interesting
//! member of that family — an authenticated *crusader/graded* agreement —
//! under **local** authentication:
//!
//! * round 0 — the sender chain-signs its value and broadcasts it;
//! * round 1 — every node that received a valid direct value extends the
//!   chain with its own signature layer and broadcasts the echo;
//! * round 2 — decision from the tally of valid echoes.
//!
//! Decision rule at a correct node (with `c(v)` the number of distinct
//! nodes — sender included — vouching for `v` with valid signatures):
//!
//! * evidence of **two distinct validly-signed values** is proof of sender
//!   equivocation ⇒ decide the default (grade 0);
//! * otherwise decide the unique value `v` with **grade 2** if
//!   `c(v) ≥ n − t`, **grade 1** if `c(v) ≥ n − 2t`, default (grade 0)
//!   below that.
//!
//! Guarantees for `n > 3t`, at most `t` byzantine nodes (proof sketches in
//! [`DegradableNode`]):
//!
//! * **validity** — a correct sender's value is decided by every correct
//!   node, with grade 2;
//! * **degraded agreement** — correct nodes decide at most **two** distinct
//!   values, and if two, one of them is the default (Vaidya–Pradhan's
//!   degradation notion);
//! * **discovery** — exactly as in Theorem 4, every local-authentication
//!   anomaly (bad signature, name mismatch, unknown signer) is discovered,
//!   never silent.
//!
//! The point of the experiment (T7): this buys a **constant 2 communication
//! rounds** (vs `t + 1` for full agreement) at `n·(n−1)` messages — the
//! trade the paper's reference [7] calls *degradable*: full agreement is
//! degraded, latency and resilience bookkeeping are not.

use crate::chain::ChainMsg;
use crate::keys::{screen, Cohorts, Expect, KeyStore, Keyring, VerifyCache};
use crate::outcome::{DiscoveryReason, Outcome};
use fd_crypto::SignatureScheme;
use fd_simnet::{Envelope, Node, NodeId, Outbox};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Wire message: the sender's chain (1 signature) or an echo (2 signatures).
pub type DgMsg = ChainMsg<0x68>;

/// The confidence grade attached to a degradable-agreement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Grade {
    /// No (or conflicting) support — the default value was decided.
    Zero,
    /// Support from at least `n − 2t` nodes.
    One,
    /// Support from at least `n − t` nodes — guaranteed when the sender is
    /// correct and at most `t` nodes are faulty.
    Two,
}

/// Static parameters of a degradable-agreement run.
#[derive(Debug, Clone)]
pub struct DegradableParams {
    /// System size.
    pub n: usize,
    /// Tolerated faults; degraded agreement needs `n > 3t`.
    pub t: usize,
    /// Designated sender.
    pub sender: NodeId,
    /// Grade-0 decision value.
    pub default_value: Vec<u8>,
}

impl DegradableParams {
    /// Standard parameters with `P_0` as sender.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` and `n >= 2`.
    pub fn new(n: usize, t: usize, default_value: Vec<u8>) -> Self {
        assert!(n > 3 * t, "degradable agreement requires n > 3t");
        assert!(n >= 2, "need at least two nodes");
        DegradableParams {
            n,
            t,
            sender: NodeId(0),
            default_value,
        }
    }

    /// Automaton rounds: send, echo, decide — constant, independent of `t`.
    pub fn rounds(&self) -> u32 {
        3
    }

    /// Failure-free message count: `(n−1)` direct + `(n−1)²` echoes.
    pub fn failure_free_messages(&self) -> usize {
        (self.n - 1) * self.n
    }
}

/// Honest degradable-agreement participant.
pub struct DegradableNode {
    me: NodeId,
    params: DegradableParams,
    scheme: Arc<dyn SignatureScheme>,
    store: KeyStore,
    keyring: Keyring,
    value: Option<Vec<u8>>,
    /// The verified direct value received from the sender, with its
    /// envelope (kept for the echo), if any.
    direct: Option<(Vec<u8>, Envelope)>,
    /// Distinct values with valid support, in first-seen order, with the
    /// set of vouching nodes.
    support: Vec<(Vec<u8>, BTreeSet<NodeId>)>,
    discovered: Option<DiscoveryReason>,
    outcome: Outcome,
    grade: Option<Grade>,
    done: bool,
}

impl DegradableNode {
    /// Create the automaton for node `me`; `value` is `Some` exactly on the
    /// sender.
    ///
    /// # Panics
    ///
    /// Panics if value presence contradicts the sender role.
    pub fn new(
        me: NodeId,
        params: DegradableParams,
        scheme: Arc<dyn SignatureScheme>,
        store: KeyStore,
        keyring: Keyring,
        value: Option<Vec<u8>>,
    ) -> Self {
        assert_eq!(
            me == params.sender,
            value.is_some(),
            "exactly the sender carries the initial value"
        );
        DegradableNode {
            me,
            params,
            scheme,
            store,
            keyring,
            value,
            direct: None,
            support: Vec::new(),
            discovered: None,
            outcome: Outcome::Pending,
            grade: None,
            done: false,
        }
    }

    /// The node's outcome.
    pub fn outcome(&self) -> &Outcome {
        &self.outcome
    }

    /// The decision grade, once decided.
    pub fn grade(&self) -> Option<Grade> {
        self.grade
    }

    /// `true` if this node holds signed evidence of sender equivocation
    /// (two distinct values, both validly sender-signed).
    pub fn equivocation_proof(&self) -> bool {
        self.support.len() >= 2
    }

    /// Record that `voucher` vouches for `value` with a valid chain.
    fn add_support(&mut self, value: Vec<u8>, voucher: NodeId) {
        match self.support.iter_mut().find(|(v, _)| *v == value) {
            Some((_, set)) => {
                set.insert(voucher);
            }
            None => {
                let mut set = BTreeSet::new();
                set.insert(voucher);
                self.support.push((value, set));
            }
        }
    }

    /// Screen a chain of `count` signatures originated by the sender.
    /// `sender_ok` is the echo rule: an echo may not come from the
    /// sender itself.
    fn screen_chain(
        &self,
        cohorts: Option<&mut Cohorts<'_>>,
        round: u32,
        env: &Envelope,
        count: usize,
        sender_ok: bool,
    ) -> Result<Vec<u8>, DiscoveryReason> {
        let expect = Expect {
            decode: DgMsg::chain_of,
            origin: Some(self.params.sender),
            count: count..=count,
        };
        screen(
            cohorts,
            self.scheme.as_ref(),
            &self.store,
            env,
            round,
            expect,
            |v| v.read(|_, _| sender_ok).map(|body| body.to_vec()),
        )
    }

    /// Validate a round-1 direct message from the sender.
    fn take_direct(&mut self, cohorts: Option<&mut Cohorts<'_>>, round: u32, env: &Envelope) {
        if env.from != self.params.sender {
            self.discovered
                .get_or_insert(DiscoveryReason::UnexpectedMessage { round: env.round });
            return;
        }
        match self.screen_chain(cohorts, round, env, 1, true) {
            Ok(body) => {
                self.add_support(body.clone(), self.params.sender);
                self.direct = Some((body, env.clone()));
            }
            Err(reason) => {
                self.discovered.get_or_insert(reason);
            }
        }
    }

    /// Validate a round-2 echo: sender-originated chain with exactly one
    /// extra layer signed by the echoing node.
    fn take_echo(&mut self, cohorts: Option<&mut Cohorts<'_>>, round: u32, env: &Envelope) {
        let sender_ok = env.from != self.params.sender;
        match self.screen_chain(cohorts, round, env, 2, sender_ok) {
            Ok(body) => {
                self.add_support(body.clone(), self.params.sender);
                // The echo is assigned to its outermost signer: the
                // immediate sender.
                self.add_support(body, env.from);
            }
            Err(reason) => {
                self.discovered.get_or_insert(reason);
            }
        }
    }

    fn decide(&mut self) {
        if let Some(reason) = self.discovered.take() {
            self.outcome = Outcome::Discovered(reason);
            self.grade = Some(Grade::Zero);
            self.done = true;
            return;
        }
        let (value, grade) = match self.support.len() {
            // Silent sender: grade-0 default (matching the other agreement
            // baselines; a silent sender is indistinguishable from a slow
            // one only in asynchrony, which N1 rules out).
            0 => (self.params.default_value.clone(), Grade::Zero),
            1 => {
                let (v, set) = &self.support[0];
                let c = set.len();
                if c >= self.params.n - self.params.t {
                    (v.clone(), Grade::Two)
                } else if c + 2 * self.params.t >= self.params.n {
                    (v.clone(), Grade::One)
                } else {
                    (self.params.default_value.clone(), Grade::Zero)
                }
            }
            // Proof of equivocation: the sender signed two values.
            _ => (self.params.default_value.clone(), Grade::Zero),
        };
        self.outcome = Outcome::Decided(value);
        self.grade = Some(grade);
        self.done = true;
    }
}

impl Node for DegradableNode {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        if self.done {
            return;
        }
        match round {
            0 => {
                if self.me == self.params.sender {
                    let v = self.value.clone().expect("sender value");
                    self.add_support(v.clone(), self.me);
                    let payload = DgMsg::originate(self.scheme.as_ref(), &self.keyring, v);
                    out.broadcast(self.params.n, self.me, payload);
                }
            }
            1 => {
                if self.me != self.params.sender {
                    let cache = self.store.cache().cloned();
                    let mut cohorts = cache.as_ref().and_then(VerifyCache::cohorts);
                    for env in inbox {
                        self.take_direct(cohorts.as_mut(), round, env);
                    }
                    if let Some((body, direct)) = self.direct.take() {
                        // Count our own echo: it is broadcast to everyone
                        // else but not delivered to ourselves.
                        self.add_support(body, self.me);
                        let echo = DgMsg::relay(&direct, self.scheme.as_ref(), &self.keyring.sk);
                        out.broadcast(self.params.n, self.me, echo);
                    }
                }
            }
            _ => {
                let cache = self.store.cache().cloned();
                let mut cohorts = cache.as_ref().and_then(VerifyCache::cohorts);
                for env in inbox {
                    self.take_echo(cohorts.as_mut(), round, env);
                }
                self.decide();
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

impl core::fmt::Debug for DegradableNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DegradableNode")
            .field("me", &self.me)
            .field("outcome", &self.outcome)
            .field("grade", &self.grade)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainMessage;
    use fd_simnet::codec::Encode;
    use fd_simnet::SyncNetwork;
    use std::any::Any;

    fn fixtures(n: usize) -> (Arc<dyn SignatureScheme>, Vec<Keyring>, Vec<KeyStore>) {
        let scheme: Arc<dyn SignatureScheme> = Arc::new(fd_crypto::SchnorrScheme::test_tiny());
        let rings: Vec<Keyring> = (0..n)
            .map(|i| Keyring::generate(scheme.as_ref(), NodeId(i as u16), 31))
            .collect();
        let pks: Vec<_> = rings.iter().map(|r| r.pk.clone()).collect();
        let stores = (0..n)
            .map(|i| KeyStore::global(NodeId(i as u16), &pks))
            .collect();
        (scheme, rings, stores)
    }

    fn honest(
        i: usize,
        n: usize,
        t: usize,
        scheme: &Arc<dyn SignatureScheme>,
        rings: &[Keyring],
        stores: &[KeyStore],
        value: Option<Vec<u8>>,
    ) -> Box<dyn Node> {
        let me = NodeId(i as u16);
        Box::new(DegradableNode::new(
            me,
            DegradableParams::new(n, t, b"default".to_vec()),
            Arc::clone(scheme),
            stores[i].clone(),
            rings[i].clone(),
            value,
        ))
    }

    fn results(net: SyncNetwork, faulty: &[usize]) -> Vec<(Outcome, Option<Grade>)> {
        net.into_nodes()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !faulty.contains(i))
            .map(|(_, b)| {
                let node = (b as Box<dyn Any>)
                    .downcast::<DegradableNode>()
                    .expect("DegradableNode");
                (node.outcome.clone(), node.grade)
            })
            .collect()
    }

    #[test]
    fn failure_free_grade_two_everywhere() {
        for (n, t) in [(4usize, 1usize), (7, 2), (10, 3)] {
            let (scheme, rings, stores) = fixtures(n);
            let params = DegradableParams::new(n, t, b"default".to_vec());
            let nodes: Vec<Box<dyn Node>> = (0..n)
                .map(|i| {
                    honest(
                        i,
                        n,
                        t,
                        &scheme,
                        &rings,
                        &stores,
                        (i == 0).then(|| b"v".to_vec()),
                    )
                })
                .collect();
            let mut net = SyncNetwork::new(nodes);
            net.run_until_done(params.rounds());
            assert_eq!(
                net.stats().messages_total,
                params.failure_free_messages(),
                "n={n}"
            );
            for (o, g) in results(net, &[]) {
                assert_eq!(o, Outcome::Decided(b"v".to_vec()));
                assert_eq!(g, Some(Grade::Two));
            }
        }
    }

    #[test]
    fn silent_sender_grade_zero_default() {
        let (n, t) = (4usize, 1usize);
        let (scheme, rings, stores) = fixtures(n);
        let mut nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                honest(
                    i,
                    n,
                    t,
                    &scheme,
                    &rings,
                    &stores,
                    (i == 0).then(|| b"v".to_vec()),
                )
            })
            .collect();
        nodes[0] = Box::new(crate::adversary::SilentNode { me: NodeId(0) });
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(3);
        for (o, g) in results(net, &[0]) {
            assert_eq!(o, Outcome::Decided(b"default".to_vec()));
            assert_eq!(g, Some(Grade::Zero));
        }
    }

    /// A sender that signs `v` for one half of the nodes and `w` for the
    /// other half — the canonical equivocation attack.
    struct EquivocatingSender {
        ring: Keyring,
        scheme: Arc<dyn SignatureScheme>,
        n: usize,
    }

    impl Node for EquivocatingSender {
        fn id(&self) -> NodeId {
            self.ring.me
        }
        fn on_round(&mut self, round: u32, _inbox: &[Envelope], out: &mut Outbox) {
            if round != 0 {
                return;
            }
            for i in 1..self.n {
                let v = if i <= self.n / 2 {
                    b"v".to_vec()
                } else {
                    b"w".to_vec()
                };
                let chain =
                    ChainMessage::originate(self.scheme.as_ref(), &self.ring.sk, self.ring.me, v)
                        .unwrap();
                out.send(NodeId(i as u16), DgMsg { chain }.encode_to_vec());
            }
        }
    }

    #[test]
    fn equivocating_sender_all_default_with_proof() {
        // Both halves echo their value to everyone, so every correct node
        // ends with sender-signed evidence of two values and defaults.
        let (n, t) = (7usize, 2usize);
        let (scheme, rings, stores) = fixtures(n);
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                if i == 0 {
                    Box::new(EquivocatingSender {
                        ring: rings[0].clone(),
                        scheme: Arc::clone(&scheme),
                        n,
                    }) as Box<dyn Node>
                } else {
                    honest(i, n, t, &scheme, &rings, &stores, None)
                }
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(3);
        let mut decisions = std::collections::BTreeSet::new();
        for (o, g) in results(net, &[0]) {
            match o {
                Outcome::Decided(v) => {
                    decisions.insert(v);
                }
                other => panic!("expected decision, got {other:?}"),
            }
            assert_eq!(g, Some(Grade::Zero));
        }
        assert_eq!(decisions.len(), 1);
        assert!(decisions.iter().any(|d| d == b"default"));
    }

    /// A sender that sends its (validly signed) value to only `k` of the
    /// other nodes and stays silent toward the rest.
    struct PartialSender {
        ring: Keyring,
        scheme: Arc<dyn SignatureScheme>,
        recipients: Vec<NodeId>,
    }

    impl Node for PartialSender {
        fn id(&self) -> NodeId {
            self.ring.me
        }
        fn on_round(&mut self, round: u32, _inbox: &[Envelope], out: &mut Outbox) {
            if round != 0 {
                return;
            }
            let chain = ChainMessage::originate(
                self.scheme.as_ref(),
                &self.ring.sk,
                self.ring.me,
                b"v".to_vec(),
            )
            .unwrap();
            for &to in &self.recipients {
                out.send(
                    to,
                    DgMsg {
                        chain: chain.clone(),
                    }
                    .encode_to_vec(),
                );
            }
        }
    }

    #[test]
    fn partial_sender_degrades_to_at_most_two_values_one_default() {
        // Sweep every possible recipient-set size: correct nodes must end
        // with decisions from {v, default} only (degraded agreement).
        let (n, t) = (7usize, 2usize);
        for k in 0..n {
            let (scheme, rings, stores) = fixtures(n);
            let nodes: Vec<Box<dyn Node>> = (0..n)
                .map(|i| {
                    if i == 0 {
                        Box::new(PartialSender {
                            ring: rings[0].clone(),
                            scheme: Arc::clone(&scheme),
                            recipients: (1..=k).map(|i| NodeId(i as u16)).collect(),
                        }) as Box<dyn Node>
                    } else {
                        honest(i, n, t, &scheme, &rings, &stores, None)
                    }
                })
                .collect();
            let mut net = SyncNetwork::new(nodes);
            net.run_until_done(3);
            let mut non_default = std::collections::BTreeSet::new();
            for (o, _) in results(net, &[0]) {
                match o {
                    Outcome::Decided(v) => {
                        if v != b"default".to_vec() {
                            non_default.insert(v);
                        }
                    }
                    other => panic!("k={k}: expected decision, got {other:?}"),
                }
            }
            assert!(non_default.len() <= 1, "k={k}: {non_default:?}");
            // With all n-1 recipients reached, everyone supports v fully.
            if k == n - 1 {
                assert_eq!(non_default.len(), 1);
            }
        }
    }

    #[test]
    fn grade_thresholds() {
        // n = 7, t = 2: grade 2 needs c >= 5, grade 1 needs c >= 3.
        let (n, t) = (7usize, 2usize);
        let (scheme, rings, stores) = fixtures(n);
        // k = 4 recipients: supporters of v at a recipient are
        // {sender, self, 3 other echoers} = 5 -> grade 2 at recipients;
        // non-recipients see {sender, 4 echoers} = 5 -> also grade 2.
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                if i == 0 {
                    Box::new(PartialSender {
                        ring: rings[0].clone(),
                        scheme: Arc::clone(&scheme),
                        recipients: (1..=4).map(|i| NodeId(i as u16)).collect(),
                    }) as Box<dyn Node>
                } else {
                    honest(i, n, t, &scheme, &rings, &stores, None)
                }
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(3);
        for (o, g) in results(net, &[0]) {
            assert_eq!(o, Outcome::Decided(b"v".to_vec()));
            assert_eq!(g, Some(Grade::Two));
        }

        // k = 2 recipients: c = 3 everywhere -> grade 1.
        let (scheme, rings, stores) = fixtures(n);
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                if i == 0 {
                    Box::new(PartialSender {
                        ring: rings[0].clone(),
                        scheme: Arc::clone(&scheme),
                        recipients: (1..=2).map(|i| NodeId(i as u16)).collect(),
                    }) as Box<dyn Node>
                } else {
                    honest(i, n, t, &scheme, &rings, &stores, None)
                }
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(3);
        for (o, g) in results(net, &[0]) {
            assert_eq!(o, Outcome::Decided(b"v".to_vec()));
            assert_eq!(g, Some(Grade::One));
        }

        // k = 1 recipient: c = 2 < 3 -> grade 0 default.
        let (scheme, rings, stores) = fixtures(n);
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                if i == 0 {
                    Box::new(PartialSender {
                        ring: rings[0].clone(),
                        scheme: Arc::clone(&scheme),
                        recipients: vec![NodeId(1)],
                    }) as Box<dyn Node>
                } else {
                    honest(i, n, t, &scheme, &rings, &stores, None)
                }
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(3);
        for (o, g) in results(net, &[0]) {
            assert_eq!(o, Outcome::Decided(b"default".to_vec()));
            assert_eq!(g, Some(Grade::Zero));
        }
    }

    #[test]
    fn forged_echo_discovered() {
        // Node 1 echoes a value the sender never signed (signs the inner
        // layer with its own key instead): every verifier discovers.
        let (n, t) = (4usize, 1usize);
        let (scheme, rings, stores) = fixtures(n);

        struct ForgingEchoer {
            ring: Keyring,
            scheme: Arc<dyn SignatureScheme>,
            n: usize,
        }
        impl Node for ForgingEchoer {
            fn id(&self) -> NodeId {
                self.ring.me
            }
            fn on_round(&mut self, round: u32, _inbox: &[Envelope], out: &mut Outbox) {
                if round != 1 {
                    return;
                }
                // Forge: originate "w" as if from P0, but signed by us.
                let forged = ChainMessage::originate(
                    self.scheme.as_ref(),
                    &self.ring.sk,
                    NodeId(0),
                    b"w".to_vec(),
                )
                .unwrap()
                .extend(self.scheme.as_ref(), &self.ring.sk, NodeId(0))
                .unwrap();
                out.broadcast(
                    self.n,
                    self.ring.me,
                    DgMsg { chain: forged }.encode_to_vec(),
                );
            }
        }

        let mut nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                honest(
                    i,
                    n,
                    t,
                    &scheme,
                    &rings,
                    &stores,
                    (i == 0).then(|| b"v".to_vec()),
                )
            })
            .collect();
        nodes[1] = Box::new(ForgingEchoer {
            ring: rings[1].clone(),
            scheme: Arc::clone(&scheme),
            n,
        });
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(3);
        for (o, _) in results(net, &[1]) {
            assert!(o.is_discovered(), "forged echo must be discovered: {o:?}");
        }
    }

    #[test]
    fn rounds_constant_in_t() {
        assert_eq!(DegradableParams::new(4, 1, vec![]).rounds(), 3);
        assert_eq!(DegradableParams::new(16, 5, vec![]).rounds(), 3);
    }

    #[test]
    #[should_panic(expected = "n > 3t")]
    fn resilience_bound_enforced() {
        let _ = DegradableParams::new(6, 2, vec![]);
    }

    #[test]
    fn codec_round_trip() {
        use fd_simnet::codec::Decode;
        let scheme = fd_crypto::SchnorrScheme::test_tiny();
        let ring = Keyring::generate(&scheme, NodeId(0), 1);
        let chain = ChainMessage::originate(&scheme, &ring.sk, NodeId(0), b"x".to_vec()).unwrap();
        let msg = DgMsg { chain };
        assert_eq!(DgMsg::decode_exact(&msg.encode_to_vec()).unwrap(), msg);
    }
}
