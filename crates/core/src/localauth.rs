//! The key distribution protocol (paper Fig. 1) establishing **local
//! authentication**.
//!
//! Every node generates its own key pair and distributes the public test
//! predicate itself; a challenge–response exchange ensures a node can only
//! claim predicates whose secret key it actually holds:
//!
//! ```text
//! round 0:  P_i → all:   T_i                       (announce)
//! round 1:  P_i → P_j:   (P_i, P_j, r_j)           (challenge, fresh r_j)
//! round 2:  P_j → P_i:   { (P_i, P_j, r_j) }_{S_j} (signed response; P_j
//!                         signs iff the challenge named itself and the
//!                         actual challenger)
//! round 3:  P_i accepts T_j iff the response verifies under the announced
//!           T_j and echoes the exact nonce it issued.
//! ```
//!
//! Cost: `3·n·(n−1)` messages in 3 communication rounds (experiment T1).
//! The protocol makes **no assumption about the number of faulty nodes**;
//! a peer that misbehaves is simply never accepted into the local
//! [`KeyStore`]. After the protocol, properties G1 and G2 hold (Theorem 2).
//!
//! One buffer per node-round, and one record: a node encodes all of a
//! round's challenges (or responses) into one exactly sized buffer, so a
//! round costs it one allocation, not one per peer. When the buffer holds
//! one equally long message for every peer in id order — every honest
//! round 1 and 2 — it goes out as one [`Outbox::scatter`], which an
//! in-process engine parks as one send record, not `n − 1`; otherwise each
//! message is sent as a slice of it. Either way every receiver gets the
//! same bytes, and a corrupting link still changes one message only
//! (copy-on-write, see [`fd_simnet::Payload::make_mut`]).
//!
//! Per peer, a node keeps only the announced candidate predicate and the
//! nonce it issued (16 bytes); its [`KeyStore`] is built when it finishes
//! round 3, on the intern table's shared slots when everything it
//! accepted is canonical.
//!
//! With [`KeyDistNode::with_crypto_timing`] a node also adds up the wall
//! time it spends inside the scheme's `sign` (round 2) and `verify`
//! (round 3), as [`KdCryptoTime`]; without it no clock is read.

use crate::keys::{KeyStore, Keyring, PredicateTable};
use fd_crypto::{PublicKey, Signature, SignatureScheme};
use fd_simnet::codec::{CodecError, Decode, Encode, Reader, Writer};
use fd_simnet::{Envelope, Node, NodeId, Outbox, Payload};
use std::ops::{AddAssign, Range};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wire messages of the key distribution protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KdMsg {
    /// Round 0: the sender's claimed test predicate.
    Announce {
        /// Encoded public key (test predicate) bytes.
        pk: Vec<u8>,
    },
    /// Round 1: `(challenger, challenged, nonce)`.
    Challenge {
        /// Who issues the challenge.
        challenger: NodeId,
        /// Who must sign it.
        challenged: NodeId,
        /// Fresh random nonce.
        nonce: u64,
    },
    /// Round 2: the challenge triple, signed by the challenged node.
    Response {
        /// Echoed challenger name.
        challenger: NodeId,
        /// Echoed challenged name.
        challenged: NodeId,
        /// Echoed nonce.
        nonce: u64,
        /// Signature over the canonical challenge bytes.
        sig: Vec<u8>,
    },
}

const TAG_ANNOUNCE: u8 = 0x01;
const TAG_CHALLENGE: u8 = 0x02;
const TAG_RESPONSE: u8 = 0x03;

/// Encoded length of a [`KdMsg::Challenge`]: tag, two names, nonce.
const CHALLENGE_LEN: usize = 1 + 2 + 2 + 8;
/// Encoded length of a [`KdMsg::Response`] without its signature bytes:
/// the challenge fields plus the signature's length prefix.
const RESPONSE_HEADER_LEN: usize = CHALLENGE_LEN + 4;

/// One round's messages of a node: encoded back to back into one buffer,
/// sent as one scatter or as slices of it.
struct Batch {
    w: Writer,
    sends: Vec<(NodeId, Range<usize>)>,
}

impl Batch {
    /// Room for `count` messages of `len` bytes each.
    fn new(count: usize, len: usize) -> Self {
        Batch {
            w: Writer::with_capacity(count * len),
            sends: Vec::with_capacity(count),
        }
    }

    /// Encode `msg` for `to`.
    fn push(&mut self, to: NodeId, msg: &KdMsg) {
        let start = self.w.len();
        msg.encode(&mut self.w);
        self.sends.push((to, start..self.w.len()));
    }

    /// Queue every message, in push order, on one payload: as one scatter
    /// from `me` when there is one message of one length for each of the
    /// `n − 1` peers in ascending id order, else as one slice each.
    fn send(self, n: usize, me: NodeId, out: &mut Outbox) {
        let len = self.sends.first().map_or(0, |(_, range)| range.len());
        let mut peers = NodeId::all(n).filter(|&peer| peer != me);
        let scatter = len > 0
            && self.sends.len() == n - 1
            && self
                .sends
                .iter()
                .all(|(to, range)| peers.next() == Some(*to) && range.len() == len);
        let buf = Payload::from(self.w.into_bytes());
        if scatter {
            out.scatter(n, me, buf, len);
        } else {
            for (to, range) in self.sends {
                out.send(to, buf.slice(range));
            }
        }
    }
}

impl Encode for KdMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            KdMsg::Announce { pk } => {
                w.put_u8(TAG_ANNOUNCE);
                w.put_bytes(pk);
            }
            KdMsg::Challenge {
                challenger,
                challenged,
                nonce,
            } => {
                w.put_u8(TAG_CHALLENGE);
                challenger.encode(w);
                challenged.encode(w);
                w.put_u64(*nonce);
            }
            KdMsg::Response {
                challenger,
                challenged,
                nonce,
                sig,
            } => {
                w.put_u8(TAG_RESPONSE);
                challenger.encode(w);
                challenged.encode(w);
                w.put_u64(*nonce);
                w.put_bytes(sig);
            }
        }
    }
}

impl Decode for KdMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            TAG_ANNOUNCE => Ok(KdMsg::Announce {
                pk: r.get_bytes()?.to_vec(),
            }),
            TAG_CHALLENGE => Ok(KdMsg::Challenge {
                challenger: NodeId::decode(r)?,
                challenged: NodeId::decode(r)?,
                nonce: r.get_u64()?,
            }),
            TAG_RESPONSE => Ok(KdMsg::Response {
                challenger: NodeId::decode(r)?,
                challenged: NodeId::decode(r)?,
                nonce: r.get_u64()?,
                sig: r.get_bytes()?.to_vec(),
            }),
            other => Err(CodecError::BadTag(other)),
        }
    }
}

/// Domain separator that opens [`challenge_bytes`].
const CHALLENGE_DOMAIN: &[u8] = b"fd-la-challenge-v1";

/// Length of [`challenge_bytes`]: the domain, two big-endian ids and a
/// big-endian nonce.
pub const SIGNED_CHALLENGE_LEN: usize = CHALLENGE_DOMAIN.len() + 2 + 2 + 8;

/// Canonical bytes a challenged node signs: domain-separated
/// `(challenger, challenged, nonce)`, on the stack (key distribution
/// signs and verifies n(n−1) of them).
pub fn challenge_bytes(
    challenger: NodeId,
    challenged: NodeId,
    nonce: u64,
) -> [u8; SIGNED_CHALLENGE_LEN] {
    let mut bytes = [0; SIGNED_CHALLENGE_LEN];
    let (domain, fields) = bytes.split_at_mut(CHALLENGE_DOMAIN.len());
    domain.copy_from_slice(CHALLENGE_DOMAIN);
    fields[..2].copy_from_slice(&challenger.0.to_be_bytes());
    fields[2..4].copy_from_slice(&challenged.0.to_be_bytes());
    fields[4..].copy_from_slice(&nonce.to_be_bytes());
    bytes
}

/// Anomalies observed during key distribution.
///
/// The protocol does not *discover failures* (it runs before any agreement
/// and tolerates arbitrarily many faults by simply not accepting keys), but
/// honest nodes record what they saw for diagnostics and experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KdAnomaly {
    /// Peer never announced a predicate.
    NoAnnounce(NodeId),
    /// Peer announced more than one predicate.
    DuplicateAnnounce(NodeId),
    /// Peer never answered the challenge.
    NoResponse(NodeId),
    /// Peer's response failed verification or echoed wrong data.
    BadResponse(NodeId),
    /// Peer sent a malformed or unexpected message.
    Protocol(NodeId),
}

/// Wall time key distribution spent inside the signature scheme, summed
/// over the nodes that measured it (and so over the workers that stepped
/// them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KdCryptoTime {
    /// Inside `scheme.sign`, answering challenges (round 2).
    pub sign: Duration,
    /// Inside `scheme.verify`, checking responses (round 3).
    pub verify: Duration,
}

impl AddAssign for KdCryptoTime {
    fn add_assign(&mut self, other: KdCryptoTime) {
        self.sign += other.sign;
        self.verify += other.verify;
    }
}

/// `f()`, its wall time added to `total` when there is one.
fn timed<R>(total: Option<&mut Duration>, f: impl FnOnce() -> R) -> R {
    let Some(total) = total else {
        return f();
    };
    let start = Instant::now();
    let out = f();
    *total += start.elapsed();
    out
}

/// Honest participant in the key distribution protocol (paper Fig. 1).
pub struct KeyDistNode {
    me: NodeId,
    n: usize,
    scheme: Arc<dyn SignatureScheme>,
    keyring: Keyring,
    /// Nonce source; deterministic per node per run.
    rng: fd_crypto::ChaChaDrbg,
    /// Shared predicate table for interning announcements (allocation
    /// optimization only; `None` keeps every candidate private).
    table: Option<Arc<PredicateTable>>,
    /// Candidate predicate per peer (from announcements), and the node's
    /// own at its own index; shared handles when the bytes matched the
    /// intern table. Emptied once the store is built.
    candidates: Vec<Option<Arc<PublicKey>>>,
    /// Nonce issued to each peer that has a candidate (the rest are 0).
    /// Emptied once the store is built.
    nonces: Vec<u64>,
    /// Built at the end of round 3.
    store: Option<KeyStore>,
    anomalies: Vec<KdAnomaly>,
    done: bool,
    /// Time inside the scheme, when measured.
    crypto: Option<KdCryptoTime>,
}

impl KeyDistNode {
    /// Create the honest automaton for node `me` of `n`.
    ///
    /// `run_seed` must be shared by the whole cluster run; nonces derive
    /// from `(run_seed, me)`.
    pub fn new(
        me: NodeId,
        n: usize,
        scheme: Arc<dyn SignatureScheme>,
        keyring: Keyring,
        run_seed: u64,
    ) -> Self {
        let mut material = Vec::new();
        material.extend_from_slice(b"keydist-nonce");
        material.extend_from_slice(&run_seed.to_be_bytes());
        material.extend_from_slice(&me.0.to_be_bytes());
        let mut candidates = vec![None; n];
        // A node trivially accepts its own predicate.
        candidates[me.index()] = Some(Arc::new(keyring.pk.clone()));
        KeyDistNode {
            me,
            n,
            scheme,
            keyring,
            rng: fd_crypto::ChaChaDrbg::from_seed_material(&material),
            table: None,
            candidates,
            nonces: vec![0; n],
            store: None,
            anomalies: Vec::new(),
            done: false,
            crypto: None,
        }
    }

    /// Measure the wall time spent inside the scheme's `sign` and
    /// `verify` ([`KeyDistNode::crypto_time`]). Behaviour is unchanged.
    #[must_use]
    pub fn with_crypto_timing(mut self) -> Self {
        self.crypto = Some(KdCryptoTime::default());
        self
    }

    /// Time spent inside the scheme so far, if measured.
    pub fn crypto_time(&self) -> Option<KdCryptoTime> {
        self.crypto
    }

    /// Attach the cluster's shared [`PredicateTable`]: announced predicate
    /// bytes that match the canonical key reuse its allocation (and the
    /// node's own predicate entry joins the sharing), so an honest run
    /// builds all `n` stores from `O(n)` distinct allocations. Announced
    /// bytes are stored verbatim either way — behaviour is unchanged.
    #[must_use]
    pub fn with_intern_table(mut self, table: Arc<PredicateTable>) -> Self {
        let own = table.intern(self.me, self.keyring.pk.as_bytes().to_vec());
        self.candidates[self.me.index()] = Some(own);
        self.table = Some(table);
        self
    }

    /// Intern announced predicate bytes through the table, if attached.
    fn intern(&self, node: NodeId, bytes: Vec<u8>) -> Arc<PublicKey> {
        match &self.table {
            Some(table) => table.intern(node, bytes),
            None => Arc::new(PublicKey::new(bytes)),
        }
    }

    /// The key store, once the node has finished round 3.
    pub fn store(&self) -> Option<&KeyStore> {
        self.store.as_ref()
    }

    /// Take ownership of the final key store and keyring. With an intern
    /// table attached, a store that accepted exactly the canonical
    /// predicates comes back on the table's shared slots. A node that
    /// never finished round 3 has accepted only its own predicate.
    pub fn into_parts(mut self) -> (KeyStore, Keyring, Vec<KdAnomaly>) {
        let store = match self.store.take() {
            Some(store) => store,
            None => self.build_store(&[]),
        };
        (store, self.keyring, self.anomalies)
    }

    /// The store holding the node's own predicate and the candidate of
    /// every peer `accepted` marks: the intern table's own slots when
    /// that is every node's canonical predicate
    /// ([`KeyStore::global_shared`]), a private table otherwise.
    fn build_store(&self, accepted: &[bool]) -> KeyStore {
        let chosen = |peer: NodeId| {
            let taken = peer == self.me || accepted.get(peer.index()) == Some(&true);
            self.candidates[peer.index()].as_ref().filter(|_| taken)
        };
        if let Some(table) = &self.table {
            let canonical = NodeId::all(self.n).all(|peer| {
                matches!((chosen(peer), table.entry(peer)), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
            });
            if canonical && table.len() == self.n {
                return KeyStore::global_shared(self.me, table);
            }
        }
        let mut store = KeyStore::new(self.n, self.me);
        for peer in NodeId::all(self.n) {
            if let Some(pk) = chosen(peer) {
                store.accept(peer, Arc::clone(pk));
            }
        }
        store
    }

    /// Anomalies recorded against misbehaving peers.
    pub fn anomalies(&self) -> &[KdAnomaly] {
        &self.anomalies
    }

    fn decode(&mut self, env: &Envelope) -> Option<KdMsg> {
        match KdMsg::decode_exact(&env.payload) {
            Ok(m) => Some(m),
            Err(_) => {
                self.anomalies.push(KdAnomaly::Protocol(env.from));
                None
            }
        }
    }
}

impl Node for KeyDistNode {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        match round {
            // Round 0: announce own test predicate to everyone.
            0 => {
                let msg = KdMsg::Announce {
                    pk: self.keyring.pk.as_bytes().to_vec(),
                }
                .encode_to_vec();
                out.broadcast(self.n, self.me, msg);
            }
            // Round 1: record announcements, challenge each announcer.
            1 => {
                let mut batch = Batch::new(inbox.len(), CHALLENGE_LEN);
                for env in inbox {
                    let Some(msg) = self.decode(env) else {
                        continue;
                    };
                    let KdMsg::Announce { pk } = msg else {
                        self.anomalies.push(KdAnomaly::Protocol(env.from));
                        continue;
                    };
                    if self.candidates[env.from.index()].is_some() {
                        self.anomalies.push(KdAnomaly::DuplicateAnnounce(env.from));
                        // First announcement wins; later ones are ignored.
                        continue;
                    }
                    let interned = self.intern(env.from, pk);
                    self.candidates[env.from.index()] = Some(interned);
                    let nonce = self.rng.next_u64();
                    self.nonces[env.from.index()] = nonce;
                    batch.push(
                        env.from,
                        &KdMsg::Challenge {
                            challenger: self.me,
                            challenged: env.from,
                            nonce,
                        },
                    );
                }
                batch.send(self.n, self.me, out);
                for peer in NodeId::all(self.n) {
                    if peer != self.me && self.candidates[peer.index()].is_none() {
                        self.anomalies.push(KdAnomaly::NoAnnounce(peer));
                    }
                }
            }
            // Round 2: sign challenges that name me and the true challenger.
            2 => {
                let response_len = RESPONSE_HEADER_LEN + self.scheme.signature_len();
                let mut batch = Batch::new(inbox.len(), response_len);
                for env in inbox {
                    let Some(msg) = self.decode(env) else {
                        continue;
                    };
                    let KdMsg::Challenge {
                        challenger,
                        challenged,
                        nonce,
                    } = msg
                    else {
                        self.anomalies.push(KdAnomaly::Protocol(env.from));
                        continue;
                    };
                    // Paper Fig. 1: sign iff the challenge contains both my
                    // own name and that of the (actual) challenger.
                    if challenged != self.me || challenger != env.from {
                        self.anomalies.push(KdAnomaly::Protocol(env.from));
                        continue;
                    }
                    let bytes = challenge_bytes(challenger, challenged, nonce);
                    let sig = timed(self.crypto.as_mut().map(|c| &mut c.sign), || {
                        self.scheme.sign(&self.keyring.sk, &bytes)
                    })
                    .expect("own keyring is well-formed");
                    batch.push(
                        env.from,
                        &KdMsg::Response {
                            challenger,
                            challenged,
                            nonce,
                            sig: sig.0,
                        },
                    );
                }
                batch.send(self.n, self.me, out);
            }
            // Round 3: verify responses, accept predicates.
            3 => {
                let mut accepted = vec![false; self.n];
                for env in inbox {
                    let Some(msg) = self.decode(env) else {
                        continue;
                    };
                    let KdMsg::Response {
                        challenger,
                        challenged,
                        nonce,
                        sig,
                    } = msg
                    else {
                        self.anomalies.push(KdAnomaly::Protocol(env.from));
                        continue;
                    };
                    let peer = env.from;
                    let Some(candidate) = self.candidates[peer.index()].as_ref() else {
                        self.anomalies.push(KdAnomaly::Protocol(peer));
                        continue;
                    };
                    let issued = self.nonces[peer.index()];
                    let echoed_ok = challenger == self.me && challenged == peer && nonce == issued;
                    let bytes = challenge_bytes(self.me, peer, issued);
                    let sig_ok = timed(self.crypto.as_mut().map(|c| &mut c.verify), || {
                        self.scheme.verify(candidate, &bytes, &Signature(sig))
                    });
                    if echoed_ok && sig_ok {
                        accepted[peer.index()] = true;
                    } else {
                        self.anomalies.push(KdAnomaly::BadResponse(peer));
                    }
                }
                for peer in NodeId::all(self.n) {
                    if peer != self.me
                        && !accepted[peer.index()]
                        && self.candidates[peer.index()].is_some()
                        && !self
                            .anomalies
                            .iter()
                            .any(|a| matches!(a, KdAnomaly::BadResponse(p) if *p == peer))
                    {
                        self.anomalies.push(KdAnomaly::NoResponse(peer));
                    }
                }
                self.store = Some(self.build_store(&accepted));
                self.candidates = Vec::new();
                self.nonces = Vec::new();
                self.done = true;
            }
            _ => {
                for env in inbox {
                    self.anomalies.push(KdAnomaly::Protocol(env.from));
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

impl core::fmt::Debug for KeyDistNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("KeyDistNode")
            .field("me", &self.me)
            .field(
                "accepted",
                &self.store.as_ref().map(KeyStore::accepted_count),
            )
            .field("anomalies", &self.anomalies.len())
            .finish()
    }
}

/// Number of automaton rounds the protocol needs (sends happen in rounds
/// 0–2; round 3 only receives), i.e. 3 communication rounds as the paper
/// counts them.
pub const KEYDIST_ROUNDS: u32 = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use fd_crypto::SchnorrScheme;
    use fd_simnet::SyncNetwork;
    use std::any::Any;

    fn run_honest(n: usize) -> Vec<KeyDistNode> {
        let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                let ring = Keyring::generate(scheme.as_ref(), me, 42);
                Box::new(KeyDistNode::new(me, n, Arc::clone(&scheme), ring, 42)) as Box<dyn Node>
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(KEYDIST_ROUNDS);
        net.into_nodes()
            .into_iter()
            .map(|b| {
                *(b as Box<dyn Any>)
                    .downcast::<KeyDistNode>()
                    .expect("KeyDistNode")
            })
            .collect()
    }

    #[test]
    fn honest_run_accepts_everyone() {
        let nodes = run_honest(5);
        for node in &nodes {
            assert_eq!(node.store().expect("finished").accepted_count(), 5);
            assert!(node.anomalies().is_empty());
        }
    }

    #[test]
    fn message_count_is_3n_n_minus_1() {
        let n = 6;
        let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                let ring = Keyring::generate(scheme.as_ref(), me, 7);
                Box::new(KeyDistNode::new(me, n, Arc::clone(&scheme), ring, 7)) as Box<dyn Node>
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(KEYDIST_ROUNDS);
        assert_eq!(net.stats().messages_total, 3 * n * (n - 1));
        // Sends happen in exactly rounds 0,1,2: 3 communication rounds.
        assert_eq!(net.stats().per_round.iter().filter(|&&c| c > 0).count(), 3);
    }

    #[test]
    fn an_honest_round_parks_one_record_per_node() {
        // Announcements are broadcasts, challenges and responses
        // scatters: each round parks n records, not n(n − 1).
        let n = 64;
        let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
        let nodes: Vec<Box<dyn Node>> = NodeId::all(n)
            .map(|me| {
                let ring = Keyring::generate(scheme.as_ref(), me, 5);
                Box::new(KeyDistNode::new(me, n, Arc::clone(&scheme), ring, 5)) as Box<dyn Node>
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        for round in 0..3 {
            net.step();
            assert_eq!(net.parked_records(), n, "round {round}");
            assert_eq!(net.stats().per_round[round], n * (n - 1), "round {round}");
        }
        net.step();
        assert_eq!(net.parked_records(), 0);
        assert!(net.all_done());
    }

    #[test]
    fn stores_agree_on_correct_nodes_g2() {
        let nodes = run_honest(4);
        for a in &nodes {
            for b in &nodes {
                for peer in NodeId::all(4) {
                    assert_eq!(
                        a.store().expect("finished").accepted(peer),
                        b.store().expect("finished").accepted(peer),
                        "stores disagree on {peer}"
                    );
                }
            }
        }
    }

    /// A key distribution node that keeps a handle to every payload it
    /// sends, by round.
    struct Tap {
        inner: KeyDistNode,
        sent: Vec<Vec<Payload>>,
    }

    impl Node for Tap {
        fn id(&self) -> NodeId {
            self.inner.id()
        }
        fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
            let mut own = Outbox::new();
            self.inner.on_round(round, inbox, &mut own);
            let msgs = own.into_messages();
            self.sent
                .push(msgs.iter().map(|(_, p)| p.clone()).collect());
            for (to, payload) in msgs {
                out.send(to, payload);
            }
        }
        fn is_done(&self) -> bool {
            self.inner.is_done()
        }
    }

    #[test]
    fn a_node_round_is_one_exactly_sized_buffer() {
        let n = 5;
        let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
        let nodes: Vec<Box<dyn Node>> = NodeId::all(n)
            .map(|me| {
                let ring = Keyring::generate(scheme.as_ref(), me, 3);
                Box::new(Tap {
                    inner: KeyDistNode::new(me, n, Arc::clone(&scheme), ring, 3),
                    sent: Vec::new(),
                }) as Box<dyn Node>
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(KEYDIST_ROUNDS);
        let response_len = RESPONSE_HEADER_LEN + scheme.signature_len();
        for node in net.into_nodes() {
            let tap = (node as Box<dyn Any>).downcast::<Tap>().unwrap();
            for (round, len) in [(1, CHALLENGE_LEN), (2, response_len)] {
                let batch = &tap.sent[round];
                assert_eq!(batch.len(), n - 1);
                for payload in batch {
                    assert!(payload.shares_buffer_with(&batch[0]), "round {round}");
                    assert_eq!(payload.len(), len, "round {round}");
                }
            }
        }
    }

    #[test]
    fn corrupting_one_batched_message_leaves_its_siblings_intact() {
        // Node 0's challenge to node 1 loses its last nonce byte; the
        // challenges to 2..4 are slices of the same buffer.
        let n = 5;
        let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
        let nodes: Vec<Box<dyn Node>> = NodeId::all(n)
            .map(|me| {
                let ring = Keyring::generate(scheme.as_ref(), me, 9);
                Box::new(KeyDistNode::new(me, n, Arc::clone(&scheme), ring, 9)) as Box<dyn Node>
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.set_fault_plan(fd_simnet::fault::FaultPlan::new().with(
            1,
            NodeId(0),
            NodeId(1),
            fd_simnet::fault::LinkFault::Corrupt {
                offset: CHALLENGE_LEN - 1,
                mask: 0x01,
            },
        ));
        net.run_until_done(KEYDIST_ROUNDS);
        for (i, node) in net.into_nodes().into_iter().enumerate() {
            let node = (node as Box<dyn Any>).downcast::<KeyDistNode>().unwrap();
            if i == 0 {
                assert_eq!(node.anomalies(), [KdAnomaly::BadResponse(NodeId(1))]);
                assert_eq!(node.store().expect("finished").accepted_count(), n - 1);
            } else {
                assert!(node.anomalies().is_empty(), "node {i}");
                assert_eq!(
                    node.store().expect("finished").accepted_count(),
                    n,
                    "node {i}"
                );
            }
        }
    }

    #[test]
    fn challenge_bytes_bind_names_and_nonce() {
        let base = challenge_bytes(NodeId(1), NodeId(2), 99);
        assert_ne!(base, challenge_bytes(NodeId(2), NodeId(1), 99));
        assert_ne!(base, challenge_bytes(NodeId(1), NodeId(2), 98));
        assert_ne!(base, challenge_bytes(NodeId(1), NodeId(3), 99));
        // The layout signed since the first release: domain, then the
        // codec's big-endian fields.
        let mut w = Writer::new();
        w.put_raw(b"fd-la-challenge-v1");
        NodeId(1).encode(&mut w);
        NodeId(2).encode(&mut w);
        w.put_u64(99);
        assert_eq!(base[..], w.into_bytes()[..]);
    }

    #[test]
    fn msg_codec_round_trips() {
        for msg in [
            KdMsg::Announce { pk: vec![1, 2, 3] },
            KdMsg::Challenge {
                challenger: NodeId(1),
                challenged: NodeId(2),
                nonce: 0xdeadbeef,
            },
            KdMsg::Response {
                challenger: NodeId(1),
                challenged: NodeId(2),
                nonce: 7,
                sig: vec![9; 12],
            },
        ] {
            let bytes = msg.encode_to_vec();
            assert_eq!(KdMsg::decode_exact(&bytes).unwrap(), msg);
        }
        assert!(KdMsg::decode_exact(&[0xff, 0, 0]).is_err());
    }
}
