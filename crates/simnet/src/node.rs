//! The protocol automaton abstraction.

use crate::{Envelope, NodeId, Payload};
use std::any::Any;

/// One queued send operation. Broadcasts and scatters stay *compressed* —
/// one op with a shared payload handle instead of `n − 1` expanded
/// messages — so a transport that understands fan-out (both in-process
/// engines) can move a whole broadcast or scatter as a single delivery
/// record. Transports that want the flat per-message view call
/// [`Outbox::into_messages`], which expands ops in exactly the order the
/// per-message sends they stand for would have produced.
#[derive(Debug, Clone)]
pub(crate) enum OutOp {
    /// A single message to one destination.
    Send(NodeId, Payload),
    /// A shared payload for every node of an `n`-node system except `skip`.
    Broadcast {
        n: usize,
        skip: NodeId,
        payload: Payload,
    },
    /// For the k-th node of an `n`-node system other than `skip`, the k-th
    /// window of the shared buffer: `first.stride(k)`.
    Scatter {
        n: usize,
        skip: NodeId,
        first: Payload,
    },
}

impl OutOp {
    /// Hand each message the op stands for to `f`: a broadcast's or a
    /// scatter's in ascending peer order, skipping the sender.
    pub(crate) fn for_each_message(self, mut f: impl FnMut(NodeId, Payload)) {
        match self {
            OutOp::Send(to, payload) => f(to, payload),
            OutOp::Broadcast { n, skip, payload } => {
                for peer in NodeId::all(n).filter(|&peer| peer != skip) {
                    f(peer, payload.clone());
                }
            }
            OutOp::Scatter { n, skip, first } => {
                let peers = NodeId::all(n).filter(|&peer| peer != skip);
                for (k, peer) in peers.enumerate() {
                    f(peer, first.stride(k));
                }
            }
        }
    }
}

/// Messages queued by a node during one round.
#[derive(Debug, Default)]
pub struct Outbox {
    ops: Vec<OutOp>,
    /// Expanded message count across all ops.
    count: usize,
}

impl Outbox {
    /// Fresh empty outbox.
    pub fn new() -> Self {
        Outbox::default()
    }

    /// Queue `payload` for delivery to `to` at the start of the next round.
    pub fn send(&mut self, to: NodeId, payload: impl Into<Payload>) {
        self.ops.push(OutOp::Send(to, payload.into()));
        self.count += 1;
    }

    /// Queue `payload` for every node of an `n`-node system except `me`.
    ///
    /// The bytes are shared: one [`Payload`] buffer is created and every
    /// recipient's queued message is a handle to it, so an `n`-way
    /// broadcast costs one allocation instead of `n − 1` copies (pass an
    /// owned `Vec<u8>` to avoid even the initial copy). The op itself also
    /// stays compressed until a transport expands it.
    pub fn broadcast(&mut self, n: usize, me: NodeId, payload: impl Into<Payload>) {
        self.count += n - usize::from(me.index() < n);
        self.ops.push(OutOp::Broadcast {
            n,
            skip: me,
            payload: payload.into(),
        });
    }

    /// Queue, for the k-th node of an `n`-node system other than `me` (in
    /// ascending id order), the k-th `len`-byte window of `buf`: the same
    /// messages as one [`Outbox::send`] per peer of `buf`'s consecutive
    /// windows, kept as one op over one shared buffer, so an engine parks
    /// it as one record.
    ///
    /// # Panics
    ///
    /// Panics unless `buf` holds exactly one window per peer.
    pub fn scatter(&mut self, n: usize, me: NodeId, buf: impl Into<Payload>, len: usize) {
        let buf = buf.into();
        let peers = n - usize::from(me.index() < n);
        assert_eq!(
            peers.checked_mul(len),
            Some(buf.len()),
            "a scatter to {peers} peers of {len}-byte windows needs {peers} × {len} bytes, got {}",
            buf.len()
        );
        self.count += peers;
        self.ops.push(OutOp::Scatter {
            n,
            skip: me,
            // A scatter to no peer has no window to keep.
            first: buf.slice(..len.min(buf.len())),
        });
    }

    /// Number of queued messages (broadcasts and scatters counted expanded).
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` if nothing was queued.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Drain the queued messages (transport-internal). Broadcast and
    /// scatter ops expand to `(peer, payload)` pairs in ascending peer
    /// order, skipping the sender — the order of the per-message sends
    /// they stand for.
    pub fn into_messages(self) -> Vec<(NodeId, Payload)> {
        let mut msgs = Vec::with_capacity(self.count);
        for op in self.ops {
            op.for_each_message(|to, payload| msgs.push((to, payload)));
        }
        msgs
    }

    /// Drain the raw ops (engine-internal; keeps broadcasts compressed).
    pub(crate) fn into_ops(self) -> Vec<OutOp> {
        self.ops
    }
}

/// A protocol automaton driven in synchronous rounds.
///
/// The same automaton runs on [`crate::SyncNetwork`], [`crate::EventNetwork`]
/// and the non-blocking socket mesh ([`crate::transport::nonblocking`]). In
/// each round the engine delivers everything sent to this node in the
/// previous round (`inbox`), and the node may queue outgoing messages
/// (`out`). Determinism requirement: `on_round` must be a pure function of
/// construction parameters, rounds seen so far, and inbox contents — all
/// experiment tables rely on replayability. `Send` is load-bearing:
/// [`crate::SyncNetwork::set_workers`] steps nodes on other threads.
///
/// Protocols expose their outcome through their concrete type after the
/// run. `Any` is a supertrait, so a caller upcasts and downcasts:
/// `(node as Box<dyn Any>).downcast::<T>()` for an owned node, and
/// `(&*node as &dyn Any).downcast_ref::<T>()` for a borrowed one.
/// Dereference a `Box<dyn Node>` before upcasting a borrow: `&Box<dyn Node>`
/// coerces to `&dyn Any` as the box itself, and that never downcasts to `T`.
pub trait Node: Any + Send {
    /// This node's identity. Must match its index in the transport.
    fn id(&self) -> NodeId;

    /// Handle one synchronous round.
    ///
    /// `round` starts at 0 (in which every inbox is empty and initiators
    /// send their first messages).
    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox);

    /// `true` once this node will neither send nor change state again.
    /// Transports may stop early when all nodes are done.
    fn is_done(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects_in_order() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.send(NodeId(1), vec![1]);
        out.send(NodeId(2), vec![2]);
        assert_eq!(out.len(), 2);
        let msgs = out.into_messages();
        assert_eq!(msgs[0].0, NodeId(1));
        assert_eq!(msgs[1].0, NodeId(2));
    }

    #[test]
    fn broadcast_skips_self() {
        let mut out = Outbox::new();
        out.broadcast(4, NodeId(2), b"x");
        assert_eq!(out.len(), 3);
        let targets: Vec<NodeId> = out.into_messages().into_iter().map(|(to, _)| to).collect();
        assert_eq!(targets, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn broadcast_from_outside_the_system_reaches_everyone() {
        // An out-of-range `me` never matches a peer, so all `n` expand.
        let mut out = Outbox::new();
        out.broadcast(3, NodeId(9), b"x");
        assert_eq!(out.len(), 3);
        assert_eq!(out.into_messages().len(), 3);
    }

    #[test]
    fn scatter_hands_each_peer_its_window() {
        let mut out = Outbox::new();
        out.scatter(4, NodeId(1), vec![10, 11, 20, 21, 30, 31], 2);
        assert_eq!(out.len(), 3);
        let msgs = out.into_messages();
        let targets: Vec<u16> = msgs.iter().map(|(to, _)| to.0).collect();
        assert_eq!(targets, [0, 2, 3]);
        let windows: Vec<&[u8]> = msgs.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(windows, [&[10, 11][..], &[20, 21], &[30, 31]]);
        assert!(msgs[2].1.shares_buffer_with(&msgs[0].1));
    }

    #[test]
    #[should_panic(expected = "needs 3 × 2 bytes")]
    fn a_scatter_needs_one_window_per_peer() {
        Outbox::new().scatter(4, NodeId(0), vec![0; 5], 2);
    }

    #[test]
    fn mixed_ops_expand_in_queue_order() {
        let mut out = Outbox::new();
        out.send(NodeId(3), vec![7]);
        out.broadcast(3, NodeId(0), vec![8]);
        out.send(NodeId(0), vec![9]);
        assert_eq!(out.len(), 4);
        let targets: Vec<NodeId> = out.into_messages().into_iter().map(|(to, _)| to).collect();
        assert_eq!(targets, vec![NodeId(3), NodeId(1), NodeId(2), NodeId(0)]);
    }
}
