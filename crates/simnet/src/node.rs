//! The protocol automaton abstraction.

use crate::{Envelope, NodeId, Payload};
use std::any::Any;

/// One queued send operation. Broadcasts stay *compressed* — one op with a
/// shared payload handle instead of `n − 1` expanded messages — so a
/// transport that understands fan-out (both in-process engines) can move
/// a whole broadcast as a single delivery record. Transports that want the flat per-message view call
/// [`Outbox::into_messages`], which expands ops in exactly the order the
/// legacy per-message outbox produced.
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

    /// Number of queued messages (broadcasts counted expanded).
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` if nothing was queued.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Drain the queued messages (transport-internal). Broadcast ops expand
    /// to `(peer, payload)` pairs in ascending peer order, skipping the
    /// sender — the exact order the per-message outbox used to produce.
    pub fn into_messages(self) -> Vec<(NodeId, Payload)> {
        let mut msgs = Vec::with_capacity(self.count);
        for op in self.ops {
            match op {
                OutOp::Send(to, payload) => msgs.push((to, payload)),
                OutOp::Broadcast { n, skip, payload } => {
                    for peer in NodeId::all(n) {
                        if peer != skip {
                            msgs.push((peer, payload.clone()));
                        }
                    }
                }
            }
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
