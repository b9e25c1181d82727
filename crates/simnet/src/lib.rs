//! # fd-simnet
//!
//! The distributed-system substrate for the
//! [Borcherding 1995](https://doi.org/10.1109/ICDCS.1995.500023)
//! reproduction: a deterministic round-synchronous network simulator, a
//! discrete-event simulator, and one *real* socket transport that drives
//! the same protocol automata.
//!
//! ## The model (paper §2)
//!
//! * `n` fully interconnected nodes communicating in **synchronous rounds**;
//!   in each round a node may send messages and receives everything sent to
//!   it in that round.
//! * **N1** — messages are transmitted reliably in bounded time. The
//!   simulator delivers every message exactly one round after it is sent
//!   (a [`fault::FaultPlan`] can deliberately break N1 in tests).
//! * **N2** — the receiver can identify the *immediate sender*. The
//!   transport stamps [`Envelope::from`]; payloads cannot spoof it.
//!
//! Protocols are implemented as [`Node`] automata and run unchanged on
//! [`SyncNetwork`] (deterministic, used for all experiment tables), the
//! [`EventNetwork`] discrete-event simulator (virtual time, delays drawn
//! inside a [`LatencySpec`]'s envelope, per-link overrides via
//! [`LinkLatencySpec`], timing faults, and the per-message delay-override hook behind the
//! adversarial scheduler search's replayable certificates), and the
//! [`transport::nonblocking`] TCP mesh (in process as
//! [`transport::NbCluster`], across processes under `lafd cluster`).
//!
//! ## Example
//!
//! ```
//! use fd_simnet::{Envelope, Node, NodeId, Outbox, SyncNetwork};
//!
//! /// Every node greets every other node in round 0 and counts replies.
//! struct Greeter { id: NodeId, n: usize, greetings: usize }
//!
//! impl Node for Greeter {
//!     fn id(&self) -> NodeId { self.id }
//!     fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
//!         if round == 0 {
//!             for peer in NodeId::all(self.n) {
//!                 if peer != self.id { out.send(peer, b"hi".to_vec()); }
//!             }
//!         }
//!         self.greetings += inbox.len();
//!     }
//!     fn is_done(&self) -> bool { self.greetings + 1 >= self.n }
//! }
//!
//! let nodes: Vec<Box<dyn Node>> = (0..4)
//!     .map(|i| Box::new(Greeter { id: NodeId(i), n: 4, greetings: 0 }) as Box<dyn Node>)
//!     .collect();
//! let mut net = SyncNetwork::new(nodes);
//! net.run_until_done(10);
//! assert_eq!(net.stats().messages_total, 12); // n(n-1)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod delivery;
mod envelope;
pub mod event;
pub mod fault;
mod id;
mod network;
mod node;
mod payload;
mod stats;
pub mod transport;

pub use delivery::MAX_NODES;
pub use envelope::Envelope;
pub use event::{
    DelayOverrides, Engine, EventNetwork, LatencySpec, LinkLatencySpec, SchedCounters,
};
pub use id::NodeId;
pub use network::SyncNetwork;
pub use node::{Node, Outbox};
pub use payload::Payload;
pub use stats::NetStats;
