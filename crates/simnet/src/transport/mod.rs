//! The real-socket transport driving the same [`crate::Node`] automata.
//!
//! The simulators ([`crate::SyncNetwork`], [`crate::EventNetwork`]) are the
//! reference executors used by every experiment table; this module runs
//! the unchanged automata over real localhost/LAN sockets:
//!
//! * [`nonblocking`] — a full TCP mesh per node driven by a
//!   single-threaded readiness loop over nonblocking `TcpStream`s, with
//!   per-peer framed buffers, simulator-matching early termination, and an
//!   optional wall-clock delay shim timed by a [`crate::LatencySpec`]. The
//!   multi-process `lafd cluster` workers run on
//!   [`MeshPeers`]/[`NonblockingMesh`] directly; [`NbCluster`] is the
//!   in-process harness (one thread per node) behind the cross-validation
//!   tests and the F3 wall-clock experiment.
//! * [`chaos`] — deterministic fault injection and the retry policy that
//!   heals injected and real transient faults alike.
//!
//! N2 is enforced the same way the simulators do: the receiver labels
//! each message with the identity bound to the *connection* it arrived
//! on, never with anything the payload claims. Every environmental
//! failure surfaces as a typed [`TransportError`], never a panic inside a
//! node thread and never a silent hang.

pub mod chaos;
pub mod nonblocking;

pub use chaos::{ChaosInjector, ChaosPhase, ChaosSpec, RetryCtx, RetryPolicy};
pub use nonblocking::{DelayShim, MeshPeers, MeshRun, NbCluster, NonblockingMesh};

use crate::{NetStats, Node, NodeId};
use std::time::Duration;

/// Default mesh-setup and no-progress deadline: generous enough for slow
/// CI machines, short enough that a lost peer turns into a loud
/// [`TransportError`] instead of a silent hang.
pub const DEFAULT_IO_DEADLINE: Duration = Duration::from_secs(60);

/// A typed transport failure: what went wrong, where, and while doing
/// what. Lost peers and expired deadlines surface as values carried into
/// [`ClusterReport::errors`] (or returned by the nonblocking mesh) instead
/// of panics inside node threads, so an orchestrator can report them
/// loudly and exit nonzero rather than hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The node could not bind its listening socket.
    Bind {
        /// The node that failed to bind.
        node: NodeId,
        /// The address it tried to bind.
        addr: String,
        /// The underlying I/O error, stringified.
        error: String,
    },
    /// A connect to a peer failed (refused, reset, unreachable).
    Connect {
        /// The dialing node.
        node: NodeId,
        /// The peer it dialed.
        peer: NodeId,
        /// The underlying I/O error, stringified.
        error: String,
    },
    /// The identity handshake on a fresh connection broke (reset
    /// mid-handshake, EOF before the id, malformed id frame).
    Handshake {
        /// The node running the handshake.
        node: NodeId,
        /// The peer being handshaken, if known (`None` on the accept side
        /// before the id arrived).
        peer: Option<NodeId>,
        /// What broke.
        detail: String,
    },
    /// A socket operation failed.
    Io {
        /// The node that hit the error.
        node: NodeId,
        /// What the node was doing (`"connect peer 3"`, `"send frame"`, …).
        context: String,
        /// The underlying I/O error, stringified (I/O errors are not
        /// `Clone`).
        error: String,
    },
    /// A peer's connection closed before the run finished.
    PeerLost {
        /// The node that noticed.
        node: NodeId,
        /// The vanished peer.
        peer: NodeId,
        /// The round the node was executing when the peer vanished.
        round: u32,
    },
    /// No progress within the I/O deadline.
    Deadline {
        /// The node that timed out.
        node: NodeId,
        /// What the node was waiting for (`"peer connections"`,
        /// `"round 3 markers"`, …).
        waiting: String,
        /// The configured deadline that expired.
        after: Duration,
    },
    /// A peer violated the transport protocol (bad handshake, malformed
    /// frame, inconsistent termination vote).
    Protocol {
        /// The node that detected the violation.
        node: NodeId,
        /// Human-readable description.
        detail: String,
    },
    /// A node's worker thread panicked instead of returning.
    WorkerPanic {
        /// The slot whose thread died.
        node: NodeId,
    },
    /// A retry budget ran out: the operation failed transiently on every
    /// attempt the [`chaos::RetryPolicy`] allowed.
    Exhausted {
        /// The retrying node.
        node: NodeId,
        /// What was being retried (`"registry register"`,
        /// `"mesh connect peer 3"`, …).
        context: String,
        /// How many attempts were made.
        attempts: u32,
        /// The final attempt's error, stringified.
        last: String,
    },
    /// A chaos kill rule fired: the worker must die at this phase with
    /// crash semantics (abrupt socket drop, exit code
    /// [`chaos::CHAOS_KILL_EXIT`]).
    Killed {
        /// The victim.
        node: NodeId,
        /// The phase label the kill fired at (`"keydist"`, `"round:3"`,
        /// `"teardown"`).
        phase: String,
    },
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::Bind { node, addr, error } => {
                write!(f, "{node}: could not bind {addr}: {error}")
            }
            TransportError::Connect { node, peer, error } => {
                write!(f, "{node}: could not connect to {peer}: {error}")
            }
            TransportError::Handshake { node, peer, detail } => match peer {
                Some(peer) => write!(f, "{node}: handshake with {peer} broke: {detail}"),
                None => write!(f, "{node}: inbound handshake broke: {detail}"),
            },
            TransportError::Io {
                node,
                context,
                error,
            } => {
                write!(f, "{node}: i/o error while {context}: {error}")
            }
            TransportError::PeerLost { node, peer, round } => {
                write!(f, "{node}: lost connection to {peer} in round {round}")
            }
            TransportError::Deadline {
                node,
                waiting,
                after,
            } => {
                write!(
                    f,
                    "{node}: no progress waiting for {waiting} within {after:?}"
                )
            }
            TransportError::Protocol { node, detail } => {
                write!(f, "{node}: transport protocol violation: {detail}")
            }
            TransportError::WorkerPanic { node } => {
                write!(f, "{node}: worker thread panicked")
            }
            TransportError::Exhausted {
                node,
                context,
                attempts,
                last,
            } => {
                write!(
                    f,
                    "{node}: retry budget exhausted after {attempts} attempts while {context}: {last}"
                )
            }
            TransportError::Killed { node, phase } => {
                write!(f, "{node}: chaos kill at phase {phase}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// Wrap an I/O error with its node and context.
    pub fn io(node: NodeId, context: impl Into<String>, error: &std::io::Error) -> Self {
        TransportError::Io {
            node,
            context: context.into(),
            error: error.to_string(),
        }
    }
}

/// Result of running a cluster to completion on a real transport.
pub struct ClusterReport {
    /// The node automata of the slots that finished, in id order (slots
    /// whose thread failed are absent — see [`ClusterReport::errors`]).
    pub nodes: Vec<Box<dyn Node>>,
    /// Aggregated message statistics (protocol messages only; transport
    /// control frames such as round markers are excluded so counts remain
    /// comparable with the simulator).
    pub stats: NetStats,
    /// Rounds executed.
    pub rounds: u32,
    /// Transport failures, one per node that could not finish. Empty on a
    /// clean run; inspect (or [`ClusterReport::ok`]) before trusting
    /// `nodes`/`stats`.
    pub errors: Vec<TransportError>,
}

impl ClusterReport {
    /// `Ok` iff every node finished cleanly; otherwise the first failure.
    pub fn ok(&self) -> Result<(), &TransportError> {
        match self.errors.first() {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

impl core::fmt::Debug for ClusterReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ClusterReport")
            .field("n", &self.nodes.len())
            .field("rounds", &self.rounds)
            .field("messages", &self.stats.messages_total)
            .field("errors", &self.errors.len())
            .finish()
    }
}
