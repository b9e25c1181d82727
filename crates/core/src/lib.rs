//! # fd-core
//!
//! The primary contribution of
//! [Borcherding, *Efficient Failure Discovery with Limited Authentication*,
//! ICDCS 1995](https://doi.org/10.1109/ICDCS.1995.500023), implemented as a
//! library of protocol automata over [`fd_simnet`]:
//!
//! * [`localauth`] — **local authentication** (paper §3): the 3-round
//!   challenge–response key distribution protocol of Fig. 1, which
//!   establishes per-node key stores without any trusted dealer, at
//!   `3·n·(n−1)` messages, tolerating *any* number of byzantine nodes.
//! * [`chain`] — chain signatures with the paper's §4 name-embedding rule
//!   and the Theorem 4 verification discipline (assignment mismatches are
//!   *discovered*, never silent).
//! * [`fd`] — Failure Discovery protocols: the authenticated chain protocol
//!   of Fig. 2 (`n−1` messages), the non-authenticated witness baseline
//!   (`O(n·t)` messages), and a small-value-range variant.
//! * [`ba`] — Byzantine Agreement on top: the FD→BA extension whose
//!   failure-free runs cost exactly the FD protocol's messages, plus
//!   Dolev–Strong and EIG baselines.
//! * [`adversary`] — a library of byzantine behaviours (key equivocation,
//!   key sharing, value equivocation, chain tampering, forgery, silence)
//!   used to validate Theorems 2 and 4 experimentally.
//! * [`props`] — executable statements of the paper's properties F1–F3 and
//!   G1–G3, plus the degradation contract of the §7 extension.
//! * [`epoch`] — key rotation: re-running local authentication in epochs,
//!   with cross-epoch replays discovered by the unchanged Theorem 4
//!   machinery.
//! * [`runner`] — cluster orchestration over the pluggable
//!   [`runner::NetworkDriver`] seam: every protocol runs on the lockstep
//!   engine (the paper's §2 timing) or the discrete-event engine
//!   (latency models, per-link overrides, adversarial schedules).
//! * [`spec`] — the unified execution API: one typed [`RunSpec`] per
//!   protocol run, executed via [`runner::Cluster::run`], plus
//!   [`Session`], which lazily runs the key distribution once and
//!   amortizes it across many runs (the paper's §6 economics as an
//!   object). Adversaries are declarative values
//!   ([`adversary::AdversarySpec`]), not closures.
//! * [`wire`] — wire schema v1: the versioned, dependency-free JSON
//!   encoding of requests ([`spec::SpecBuilder`]) and reports, shared by
//!   `lafd run --spec`, `lafd serve`, and the remote sweep client.
//! * [`service`] — the sharded session service behind `lafd serve`:
//!   pre-warmed [`Session`]s keyed by `(n, scheme)` reusing keydist,
//!   predicate table, and verification cache across requests, with
//!   bounded LRU eviction and graceful drain.
//! * [`deploy`] — the deployment layer behind `lafd cluster`: a
//!   discovery registry (register/lookup/barrier/teardown over framed
//!   wire-v1 JSON), the per-worker lifecycle over the non-blocking
//!   socket mesh, and the aggregation of per-worker summaries back into
//!   a byte-identical [`runner::FdRunReport`].
//! * [`metrics`] — the paper's closed-form message-complexity
//!   expressions (`3n(n−1)` key distribution, `n−1` chain FD,
//!   `(t+2)(n−1)` non-authenticated, the §6 amortization crossover)
//!   that every run and experiment table is checked against.
//! * [`sweep`] — declarative scenario matrices (`{engine × latency ×
//!   protocol × n × t × adversary × scheme × seed}`) fanned out across a
//!   thread pool, with formula checks, outcome classification, and
//!   byte-deterministic reports.
//! * [`schedsearch`] — adversarial scheduler search: hunts for the
//!   delivery schedule within a latency envelope that maximizes
//!   disagreement, emitting replayable schedule certificates — the
//!   worst-case-adversary counterpart to the sweep's sampled timing.
//! * [`obs`] — zero-dependency observability: phase spans (keydist,
//!   per-round delivery, verification, report assembly) and counters
//!   (verify-cache hits/misses, predicate interning, queue depths), with
//!   deterministic virtual-tick timestamps on the event engine and
//!   wall-clock on the sync engine; exports Chrome trace-event JSON and
//!   folded stacks.
//!
//! ## Quickstart
//!
//! ```
//! use fd_core::runner::Cluster;
//! use fd_core::spec::{Protocol, RunSpec, Session};
//! use std::sync::Arc;
//!
//! // 7 nodes tolerating t = 2 faults, all honest, tiny test crypto.
//! let cluster = Cluster::new(7, 2, Arc::new(fd_crypto::SchnorrScheme::test_tiny()), 42);
//! let mut session = Session::new(cluster);
//!
//! // One-time key distribution (paper Fig. 1): 3·n·(n−1) messages.
//! assert_eq!(session.keydist().stats.messages_total, 3 * 7 * 6);
//!
//! // Arbitrarily many cheap failure-discovery runs (paper Fig. 2): n−1 each.
//! let run = session.run(&RunSpec::new(Protocol::ChainFd, b"attack at dawn".to_vec()));
//! assert_eq!(run.stats.messages_total, 6);
//! assert!(run.all_decided(b"attack at dawn"));
//! assert_eq!(session.keydist_runs(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod ba;
pub mod chain;
pub mod deploy;
pub mod epoch;
pub mod fd;
pub mod keys;
pub mod localauth;
pub mod metrics;
pub mod obs;
pub mod props;
pub mod runner;
pub mod schedsearch;
pub mod service;
pub mod spec;
pub mod sweep;
pub mod wire;

mod outcome;
mod pool;

pub use adversary::{AdversaryKind, AdversarySpec};
pub use keys::{KeyStore, Keyring};
pub use outcome::{DiscoveryReason, Outcome};
pub use spec::{Protocol, RunSpec, Session};
