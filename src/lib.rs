//! # local-auth-fd
//!
//! A production-quality Rust reproduction of
//! **Malte Borcherding, "Efficient Failure Discovery with Limited
//! Authentication", ICDCS 1995**.
//!
//! The paper introduces *local authentication*: a 3-round, `3n(n−1)`-message
//! key distribution protocol that works with **any** number of byzantine
//! nodes and no trusted dealer, after which the authenticated
//! failure-discovery protocol of Hadzilacos & Halpern runs at `n − 1`
//! messages per agreement instead of the non-authenticated `O(n·t)`.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`bigint`] — from-scratch big integers (the numeric substrate).
//! * [`crypto`] — SHA-256, ChaCha20 DRBG, Schnorr, DSA and RSA signatures
//!   (the paper's S1–S3 assumption, instantiated — DSA and RSA are the two
//!   schemes the paper cites by name).
//! * [`simnet`] — the round-synchronous network model (N1/N2) with two
//!   deterministic simulators (lockstep rounds and discrete events over
//!   virtual time) plus thread and TCP transports.
//! * [`core`] — the paper's contribution: local authentication (§3,
//!   Fig. 1), chain signatures (§4), failure-discovery protocols (§5,
//!   Fig. 2), BA extensions (Dolev–Strong, EIG, Phase King, degradable
//!   agreement; §7), key-rotation epochs, adversaries (byzantine,
//!   benign-fault wrappers, rushing, declarative `AdversarySpec`s), the
//!   closed-form message formulas, the unified `RunSpec`/`Session`
//!   execution API (one typed entry point per protocol run, keydist
//!   amortized across a session), the parallel scenario-sweep engine,
//!   and the adversarial scheduler search with replayable schedule
//!   certificates.
//!
//! `docs/ARCHITECTURE.md` in the repository maps the crates onto the
//! paper's sections and walks one message through the engines.
//!
//! ## Quickstart
//!
//! ```
//! use local_auth_fd::core::runner::Cluster;
//! use local_auth_fd::core::spec::{Protocol, RunSpec, Session};
//! use std::sync::Arc;
//!
//! let cluster = Cluster::new(7, 2, Arc::new(local_auth_fd::crypto::SchnorrScheme::test_tiny()), 1);
//! let mut session = Session::new(cluster);                  // keydist once: 3n(n-1)
//! let run = session.run(&RunSpec::new(Protocol::ChainFd, b"go".to_vec())); // each: n-1
//! assert!(run.all_decided(b"go"));
//! assert_eq!(session.keydist_runs(), 1);
//! ```
//!
//! See `examples/` for runnable scenarios. The paper's quantitative claims
//! are integration tests; the README maps each section to its test
//! (`tests/paper_claims.rs` holds the ones with no other home).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fd_bigint as bigint;
pub use fd_core as core;
pub use fd_crypto as crypto;
pub use fd_simnet as simnet;

/// Crate version (workspace-wide).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    use crate::core::runner::Cluster;
    use crate::core::spec::{Protocol, RunSpec, Session};
    use std::sync::Arc;

    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }

    /// §5: over a 100-run workload where 99 runs carry the default value,
    /// the small-range protocol sends fewer messages than chain FD.
    #[test]
    fn t5_small_range_wins_at_high_default_share() {
        let scheme = Arc::new(crate::crypto::SchnorrScheme::test_tiny());
        let mut session = Session::new(Cluster::new(6, 1, scheme, 5));
        let (mut small_range, mut chain_fd) = (0usize, 0usize);
        for k in 0..100usize {
            let v = if k < 99 { vec![0] } else { vec![1] };
            let spec = RunSpec::new(Protocol::SmallRange, v.clone()).with_default_value(vec![0]);
            small_range += session.run(&spec).stats.messages_total;
            chain_fd += session
                .run(&RunSpec::new(Protocol::ChainFd, v))
                .stats
                .messages_total;
        }
        assert!(small_range < chain_fd, "{small_range} >= {chain_fd}");
    }
}
