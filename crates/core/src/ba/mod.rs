//! Byzantine Agreement on top of Failure Discovery (paper §4, §7).
//!
//! Hadzilacos–Halpern show (and the paper leans on) that an FD protocol can
//! be extended to full Byzantine Agreement such that **failure-free runs
//! cost exactly the FD protocol's messages**. This module provides:
//!
//! * [`FdToBaNode`] — that extension: run the chain FD protocol; discovered
//!   failures raise *alarms* that are themselves agreed on Dolev–Strong
//!   style (all-or-none), and an alarm triggers a fall-back to full EIG
//!   agreement. Failure-free runs send `n − 1` messages total
//!   (experiment T6).
//! * [`DolevStrongNode`] — the classic authenticated BA protocol, run here
//!   under *local* authentication with the Theorem 4 verification
//!   discipline; its `O(n²)` failure-free cost is the contrast to FD.
//! * [`EigNode`] — exponential-information-gathering BA (the OM(t)
//!   algorithm in its iterative formulation): the non-authenticated
//!   baseline, requires `n > 3t`.
//! * [`PhaseKingNode`] — the Berman–Garay–Perry Phase-King algorithm: the
//!   second non-authenticated baseline, `O(t·n²)` constant-size messages,
//!   requires `n > 4t`.
//! * [`DegradableNode`] — degradable (crusader/graded) agreement under
//!   local authentication, the weaker agreement flavor the paper's §7
//!   points to (its ref \[7\]): constant 2 communication rounds, decisions
//!   carry a [`Grade`].

mod degradable;
mod dolev_strong;
mod eig;
pub(crate) mod fd_to_ba;
mod phase_king;

pub use degradable::{DegradableNode, DegradableParams, DgMsg, Grade};
pub use dolev_strong::{DolevStrongNode, DolevStrongParams, DsMsg};
pub use eig::{EigMsg, EigNode, EigParams};
pub use fd_to_ba::{FdToBaNode, FdToBaParams};
pub use phase_king::{PhaseKingNode, PhaseKingParams, PkMsg};
