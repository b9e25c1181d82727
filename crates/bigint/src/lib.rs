//! # fd-bigint
//!
//! From-scratch arbitrary-precision integer arithmetic used as the numeric
//! substrate for the signature schemes in the
//! [Borcherding 1995](https://doi.org/10.1109/ICDCS.1995.500023) reproduction.
//!
//! The paper assumes a signature scheme with properties S1–S3 (its §2)
//! and cites DSA and RSA as instantiations; both need multi-precision
//! modular arithmetic. This crate provides exactly that, with no external
//! dependencies — everything above it (the Fig. 1 key distribution's
//! challenge signatures, the §4 chain signatures, the test predicates
//! exchanged as public keys) ultimately reduces to these primitives:
//!
//! * [`Ubig`] — dynamically sized unsigned integers (64-bit limbs,
//!   little-endian, always normalized).
//! * [`Int`] — thin signed wrapper used by the extended Euclidean algorithm.
//! * [`MontCtx`] — Montgomery multiplication context for fast `modpow`
//!   with odd moduli (the common case for prime fields and RSA moduli),
//!   plus [`FixedBase`] comb tables for a base that is raised again and again.
//! * [`prime`] — Miller–Rabin primality testing and prime generation.
//! * [`SplitMix64`] — a tiny deterministic PRNG so the crate stays
//!   dependency-free while still supporting seeded, reproducible key and
//!   group generation.
//!
//! ## Example
//!
//! ```
//! use fd_bigint::{Ubig, modpow};
//!
//! let p = Ubig::from(101u64);
//! let g = Ubig::from(2u64);
//! // Fermat: g^(p-1) = 1 (mod p)
//! let e = &p - &Ubig::one();
//! assert_eq!(modpow(&g, &e, &p), Ubig::one());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fmt;
mod gcd;
mod int;
mod ll;
mod modular;
mod montgomery;
mod ops;
pub mod prime;
mod rng;
mod ubig;

pub use gcd::{egcd, gcd, modinv};
pub use int::{Int, Sign};
pub use modular::{modadd, modmul, modpow, modsub};
pub use montgomery::{FixedBase, MontCtx};
pub use rng::{RandomUbig, SplitMix64};
pub use ubig::{ParseUbigError, Ubig};
