//! Schnorr group parameters (DSA-style prime-order subgroups).
//!
//! Groups are generated at first use from fixed seeds and cached, so the
//! repository carries no magic constants yet every run sees identical
//! parameters. Presets range from `test_tiny` (fast unit tests) to
//! `s2048` (realistic key sizes for the timing benchmarks, experiment F2).
//!
//! Every exponent of `g` in the signature schemes is a scalar below `q`,
//! so each group keeps a [`FixedBase`] table of `g^(d·16^i)` sized by
//! `q.bits()`. The table is built on the first [`SchnorrGroup::pow_g`] or
//! [`SchnorrGroup::pow_g_mul`] call, never for a group that only has its
//! parameters read. Its size is `⌈q.bits()/4⌉ · 15` elements of `p`:
//! 2.8 KiB for `test_tiny`, 37.5 KiB for `s512`, 75 KiB for `s1024` and
//! 240 KiB for `s2048`.

use fd_bigint::{modpow, prime, FixedBase, MontCtx, SplitMix64, Ubig};
use std::sync::OnceLock;

/// A multiplicative group `Z_p^*` with a generator `g` of prime order `q`.
///
/// Standard DSA/Schnorr parameter shape: `p = c·q + 1` with `p`, `q` prime.
/// The discrete logarithm in the order-`q` subgroup is the hardness
/// assumption backing the paper's S1/S3.
#[derive(Debug, Clone)]
pub struct SchnorrGroup {
    p: Ubig,
    q: Ubig,
    g: Ubig,
    mont_p: MontCtx,
    /// Fixed-base table for `g`, built on first use.
    g_table: OnceLock<FixedBase>,
    label: &'static str,
}

impl SchnorrGroup {
    /// Generate a fresh group with the given sizes from a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `p_bits <= q_bits + 1`.
    pub fn generate(p_bits: usize, q_bits: usize, seed: u64, label: &'static str) -> Self {
        let mut rng = SplitMix64::new(seed);
        let (p, q) = prime::gen_schnorr_pair(p_bits, q_bits, &mut rng);
        let one = Ubig::one();
        let cofactor = &(&p - &one) / &q;
        // Find a generator of the order-q subgroup.
        let mut h = Ubig::from(2u64);
        let g = loop {
            let candidate = modpow(&h, &cofactor, &p);
            if !candidate.is_one() && !candidate.is_zero() {
                break candidate;
            }
            h = &h + &one;
        };
        let mont_p = MontCtx::new(&p).expect("p is an odd prime");
        SchnorrGroup {
            p,
            q,
            g,
            mont_p,
            g_table: OnceLock::new(),
            label,
        }
    }

    /// Tiny parameters (96-bit `p`, 48-bit `q`) for fast unit tests.
    /// **Not secure** — the protocol logic, not the cryptography, is under
    /// test at this size.
    pub fn test_tiny() -> &'static SchnorrGroup {
        static G: OnceLock<SchnorrGroup> = OnceLock::new();
        G.get_or_init(|| SchnorrGroup::generate(96, 48, 0x7e57_0001, "tiny-96/48"))
    }

    /// 512-bit `p`, 160-bit `q` — the historical DSA baseline; default for
    /// simulation benchmarks.
    pub fn s512() -> &'static SchnorrGroup {
        static G: OnceLock<SchnorrGroup> = OnceLock::new();
        G.get_or_init(|| SchnorrGroup::generate(512, 160, 0x5ee4_0512, "s512/160"))
    }

    /// 1024-bit `p`, 160-bit `q`.
    pub fn s1024() -> &'static SchnorrGroup {
        static G: OnceLock<SchnorrGroup> = OnceLock::new();
        G.get_or_init(|| SchnorrGroup::generate(1024, 160, 0x5ee4_1024, "s1024/160"))
    }

    /// 2048-bit `p`, 256-bit `q` — modern-ish sizes for the crypto-cost
    /// benchmark (experiment F2).
    pub fn s2048() -> &'static SchnorrGroup {
        static G: OnceLock<SchnorrGroup> = OnceLock::new();
        G.get_or_init(|| SchnorrGroup::generate(2048, 256, 0x5ee4_2048, "s2048/256"))
    }

    /// The modulus `p`.
    pub fn p(&self) -> &Ubig {
        &self.p
    }

    /// The subgroup order `q`.
    pub fn q(&self) -> &Ubig {
        &self.q
    }

    /// The generator `g` (order `q`).
    pub fn g(&self) -> &Ubig {
        &self.g
    }

    /// Human-readable label, e.g. `"s512/160"`.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Byte length of a serialized group element (`p`-sized).
    pub fn element_len(&self) -> usize {
        self.p.bits().div_ceil(8)
    }

    /// Byte length of a serialized scalar (`q`-sized).
    pub fn scalar_len(&self) -> usize {
        self.q.bits().div_ceil(8)
    }

    /// `base^exp mod p` using the cached Montgomery context.
    pub fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        self.mont_p.modpow(base, exp)
    }

    fn g_table(&self) -> &FixedBase {
        self.g_table
            .get_or_init(|| self.mont_p.fixed_base(&self.g, self.q.bits()))
    }

    /// `g^e mod p` from the fixed-base table for `g`.
    pub fn pow_g(&self, e: &Ubig) -> Ubig {
        self.mont_p.pow_fixed(self.g_table(), e)
    }

    /// `g^a · y^b mod p` in one pass: the table for `g`, a windowed ladder
    /// for `y`, and one conversion out of Montgomery form.
    pub fn pow_g_mul(&self, a: &Ubig, y: &Ubig, b: &Ubig) -> Ubig {
        self.mont_p.pow_fixed_mul(self.g_table(), a, y, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_group_is_well_formed() {
        let g = SchnorrGroup::test_tiny();
        assert_eq!(g.p().bits(), 96);
        assert_eq!(g.q().bits(), 48);
        // q | p - 1
        let pm1 = g.p() - &Ubig::one();
        assert!((&pm1 % g.q()).is_zero());
        // g has order q: g^q = 1, g != 1
        assert!(!g.g().is_one());
        assert!(g.pow(g.g(), g.q()).is_one());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SchnorrGroup::generate(96, 48, 123, "a");
        let b = SchnorrGroup::generate(96, 48, 123, "b");
        assert_eq!(a.p(), b.p());
        assert_eq!(a.q(), b.q());
        assert_eq!(a.g(), b.g());
    }

    #[test]
    fn distinct_seeds_distinct_groups() {
        let a = SchnorrGroup::generate(96, 48, 1, "a");
        let b = SchnorrGroup::generate(96, 48, 2, "b");
        assert_ne!(a.p(), b.p());
    }

    #[test]
    fn element_and_scalar_lengths() {
        let g = SchnorrGroup::test_tiny();
        assert_eq!(g.element_len(), 12); // 96 bits
        assert_eq!(g.scalar_len(), 6); // 48 bits
    }

    #[test]
    fn pow_g_matches_pow() {
        let g = SchnorrGroup::test_tiny();
        let (a, b) = (Ubig::from(0xdead_beefu64), Ubig::from(12345u64));
        let y = g.pow(g.g(), &Ubig::from(777u64));
        assert_eq!(g.pow_g(&a), g.pow(g.g(), &a));
        assert_eq!(
            g.pow_g_mul(&a, &y, &b),
            &(&g.pow(g.g(), &a) * &g.pow(&y, &b)) % g.p()
        );
    }

    #[test]
    fn pow_matches_free_function() {
        let g = SchnorrGroup::test_tiny();
        let e = Ubig::from(12345u64);
        assert_eq!(g.pow(g.g(), &e), modpow(g.g(), &e, g.p()));
    }
}
