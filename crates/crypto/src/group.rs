//! Schnorr group parameters (DSA-style prime-order subgroups).
//!
//! As with the published DSS domain parameters, the presets are constants:
//! hex `p`, `q` and `g` parsed once per process on first use. They range
//! from `test_tiny` (fast unit tests) to `s2048` (realistic key sizes for
//! the timing benchmarks, experiment F2). Each preset is what
//! [`SchnorrGroup::generate`] yields for the seed named in its doc, so no
//! constant is magic; `presets_reproduce_from_generate` in
//! `tests/known_answers.rs` checks that field for field, and no process
//! runs the prime search to obtain a preset.
//!
//! Every exponent in the signature schemes is a scalar below `q`, so the
//! two bases they raise — the generator `g` and a signer's public key `y`
//! — get Lim–Lee comb tables ([`FixedBase`]) sized by `q.bits()`:
//!
//! * `g`'s table has 510 entries (8 teeth, 2 blocks). The group builds it
//!   on the first [`SchnorrGroup::pow_g`] or [`SchnorrGroup::pow_g_mul`]
//!   call, never for a group that only has its parameters read. For a
//!   160-bit `q`, `g^k` then costs at most 9 squarings and 20
//!   multiplications.
//! * Each key's table has 31 entries (5 teeth, 1 block), from
//!   [`SchnorrGroup::prepare`]. The verifiers keep it in the key's own
//!   cache (see [`PublicKey`]), so it is built once per key handle. For a
//!   160-bit `q`, verification's `g^s · y^e` walks both tables under one
//!   run of squarings: at most 31 squarings and 52 multiplications, where
//!   a windowed ladder for `y` alone needs about 215.
//!
//! A table holds its entry count times one element of `p`:
//!
//! | preset | `g` (510 entries) | per key (31 entries) |
//! |---|---|---|
//! | `test_tiny` | 8 160 B | 496 B |
//! | `s512` | 32 640 B | 1 984 B |
//! | `s1024` | 65 280 B | 3 968 B |
//! | `s2048` | 130 560 B | 7 936 B |

use crate::PublicKey;
use fd_bigint::{modpow, prime, FixedBase, MontCtx, SplitMix64, Ubig};
use std::sync::OnceLock;

/// Comb shape of the generator's table: 8 teeth, 2 blocks, 510 entries.
const G_COMB: (usize, usize) = (8, 2);
/// Comb shape of a public key's table: 5 teeth, 1 block, 31 entries.
const KEY_COMB: (usize, usize) = (5, 1);

// Preset parameters, big-endian hex, as `generate` yields them.

const TINY_P: &str = "84f20a2a600d6e6e76289dcb";
const TINY_Q: &str = "b2d8de5f4cf7";
const TINY_G: &str = "229c8a2901d7bf0702703926";

const S512_P: &str = "\
    811f216693463b9351b5c0aa605aa8ba0da84743317c208b8b52e338ed4771d1\
    e13a6089bb24cab3b4c5e06c6847b15ae912937ae00a94bdd75c00127a4ffd45";
const S512_Q: &str = "dbc1d524e2e104a44426fdba9af8f062eaae60d1";
const S512_G: &str = "\
    b03acc8ed88961ab72d53649348c005ab3cc1e09da8e4d9ddf9a9cd7a928a66b\
    0b6a76ba8ab03757151f5148565c6647978ff5955e1532c541cd938d308d09";

const S1024_P: &str = "\
    8efc59a567049fd2eaf775625eb03e94ccc343182f00843459a5cdc574df90eb\
    b7f02652948500bd8767a292d92dfdfee4c7238ce518027bfe77b12445854951\
    732c444335d93f97953253324930bec5a6374b636c687b23413bd95af81dc0b3\
    54c92710b8fd74bc561d755093d1592d0ec379efc211572f0969c655b375277d";
const S1024_Q: &str = "b468e01f79d8b474001bec9035319c5a681e39b5";
const S1024_G: &str = "\
    1e774e49072405c8258a67f0f1404c035917f09f1d786c6b43e9e8cd58a4093d\
    ea0a244489345754d478032339154a7d943177df15df72509e58f33b2a3e2e82\
    23130978fb9831d7634439c4592f6233b717801bc344f2fe3eca55a9c0d7336d\
    bb98c4876d6a051397b8ca2dd6a01415d08d54b97c9f674804588c8107cfcd8";

const S2048_P: &str = "\
    85e7923dfa563986bbcb144e16c570ae879970d49080257537260538556b5926\
    b7e77c7073716c6471f7f4755b0a07862098d858e71ff0ea30a665bc0939efb6\
    ce669f6b982c698fd641aaf187e5f5bba3dc03091833f015e32a654160694238\
    f5eb7ec516b1d121212f90ed09549dd98290339ea50d84eff97694d59c98b1e1\
    bc2d9da0f40f258d8de96c845f73cf198060875c21ce275ec58610fc82ed9479\
    501d25066be07152168e847866078f578801ec42e150f5238cca120e1ce12c19\
    af71c735d4ecd939fe9eb4fd155b14b6d4c48822ec37104e0e31e1dda9ef8e2f\
    82b75460cd2f1e5b08229b0c3a436db2a2045887d9b166d7e9769dbe9449e593";
const S2048_Q: &str = "8e0415ea7fa5b14deb8fa0b7f67b74cd4eed0f310213535e9a1c432fb1a3dce7";
const S2048_G: &str = "\
    6739435bb978c96c10df4470b5204308d1068448e33a0dd02732a4d4c8628cc4\
    7d41d14544b0d651ae6d276c7783aa47a30615473a6553c202f56a2dd474740b\
    b85fe65418efa07a3b545232fa10d95144aa093fa0cebabd49a3d9a7c276ae57\
    594d9483c94e602d4b80969e502d5bda8da4a733fdf12c51ef443f0690063788\
    4c9981f893ea8e34284684fab70d0e9ce8302a9f104cf6d93ca3fea7429d0071\
    86c8cefbcd7f02d5d03e2273d6ff0fd88bc3dd1e72e103eb3bf968cd05d47b38\
    d33d40ce07b37d431104f65b2346bb8b4df1c09738750f29a1e9f7840b0855f3\
    aa1fb8f6005b4824dc605e58906ffc71693422f128bb09ebe9854a5e12e767dc";

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
    /// This is the recipe the preset constants come from; the presets
    /// themselves never call it.
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
        SchnorrGroup::from_parts(p, q, g, label)
    }

    /// A group from known parameters; the Montgomery context for `p` is
    /// built here and the table for `g` on first use.
    fn from_parts(p: Ubig, q: Ubig, g: Ubig, label: &'static str) -> Self {
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

    /// A preset from its hex constants.
    fn preset(p: &str, q: &str, g: &str, label: &'static str) -> Self {
        let hex = |s| Ubig::from_hex(s).expect("preset constants are hex");
        SchnorrGroup::from_parts(hex(p), hex(q), hex(g), label)
    }

    /// Tiny parameters (96-bit `p`, 48-bit `q`) for fast unit tests.
    /// **Not secure** — the protocol logic, not the cryptography, is under
    /// test at this size. [`SchnorrGroup::generate`]'s output for seed
    /// `0x7e57_0001`.
    pub fn test_tiny() -> &'static SchnorrGroup {
        static G: OnceLock<SchnorrGroup> = OnceLock::new();
        G.get_or_init(|| SchnorrGroup::preset(TINY_P, TINY_Q, TINY_G, "tiny-96/48"))
    }

    /// 512-bit `p`, 160-bit `q` — the historical DSA baseline; default for
    /// simulation benchmarks. [`SchnorrGroup::generate`]'s output for seed
    /// `0x5ee4_0512`.
    pub fn s512() -> &'static SchnorrGroup {
        static G: OnceLock<SchnorrGroup> = OnceLock::new();
        G.get_or_init(|| SchnorrGroup::preset(S512_P, S512_Q, S512_G, "s512/160"))
    }

    /// 1024-bit `p`, 160-bit `q`. [`SchnorrGroup::generate`]'s output for
    /// seed `0x5ee4_1024`.
    pub fn s1024() -> &'static SchnorrGroup {
        static G: OnceLock<SchnorrGroup> = OnceLock::new();
        G.get_or_init(|| SchnorrGroup::preset(S1024_P, S1024_Q, S1024_G, "s1024/160"))
    }

    /// 2048-bit `p`, 256-bit `q` — modern-ish sizes for the crypto-cost
    /// benchmark (experiment F2). [`SchnorrGroup::generate`]'s output for
    /// seed `0x5ee4_2048`.
    pub fn s2048() -> &'static SchnorrGroup {
        static G: OnceLock<SchnorrGroup> = OnceLock::new();
        G.get_or_init(|| SchnorrGroup::preset(S2048_P, S2048_Q, S2048_G, "s2048/256"))
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

    /// The scalar `bytes` encode: exactly [`SchnorrGroup::scalar_len`]
    /// bytes holding a value below `q`.
    pub(crate) fn scalar(&self, bytes: &[u8]) -> Option<Ubig> {
        if bytes.len() != self.scalar_len() {
            return None;
        }
        let v = Ubig::from_be_bytes(bytes);
        (v < self.q).then_some(v)
    }

    /// A signature's two scalars, each [`SchnorrGroup::scalar_len`]
    /// bytes, `None` unless both decode.
    pub(crate) fn scalar_pair(&self, sig: &[u8]) -> Option<(Ubig, Ubig)> {
        if sig.len() != 2 * self.scalar_len() {
            return None;
        }
        let (a, b) = sig.split_at(self.scalar_len());
        Some((self.scalar(a)?, self.scalar(b)?))
    }

    /// Two scalars below `q` written straight into one signature's bytes.
    pub(crate) fn encode_scalar_pair(&self, a: &Ubig, b: &Ubig) -> Vec<u8> {
        let mut sig = vec![0u8; 2 * self.scalar_len()];
        let (lo, hi) = sig.split_at_mut(self.scalar_len());
        assert!(
            a.write_be_bytes(lo) && b.write_be_bytes(hi),
            "scalars are below q"
        );
        sig
    }

    /// `base^exp mod p` using the cached Montgomery context.
    pub fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        self.mont_p.modpow(base, exp)
    }

    fn g_table(&self) -> &FixedBase {
        self.g_table.get_or_init(|| {
            self.mont_p
                .fixed_base(&self.g, self.q.bits(), G_COMB.0, G_COMB.1)
        })
    }

    /// `g^e mod p` from the comb table for `g`.
    pub fn pow_g(&self, e: &Ubig) -> Ubig {
        self.mont_p.pow_fixed(self.g_table(), e)
    }

    /// The 31-entry comb table for a group element `y`, sized for scalar
    /// exponents, for [`SchnorrGroup::pow_g_mul`]. Building it costs about
    /// 150 multiplications at a 160-bit `q`, no more than the ladder it
    /// replaces, so it pays from a key's second verification on.
    pub fn prepare(&self, y: &Ubig) -> FixedBase {
        self.mont_p
            .fixed_base(y, self.q.bits(), KEY_COMB.0, KEY_COMB.1)
    }

    /// `g^a · y^b mod p` over a prepared `y`: both comb tables walked under
    /// one run of squarings, and one conversion out of Montgomery form. A
    /// table prepared by another group takes the ladder for `y^b`.
    pub fn pow_g_mul(&self, a: &Ubig, y: &FixedBase, b: &Ubig) -> Ubig {
        self.mont_p.pow_fixed_mul(self.g_table(), a, y, b)
    }

    /// The prepared table of the element `pk` encodes, from the key's
    /// cache or built into it. `None`, and no table, unless `pk` is
    /// exactly [`SchnorrGroup::element_len`] bytes encoding `0 < y < p`.
    pub(crate) fn key_table<'k>(&self, pk: &'k PublicKey) -> Option<&'k FixedBase> {
        // A table is cached only once the checks below passed for the
        // modulus it was built with, and the key bytes never change: one
        // built for `p` needs neither the checks nor `y` again.
        if let Some(table) = pk.cached_table().filter(|t| t.is_for(&self.mont_p)) {
            return Some(table);
        }
        if pk.as_bytes().len() != self.element_len() {
            return None;
        }
        let y = Ubig::from_be_bytes(pk.as_bytes());
        if y.is_zero() || y >= self.p {
            return None;
        }
        Some(pk.table(|| self.prepare(&y)))
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
            g.pow_g_mul(&a, &g.prepare(&y), &b),
            &(&g.pow(g.g(), &a) * &g.pow(&y, &b)) % g.p()
        );
    }

    #[test]
    fn a_key_table_is_at_most_4_kib_at_s1024() {
        let g = SchnorrGroup::s1024();
        let y = g.pow_g(&Ubig::from(777u64));
        assert_eq!(g.prepare(&y).table_bytes(), 31 * 128);
        assert_eq!(g.g_table().table_bytes(), 510 * 128);
    }

    #[test]
    fn malformed_keys_get_no_table() {
        let g = SchnorrGroup::test_tiny();
        let len = g.element_len();
        let p_bytes = g.p().to_be_bytes_fixed(len).unwrap();
        for bytes in [
            vec![],
            vec![0; len],
            p_bytes,
            vec![0xff; len],
            vec![1; len + 1],
        ] {
            let pk = PublicKey::new(bytes);
            assert!(g.key_table(&pk).is_none());
            assert!(pk.cached_table().is_none());
        }
    }

    #[test]
    fn a_cached_table_is_reused_only_under_its_own_modulus() {
        let (tiny, s512) = (SchnorrGroup::test_tiny(), SchnorrGroup::s512());
        let y = tiny.pow_g(&Ubig::from(777u64));
        let pk = PublicKey::new(y.to_be_bytes_fixed(tiny.element_len()).unwrap());
        let first: *const FixedBase = tiny.key_table(&pk).unwrap();
        assert!(std::ptr::eq(tiny.key_table(&pk).unwrap(), first));
        // The cached table is tiny's: under s512 the same bytes are still
        // checked, and 12 bytes is no s512 element.
        assert!(s512.key_table(&pk).is_none());
    }

    #[test]
    fn pow_matches_free_function() {
        let g = SchnorrGroup::test_tiny();
        let e = Ubig::from(12345u64);
        assert_eq!(g.pow(g.g(), &e), modpow(g.g(), &e, g.p()));
    }
}
