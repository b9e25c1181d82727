//! Montgomery multiplication context for fast modular exponentiation.

use crate::ll;
use crate::Ubig;
use core::cmp::Ordering;
use core::fmt;
use core::mem::swap;

/// Precomputed context for Montgomery arithmetic modulo an odd modulus.
///
/// Montgomery form represents `x` as `x·R mod m` where `R = 2^(64·L)` and
/// `L` is the limb count of `m`. Multiplication in this form avoids the
/// expensive per-step division of naive modular arithmetic, which makes
/// `modpow` (the hot operation of Schnorr/RSA in `fd-crypto`) roughly an
/// order of magnitude faster.
///
/// Every product is a CIOS multiplication into a caller-owned scratch
/// buffer of `L` limbs, so an exponentiation allocates a fixed few
/// buffers per call and none per multiplication. [`MontCtx::modpow`] is a
/// left-to-right fixed-window ladder whose width follows the exponent's
/// length: 4-bit windows above 32 bits (the 14-multiply table then pays
/// for itself), one bit at or below. A base used again and again, such as
/// a group generator, gets a [`FixedBase`] table instead, which needs no
/// squarings at all.
///
/// ```
/// use fd_bigint::{MontCtx, Ubig};
/// let m = Ubig::from(101u64);
/// let ctx = MontCtx::new(&m).unwrap();
/// let r = ctx.modpow(&Ubig::from(2u64), &Ubig::from(100u64));
/// assert_eq!(r, Ubig::one()); // Fermat
/// ```
#[derive(Debug, Clone)]
pub struct MontCtx {
    /// Modulus limbs, exactly `l` of them (top limb non-zero).
    m: Vec<u64>,
    /// `-m^{-1} mod 2^64`.
    n0: u64,
    /// `R^2 mod m`, used to convert into Montgomery form.
    r2: Vec<u64>,
    /// `R mod m` — the Montgomery representation of 1.
    one: Vec<u64>,
    /// Limb count `L`.
    l: usize,
}

/// Precomputed powers `base^(d·16^i)` for a fixed base, from
/// [`MontCtx::fixed_base`].
///
/// With the table, `base^e` is one multiplication per non-zero 4-bit digit
/// of `e` ([`MontCtx::pow_fixed`]); window `i` of the exponent selects row
/// `i`. The table covers exponents of up to [`FixedBase::max_bits`] bits;
/// longer exponents fall back to [`MontCtx::modpow`], so a result never
/// depends on how the table was sized. It costs `⌈max_bits/4⌉ · 15 · L`
/// limbs (digit 0 needs no entry).
#[derive(Clone)]
pub struct FixedBase {
    /// Row `i` holds `base^(d·16^i)·R mod m` for `d = 1..=15`, `L` limbs each.
    table: Vec<u64>,
    /// Exponent bits the table covers: four per row.
    max_bits: usize,
    /// The base itself, for exponents longer than the table.
    base: Ubig,
    /// Modulus limbs of the context that built the table.
    m: Vec<u64>,
}

impl FixedBase {
    /// Longest exponent, in bits, served from the table.
    pub fn max_bits(&self) -> usize {
        self.max_bits
    }
}

impl fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FixedBase")
            .field("base", &self.base)
            .field("max_bits", &self.max_bits)
            .finish_non_exhaustive()
    }
}

/// Digit `i` of `e` in base `2^w`. `w` divides 64, so a digit never
/// straddles two limbs.
fn digit(e: &Ubig, w: usize, i: usize) -> usize {
    let k = w * i;
    ((e.limbs()[k / 64] >> (k % 64)) & ((1 << w) - 1)) as usize
}

impl MontCtx {
    /// Create a context for odd modulus `m > 1`.
    ///
    /// Returns `None` if `m` is even or `<= 1` (Montgomery reduction requires
    /// `gcd(m, 2^64) = 1`).
    pub fn new(m: &Ubig) -> Option<MontCtx> {
        if m.is_even() || m.is_one() || m.is_zero() {
            return None;
        }
        let l = m.limbs().len();
        // Newton–Hensel iteration for the inverse of m[0] mod 2^64.
        let m0 = m.limbs()[0];
        let mut inv = m0; // valid to 3 bits
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let n0 = inv.wrapping_neg();

        // R mod m and R^2 mod m via plain division (one-time cost).
        let r = &Ubig::pow2(64 * l) % m;
        let r2 = &(&r * &r) % m;

        let mut one = r.limbs().to_vec();
        one.resize(l, 0);
        let mut r2_limbs = r2.limbs().to_vec();
        r2_limbs.resize(l, 0);

        Some(MontCtx {
            m: m.limbs().to_vec(),
            n0,
            r2: r2_limbs,
            one,
            l,
        })
    }

    /// The modulus.
    pub fn modulus(&self) -> Ubig {
        Ubig::from_limbs(self.m.clone())
    }

    /// A zeroed buffer of `l` limbs: CIOS scratch, or an accumulator that
    /// trades places with it.
    fn scratch(&self) -> Vec<u64> {
        vec![0; self.l]
    }

    /// CIOS Montgomery multiplication: writes `a·b·R^{-1} mod m` into
    /// `t[..l]`. The two limbs of the running sum above `l` stay in
    /// registers, so `t` needs no more room than the result.
    ///
    /// `a` and `b` hold at least `l` limbs, of which the low `l` are read
    /// and must be `< m`.
    fn mont_mul_to(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let l = self.l;
        // Views of exactly `l` limbs, taken once, let the compiler drop the
        // bounds checks inside the loops.
        let (a, b, m) = (&a[..l], &b[..l], &self.m[..l]);
        let t = &mut t[..l];
        t.fill(0);
        // Limbs `l` and `l + 1` of the running sum.
        let (mut t_l, mut t_l1) = (0u64, 0u64);
        for &ai in a {
            // t += ai * b
            let mut carry: u128 = 0;
            for (tj, &bj) in t.iter_mut().zip(b) {
                let s = *tj as u128 + ai as u128 * bj as u128 + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            let s = t_l as u128 + carry;
            t_l = s as u64;
            t_l1 = t_l1.wrapping_add((s >> 64) as u64);

            // Reduce: make t divisible by 2^64 and shift down one limb.
            let mu = t[0].wrapping_mul(self.n0);
            let mut carry: u128 = (t[0] as u128 + mu as u128 * m[0] as u128) >> 64;
            for j in 1..l {
                let s = t[j] as u128 + mu as u128 * m[j] as u128 + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t_l as u128 + carry;
            t[l - 1] = s as u64;
            let s2 = t_l1 as u128 + (s >> 64);
            t_l = s2 as u64;
            t_l1 = (s2 >> 64) as u64;
        }
        // The sum is below 2m, so it fits in l limbs and one bit.
        debug_assert_eq!(t_l1, 0);
        // Equal lengths: comparing limbs from the top is comparing values.
        if t_l != 0 || t.iter().rev().ge(m.iter().rev()) {
            let borrow = ll::sub_assign(t, m);
            // A set top limb is exactly what the low limbs borrow.
            debug_assert_eq!(borrow, t_l != 0);
        }
    }

    /// Writes `x·R mod m` into `out[..l]` (`x` is reduced first if `>= m`).
    fn to_mont(&self, x: &Ubig, out: &mut [u64], t: &mut [u64]) {
        let reduced;
        let x = if ll::cmp(x.limbs(), &self.m) == Ordering::Less {
            x
        } else {
            reduced = x % &self.modulus();
            &reduced
        };
        let out = &mut out[..self.l];
        out.fill(0);
        out[..x.limbs().len()].copy_from_slice(x.limbs());
        self.mont_mul_to(out, &self.r2, t);
        out.copy_from_slice(&t[..self.l]);
    }

    /// Convert out of Montgomery form.
    #[allow(clippy::wrong_self_convention)]
    fn from_mont(&self, x: &[u64], t: &mut [u64]) -> Ubig {
        // The plain 1 is the second operand, and its buffer becomes the result.
        let mut out = vec![0u64; self.l];
        out[0] = 1;
        self.mont_mul_to(x, &out, t);
        out.copy_from_slice(&t[..self.l]);
        Ubig::from_limbs(out)
    }

    /// `acc ← acc·b` in Montgomery form; `acc` and `t` trade buffers.
    fn mul_into(&self, acc: &mut Vec<u64>, b: &[u64], t: &mut Vec<u64>) {
        self.mont_mul_to(acc, b, t);
        swap(acc, t);
    }

    /// `a·b mod m`.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let mut t = self.scratch();
        let mut acc = self.scratch();
        let mut bm = self.scratch();
        self.to_mont(a, &mut acc, &mut t);
        self.to_mont(b, &mut bm, &mut t);
        self.mul_into(&mut acc, &bm, &mut t);
        self.from_mont(&acc, &mut t)
    }

    /// `base^exp mod m`.
    ///
    /// A left-to-right fixed-window ladder in Montgomery form: 4-bit windows
    /// for exponents over 32 bits, single bits otherwise. It allocates a few
    /// buffers per call (the window table, an accumulator and the CIOS
    /// scratch) and nothing per multiplication.
    pub fn modpow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        let mut t = self.scratch();
        let acc = self.pow_mont(base, exp, &mut t);
        self.from_mont(&acc, &mut t)
    }

    /// `base^exp` in Montgomery form.
    fn pow_mont(&self, base: &Ubig, exp: &Ubig, t: &mut Vec<u64>) -> Vec<u64> {
        let l = self.l;
        let nbits = exp.bits();
        if nbits == 0 {
            return self.one.clone();
        }
        let w = if nbits > 32 { 4 } else { 1 };
        // pows[d] = base^d for 1 <= d < 2^w (slot 0 is never read: zero
        // digits multiply by nothing).
        let mut pows = vec![0u64; l << w];
        self.to_mont(base, &mut pows[l..2 * l], t);
        for d in 2..1 << w {
            let (done, rest) = pows.split_at_mut(d * l);
            self.mont_mul_to(&done[(d - 1) * l..], &done[l..], t);
            rest[..l].copy_from_slice(t);
        }
        let windows = nbits.div_ceil(w);
        // The top digit holds the exponent's top bit, so it is non-zero.
        let top = digit(exp, w, windows - 1);
        let mut acc = pows[top * l..][..l].to_vec();
        for i in (0..windows - 1).rev() {
            for _ in 0..w {
                self.mont_mul_to(&acc, &acc, t);
                swap(&mut acc, t);
            }
            let d = digit(exp, w, i);
            if d != 0 {
                self.mul_into(&mut acc, &pows[d * l..], t);
            }
        }
        acc
    }

    /// Table of `base^(d·16^i)` for exponents of up to `max_bits` bits
    /// (`⌈max_bits/4⌉` rows of 15 entries), for [`MontCtx::pow_fixed`] and
    /// [`MontCtx::pow_fixed_mul`].
    pub fn fixed_base(&self, base: &Ubig, max_bits: usize) -> FixedBase {
        let l = self.l;
        let rows = max_bits.div_ceil(4);
        let mut table = vec![0u64; rows * 15 * l];
        let mut t = self.scratch();
        // base^(16^i) for the row being filled.
        let mut unit = self.scratch();
        self.to_mont(base, &mut unit, &mut t);
        for row in table.chunks_exact_mut(15 * l) {
            row[..l].copy_from_slice(&unit);
            for d in 1..15 {
                let (done, rest) = row.split_at_mut(d * l);
                self.mont_mul_to(&done[(d - 1) * l..], &unit, &mut t);
                rest[..l].copy_from_slice(&t);
            }
            // Next row's unit: base^(15·16^i) · base^(16^i) = base^(16^(i+1)).
            self.mont_mul_to(&row[14 * l..], &unit, &mut t);
            swap(&mut unit, &mut t);
        }
        FixedBase {
            table,
            max_bits: 4 * rows,
            base: base.clone(),
            m: self.m.clone(),
        }
    }

    /// `base^e mod m` for the table's base: one multiplication per non-zero
    /// 4-bit digit of `e`, so at most `⌈bits/4⌉`, and no squarings.
    ///
    /// # Panics
    ///
    /// Panics if `fb` was built by a context with a different modulus.
    pub fn pow_fixed(&self, fb: &FixedBase, e: &Ubig) -> Ubig {
        // y^0 = 1, whatever y is.
        self.pow_fixed_mul(fb, e, &Ubig::zero(), &Ubig::zero())
    }

    /// `base^a · y^b mod m` for the table's base: the windowed ladder for
    /// `y^b`, the table folded in for `base^a`, and a single conversion out
    /// of Montgomery form.
    ///
    /// # Panics
    ///
    /// Panics if `fb` was built by a context with a different modulus.
    pub fn pow_fixed_mul(&self, fb: &FixedBase, a: &Ubig, y: &Ubig, b: &Ubig) -> Ubig {
        assert!(fb.m == self.m, "fixed-base table built for another modulus");
        let l = self.l;
        let mut t = self.scratch();
        let mut acc = self.pow_mont(y, b, &mut t);
        if a.bits() <= fb.max_bits {
            for i in 0..a.bits().div_ceil(4) {
                let d = digit(a, 4, i);
                if d != 0 {
                    self.mul_into(&mut acc, &fb.table[(15 * i + d - 1) * l..], &mut t);
                }
            }
        } else {
            let base_a = self.pow_mont(&fb.base, a, &mut t);
            self.mul_into(&mut acc, &base_a, &mut t);
        }
        self.from_mont(&acc, &mut t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn naive_modpow(base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
        let mut acc = &Ubig::one() % m;
        for i in (0..exp.bits()).rev() {
            acc = &(&acc * &acc) % m;
            if exp.bit(i) {
                acc = &(&acc * base) % m;
            }
        }
        acc
    }

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(MontCtx::new(&Ubig::from(10u64)).is_none());
        assert!(MontCtx::new(&Ubig::one()).is_none());
        assert!(MontCtx::new(&Ubig::zero()).is_none());
        assert!(MontCtx::new(&Ubig::from(9u64)).is_some());
    }

    #[test]
    fn mul_matches_naive_small() {
        let m = Ubig::from(1_000_000_007u64);
        let ctx = MontCtx::new(&m).unwrap();
        let a = Ubig::from(123_456_789u64);
        let b = Ubig::from(987_654_321u64);
        assert_eq!(ctx.mul(&a, &b), &(&a * &b) % &m);
    }

    #[test]
    fn modpow_matches_naive_multi_limb() {
        let mut rng = SplitMix64::new(42);
        for trial in 0..10 {
            let mut m = crate::RandomUbig::random_bits(&mut rng, 192);
            if m.is_even() {
                m = &m + &Ubig::one();
            }
            if m.is_one() || m.is_zero() {
                continue;
            }
            let base = crate::RandomUbig::random_bits(&mut rng, 256);
            let exp = crate::RandomUbig::random_bits(&mut rng, 64);
            let ctx = MontCtx::new(&m).unwrap();
            assert_eq!(
                ctx.modpow(&base, &exp),
                naive_modpow(&base, &exp, &m),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn modpow_edge_cases() {
        let m = Ubig::from(97u64);
        let ctx = MontCtx::new(&m).unwrap();
        // exp = 0 -> 1
        assert_eq!(ctx.modpow(&Ubig::from(5u64), &Ubig::zero()), Ubig::one());
        // base = 0 -> 0
        assert_eq!(ctx.modpow(&Ubig::zero(), &Ubig::from(5u64)), Ubig::zero());
        // base >= m gets reduced
        assert_eq!(
            ctx.modpow(&Ubig::from(97u64 + 3), &Ubig::from(2u64)),
            Ubig::from(9u64)
        );
    }

    #[test]
    fn fermat_little_theorem() {
        let p = Ubig::from(1_000_000_007u64);
        let ctx = MontCtx::new(&p).unwrap();
        let e = &p - &Ubig::one();
        for base in [2u64, 3, 65537, 999_999_999] {
            assert_eq!(ctx.modpow(&Ubig::from(base), &e), Ubig::one());
        }
    }

    #[test]
    #[should_panic(expected = "another modulus")]
    fn fixed_base_rejects_foreign_context() {
        let a = MontCtx::new(&Ubig::from(97u64)).unwrap();
        let b = MontCtx::new(&Ubig::from(101u64)).unwrap();
        let fb = a.fixed_base(&Ubig::from(5u64), 8);
        let _ = b.pow_fixed(&fb, &Ubig::from(3u64));
    }
}
