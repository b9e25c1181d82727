//! Montgomery multiplication context for fast modular exponentiation.
//!
//! Two ways to raise a base, both in Montgomery form:
//!
//! * [`MontCtx::modpow`], a fixed-window ladder for a base seen once:
//!   about one squaring per exponent bit.
//! * [`FixedBase`], a Lim–Lee comb (CRYPTO '94) for a base raised again
//!   and again. Its `v · (2^h − 1)` entries (`h` teeth, `v` blocks) trade
//!   memory for squarings: an exponent of `b` bits costs about `b/(h·v)`
//!   squarings and `b/h` multiplications. With `L`-limb elements a comb
//!   takes `v · (2^h − 1) · 8L` bytes; at a 1024-bit modulus that is
//!   3 968 B for `h = 5, v = 1` (a public key's table) and 65 280 B for
//!   `h = 8, v = 2` (a group generator's). [`MontCtx::pow_fixed_mul`]
//!   walks two combs under one run of squarings, which is what a Schnorr
//!   or DSA verification `g^a · y^b` needs.
//!
//! # One kernel, specialised per width
//!
//! Every product is the one CIOS body, `MontCtx::cios`, reached through
//! `MontCtx::mont_mul`: a `match` on the modulus's limb count with one
//! arm per count from 1 to `MAX_FIXED_LIMBS` (64 to 2 048 bits, every
//! preset group), each inlining the body with its count as a constant,
//! so the multiply's loops have constant bounds and no bounds checks. A
//! wider modulus takes the last arm, the same body with the count read at
//! run time. The loops around the multiply are compiled once; matching
//! per multiply instead of per exponentiation keeps 33 copies of those
//! loops (about 1 MB of code) out of the binary.
//!
//! Nothing is allocated per multiplication, and up to `MAX_FIXED_LIMBS`
//! limbs an exponentiation allocates only its result (a comb, its table):
//! accumulators, scratch and window tables are stack arrays, past that
//! `Vec`s. An accumulator and its scratch trade places by swapping two
//! references, never by copying elements. A comb reads its exponent 64
//! columns at a time: each block of each row is shifted out of the
//! exponent's limbs once per 64 squarings (once per exponentiation at the
//! presets' sizes), and a column's entry index is a few shifts over those
//! words.

use crate::ll;
use crate::Ubig;
use core::cmp::Ordering;
use core::fmt;
use core::mem::swap;

/// The widest modulus, in limbs, whose multiply is compiled for its
/// width and whose elements live on the stack: 2 048 bits, the widest
/// preset group.
const MAX_FIXED_LIMBS: usize = 32;

/// Precomputed context for Montgomery arithmetic modulo an odd modulus.
///
/// Montgomery form represents `x` as `x·R mod m` where `R = 2^(64·L)` and
/// `L` is the limb count of `m`. Multiplication in this form avoids the
/// expensive per-step division of naive modular arithmetic, which makes
/// `modpow` (the hot operation of Schnorr/RSA in `fd-crypto`) roughly an
/// order of magnitude faster.
///
/// Every product is a CIOS multiplication into a caller-owned scratch
/// element, so no multiplication allocates; up to 32 limbs the elements
/// are stack arrays and the multiply is compiled for the modulus's width
/// (see the module docs).
/// [`MontCtx::modpow`] is a left-to-right fixed-window ladder whose width
/// follows the exponent's length: 4-bit windows above 32 bits (the
/// 14-multiply table then pays for itself), one bit at or below. A base
/// used again and again, such as a group generator or a public key, gets
/// a [`FixedBase`] comb instead, which needs a fraction of the squarings.
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

/// A Lim–Lee comb for a fixed base, from [`MontCtx::fixed_base`].
///
/// An exponent of up to [`FixedBase::max_bits`] bits is read as a matrix
/// of `teeth` rows; each row is cut into `blocks` blocks of `span` bits.
/// Block `j` has its own `2^teeth − 1` entries: entry `i` is the product
/// of `base^(2^(t·blocks·span + j·span))` over the set bits `t` of `i`, so
/// one column of one block selects one entry. `base^e` is then at most
/// `span − 1` squarings and `blocks · span` multiplications
/// ([`MontCtx::pow_fixed`]), and two combs share their squarings
/// ([`MontCtx::pow_fixed_mul`]). Longer exponents, or a context with
/// another modulus, take the ladder over the base, so a result never
/// depends on the table. It holds `blocks · (2^teeth − 1)` elements of
/// `L` limbs.
#[derive(Clone)]
pub struct FixedBase {
    /// Block `j`'s entry `i` sits at `(j·(2^teeth − 1) + i − 1)·L` (a
    /// column value of 0 needs no entry), in Montgomery form.
    table: Vec<u64>,
    /// Rows of the exponent matrix.
    teeth: usize,
    /// Blocks per row, each with its own entries.
    blocks: usize,
    /// Bits per block: the squarings one exponentiation needs, plus one.
    span: usize,
    /// The base itself, for the ladder fallback.
    base: Ubig,
    /// Modulus limbs of the context that built the table.
    m: Vec<u64>,
}

impl FixedBase {
    /// Longest exponent, in bits, served from the table.
    pub fn max_bits(&self) -> usize {
        self.teeth * self.blocks * self.span
    }

    /// Size of the table proper, in bytes: `blocks · (2^teeth − 1) · 8L`.
    pub fn table_bytes(&self) -> usize {
        self.table.len() * 8
    }

    /// `true` iff `ctx` (or a context with the same modulus) built this
    /// table, so that [`MontCtx::pow_fixed`] walks it rather than the
    /// ladder.
    pub fn is_for(&self, ctx: &MontCtx) -> bool {
        self.m == ctx.m
    }

    /// Fills `words[j·teeth + t]` with the 64 columns from `lo` up of
    /// block `j` of row `t` of `e` (bits past the block are never read).
    fn load_columns(&self, e: &[u64], lo: usize, words: &mut [u64]) {
        let row = self.blocks * self.span;
        for (j, block) in words.chunks_exact_mut(self.teeth).enumerate() {
            for (t, word) in block.iter_mut().enumerate() {
                *word = bits64(e, t * row + j * self.span + lo);
            }
        }
    }

    /// Block `j`'s entry for column value `idx` (non-zero).
    fn entry(&self, j: usize, idx: usize) -> &[u64] {
        let l = self.m.len();
        &self.table[(j * ((1 << self.teeth) - 1) + idx - 1) * l..][..l]
    }
}

impl fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FixedBase")
            .field("base", &self.base)
            .field("teeth", &self.teeth)
            .field("blocks", &self.blocks)
            .field("max_bits", &self.max_bits())
            .finish_non_exhaustive()
    }
}

/// Bits `pos..pos + 64` of the integer with limbs `e` (zero past its top).
fn bits64(e: &[u64], pos: usize) -> u64 {
    let (i, s) = (pos / 64, pos % 64);
    let lo = e.get(i).map_or(0, |&x| x >> s);
    let hi = match s {
        0 => 0,
        _ => e.get(i + 1).map_or(0, |&x| x << (64 - s)),
    };
    lo | hi
}

/// Digit `i` of `e` in base `2^w`. `w` divides 64, so a digit never
/// straddles two limbs.
fn digit(e: &Ubig, w: usize, i: usize) -> usize {
    let k = w * i;
    ((e.limbs()[k / 64] >> (k % 64)) & ((1 << w) - 1)) as usize
}

/// A limb count and where elements of that many limbs live.
trait Width: Copy {
    /// Room for one element of [`Width::l`] limbs (the low `l` are used).
    type Elem: AsRef<[u64]> + AsMut<[u64]>;
    /// The limb count.
    fn l(self) -> usize;
    /// A zeroed element.
    fn elem(self) -> Self::Elem;
}

/// Up to [`MAX_FIXED_LIMBS`] limbs: elements are stack arrays.
#[derive(Clone, Copy)]
struct Stack(usize);

impl Width for Stack {
    type Elem = [u64; MAX_FIXED_LIMBS];
    fn l(self) -> usize {
        self.0
    }
    fn elem(self) -> [u64; MAX_FIXED_LIMBS] {
        [0; MAX_FIXED_LIMBS]
    }
}

/// Past [`MAX_FIXED_LIMBS`] limbs: elements are `Vec`s.
#[derive(Clone, Copy)]
struct Heap(usize);

impl Width for Heap {
    type Elem = Vec<u64>;
    fn l(self) -> usize {
        self.0
    }
    fn elem(self) -> Vec<u64> {
        vec![0; self.0]
    }
}

/// Evaluates `$body` with `$w` bound to the [`Width`] of `$l` limbs.
macro_rules! with_width {
    ($l:expr, $w:ident => $body:expr) => {
        if $l <= MAX_FIXED_LIMBS {
            let $w = Stack($l);
            $body
        } else {
            let $w = Heap($l);
            $body
        }
    };
}

/// Calls `$ctx.cios` with the limb count `$l` as a literal for every
/// count in the list, so each arm is the body compiled for its width, and
/// with `$l` itself past them.
macro_rules! cios_at_width {
    ($ctx:expr, $l:expr, $a:expr, $b:expr, $t:expr; $($n:literal)*) => {
        match $l {
            $($n => $ctx.cios($n, $a, $b, $t),)*
            l => $ctx.cios(l, $a, $b, $t),
        }
    };
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

    /// CIOS Montgomery multiplication: writes `a·b·R^{-1} mod m` into
    /// `t[..l]`. The two limbs of the running sum above `l` stay in
    /// registers, so `t` needs no more room than the result.
    ///
    /// `a` and `b` hold at least `l` limbs, of which the low `l` are read
    /// and must be `< m`. This is the one multiply body: every arm of
    /// [`MontCtx::mont_mul`] inlines it with its own constant `l`.
    #[inline(always)]
    fn cios(&self, l: usize, a: &[u64], b: &[u64], t: &mut [u64]) {
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
            let mut borrow = false;
            for (tj, &mj) in t.iter_mut().zip(m) {
                let (d, b1) = tj.overflowing_sub(mj);
                let (d, b2) = d.overflowing_sub(u64::from(borrow));
                *tj = d;
                borrow = b1 | b2;
            }
            // A set top limb is exactly what the low limbs borrow.
            debug_assert_eq!(borrow, t_l != 0);
        }
    }

    /// `t[..l] ← a·b·R^{-1} mod m`: the CIOS body compiled for this
    /// modulus's limb count, 1 to [`MAX_FIXED_LIMBS`], or with the count
    /// read at run time past that.
    fn mont_mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        cios_at_width!(self, self.l, a, b, t; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
            17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
    }

    /// Writes `x·R mod m` into `out[..l]` (`x` is reduced first if `>= m`),
    /// with `t` as scratch.
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
        self.mont_mul(out, &self.r2, t);
        out.copy_from_slice(&t[..self.l]);
    }

    /// Converts out of Montgomery form, into the one allocation of the
    /// result.
    #[allow(clippy::wrong_self_convention)]
    fn from_mont<W: Width>(&self, w: W, x: &[u64]) -> Ubig {
        // Multiplying by the plain 1 divides by R.
        let mut one = w.elem();
        one.as_mut()[0] = 1;
        let mut out = vec![0u64; w.l()];
        self.mont_mul(x, one.as_ref(), &mut out);
        Ubig::from_limbs(out)
    }

    /// `a·b mod m`.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        with_width!(self.l, w => self.mul_at(w, a, b))
    }

    fn mul_at<W: Width>(&self, w: W, a: &Ubig, b: &Ubig) -> Ubig {
        let (mut am, mut bm, mut t) = (w.elem(), w.elem(), w.elem());
        self.to_mont(a, am.as_mut(), t.as_mut());
        self.to_mont(b, bm.as_mut(), t.as_mut());
        self.mont_mul(am.as_ref(), bm.as_ref(), t.as_mut());
        self.from_mont(w, t.as_ref())
    }

    /// `base^exp mod m`.
    ///
    /// A left-to-right fixed-window ladder in Montgomery form: 4-bit windows
    /// for exponents over 32 bits, single bits otherwise. Its window table,
    /// accumulator and scratch are stack elements (up to
    /// `MAX_FIXED_LIMBS` limbs), so it allocates only the result.
    pub fn modpow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        with_width!(self.l, w => {
            let mut acc = w.elem();
            self.pow_mont(w, base, exp, acc.as_mut());
            self.from_mont(w, acc.as_ref())
        })
    }

    /// Writes `base^exp` in Montgomery form into `out[..l]`.
    fn pow_mont<W: Width>(&self, w: W, base: &Ubig, exp: &Ubig, out: &mut [u64]) {
        let l = w.l();
        let nbits = exp.bits();
        if nbits == 0 {
            out[..l].copy_from_slice(&self.one);
            return;
        }
        let win = if nbits > 32 { 4 } else { 1 };
        // pows[d] = base^d for 1 <= d < 2^win (slot 0 is never read: zero
        // digits multiply by nothing).
        let mut pows: [W::Elem; 16] = core::array::from_fn(|_| w.elem());
        let (mut x, mut y) = (w.elem(), w.elem());
        self.to_mont(base, pows[1].as_mut(), y.as_mut());
        for d in 2..1 << win {
            let (done, rest) = pows.split_at_mut(d);
            self.mont_mul(done[d - 1].as_ref(), done[1].as_ref(), rest[0].as_mut());
        }
        let windows = nbits.div_ceil(win);
        // The top digit holds the exponent's top bit, so it is non-zero.
        x.as_mut()[..l].copy_from_slice(&pows[digit(exp, win, windows - 1)].as_ref()[..l]);
        let (mut acc, mut t) = (&mut x.as_mut()[..l], &mut y.as_mut()[..l]);
        for i in (0..windows - 1).rev() {
            for _ in 0..win {
                self.mont_mul(acc, acc, t);
                swap(&mut acc, &mut t);
            }
            let d = digit(exp, win, i);
            if d != 0 {
                self.mont_mul(acc, pows[d].as_ref(), t);
                swap(&mut acc, &mut t);
            }
        }
        out[..l].copy_from_slice(acc);
    }

    /// A comb of `teeth` rows cut into `blocks` blocks (`blocks ·
    /// (2^teeth − 1)` entries; `1 <= teeth <= 8`, `blocks >= 1`) for
    /// exponents of up to `max_bits` bits, for [`MontCtx::pow_fixed`] and
    /// [`MontCtx::pow_fixed_mul`]. Building it costs about `max_bits`
    /// squarings and `blocks · (2^teeth − teeth − 1)` multiplications.
    ///
    /// # Panics
    ///
    /// Panics if `teeth` is outside `1..=8` or `blocks` is zero.
    pub fn fixed_base(
        &self,
        base: &Ubig,
        max_bits: usize,
        teeth: usize,
        blocks: usize,
    ) -> FixedBase {
        assert!((1..=8).contains(&teeth), "a comb has 1 to 8 teeth");
        assert!(blocks > 0, "a comb has at least one block");
        let span = max_bits.div_ceil(teeth * blocks);
        let table = with_width!(self.l, w => self.comb_table(w, base, span, teeth, blocks));
        FixedBase {
            table,
            teeth,
            blocks,
            span,
            base: base.clone(),
            m: self.m.clone(),
        }
    }

    /// The entries of [`MontCtx::fixed_base`]'s comb.
    fn comb_table<W: Width>(
        &self,
        w: W,
        base: &Ubig,
        span: usize,
        teeth: usize,
        blocks: usize,
    ) -> Vec<u64> {
        let l = w.l();
        let per_block = ((1 << teeth) - 1) * l;
        let mut table = vec![0u64; blocks * per_block];
        // base^(2^(tooth·blocks·span + j·span)) for tooth `tooth` of block
        // `j`; taken in that order, each is `span` squarings after the last.
        let (mut x, mut y) = (w.elem(), w.elem());
        let (mut unit, mut t) = (&mut x.as_mut()[..l], &mut y.as_mut()[..l]);
        self.to_mont(base, unit, t);
        for tooth in 0..teeth {
            for (j, block) in table.chunks_exact_mut(per_block).enumerate() {
                if tooth + j > 0 {
                    for _ in 0..span {
                        self.mont_mul(unit, unit, t);
                        swap(&mut unit, &mut t);
                    }
                }
                // Entries 2^tooth..2^(tooth+1) are entries 0..2^tooth times
                // the new tooth.
                let top = 1 << tooth;
                block[(top - 1) * l..][..l].copy_from_slice(unit);
                for i in 1..top {
                    let (done, rest) = block.split_at_mut((top + i - 1) * l);
                    self.mont_mul(&done[(i - 1) * l..], unit, rest);
                }
            }
        }
        table
    }

    /// `base^e mod m` for the table's base: at most `span − 1` squarings
    /// and `blocks · span` multiplications.
    pub fn pow_fixed(&self, fb: &FixedBase, e: &Ubig) -> Ubig {
        with_width!(self.l, w => self.pow_combs(w, [(fb, e)]))
    }

    /// `x^a · y^b mod m` for the bases `x` of `fx` and `y` of `fy`: both
    /// combs walked under one run of squarings, and a single conversion out
    /// of Montgomery form.
    pub fn pow_fixed_mul(&self, fx: &FixedBase, a: &Ubig, fy: &FixedBase, b: &Ubig) -> Ubig {
        with_width!(self.l, w => self.pow_combs(w, [(fx, a), (fy, b)]))
    }

    /// `∏ base^e mod m` over `terms`. The combs that cover their exponent
    /// share one run of squarings, as long as the longest span among them;
    /// a term whose table was built for another modulus or is too short
    /// for its exponent takes the windowed ladder over its base.
    fn pow_combs<W: Width, const N: usize>(&self, w: W, terms: [(&FixedBase, &Ubig); N]) -> Ubig {
        let combed = terms.map(|(fb, e)| fb.is_for(self) && e.bits() <= fb.max_bits());
        let span = (0..N)
            .filter(|&i| combed[i])
            .map(|i| terms[i].0.span)
            .max()
            .unwrap_or(0);
        // Each combed term's column words (see `FixedBase::load_columns`),
        // one after another; on the stack unless the combs are unusually
        // wide.
        let words = |i: usize| terms[i].0.teeth * terms[i].0.blocks;
        let needed: usize = (0..N).filter(|&i| combed[i]).map(words).sum();
        let mut stack = [0u64; 32];
        let mut heap = Vec::new();
        let columns = if needed <= stack.len() {
            &mut stack[..needed]
        } else {
            heap.resize(needed, 0);
            &mut heap[..]
        };
        let l = w.l();
        let (mut x, mut y) = (w.elem(), w.elem());
        let (mut acc, mut t) = (&mut x.as_mut()[..l], &mut y.as_mut()[..l]);
        acc.copy_from_slice(&self.one);
        // The accumulator still holds one: squaring is a no-op and the
        // first entry is copied, not multiplied in.
        let mut is_one = true;
        for k in (0..span).rev() {
            if !is_one {
                self.mont_mul(acc, acc, t);
                swap(&mut acc, &mut t);
            }
            let mut rest = &mut columns[..];
            for (i, &(fb, e)) in terms.iter().enumerate() {
                if !combed[i] {
                    continue;
                }
                let (cols, tail) = rest.split_at_mut(words(i));
                rest = tail;
                if k >= fb.span {
                    continue;
                }
                // Walking down, a term reloads on its first column and
                // wherever the 64-column window ends.
                if k + 1 == fb.span || k % 64 == 63 {
                    fb.load_columns(e.limbs(), k - k % 64, cols);
                }
                for (j, rows) in cols.chunks_exact(fb.teeth).enumerate() {
                    let idx = rows.iter().enumerate().fold(0, |idx, (tooth, &row)| {
                        idx | ((row >> (k % 64)) & 1) << tooth
                    });
                    if idx == 0 {
                        continue;
                    }
                    let entry = fb.entry(j, idx as usize);
                    if is_one {
                        acc.copy_from_slice(entry);
                        is_one = false;
                    } else {
                        self.mont_mul(acc, entry, t);
                        swap(&mut acc, &mut t);
                    }
                }
            }
        }
        for (&(fb, e), _) in terms.iter().zip(combed).filter(|&(_, c)| !c) {
            let mut power = w.elem();
            self.pow_mont(w, &fb.base, e, power.as_mut());
            self.mont_mul(acc, power.as_ref(), t);
            swap(&mut acc, &mut t);
        }
        self.from_mont(w, acc)
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
    fn a_foreign_table_falls_back_to_the_ladder() {
        let a = MontCtx::new(&Ubig::from(97u64)).unwrap();
        let b = MontCtx::new(&Ubig::from(101u64)).unwrap();
        let fb = a.fixed_base(&Ubig::from(5u64), 8, 4, 1);
        let (e, y) = (Ubig::from(3u64), Ubig::from(7u64));
        let fy = a.fixed_base(&y, 8, 2, 2);
        assert_eq!(b.pow_fixed(&fb, &e), b.modpow(&Ubig::from(5u64), &e));
        assert_eq!(
            b.pow_fixed_mul(&fb, &e, &fy, &e),
            b.mul(&Ubig::from(125u64), &b.modpow(&y, &e))
        );
    }

    #[test]
    fn comb_tables_hold_blocks_times_two_to_the_teeth_minus_one_entries() {
        let ctx = MontCtx::new(&(&Ubig::pow2(1023) + &Ubig::one())).unwrap();
        let base = Ubig::from(3u64);
        for (teeth, blocks, entries) in [(1, 1, 1), (5, 1, 31), (8, 2, 510), (3, 7, 49)] {
            let fb = ctx.fixed_base(&base, 160, teeth, blocks);
            assert_eq!(fb.table_bytes(), entries * 128);
            assert!(fb.max_bits() >= 160);
            let e = &Ubig::pow2(159) + &Ubig::from(12345u64);
            assert_eq!(ctx.pow_fixed(&fb, &e), ctx.modpow(&base, &e));
        }
    }
}
