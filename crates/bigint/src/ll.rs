//! Low-level limb-slice arithmetic.
//!
//! All algorithms operate on little-endian `u64` limb slices. Higher-level
//! types ([`crate::Ubig`], [`crate::MontCtx`]) are thin wrappers around these
//! primitives, so the tricky code (notably Knuth's Algorithm D) lives in
//! exactly one place.

use core::cmp::Ordering;

/// Number of significant limbs (index of highest non-zero limb + 1).
pub(crate) fn nlimbs(a: &[u64]) -> usize {
    let mut n = a.len();
    while n > 0 && a[n - 1] == 0 {
        n -= 1;
    }
    n
}

/// Compare two limb slices as integers (leading zeros allowed).
pub(crate) fn cmp(a: &[u64], b: &[u64]) -> Ordering {
    let an = nlimbs(a);
    let bn = nlimbs(b);
    if an != bn {
        return an.cmp(&bn);
    }
    for i in (0..an).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// `a += b`, growing `a` as needed.
pub(crate) fn add_assign(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    let mut carry = 0u64;
    for (i, &bl) in b.iter().enumerate() {
        let (s1, c1) = a[i].overflowing_add(bl);
        let (s2, c2) = s1.overflowing_add(carry);
        a[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    let mut i = b.len();
    while carry != 0 {
        if i == a.len() {
            a.push(carry);
            carry = 0;
        } else {
            let (s, c) = a[i].overflowing_add(carry);
            a[i] = s;
            carry = c as u64;
            i += 1;
        }
    }
}

/// `a -= b`; returns `true` on borrow (i.e. `b > a`), in which case the
/// contents of `a` are the wrapped two's-complement-ish result and should be
/// discarded by the caller.
#[must_use]
pub(crate) fn sub_assign(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert!(a.len() >= nlimbs(b));
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let bl = if i < b.len() { b[i] } else { 0 };
        let (d1, b1) = a[i].overflowing_sub(bl);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    borrow != 0
}

/// Schoolbook multiplication; result has `a.len() + b.len()` limbs.
pub(crate) fn mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    let an = nlimbs(a);
    let bn = nlimbs(b);
    if an == 0 || bn == 0 {
        return Vec::new();
    }
    let mut out = vec![0u64; an + bn];
    for i in 0..an {
        let ai = a[i] as u128;
        if ai == 0 {
            continue;
        }
        let mut carry: u128 = 0;
        for j in 0..bn {
            let t = out[i + j] as u128 + ai * b[j] as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        // `carry < 2^64`, and out[i+bn] receives at most one carry per i.
        let t = out[i + bn] as u128 + carry;
        out[i + bn] = t as u64;
        debug_assert_eq!(t >> 64, 0);
    }
    out
}

/// Left shift by `s` bits; result length grows as needed.
pub(crate) fn shl(a: &[u64], s: usize) -> Vec<u64> {
    let an = nlimbs(a);
    if an == 0 {
        return Vec::new();
    }
    let limb_shift = s / 64;
    let bit_shift = s % 64;
    let mut out = vec![0u64; an + limb_shift + 1];
    if bit_shift == 0 {
        out[limb_shift..limb_shift + an].copy_from_slice(&a[..an]);
    } else {
        for i in 0..an {
            out[i + limb_shift] |= a[i] << bit_shift;
            out[i + limb_shift + 1] |= a[i] >> (64 - bit_shift);
        }
    }
    out
}

/// Right shift by `s` bits.
pub(crate) fn shr(a: &[u64], s: usize) -> Vec<u64> {
    let an = nlimbs(a);
    let limb_shift = s / 64;
    if limb_shift >= an {
        return Vec::new();
    }
    let bit_shift = s % 64;
    let n = an - limb_shift;
    let mut out = vec![0u64; n];
    if bit_shift == 0 {
        out.copy_from_slice(&a[limb_shift..an]);
    } else {
        for i in 0..n {
            let lo = a[i + limb_shift] >> bit_shift;
            let hi = if i + limb_shift + 1 < an {
                a[i + limb_shift + 1] << (64 - bit_shift)
            } else {
                0
            };
            out[i] = lo | hi;
        }
    }
    out
}

/// Bit length of the integer represented by `a`.
pub(crate) fn bits(a: &[u64]) -> usize {
    let an = nlimbs(a);
    if an == 0 {
        0
    } else {
        an * 64 - a[an - 1].leading_zeros() as usize
    }
}

/// Remainder, and the quotient when `want_q`, by a single limb.
fn div_rem_limb(u: &[u64], d: u64, want_q: bool) -> (Vec<u64>, Vec<u64>) {
    debug_assert!(d != 0);
    let un = nlimbs(u);
    let d128 = d as u128;
    let mut q = if want_q { vec![0u64; un] } else { Vec::new() };
    let mut rem: u128 = 0;
    for i in (0..un).rev() {
        let cur = (rem << 64) | u[i] as u128;
        if let Some(qi) = q.get_mut(i) {
            *qi = (cur / d128) as u64;
        }
        rem = cur % d128;
    }
    (q, vec![rem as u64])
}

/// Knuth Algorithm D: full multi-precision division.
///
/// Returns `(quotient, remainder)` with `u = q * v + r`, `0 <= r < v`.
///
/// # Panics
///
/// Panics if `v` is zero.
pub(crate) fn div_rem(u: &[u64], v: &[u64]) -> (Vec<u64>, Vec<u64>) {
    divide(u, v, true)
}

/// `u mod v`, without storing a quotient.
///
/// # Panics
///
/// Panics if `v` is zero.
pub(crate) fn rem(u: &[u64], v: &[u64]) -> Vec<u64> {
    divide(u, v, false).1
}

/// [`div_rem`], whose quotient is empty unless `want_q`. The remainder is
/// shifted back in the buffer that held the normalised dividend, and a
/// divisor whose top limb already has its high bit set is not copied.
fn divide(u: &[u64], v: &[u64], want_q: bool) -> (Vec<u64>, Vec<u64>) {
    let un = nlimbs(u);
    let vn = nlimbs(v);
    assert!(vn > 0, "division by zero");
    if cmp(&u[..un], &v[..vn]) == Ordering::Less {
        return (Vec::new(), u[..un].to_vec());
    }
    if vn == 1 {
        return div_rem_limb(&u[..un], v[0], want_q);
    }

    // Normalize: shift so the divisor's top limb has its high bit set.
    let s = v[vn - 1].leading_zeros() as usize;
    let shifted;
    let vv = if s == 0 {
        &v[..vn]
    } else {
        shifted = shl(&v[..vn], s);
        // shl pads one extra limb; normalization keeps vn limbs
        &shifted[..vn]
    };
    let mut uu = shl(&u[..un], s);
    // Ensure exactly un + 1 limbs so uu[j + vn] is always in range.
    uu.resize(un + 1, 0);

    let b: u128 = 1 << 64;
    let v1 = vv[vn - 1] as u128;
    let v0 = vv[vn - 2] as u128;
    let mut q = if want_q {
        vec![0u64; un - vn + 1]
    } else {
        Vec::new()
    };

    for j in (0..=un - vn).rev() {
        let u2 = uu[j + vn] as u128;
        let u1 = uu[j + vn - 1] as u128;
        let u0 = uu[j + vn - 2] as u128;

        // Estimate the quotient digit from the top three limbs.
        let num = (u2 << 64) | u1;
        let mut qhat = num / v1;
        let mut rhat = num - qhat * v1;
        while qhat >= b || qhat * v0 > ((rhat << 64) | u0) {
            qhat -= 1;
            rhat += v1;
            if rhat >= b {
                break;
            }
        }

        // Multiply-subtract: uu[j..=j+vn] -= qhat * vv
        let mut mul_carry: u128 = 0;
        let mut borrow: u64 = 0;
        for i in 0..vn {
            let p = qhat * vv[i] as u128 + mul_carry;
            mul_carry = p >> 64;
            let (d1, b1) = uu[j + i].overflowing_sub(p as u64);
            let (d2, b2) = d1.overflowing_sub(borrow);
            uu[j + i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        let (d1, b1) = uu[j + vn].overflowing_sub(mul_carry as u64);
        let (d2, b2) = d1.overflowing_sub(borrow);
        uu[j + vn] = d2;

        let mut qdigit = qhat as u64;
        if b1 || b2 {
            // Estimate was one too large: add the divisor back.
            qdigit -= 1;
            let mut carry = 0u64;
            for i in 0..vn {
                let (s1, c1) = uu[j + i].overflowing_add(vv[i]);
                let (s2, c2) = s1.overflowing_add(carry);
                uu[j + i] = s2;
                carry = (c1 as u64) + (c2 as u64);
            }
            uu[j + vn] = uu[j + vn].wrapping_add(carry);
        }
        if let Some(qj) = q.get_mut(j) {
            *qj = qdigit;
        }
    }

    // The remainder is uu[..vn], still shifted left by s bits.
    uu.truncate(vn);
    if s > 0 {
        for i in 0..vn {
            let hi = uu.get(i + 1).map_or(0, |&x| x << (64 - s));
            uu[i] = uu[i] >> s | hi;
        }
    }
    (q, uu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nlimbs_strips_leading_zeros() {
        assert_eq!(nlimbs(&[]), 0);
        assert_eq!(nlimbs(&[0, 0]), 0);
        assert_eq!(nlimbs(&[1, 0]), 1);
        assert_eq!(nlimbs(&[0, 7]), 2);
    }

    #[test]
    fn cmp_ignores_padding() {
        assert_eq!(cmp(&[5, 0, 0], &[5]), Ordering::Equal);
        assert_eq!(cmp(&[5], &[6]), Ordering::Less);
        assert_eq!(cmp(&[0, 1], &[u64::MAX]), Ordering::Greater);
    }

    #[test]
    fn add_carries_across_limbs() {
        let mut a = vec![u64::MAX];
        add_assign(&mut a, &[1]);
        assert_eq!(a, vec![0, 1]);
    }

    #[test]
    fn sub_borrows() {
        let mut a = vec![0, 1];
        assert!(!sub_assign(&mut a, &[1]));
        assert_eq!(a, vec![u64::MAX, 0]);
        let mut b = vec![3];
        assert!(sub_assign(&mut b, &[5]));
    }

    #[test]
    fn mul_simple() {
        assert_eq!(nlimbs(&mul(&[0], &[7])), 0);
        let p = mul(&[u64::MAX], &[u64::MAX]);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(p, vec![1, u64::MAX - 1]);
    }

    #[test]
    fn shift_round_trip() {
        let a = [0xdead_beef_u64, 0x1234];
        for s in [0usize, 1, 7, 63, 64, 65, 100] {
            let up = shl(&a, s);
            let down = shr(&up, s);
            assert_eq!(cmp(&down, &a), Ordering::Equal, "shift {s}");
        }
    }

    #[test]
    fn div_by_limb() {
        let (q, r) = div_rem(&[7, 3], &[2]);
        // 3*2^64 + 7 = 2*(1.5*2^64 + 3) + 1
        let back = {
            let mut t = mul(&q, &[2]);
            add_assign(&mut t, &r);
            t
        };
        assert_eq!(cmp(&back, &[7, 3]), Ordering::Equal);
        assert_eq!(cmp(&r, &[2]), Ordering::Less);
    }

    #[test]
    fn div_multi_limb_reconstructs() {
        let u = [0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 0xaaaa, 7];
        let v = [0xffff_ffff_0000_0001, 3];
        let (q, r) = div_rem(&u, &v);
        let mut back = mul(&q, &v);
        add_assign(&mut back, &r);
        assert_eq!(cmp(&back, &u), Ordering::Equal);
        assert_eq!(cmp(&r, &v), Ordering::Less);
    }

    #[test]
    fn div_triggers_add_back() {
        // Classic add-back stress: u = [0, qhat-overflow pattern]
        let u = [0, 0, 0x8000_0000_0000_0000];
        let v = [1, 0, 0x8000_0000_0000_0000];
        let (q, r) = div_rem(&u, &v);
        let mut back = mul(&q, &v);
        add_assign(&mut back, &r);
        assert_eq!(cmp(&back, &u), Ordering::Equal);
        assert_eq!(cmp(&r, &v), Ordering::Less);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = div_rem(&[1], &[0]);
    }
}
