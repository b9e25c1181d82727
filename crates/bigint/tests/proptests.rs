//! Property-based tests for the bigint substrate: ring axioms, division
//! invariants, encoding round-trips, and modular-arithmetic laws. The
//! Montgomery ladders (one-bit and 4-bit windows, comb tables and their
//! fallback) are checked against a division-based reference.

use fd_bigint::{egcd, gcd, modinv, modmul, modpow, Int, MontCtx, Ubig};
use proptest::prelude::*;

fn ubig_strategy() -> impl Strategy<Value = Ubig> {
    // Byte vectors up to 40 bytes -> integers up to 320 bits, biased to
    // include small and zero values.
    prop::collection::vec(any::<u8>(), 0..40).prop_map(|bytes| Ubig::from_be_bytes(&bytes))
}

fn nonzero_ubig() -> impl Strategy<Value = Ubig> {
    ubig_strategy().prop_map(|v| if v.is_zero() { Ubig::one() } else { v })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutes(a in ubig_strategy(), b in ubig_strategy()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in ubig_strategy(), b in ubig_strategy(), c in ubig_strategy()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutes(a in ubig_strategy(), b in ubig_strategy()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_associates(a in ubig_strategy(), b in ubig_strategy(), c in ubig_strategy()) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn mul_distributes(a in ubig_strategy(), b in ubig_strategy(), c in ubig_strategy()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn add_sub_round_trip(a in ubig_strategy(), b in ubig_strategy()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn division_invariant(u in ubig_strategy(), v in nonzero_ubig()) {
        let (q, r) = u.div_rem(&v);
        prop_assert!(r < v);
        prop_assert_eq!(&(&q * &v) + &r, u);
    }

    #[test]
    fn shift_is_pow2_mul(a in ubig_strategy(), s in 0usize..200) {
        prop_assert_eq!(&a << s, &a * &Ubig::pow2(s));
    }

    #[test]
    fn shl_shr_round_trip(a in ubig_strategy(), s in 0usize..200) {
        prop_assert_eq!(&(&a << s) >> s, a);
    }

    #[test]
    fn be_bytes_round_trip(a in ubig_strategy()) {
        prop_assert_eq!(Ubig::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn decimal_round_trip(a in ubig_strategy()) {
        prop_assert_eq!(a.to_string().parse::<Ubig>().unwrap(), a);
    }

    #[test]
    fn hex_round_trip(a in ubig_strategy()) {
        prop_assert_eq!(Ubig::from_hex(&format!("{a:x}")).unwrap(), a);
    }

    #[test]
    fn gcd_divides_both(a in ubig_strategy(), b in ubig_strategy()) {
        let g = gcd(&a, &b);
        if !g.is_zero() {
            prop_assert!((&a % &g).is_zero());
            prop_assert!((&b % &g).is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn egcd_bezout(a in ubig_strategy(), b in ubig_strategy()) {
        let (g, x, y) = egcd(&a, &b);
        let lhs = &(&Int::from(a) * &x) + &(&Int::from(b) * &y);
        prop_assert_eq!(lhs, Int::from(g));
    }

    #[test]
    fn modinv_is_inverse(a in nonzero_ubig(), m in nonzero_ubig()) {
        if m > Ubig::one() {
            if let Some(inv) = modinv(&a, &m) {
                prop_assert_eq!(modmul(&a, &inv, &m), &Ubig::one() % &m);
                prop_assert!(inv < m);
            } else {
                prop_assert!(!gcd(&a, &m).is_one());
            }
        }
    }

    #[test]
    fn montgomery_matches_division(a in ubig_strategy(), b in ubig_strategy(), m in nonzero_ubig()) {
        if m.is_odd() && !m.is_one() {
            let ctx = MontCtx::new(&m).unwrap();
            prop_assert_eq!(ctx.mul(&a, &b), &(&a * &b) % &m);
        }
    }

    #[test]
    fn modpow_product_law(base in ubig_strategy(), e1 in 0u64..200, e2 in 0u64..200, m in nonzero_ubig()) {
        // base^(e1+e2) = base^e1 * base^e2 (mod m)
        if m > Ubig::one() {
            let lhs = modpow(&base, &Ubig::from(e1 + e2), &m);
            let rhs = modmul(
                &modpow(&base, &Ubig::from(e1), &m),
                &modpow(&base, &Ubig::from(e2), &m),
                &m,
            );
            prop_assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn cmp_consistent_with_sub(a in ubig_strategy(), b in ubig_strategy()) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(a.checked_sub(&b).is_none()),
            _ => prop_assert!(a.checked_sub(&b).is_some()),
        }
    }
}

/// Square-and-multiply with division-based reduction: the reference the
/// Montgomery ladders are checked against.
fn reference_modpow(base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
    let base = base % m;
    let mut acc = &Ubig::one() % m;
    for i in (0..exp.bits()).rev() {
        acc = &(&acc * &acc) % m;
        if exp.bit(i) {
            acc = &(&acc * &base) % m;
        }
    }
    acc
}

/// An integer of exactly `bits` bits (zero for 0) drawn from `bytes`.
fn with_bits(bytes: &[u8], bits: usize) -> Ubig {
    if bits == 0 {
        return Ubig::zero();
    }
    let mut v = &Ubig::from_be_bytes(bytes) % &Ubig::pow2(bits);
    v.set_bit(bits - 1);
    v
}

fn random_bytes(len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), len)
}

/// Odd moduli of 1..=`max_limbs` limbs whose top limb has any length.
fn odd_modulus(max_limbs: usize) -> impl Strategy<Value = Ubig> {
    (1..=max_limbs, 0usize..62, random_bytes(8 * max_limbs)).prop_map(|(limbs, gap, bytes)| {
        let mut m = with_bits(&bytes, 64 * limbs - gap);
        m.set_bit(0);
        m
    })
}

/// Exponents of 0..=2 100 bits, half of them at lengths the ladders treat
/// specially: the one-bit/4-bit switch at 32/33 bits, multiples of four,
/// and limb edges 64k ± 1.
fn exponent() -> impl Strategy<Value = Ubig> {
    const EDGES: [usize; 21] = [
        0, 1, 4, 31, 32, 33, 36, 63, 64, 65, 127, 128, 129, 160, 1023, 1024, 1025, 2047, 2048,
        2049, 2100,
    ];
    (any::<u64>(), random_bytes(263)).prop_map(|(pick, bytes)| {
        let bits = if pick % 2 == 0 {
            EDGES[(pick / 2 % EDGES.len() as u64) as usize]
        } else {
            (pick / 2 % 2101) as usize
        };
        with_bits(&bytes, bits)
    })
}

/// Base 0, 1, `m`, `m + x`, or `x` itself (up to 33 limbs, often `>= m`).
fn base_for(kind: u8, x: Ubig, m: &Ubig) -> Ubig {
    match kind % 5 {
        0 => Ubig::zero(),
        1 => Ubig::one(),
        2 => m.clone(),
        3 => m + &x,
        _ => x,
    }
}

fn any_ubig() -> impl Strategy<Value = Ubig> {
    prop::collection::vec(any::<u8>(), 0..264).prop_map(|bytes| Ubig::from_be_bytes(&bytes))
}

/// An exponent for a table covering `max` bits: 0, 1, all `max` bits set
/// (the largest the table serves, as `q − 1` is for a group's table), a
/// random one the table covers, or one longer than the table (the
/// fallback to `modpow`).
fn comb_exponent(bytes: &[u8], max: usize, pick: u8, r: usize) -> Ubig {
    match pick % 6 {
        0 => Ubig::zero(),
        1 => Ubig::one(),
        2 => &Ubig::pow2(max) - &Ubig::one(),
        3 => with_bits(bytes, r % (max + 1)),
        4 => with_bits(bytes, max + 1),
        _ => with_bits(bytes, max + 1 + r % 256),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn modpow_matches_reference(
        m in odd_modulus(32),
        kind in any::<u8>(),
        x in any_ubig(),
        e in exponent(),
    ) {
        let ctx = MontCtx::new(&m).unwrap();
        let base = base_for(kind, x, &m);
        prop_assert_eq!(ctx.modpow(&base, &e), reference_modpow(&base, &e, &m));
    }

    #[test]
    fn pow_fixed_matches_modpow(
        m in odd_modulus(16),
        kind in any::<u8>(),
        x in any_ubig(),
        table_bits in 0usize..=200,
        teeth in 1usize..=8,
        blocks in 1usize..=4,
        pick in any::<u8>(),
        r in any::<usize>(),
        bytes in random_bytes(64),
    ) {
        let ctx = MontCtx::new(&m).unwrap();
        let base = base_for(kind, x, &m);
        let fb = ctx.fixed_base(&base, table_bits, teeth, blocks);
        let e = comb_exponent(&bytes, fb.max_bits(), pick, r);
        prop_assert_eq!(ctx.pow_fixed(&fb, &e), ctx.modpow(&base, &e));
    }

    #[test]
    fn pow_fixed_mul_matches_product_of_modpows(
        m in odd_modulus(16),
        kinds in (any::<u8>(), any::<u8>()),
        xs in (any_ubig(), any_ubig()),
        table_bits in (0usize..=200, 0usize..=200),
        teeth in (1usize..=8, 1usize..=8),
        blocks in (1usize..=4, 1usize..=4),
        picks in (any::<u8>(), any::<u8>()),
        rs in (any::<usize>(), any::<usize>()),
        bytes in random_bytes(64),
    ) {
        let ctx = MontCtx::new(&m).unwrap();
        let base = base_for(kinds.0, xs.0, &m);
        let y = base_for(kinds.1, xs.1, &m);
        let fx = ctx.fixed_base(&base, table_bits.0, teeth.0, blocks.0);
        let fy = ctx.fixed_base(&y, table_bits.1, teeth.1, blocks.1);
        let a = comb_exponent(&bytes, fx.max_bits(), picks.0, rs.0);
        let b = comb_exponent(&bytes[32..], fy.max_bits(), picks.1, rs.1);
        let expected = ctx.mul(&ctx.modpow(&base, &a), &ctx.modpow(&y, &b));
        prop_assert_eq!(ctx.pow_fixed_mul(&fx, &a, &fy, &b), expected.clone());
        // Either table from a context with another modulus takes the
        // ladder: same answer, no panic.
        let other = MontCtx::new(&(&m + &Ubig::from(2u64))).unwrap();
        let foreign = other.fixed_base(&y, table_bits.1, teeth.1, blocks.1);
        prop_assert_eq!(ctx.pow_fixed_mul(&fx, &a, &foreign, &b), expected);
    }
}
