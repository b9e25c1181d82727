//! Primality testing and prime generation.
//!
//! `fd-crypto` uses it for RSA key generation and for
//! `SchnorrGroup::generate`, the recipe that reproduces the preset Schnorr
//! groups (DSA-style `p = c·q + 1`) from their fixed seeds. Every candidate
//! stream is drawn from the caller's RNG, so both are fully deterministic.

use crate::{MontCtx, RandomUbig, Ubig};

/// Small primes for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 60] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
];

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
///
/// False-positive probability is at most `4^-rounds`; 40 rounds is standard
/// for cryptographic use. Deterministically correct for all `n < 282`
/// (covered by trial division).
pub fn is_probable_prime<R: RandomUbig>(n: &Ubig, rounds: usize, rng: &mut R) -> bool {
    if n < &Ubig::from(2u64) {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let p = Ubig::from(p);
        if *n == p {
            return true;
        }
        if (n % &p).is_zero() {
            return false;
        }
    }
    // n is odd and > 281 here. Write n-1 = d * 2^s.
    let one = Ubig::one();
    let n_minus_1 = n - &one;
    let s = {
        let mut s = 0usize;
        while !n_minus_1.bit(s) {
            s += 1;
        }
        s
    };
    let d = &n_minus_1 >> s;
    let two = Ubig::from(2u64);
    let n_minus_2 = n - &two;
    let ctx = MontCtx::new(n).expect("n is odd and > 1");

    'witness: for _ in 0..rounds {
        let a = rng.random_range(&two, &n_minus_2);
        let mut x = ctx.modpow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = ctx.mul(&x, &x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generate a random probable prime with exactly `bits` bits.
///
/// The candidate stream is derived from `rng`, so generation is fully
/// deterministic per seed.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn gen_prime<R: RandomUbig>(bits: usize, rng: &mut R) -> Ubig {
    assert!(bits >= 2, "a prime needs at least 2 bits");
    if bits < 9 {
        // Sample directly from the small-prime table region.
        loop {
            let c = rng.random_bits(bits);
            if is_probable_prime(&c, 40, rng) {
                return c;
            }
        }
    }
    loop {
        let mut c = rng.random_bits(bits);
        if c.is_even() {
            c = &c + &Ubig::one();
            if c.bits() != bits {
                continue;
            }
        }
        if is_probable_prime(&c, 40, rng) {
            return c;
        }
    }
}

/// Generate a DSA-style prime pair: `q` prime with `q_bits` bits and
/// `p = c·q + 1` prime with `p_bits` bits.
///
/// Returns `(p, q)`. This is the classic Schnorr-group parameter shape: the
/// multiplicative group mod `p` has a subgroup of prime order `q`.
///
/// # Panics
///
/// Panics if `p_bits <= q_bits + 1` (no room for the cofactor).
pub fn gen_schnorr_pair<R: RandomUbig>(p_bits: usize, q_bits: usize, rng: &mut R) -> (Ubig, Ubig) {
    assert!(
        p_bits > q_bits + 1,
        "p must be strictly larger than q (cofactor >= 2)"
    );
    let q = gen_prime(q_bits, rng);
    let one = Ubig::one();
    loop {
        // c even with exactly p_bits - q_bits bits, so p = c*q + 1 is odd
        // and has roughly p_bits bits.
        let mut c = rng.random_bits(p_bits - q_bits);
        if c.is_odd() {
            c = &c + &one;
        }
        if c.is_zero() {
            continue;
        }
        let p = &(&c * &q) + &one;
        if p.bits() != p_bits {
            continue;
        }
        if is_probable_prime(&p, 40, rng) {
            return (p, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn small_primes_and_composites() {
        let mut rng = SplitMix64::new(1);
        for p in [2u64, 3, 5, 7, 97, 101, 257, 281] {
            assert!(is_probable_prime(&Ubig::from(p), 20, &mut rng), "{p}");
        }
        for c in [0u64, 1, 4, 9, 100, 255, 961, 1001] {
            assert!(!is_probable_prime(&Ubig::from(c), 20, &mut rng), "{c}");
        }
    }

    #[test]
    fn known_large_prime_and_carmichael() {
        let mut rng = SplitMix64::new(2);
        // 2^61 - 1 is a Mersenne prime.
        let m61 = &Ubig::pow2(61) - &Ubig::one();
        assert!(is_probable_prime(&m61, 30, &mut rng));
        // 561 = 3*11*17 is the smallest Carmichael number (Fermat liar trap).
        assert!(!is_probable_prime(&Ubig::from(561u64), 30, &mut rng));
        // Large Carmichael: 101101 = 7*11*13*101
        assert!(!is_probable_prime(&Ubig::from(101101u64), 30, &mut rng));
    }

    #[test]
    fn gen_prime_has_requested_width() {
        let mut rng = SplitMix64::new(3);
        for bits in [16usize, 32, 64, 128] {
            let p = gen_prime(bits, &mut rng);
            assert_eq!(p.bits(), bits);
            assert!(is_probable_prime(&p, 20, &mut rng));
        }
    }

    #[test]
    fn gen_prime_deterministic() {
        let a = gen_prime(64, &mut SplitMix64::new(42));
        let b = gen_prime(64, &mut SplitMix64::new(42));
        assert_eq!(a, b);
    }

    #[test]
    fn schnorr_pair_structure() {
        let mut rng = SplitMix64::new(4);
        let (p, q) = gen_schnorr_pair(128, 64, &mut rng);
        assert_eq!(p.bits(), 128);
        assert_eq!(q.bits(), 64);
        // q divides p - 1
        let p_minus_1 = &p - &Ubig::one();
        assert!((&p_minus_1 % &q).is_zero());
        assert!(is_probable_prime(&p, 20, &mut rng));
        assert!(is_probable_prime(&q, 20, &mut rng));
    }

    #[test]
    #[should_panic(expected = "at least 2 bits")]
    fn gen_prime_rejects_tiny_width() {
        let _ = gen_prime(1, &mut SplitMix64::new(0));
    }
}
