//! The [`Ubig`] arbitrary-precision unsigned integer.

use crate::ll;
use core::cmp::Ordering;
use core::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian 64-bit limbs with the invariant that the most
/// significant limb is non-zero (zero is the empty limb vector). All
/// arithmetic is implemented from scratch in this crate; see the crate docs
/// for why.
///
/// ```
/// use fd_bigint::Ubig;
/// let a = Ubig::from(10u64);
/// let b = Ubig::from(4u64);
/// assert_eq!(&a * &b, Ubig::from(40u64));
/// assert_eq!(&a % &b, Ubig::from(2u64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Ubig {
    pub(crate) limbs: Vec<u64>,
}

impl Ubig {
    /// The value `0`.
    pub fn zero() -> Self {
        Ubig { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        Ubig { limbs: vec![1] }
    }

    /// `2^k`.
    pub fn pow2(k: usize) -> Self {
        let mut limbs = vec![0u64; k / 64 + 1];
        limbs[k / 64] = 1u64 << (k % 64);
        Self::from_limbs(limbs)
    }

    /// Construct from little-endian limbs, normalizing.
    pub(crate) fn from_limbs(mut limbs: Vec<u64>) -> Self {
        let n = ll::nlimbs(&limbs);
        limbs.truncate(n);
        Ubig { limbs }
    }

    /// Borrow the little-endian limbs (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// `true` iff the value is even (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// `true` iff the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Bit length: position of the highest set bit + 1 (0 for zero).
    pub fn bits(&self) -> usize {
        ll::bits(&self.limbs)
    }

    /// Value of bit `i` (LSB is bit 0).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        limb < self.limbs.len() && (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to 1, growing as needed.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1u64 << (i % 64);
    }

    /// Subtraction that returns `None` on underflow.
    pub fn checked_sub(&self, rhs: &Ubig) -> Option<Ubig> {
        if ll::cmp(&self.limbs, &rhs.limbs) == Ordering::Less {
            return None;
        }
        let mut out = self.limbs.clone();
        let borrow = ll::sub_assign(&mut out, &rhs.limbs);
        debug_assert!(!borrow);
        Some(Ubig::from_limbs(out))
    }

    /// Quotient and remainder in one division.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn div_rem(&self, d: &Ubig) -> (Ubig, Ubig) {
        let (q, r) = ll::div_rem(&self.limbs, &d.limbs);
        (Ubig::from_limbs(q), Ubig::from_limbs(r))
    }

    /// Interpret as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Interpret as `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// Big-endian bytes without leading zeros (empty for zero).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..first_nonzero);
        out
    }

    /// Big-endian bytes padded (or truncated from the left) to exactly `len`
    /// bytes. Returns `None` if the value does not fit in `len` bytes.
    pub fn to_be_bytes_fixed(&self, len: usize) -> Option<Vec<u8>> {
        let mut out = vec![0u8; len];
        self.write_be_bytes(&mut out).then_some(out)
    }

    /// Writes the value into all of `out`, big-endian and padded with
    /// leading zeros. Returns `false`, and writes nothing, if the value
    /// does not fit in `out.len()` bytes.
    ///
    /// ```
    /// use fd_bigint::Ubig;
    /// let mut out = [0xff; 4];
    /// assert!(Ubig::from(0xabcdu64).write_be_bytes(&mut out));
    /// assert_eq!(out, [0, 0, 0xab, 0xcd]);
    /// assert!(!Ubig::from(0x1_0000_0000u64).write_be_bytes(&mut out));
    /// ```
    pub fn write_be_bytes(&self, out: &mut [u8]) -> bool {
        if self.bits().div_ceil(8) > out.len() {
            return false;
        }
        for (i, byte) in out.iter_mut().rev().enumerate() {
            *byte = self
                .limbs
                .get(i / 8)
                .map_or(0, |limb| (limb >> (8 * (i % 8))) as u8);
        }
        true
    }

    /// Construct from big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Ubig::from_limbs(limbs)
    }
}

impl From<u64> for Ubig {
    fn from(v: u64) -> Self {
        Ubig::from_limbs(vec![v])
    }
}

impl From<u128> for Ubig {
    fn from(v: u128) -> Self {
        Ubig::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl From<u32> for Ubig {
    fn from(v: u32) -> Self {
        Ubig::from(v as u64)
    }
}

impl PartialOrd for Ubig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ubig {
    fn cmp(&self, other: &Self) -> Ordering {
        ll::cmp(&self.limbs, &other.limbs)
    }
}

impl fmt::Debug for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ubig(0x{:x})", self)
    }
}

/// Error returned when parsing a [`Ubig`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUbigError {
    pub(crate) reason: &'static str,
}

impl fmt::Display for ParseUbigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid big integer literal: {}", self.reason)
    }
}

impl std::error::Error for ParseUbigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_empty_and_even() {
        let z = Ubig::zero();
        assert!(z.is_zero());
        assert!(z.is_even());
        assert_eq!(z.bits(), 0);
        assert_eq!(z, Ubig::default());
    }

    #[test]
    fn pow2_bits() {
        for k in [0usize, 1, 63, 64, 65, 200] {
            let p = Ubig::pow2(k);
            assert_eq!(p.bits(), k + 1);
            assert!(p.bit(k));
            assert!(!p.bit(k + 1));
        }
    }

    #[test]
    fn set_bit_grows() {
        let mut v = Ubig::zero();
        v.set_bit(130);
        assert_eq!(v, Ubig::pow2(130));
    }

    #[test]
    fn checked_sub_underflow() {
        let a = Ubig::from(3u64);
        let b = Ubig::from(5u64);
        assert_eq!(a.checked_sub(&b), None);
        assert_eq!(b.checked_sub(&a), Some(Ubig::from(2u64)));
    }

    #[test]
    fn be_bytes_round_trip() {
        let v = Ubig::from(0x0102_0304_0506_0708_090a_u128);
        let bytes = v.to_be_bytes();
        assert_eq!(bytes[0], 0x01); // no leading zeros
        assert_eq!(Ubig::from_be_bytes(&bytes), v);
    }

    #[test]
    fn be_bytes_fixed_pads_and_rejects() {
        let v = Ubig::from(0xabcdu64);
        assert_eq!(v.to_be_bytes_fixed(4), Some(vec![0, 0, 0xab, 0xcd]));
        assert_eq!(v.to_be_bytes_fixed(1), None);
        assert_eq!(Ubig::zero().to_be_bytes_fixed(3), Some(vec![0, 0, 0]));
    }

    #[test]
    fn u128_round_trip() {
        let v = u128::MAX - 12345;
        assert_eq!(Ubig::from(v).to_u128(), Some(v));
        assert_eq!(Ubig::from(7u64).to_u64(), Some(7));
        assert!(Ubig::pow2(128).to_u128().is_none());
    }
}
