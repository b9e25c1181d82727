//! Operator implementations for [`Ubig`].
//!
//! Binary operators are implemented on references (the idiomatic choice for
//! heap-backed integers) with owned-value conveniences delegating to them.

use crate::ll;
use crate::Ubig;
use core::ops::{Add, AddAssign, BitAnd, Div, Mul, Rem, Shl, Shr, Sub, SubAssign};

impl Add for &Ubig {
    type Output = Ubig;
    fn add(self, rhs: &Ubig) -> Ubig {
        let mut out = self.limbs.clone();
        ll::add_assign(&mut out, &rhs.limbs);
        Ubig::from_limbs(out)
    }
}

impl Sub for &Ubig {
    type Output = Ubig;
    /// # Panics
    ///
    /// Panics on underflow; use [`Ubig::checked_sub`] to handle that case.
    fn sub(self, rhs: &Ubig) -> Ubig {
        self.checked_sub(rhs)
            .expect("Ubig subtraction underflow; use checked_sub")
    }
}

impl Mul for &Ubig {
    type Output = Ubig;
    fn mul(self, rhs: &Ubig) -> Ubig {
        Ubig::from_limbs(ll::mul(&self.limbs, &rhs.limbs))
    }
}

impl Div for &Ubig {
    type Output = Ubig;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: &Ubig) -> Ubig {
        self.div_rem(rhs).0
    }
}

impl Rem for &Ubig {
    type Output = Ubig;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn rem(self, rhs: &Ubig) -> Ubig {
        Ubig::from_limbs(ll::rem(&self.limbs, &rhs.limbs))
    }
}

impl Shl<usize> for &Ubig {
    type Output = Ubig;
    fn shl(self, s: usize) -> Ubig {
        Ubig::from_limbs(ll::shl(&self.limbs, s))
    }
}

impl Shr<usize> for &Ubig {
    type Output = Ubig;
    fn shr(self, s: usize) -> Ubig {
        Ubig::from_limbs(ll::shr(&self.limbs, s))
    }
}

impl BitAnd for &Ubig {
    type Output = Ubig;
    fn bitand(self, rhs: &Ubig) -> Ubig {
        let n = self.limbs.len().min(rhs.limbs.len());
        let limbs = (0..n).map(|i| self.limbs[i] & rhs.limbs[i]).collect();
        Ubig::from_limbs(limbs)
    }
}

impl AddAssign<&Ubig> for Ubig {
    fn add_assign(&mut self, rhs: &Ubig) {
        ll::add_assign(&mut self.limbs, &rhs.limbs);
    }
}

impl SubAssign<&Ubig> for Ubig {
    /// # Panics
    ///
    /// Panics on underflow.
    fn sub_assign(&mut self, rhs: &Ubig) {
        *self = &*self - rhs;
    }
}

macro_rules! owned_delegate {
    ($($trait:ident :: $method:ident),*) => {$(
        impl $trait for Ubig {
            type Output = Ubig;
            fn $method(self, rhs: Ubig) -> Ubig {
                $trait::$method(&self, &rhs)
            }
        }
        impl $trait<&Ubig> for Ubig {
            type Output = Ubig;
            fn $method(self, rhs: &Ubig) -> Ubig {
                $trait::$method(&self, rhs)
            }
        }
        impl $trait<Ubig> for &Ubig {
            type Output = Ubig;
            fn $method(self, rhs: Ubig) -> Ubig {
                $trait::$method(self, &rhs)
            }
        }
    )*};
}

owned_delegate!(
    Add::add,
    Sub::sub,
    Mul::mul,
    Div::div,
    Rem::rem,
    BitAnd::bitand
);

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u128) -> Ubig {
        Ubig::from(v)
    }

    #[test]
    fn add_sub_round_trip() {
        let a = u(u128::MAX - 3);
        let b = u(12345);
        assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_div_rem_identity() {
        let a = u(0xdead_beef_1234_5678_9abc_def0);
        let d = u(0xffff_1234);
        let (q, r) = a.div_rem(&d);
        assert_eq!(&q * &d + &r, a);
        assert!(r < d);
        assert_eq!(&a / &d, q);
        assert_eq!(&a % &d, r);
    }

    #[test]
    fn shifts() {
        let a = u(0b1011);
        assert_eq!(&a << 2, u(0b101100));
        assert_eq!(&a >> 1, u(0b101));
        assert_eq!(&a >> 10, Ubig::zero());
    }

    #[test]
    fn bitand_truncates() {
        let a = Ubig::pow2(100);
        let b = u(u128::MAX);
        assert_eq!(&a & &b, Ubig::pow2(100)); // bit 100 set in both
        assert_eq!(&Ubig::pow2(200) & &b, Ubig::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = u(1) - u(2);
    }

    #[test]
    fn owned_variants() {
        assert_eq!(u(2) + u(3), u(5));
        assert_eq!(&u(7) * u(6), u(42));
        assert_eq!(u(7) % &u(4), u(3));
    }
}
