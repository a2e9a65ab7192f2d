//! GF(2⁸) field elements.

// Addition in characteristic 2 *is* XOR and division *is* multiplication
// by an inverse; silence clippy's suspicion of those operators in the
// std::ops impls below.
#![allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)]

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The irreducible polynomial x⁸ + x⁴ + x³ + x² + 1 (0x11D), the
/// conventional choice for Reed–Solomon style erasure and network codes.
const POLY: u16 = 0x11D;

/// Generator of the multiplicative group under [`POLY`].
const GENERATOR: u8 = 2;

struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

const fn build_tables() -> Tables {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Duplicate the exp table so products of logs index without a mod.
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    Tables { exp, log }
}

static TABLES: Tables = build_tables();

/// An element of GF(2⁸) = GF(256).
///
/// Addition and subtraction are both XOR; multiplication and division run
/// through log/antilog tables generated at compile time from the
/// irreducible polynomial `0x11D` with generator `2`.
///
/// # Example
///
/// ```
/// use ioverlay_gf256::Gf256;
///
/// let a = Gf256::new(0x57);
/// let b = Gf256::new(0x13);
/// assert_eq!(a + b, Gf256::new(0x44)); // xor
/// assert_eq!((a * b) / b, a);          // field inverse
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gf256(u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The canonical generator of the multiplicative group.
    pub const GENERATOR: Gf256 = Gf256(GENERATOR);

    /// Wraps a raw byte as a field element.
    pub const fn new(value: u8) -> Self {
        Gf256(value)
    }

    /// The underlying byte.
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Whether this is the additive identity.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero, which has no inverse.
    pub fn inv(self) -> Self {
        assert!(self.0 != 0, "zero has no multiplicative inverse in GF(256)");
        let log = TABLES.log[self.0 as usize] as usize;
        Gf256(TABLES.exp[255 - log])
    }

    /// Raises the element to an integer power (with `x⁰ = 1`, including
    /// for `x = 0` by convention).
    pub fn pow(self, mut exp: u32) -> Self {
        if exp == 0 {
            return Gf256::ONE;
        }
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        let log = u32::from(TABLES.log[self.0 as usize]);
        exp %= 255;
        Gf256(TABLES.exp[(log * exp % 255) as usize])
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

impl fmt::LowerHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

impl From<u8> for Gf256 {
    fn from(value: u8) -> Self {
        Gf256(value)
    }
}

impl From<Gf256> for u8 {
    fn from(value: Gf256) -> Self {
        value.0
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    fn sub(self, rhs: Gf256) -> Gf256 {
        // In characteristic 2, subtraction and addition coincide.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    fn neg(self) -> Gf256 {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let idx = TABLES.log[self.0 as usize] as usize + TABLES.log[rhs.0 as usize] as usize;
        Gf256(TABLES.exp[idx])
    }
}

impl MulAssign for Gf256 {
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: Gf256) -> Gf256 {
        self * rhs.inv()
    }
}

impl DivAssign for Gf256 {
    fn div_assign(&mut self, rhs: Gf256) {
        *self = *self / rhs;
    }
}

impl Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ZERO, Add::add)
    }
}

impl Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ONE, Mul::mul)
    }
}

/// Raw byte-level product for the bulk kernels (`kernels` module): keeps
/// the log/antilog tables private to this module while letting the
/// kernels compute odd tail bytes and short coefficient vectors.
#[inline]
pub(crate) fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    TABLES.exp[TABLES.log[a as usize] as usize + TABLES.log[b as usize] as usize]
}

/// `a * b` by shift-and-reduce under [`POLY`] — the `const` form of
/// [`gf_mul`], for the SIMD tier's tables that are built at compile time
/// like [`TABLES`].
#[cfg(feature = "simd")]
pub(crate) const fn gf_mul_const(a: u8, b: u8) -> u8 {
    let mut acc = 0u16;
    let mut a = a as u16;
    let mut b = b;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= POLY;
        }
        b >>= 1;
    }
    acc as u8
}

/// Builds the full 256-byte product row for one coefficient:
/// `row[x] = c * x`. One build costs 255 table pairs and turns every
/// subsequent per-byte multiply into a single L1 lookup — the right
/// shape for the kernels' long `Gf256`-typed coefficient vectors.
pub(crate) fn product_row(c: u8) -> [u8; 256] {
    let mut row = [0u8; 256];
    if c == 0 {
        return row;
    }
    let log_c = TABLES.log[c as usize] as usize;
    for (x, r) in row.iter_mut().enumerate().skip(1) {
        *r = TABLES.exp[log_c + TABLES.log[x] as usize];
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_products() {
        // Spot values for poly 0x11D.
        assert_eq!(Gf256::new(2) * Gf256::new(2), Gf256::new(4));
        assert_eq!(Gf256::new(0x80) * Gf256::new(2), Gf256::new(0x1D));
        assert_eq!(Gf256::new(0xFF) * Gf256::ONE, Gf256::new(0xFF));
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        for v in 0..=255u8 {
            let x = Gf256::new(v);
            assert_eq!(x + x, Gf256::ZERO);
            assert_eq!(x - x, Gf256::ZERO);
            assert_eq!(-x, x);
        }
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        for v in 1..=255u8 {
            let x = Gf256::new(v);
            assert_eq!(x * x.inv(), Gf256::ONE, "inverse failed for {v}");
            assert_eq!(x / x, Gf256::ONE);
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn zero_inverse_panics() {
        let _ = Gf256::ZERO.inv();
    }

    #[test]
    fn generator_has_full_order() {
        let mut seen = std::collections::HashSet::new();
        let mut x = Gf256::ONE;
        for _ in 0..255 {
            assert!(seen.insert(x.value()));
            x *= Gf256::GENERATOR;
        }
        assert_eq!(x, Gf256::ONE, "generator order must be 255");
        assert_eq!(seen.len(), 255);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let x = Gf256::new(0x53);
        let mut acc = Gf256::ONE;
        for e in 0..20u32 {
            assert_eq!(x.pow(e), acc);
            acc *= x;
        }
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
        assert_eq!(Gf256::ZERO.pow(5), Gf256::ZERO);
    }

    #[test]
    fn sum_and_product_fold() {
        let xs = [Gf256::new(1), Gf256::new(2), Gf256::new(3)];
        assert_eq!(xs.iter().copied().sum::<Gf256>(), Gf256::new(0));
        assert_eq!(xs.iter().copied().product::<Gf256>(), Gf256::new(6));
    }

    #[test]
    fn gf_mul_and_product_row_match_operators() {
        for c in [0u8, 1, 2, 0x13, 0x57, 0xFF] {
            let row = product_row(c);
            for x in 0..=255u8 {
                let expect = (Gf256::new(c) * Gf256::new(x)).value();
                assert_eq!(gf_mul(c, x), expect);
                assert_eq!(row[x as usize], expect);
            }
        }
    }

    #[cfg(feature = "simd")]
    #[test]
    fn const_multiply_matches_the_tables() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf_mul_const(a, b), gf_mul(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn formatting() {
        let x = Gf256::new(0xAB);
        assert_eq!(format!("{x}"), "0xab");
        assert_eq!(format!("{x:x}"), "ab");
        assert_eq!(format!("{x:X}"), "AB");
        assert_eq!(format!("{x:b}"), "10101011");
        assert_eq!(format!("{x:o}"), "253");
    }
}
