//! Prime-field arithmetic modulo a word-sized prime.
//!
//! All CKKS limb arithmetic happens in `Z_q` for NTT-friendly primes
//! `q ≡ 1 (mod 2N)`. [`Modulus`] bundles a prime with the precomputed
//! constants used by Barrett and Shoup reductions so that the hot paths
//! (NTT butterflies, element-wise multiply-accumulate) avoid 128-bit
//! division.

/// A prime modulus `q < 2^62` with precomputed reduction constants.
///
/// # Example
///
/// ```
/// use ckks_math::modulus::Modulus;
/// let q = Modulus::new(1152921504606845473); // some 60-bit prime
/// let a = q.mul(3, 5);
/// assert_eq!(a, 15);
/// assert_eq!(q.mul(q.value() - 1, q.value() - 1), 1); // (-1)^2 = 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    q: u64,
    /// Barrett constant: `floor(2^128 / q)` split into (hi, lo) 64-bit words.
    barrett_hi: u64,
    barrett_lo: u64,
}

impl Modulus {
    /// Creates a modulus context.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q >= 2^62` (the headroom required by the lazy
    /// reductions used in the NTT).
    pub fn new(q: u64) -> Self {
        assert!(q >= 2, "modulus must be at least 2");
        assert!(q < (1u64 << 62), "modulus must be below 2^62");
        // floor(2^128 / q) computed via 128-bit long division in two steps.
        let hi = u128::MAX / q as u128; // floor((2^128 - 1) / q)
                                        // (2^128 - 1) = q * hi + rem; floor(2^128/q) = hi unless rem == q-1,
                                        // in which case it is hi + 1.
        let rem = u128::MAX - hi * q as u128;
        let floor_2_128 = if rem == (q as u128 - 1) { hi + 1 } else { hi };
        Self {
            q,
            barrett_hi: (floor_2_128 >> 64) as u64,
            barrett_lo: floor_2_128 as u64,
        }
    }

    /// The prime value.
    #[inline]
    pub const fn value(&self) -> u64 {
        self.q
    }

    /// Number of significant bits of `q`.
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.q.leading_zeros()
    }

    /// Reduces an arbitrary `u64` into `[0, q)`.
    #[inline]
    pub fn reduce(&self, a: u64) -> u64 {
        a % self.q
    }

    /// Reduces a full 128-bit product into `[0, q)` with Barrett reduction.
    #[inline]
    pub fn reduce_u128(&self, a: u128) -> u64 {
        // Estimate quotient: qhat = floor(a * floor(2^128/q) / 2^128).
        // Only the high 128 bits of the 256-bit product are needed.
        let a_lo = a as u64;
        let a_hi = (a >> 64) as u64;
        // a * barrett = (a_hi*2^64 + a_lo) * (b_hi*2^64 + b_lo)
        let lo_lo = (a_lo as u128) * (self.barrett_lo as u128);
        let lo_hi = (a_lo as u128) * (self.barrett_hi as u128);
        let hi_lo = (a_hi as u128) * (self.barrett_lo as u128);
        let hi_hi = (a_hi as u128) * (self.barrett_hi as u128);
        let mid = lo_hi + (lo_lo >> 64) + hi_lo; // no overflow: each < 2^128/2
        let qhat = hi_hi + (mid >> 64);
        let mut r = (a - qhat * self.q as u128) as u64;
        while r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Modular addition of values already in `[0, q)`.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Modular subtraction of values already in `[0, q)`.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// Modular negation of a value already in `[0, q)`.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// Modular multiplication of values already in `[0, q)`.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Fused multiply-add `a*b + c mod q`.
    #[inline]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q && c < self.q);
        self.reduce_u128(a as u128 * b as u128 + c as u128)
    }

    /// Precomputes the Shoup companion word `floor(b * 2^64 / q)` for a fixed
    /// multiplicand `b`, enabling division-free [`Self::mul_shoup`].
    #[inline]
    pub fn shoup(&self, b: u64) -> u64 {
        debug_assert!(b < self.q);
        (((b as u128) << 64) / self.q as u128) as u64
    }

    /// Multiplication by a fixed operand with its Shoup precomputation.
    ///
    /// `b_shoup` must be `self.shoup(b)`.
    #[inline]
    pub fn mul_shoup(&self, a: u64, b: u64, b_shoup: u64) -> u64 {
        debug_assert!(a < self.q);
        let r = self.mul_shoup_lazy(a, b, b_shoup);
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// [`Self::mul_shoup`] without the final correction: for *any* `a`
    /// (not only `a < q`) the result is `≡ a·b (mod q)` and lies in
    /// `[0, 2q)`. This is Harvey's lazy butterfly multiply; the NTT keeps
    /// its operands in `[0, 4q)`, which `q < 2^62` keeps below `2^64`.
    ///
    /// `b_shoup` must be `self.shoup(b)`.
    #[inline]
    pub fn mul_shoup_lazy(&self, a: u64, b: u64, b_shoup: u64) -> u64 {
        debug_assert!(b < self.q);
        let quo = ((a as u128 * b_shoup as u128) >> 64) as u64;
        a.wrapping_mul(b).wrapping_sub(quo.wrapping_mul(self.q))
    }

    /// Modular exponentiation `a^e mod q` by square-and-multiply.
    pub fn pow(&self, a: u64, mut e: u64) -> u64 {
        let mut base = self.reduce(a);
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem (`q` must be prime).
    ///
    /// # Panics
    ///
    /// Panics if `a ≡ 0 (mod q)`, which has no inverse.
    pub fn inv(&self, a: u64) -> u64 {
        let a = self.reduce(a);
        assert!(a != 0, "zero has no modular inverse");
        self.pow(a, self.q - 2)
    }

    /// Maps a signed value to its representative in `[0, q)`.
    #[inline]
    pub fn from_i64(&self, v: i64) -> u64 {
        // Encoded coefficients are almost always smaller than q: skip the
        // division then.
        let mag = v.unsigned_abs();
        if mag < self.q {
            if v < 0 {
                self.q - mag
            } else {
                mag
            }
        } else {
            v.rem_euclid(self.q as i64) as u64
        }
    }

    /// Maps a residue to its centered representative in `(-q/2, q/2]`.
    #[inline]
    pub fn to_centered(&self, a: u64) -> i64 {
        debug_assert!(a < self.q);
        if a > self.q / 2 {
            a as i64 - self.q as i64
        } else {
            a as i64
        }
    }
}

impl std::fmt::Display for Modulus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Z_{}", self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q60() -> Modulus {
        // 60-bit NTT-friendly prime for N = 2^16.
        Modulus::new(crate::prime::generate_ntt_primes(60, 1, 1 << 17)[0])
    }

    #[test]
    fn add_sub_roundtrip() {
        let m = q60();
        let q = m.value();
        for (a, b) in [(0, 0), (1, q - 1), (q - 1, q - 1), (q / 2, q / 2 + 1)] {
            let s = m.add(a, b);
            assert_eq!(m.sub(s, b), a);
        }
    }

    #[test]
    fn mul_matches_u128_reference() {
        let m = q60();
        let q = m.value();
        let cases = [
            (0, 5),
            (q - 1, q - 1),
            (q / 2, 3),
            (123456789, 987654321),
            (q - 2, q / 3),
        ];
        for (a, b) in cases {
            let want = ((a as u128 * b as u128) % q as u128) as u64;
            assert_eq!(m.mul(a, b), want);
        }
    }

    #[test]
    fn shoup_matches_mul() {
        let m = q60();
        let q = m.value();
        for b in [1u64, 2, q - 1, q / 7, 0x1234_5678_9abc] {
            let bs = m.shoup(b);
            for a in [0u64, 1, q - 1, q / 3, 42] {
                assert_eq!(m.mul_shoup(a, b, bs), m.mul(a, b));
            }
        }
    }

    #[test]
    fn pow_and_inv() {
        let m = q60();
        for a in [2u64, 3, 12345, m.value() - 1] {
            let inv = m.inv(a);
            assert_eq!(m.mul(a, inv), 1);
        }
        assert_eq!(m.pow(2, 10), 1024);
    }

    #[test]
    fn centered_representatives() {
        let m = Modulus::new(17);
        assert_eq!(m.to_centered(0), 0);
        assert_eq!(m.to_centered(8), 8);
        assert_eq!(m.to_centered(9), -8);
        assert_eq!(m.to_centered(16), -1);
        assert_eq!(m.from_i64(-1), 16);
        assert_eq!(m.from_i64(-17), 0);
    }

    #[test]
    fn from_i64_matches_rem_euclid_at_the_edges() {
        for m in [Modulus::new(17), q60(), Modulus::new((1 << 62) - 57)] {
            let q = m.value() as i64;
            for v in [0, 1, -1, q - 1, -(q - 1), q, -q, i64::MIN, i64::MAX] {
                assert_eq!(m.from_i64(v), v.rem_euclid(q) as u64, "v = {v}, q = {q}");
            }
        }
    }

    #[test]
    fn lazy_shoup_stays_below_2q_for_any_input() {
        let m = q60();
        let q = m.value();
        for b in [1u64, q - 1, q / 3] {
            let bs = m.shoup(b);
            for a in [0u64, q - 1, 2 * q - 1, 4 * q - 1, u64::MAX] {
                let r = m.mul_shoup_lazy(a, b, bs);
                assert!(r < 2 * q, "a = {a}, b = {b}: {r} not below 2q");
                assert_eq!(r % q, ((a as u128 * b as u128) % q as u128) as u64);
            }
        }
    }

    #[test]
    fn small_modulus_supported() {
        // The PIM functional model uses 28-bit primes.
        let m = Modulus::new(268369921); // 28-bit prime, 1 mod 2^15
        assert_eq!(m.mul(m.value() - 1, 2), m.value() - 2);
    }

    #[test]
    #[should_panic(expected = "zero has no modular inverse")]
    fn inv_of_zero_panics() {
        q60().inv(0);
    }
}
