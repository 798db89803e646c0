//! Arithmetic modulo ℓ = 2^252 + 27742317777372353535851937790883648493,
//! the prime order of the edwards25519 base-point subgroup.

/// ℓ as four little-endian 64-bit limbs.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// A scalar reduced modulo ℓ.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Scalar(pub(crate) [u64; 4]);

impl std::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scalar({})", crate::hex::encode(&self.to_bytes()))
    }
}

fn geq(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

fn sub_in_place(a: &mut [u64; 4], b: &[u64; 4]) {
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(borrow);
        a[i] = d;
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0, "subtraction underflow");
}

/// `c = ℓ − 2^252` (125 bits) as two little-endian limbs: the folding
/// constant of [`reduce_wide`], since `2^252 ≡ −c (mod ℓ)`.
const C: [u64; 2] = [L[0], L[1]];

/// Bits of `x` below 2^252.
fn low252(x: &[u64]) -> [u64; 4] {
    [x[0], x[1], x[2], x[3] & ((1 << 60) - 1)]
}

/// `x >> 252` into `N` limbs (the caller sizes `N` to the bound).
fn shr252<const N: usize>(x: &[u64]) -> [u64; N] {
    let mut out = [0u64; N];
    for (i, limb) in out.iter_mut().enumerate() {
        let lo = x.get(i + 3).map_or(0, |v| v >> 60);
        let hi = x.get(i + 4).map_or(0, |v| v << 4);
        *limb = lo | hi;
    }
    out
}

/// `x · c` into `N` limbs (`N ≥ x.len() + 2`).
fn mul_c<const N: usize>(x: &[u64]) -> [u64; N] {
    let mut out = [0u64; N];
    for (i, &xi) in x.iter().enumerate() {
        let mut carry: u128 = 0;
        for (j, &cj) in C.iter().enumerate() {
            let acc = out[i + j] as u128 + xi as u128 * cj as u128 + carry;
            out[i + j] = acc as u64;
            carry = acc >> 64;
        }
        out[i + 2] = carry as u64;
    }
    out
}

/// `a + b` over five limbs (the caller keeps the sum below 2^320).
fn add5(a: &[u64; 5], b: &[u64]) -> [u64; 5] {
    let mut out = [0u64; 5];
    let mut carry = 0u64;
    for i in 0..5 {
        let (s, c1) = a[i].overflowing_add(b.get(i).copied().unwrap_or(0));
        let (s, c2) = s.overflowing_add(carry);
        out[i] = s;
        carry = (c1 as u64) + (c2 as u64);
    }
    out
}

/// `a − b` over five limbs (the caller guarantees `a ≥ b`).
fn sub5(a: &[u64; 5], b: &[u64]) -> [u64; 5] {
    let mut out = [0u64; 5];
    let mut borrow = 0u64;
    for i in 0..5 {
        let (d, b1) = a[i].overflowing_sub(b.get(i).copied().unwrap_or(0));
        let (d, b2) = d.overflowing_sub(borrow);
        out[i] = d;
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0, "subtraction underflow");
    out
}

/// Reduces a 512-bit little-endian integer modulo ℓ by folding
/// `2^252 ≡ −c` three times:
///
/// ```text
/// x    = h1·2^252 + l1          h1 < 2^260
/// h1·c = h2·2^252 + l2          h2 < 2^133
/// h2·c = h3·2^252 + l3          h3 < 2^6
/// x   ≡ l1 − l2 + l3 − h3·c  ≡  (l1 + l3 + 2ℓ) − (l2 + h3·c)
/// ```
///
/// The last line is positive and below 4ℓ, so at most three
/// conditional subtractions finish the job: ~20 limb multiplications
/// in place of the 512 shift/compare/subtract steps of
/// `reduce_bytes_naive`.
fn reduce_wide(x: &[u64; 8]) -> [u64; 4] {
    let l1 = low252(x);
    let t1: [u64; 7] = mul_c(&shr252::<5>(x));
    let l2 = low252(&t1);
    let t2: [u64; 5] = mul_c(&shr252::<3>(&t1));
    let l3 = low252(&t2);
    let t3: [u64; 3] = mul_c(&shr252::<1>(&t2));
    let two_l = add5(&[L[0], L[1], L[2], L[3], 0], &L);
    let plus = add5(&add5(&two_l, &l1), &l3);
    let minus = add5(&[l2[0], l2[1], l2[2], l2[3], 0], &t3);
    let y = sub5(&plus, &minus);
    debug_assert_eq!(y[4], 0, "folded value fits in 256 bits");
    let mut rem = [y[0], y[1], y[2], y[3]];
    while geq(&rem, &L) {
        sub_in_place(&mut rem, &L);
    }
    rem
}

/// Reduces an arbitrary little-endian byte string modulo ℓ. Input may
/// be up to 64 bytes (SHA-512 output).
fn reduce_bytes(bytes: &[u8]) -> [u64; 4] {
    assert!(bytes.len() <= 64, "scalar input longer than 64 bytes");
    let mut padded = [0u8; 64];
    padded[..bytes.len()].copy_from_slice(bytes);
    let mut wide = [0u64; 8];
    for (limb, chunk) in wide.iter_mut().zip(padded.chunks_exact(8)) {
        let mut v = [0u8; 8];
        v.copy_from_slice(chunk);
        *limb = u64::from_le_bytes(v);
    }
    reduce_wide(&wide)
}

/// The original binary long division, kept as the oracle the limb-wise
/// [`reduce_wide`] is property-tested against.
#[cfg(test)]
fn reduce_bytes_naive(bytes: &[u8]) -> [u64; 4] {
    assert!(bytes.len() <= 64, "scalar input longer than 64 bytes");
    let mut rem = [0u64; 4];
    for byte in bytes.iter().rev() {
        for bit in (0..8).rev() {
            // rem = rem * 2 + bit; rem stays < 2ℓ < 2^254 so no limb overflow.
            let mut carry = (byte >> bit) & 1;
            for limb in rem.iter_mut() {
                let new_carry = (*limb >> 63) as u8;
                *limb = (*limb << 1) | carry as u64;
                carry = new_carry;
            }
            debug_assert_eq!(carry, 0);
            if geq(&rem, &L) {
                sub_in_place(&mut rem, &L);
            }
        }
    }
    rem
}

/// An unreduced running sum `Σ zᵢ·sᵢ` of 128-bit weights times
/// canonical scalars, reduced modulo ℓ once at the end (the scalar side
/// of Ed25519 batch verification). Each product is below 2^381, so the
/// 512-bit accumulator cannot overflow before 2^131 terms.
#[derive(Default)]
pub(crate) struct WideSum([u64; 8]);

impl WideSum {
    /// Adds `z · s` without reducing.
    pub(crate) fn add_product(&mut self, z: u128, s: &Scalar) {
        let z = [z as u64, (z >> 64) as u64];
        for (i, &zi) in z.iter().enumerate() {
            let mut carry: u128 = 0;
            for (j, &sj) in s.0.iter().enumerate() {
                let acc = self.0[i + j] as u128 + zi as u128 * sj as u128 + carry;
                self.0[i + j] = acc as u64;
                carry = acc >> 64;
            }
            for limb in self.0[i + 4..].iter_mut() {
                let (v, overflow) = limb.overflowing_add(carry as u64);
                *limb = v;
                carry = overflow as u128;
            }
            debug_assert_eq!(carry, 0, "WideSum overflowed 512 bits");
        }
    }

    /// The sum modulo ℓ.
    pub(crate) fn reduce(&self) -> Scalar {
        Scalar(reduce_wide(&self.0))
    }
}

impl Scalar {
    /// The scalar 0.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The scalar 1.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Reduces up to 64 little-endian bytes modulo ℓ.
    pub fn from_bytes_mod_order(bytes: &[u8]) -> Scalar {
        Scalar(reduce_bytes(bytes))
    }

    /// Parses 32 bytes, returning `None` if the value is not already
    /// canonical (< ℓ). Used to validate the `s` part of signatures per
    /// RFC 8032 §5.1.7.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut v = [0u8; 8];
            v.copy_from_slice(&bytes[8 * i..8 * i + 8]);
            limbs[i] = u64::from_le_bytes(v);
        }
        if geq(&limbs, &L) {
            None
        } else {
            Some(Scalar(limbs))
        }
    }

    /// Constructs a scalar from a small integer.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar([v, 0, 0, 0])
    }

    /// Serializes to 32 little-endian bytes (canonical).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * i..8 * i + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// Modular addition.
    pub fn add(&self, rhs: &Scalar) -> Scalar {
        let mut sum = [0u64; 4];
        let mut carry = 0u64;
        #[allow(clippy::needless_range_loop)] // walks two arrays in lockstep
        for i in 0..4 {
            let (s, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s, c2) = s.overflowing_add(carry);
            sum[i] = s;
            carry = (c1 as u64) + (c2 as u64);
        }
        debug_assert_eq!(carry, 0, "both inputs were canonical, sum < 2^253");
        if geq(&sum, &L) {
            sub_in_place(&mut sum, &L);
        }
        Scalar(sum)
    }

    /// Modular multiplication (schoolbook 4×4 then reduction).
    pub fn mul(&self, rhs: &Scalar) -> Scalar {
        let mut wide = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let acc = wide[i + j] as u128 + self.0[i] as u128 * rhs.0[j] as u128 + carry;
                wide[i + j] = acc as u64;
                carry = acc >> 64;
            }
            wide[i + 4] = carry as u64;
        }
        Scalar(reduce_wide(&wide))
    }

    /// Computes `self * b + c mod ℓ` (the `sc_muladd` of RFC 8032 signing).
    pub fn muladd(&self, b: &Scalar, c: &Scalar) -> Scalar {
        self.mul(b).add(c)
    }

    /// Recodes into 64 signed radix-16 digits, each in `[-8, 8]`, with
    /// `self = Σ digits[i]·16^i`. Drives the fixed-window table
    /// multiplications of the Ed25519 fast path. Valid for canonical
    /// scalars (< ℓ < 2^253), whose top nibble leaves room for the final
    /// carry.
    pub fn to_radix16(&self) -> [i8; 64] {
        let bytes = self.to_bytes();
        let mut e = [0i8; 64];
        for i in 0..32 {
            e[2 * i] = (bytes[i] & 15) as i8;
            e[2 * i + 1] = (bytes[i] >> 4) as i8;
        }
        // Center each digit into [-8, 7], pushing the excess upward.
        let mut carry = 0i8;
        for d in e.iter_mut().take(63) {
            *d += carry;
            carry = (*d + 8) >> 4;
            *d -= carry << 4;
        }
        e[63] += carry; // ≤ 8 for canonical scalars
        e
    }

    /// Width-4 non-adjacent form: 256 digits in `{0, ±1, ±3, ±5, ±7}`
    /// with `self = Σ digits[i]·2^i` and any two non-zero digits at
    /// least 4 positions apart. Drives the sliding-window scalar
    /// multiplications (average one addition per 5 doublings).
    pub fn non_adjacent_form4(&self) -> [i8; 256] {
        let mut naf = [0i8; 256];
        let mut limbs = [self.0[0], self.0[1], self.0[2], self.0[3], 0u64];
        let mut pos = 0usize;
        while limbs != [0; 5] {
            if limbs[0] & 1 == 1 {
                // Centered remainder mod 16 in (-8, 8].
                let mut d = (limbs[0] & 15) as i8;
                if d > 8 {
                    d -= 16;
                }
                naf[pos] = d;
                // Subtract the digit (adding 16 − d when d is negative,
                // which ripples a borrow-free carry).
                if d > 0 {
                    limbs[0] -= d as u64;
                } else {
                    let mut carry = (-d) as u64;
                    for limb in limbs.iter_mut() {
                        let (v, overflow) = limb.overflowing_add(carry);
                        *limb = v;
                        carry = overflow as u64;
                        if carry == 0 {
                            break;
                        }
                    }
                }
            }
            // Shift right by one bit.
            for i in 0..5 {
                limbs[i] >>= 1;
                if i < 4 {
                    limbs[i] |= limbs[i + 1] << 63;
                }
            }
            pos += 1;
        }
        naf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn l_reduces_to_zero() {
        let mut l_bytes = [0u8; 32];
        for i in 0..4 {
            l_bytes[8 * i..8 * i + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        assert_eq!(Scalar::from_bytes_mod_order(&l_bytes), Scalar::ZERO);
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_none());
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let mut v = L;
        v[0] -= 1;
        let mut bytes = [0u8; 32];
        for i in 0..4 {
            bytes[8 * i..8 * i + 8].copy_from_slice(&v[i].to_le_bytes());
        }
        let s = Scalar::from_canonical_bytes(&bytes).expect("l-1 is canonical");
        assert_eq!(s.add(&Scalar::ONE), Scalar::ZERO);
    }

    #[test]
    fn small_multiplication() {
        let a = Scalar::from_u64(1_000_003);
        let b = Scalar::from_u64(999_983);
        let expected = Scalar::from_u64(1_000_003 * 999_983);
        assert_eq!(a.mul(&b), expected);
    }

    #[test]
    fn mul_commutes_and_distributes() {
        let a = Scalar::from_bytes_mod_order(&crate::sha2::sha512(b"a"));
        let b = Scalar::from_bytes_mod_order(&crate::sha2::sha512(b"b"));
        let c = Scalar::from_bytes_mod_order(&crate::sha2::sha512(b"c"));
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.add(&b).mul(&c), a.mul(&c).add(&b.mul(&c)));
    }

    #[test]
    fn muladd_matches_parts() {
        let a = Scalar::from_u64(77);
        let b = Scalar::from_u64(88);
        let c = Scalar::from_u64(99);
        assert_eq!(a.muladd(&b, &c), Scalar::from_u64(77 * 88 + 99));
    }

    fn le_bytes(limbs: &[u64]) -> Vec<u8> {
        limbs.iter().flat_map(|l| l.to_le_bytes()).collect()
    }

    #[test]
    fn limb_reduction_matches_long_division_on_edges() {
        let mut l_minus_one = L;
        l_minus_one[0] -= 1;
        let mut l_times_two_pow_256 = [0u64; 8];
        l_times_two_pow_256[4..].copy_from_slice(&L);
        let edges: Vec<Vec<u8>> = vec![
            Vec::new(),
            le_bytes(&l_minus_one),
            le_bytes(&L),
            le_bytes(&l_times_two_pow_256),
            vec![0xff; 32],
            vec![0xff; 64], // 2^512 − 1
        ];
        for bytes in edges {
            assert_eq!(
                reduce_bytes(&bytes),
                reduce_bytes_naive(&bytes),
                "diverges on {}",
                crate::hex::encode(&bytes)
            );
        }
    }

    proptest! {
        #[test]
        fn limb_reduction_matches_long_division(
            bytes in prop::collection::vec(any::<u8>(), 0..=64)
        ) {
            prop_assert_eq!(reduce_bytes(&bytes), reduce_bytes_naive(&bytes));
        }
    }

    #[test]
    fn wide_sum_matches_reduced_arithmetic() {
        let mut sum = WideSum::default();
        let mut expected = Scalar::ZERO;
        for n in 0..100u64 {
            let z = u128::MAX - n as u128 * 0x1234_5678_9abc;
            let s = Scalar::from_bytes_mod_order(&crate::sha2::sha512(&n.to_le_bytes()));
            sum.add_product(z, &s);
            let z_scalar = Scalar([z as u64, (z >> 64) as u64, 0, 0]);
            expected = expected.add(&z_scalar.mul(&s));
        }
        assert_eq!(sum.reduce(), expected);
    }

    #[test]
    fn wide_reduction_matches_iterated_add() {
        // 2^256 mod l computed two ways.
        let mut bytes33 = [0u8; 64];
        bytes33[32] = 1; // 2^256
        let direct = Scalar::from_bytes_mod_order(&bytes33);
        // 2^256 = (2^128)^2
        let mut b128 = [0u8; 32];
        b128[16] = 1;
        let two128 = Scalar::from_bytes_mod_order(&b128);
        assert_eq!(direct, two128.mul(&two128));
    }
}
