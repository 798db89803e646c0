//! Ed25519 signatures (RFC 8032), built on [`crate::field25519`] and
//! [`crate::scalar`].
//!
//! Implements key generation from a 32-byte seed, deterministic signing,
//! and verification with the cofactored equation `[8]([S]B − R − [k]A) = O`
//! of RFC 8032 §5.1.7. Not constant-time; see the crate-level
//! side-channel note.
//!
//! ## One verification rule
//!
//! Every verification flavour except the kept oracle
//! [`VerifyingKey::verify_naive`] applies the cofactored rule: the
//! compress-and-compare check `R' = R` stays the fast accept path, and
//! only on a mismatch is `R` decoded (canonical encodings only) and
//! accepted iff `[8](R' − R) = O`. A batch check cannot agree exactly
//! with cofactorless single verification — a small-order component in
//! `R` survives the weighted sum with probability ≥ 1/8 — so the single
//! rule follows the batch, and the two agree on every input. The only
//! signatures whose verdict differs from the cofactorless rule carry a
//! small-order component in `R`, and only the holder of the author's
//! secret key can make them.
//!
//! ## Fast paths
//!
//! The original double-and-add routines ([`EdwardsPoint::mul_bytes`],
//! [`VerifyingKey::verify_naive`]) are kept verbatim as reference
//! oracles; everything hot now runs through precomputation:
//!
//! * [`basepoint_table`] — a lazily built signed radix-16 fixed-window
//!   table of the basepoint (64 windows × 8 odd/even multiples), making
//!   `[s]B` a ~64-addition sum with **zero** doublings. Used by signing,
//!   key generation, and the `[s]B` half of verification.
//! * [`EdwardsPoint::mul_scalar`] — 4-bit sliding-window (w-NAF)
//!   variable-base multiplication (≈ 51 additions instead of ≈ 128).
//! * [`EdwardsPoint::double_scalar_mul_basepoint`] — Straus/Shamir
//!   interleaving of `[s]B + [k]A` over one shared doubling chain.
//! * [`PreparedVerifyingKey`] — caches the decompressed public key *and*
//!   a fixed-window table of `-A`, so repeat verifications by the same
//!   author cost two table sums plus one addition. A bounded
//!   process-wide cache makes [`VerifyingKey::verify`] hit this path
//!   automatically.
//! * [`VerifyingKey::verify_batch`] — one author's signatures checked
//!   with one random-linear-combination equation over hash-derived
//!   128-bit weights, falling back to per-item verification when it
//!   fails; about 2x cheaper per signature than the prepared path at a
//!   sync frame's ~67 signatures.

use crate::field25519::{sqrt_m1, Fe};
use crate::scalar::{Scalar, WideSum};
use crate::sha2::Sha512;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Little-endian bytes of the Edwards curve constant
/// d = −121665/121666 mod p.
const D_BYTES: [u8; 32] = [
    0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70, 0x00,
    0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52,
];

/// x-coordinate of the base point B.
const BX_BYTES: [u8; 32] = [
    0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25, 0x95, 0x60, 0xc7, 0x2c, 0x69,
    0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2, 0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd, 0xd3, 0x36, 0x69, 0x21,
];

/// y-coordinate of the base point B (4/5 mod p).
const BY_BYTES: [u8; 32] = [
    0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
    0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
];

fn d() -> Fe {
    Fe::from_bytes(&D_BYTES)
}

fn d2() -> Fe {
    static D2: OnceLock<Fe> = OnceLock::new();
    *D2.get_or_init(|| {
        let d = d();
        d.add(&d)
    })
}

/// A point on edwards25519 in extended homogeneous coordinates
/// (X : Y : Z : T) with x = X/Z, y = Y/Z, x·y = T/Z.
#[derive(Clone, Copy, Debug)]
pub struct EdwardsPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl EdwardsPoint {
    /// The neutral element (0, 1).
    pub fn identity() -> EdwardsPoint {
        EdwardsPoint {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The base point B of RFC 8032.
    pub fn basepoint() -> EdwardsPoint {
        let x = Fe::from_bytes(&BX_BYTES);
        let y = Fe::from_bytes(&BY_BYTES);
        EdwardsPoint {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        }
    }

    /// Unified point addition (complete for a = −1, d non-square).
    pub fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
        let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
        let c = self.t.mul(&d2()).mul(&other.t);
        let dd = self.z.mul(&other.z).mul_small(2);
        let e = b.sub(&a);
        let f = dd.sub(&c);
        let g = dd.add(&c);
        let h = b.add(&a);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            t: e.mul(&h),
            z: f.mul(&g),
        }
    }

    /// Point doubling.
    pub fn double(&self) -> EdwardsPoint {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square().mul_small(2);
        let h = a.add(&b);
        let e = h.sub(&self.x.add(&self.y).square());
        let g = a.sub(&b);
        let f = c.add(&g);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            t: e.mul(&h),
            z: f.mul(&g),
        }
    }

    /// Point negation.
    pub fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Converts to the cached "projective Niels" form used by the
    /// precomputed tables: `(Y+X, Y−X, Z, 2d·T)`.
    fn to_pniels(self) -> PNiels {
        PNiels {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&d2()),
        }
    }

    /// Mixed addition with a precomputed point (one multiplication
    /// cheaper than [`EdwardsPoint::add`]: `2d·T2` is pre-multiplied).
    fn add_pniels(&self, n: &PNiels) -> EdwardsPoint {
        let a = self.y.sub(&self.x).mul(&n.y_minus_x);
        let b = self.y.add(&self.x).mul(&n.y_plus_x);
        let c = n.t2d.mul(&self.t);
        let dd = self.z.mul(&n.z).mul_small(2);
        let e = b.sub(&a);
        let f = dd.sub(&c);
        let g = dd.add(&c);
        let h = b.add(&a);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            t: e.mul(&h),
            z: f.mul(&g),
        }
    }

    /// Mixed subtraction of a precomputed point (adds its negation by
    /// swapping `Y±X` and negating `2d·T`).
    fn sub_pniels(&self, n: &PNiels) -> EdwardsPoint {
        let neg = PNiels {
            y_plus_x: n.y_minus_x,
            y_minus_x: n.y_plus_x,
            z: n.z,
            t2d: n.t2d.neg(),
        };
        self.add_pniels(&neg)
    }

    /// Scalar multiplication by a canonical scalar, using a 4-bit
    /// sliding window (w-NAF) over precomputed odd multiples.
    ///
    /// Exactly equivalent to the double-and-add oracle
    /// (`mul_bytes(&scalar.to_bytes())`) for every point, proven by the
    /// property tests in `tests/fast_path_equivalence.rs`.
    pub fn mul_scalar(&self, scalar: &Scalar) -> EdwardsPoint {
        let odd = OddMultiples::new(self);
        let naf = scalar.non_adjacent_form4();
        let mut q = EdwardsPoint::identity();
        let mut started = false;
        for i in (0..256).rev() {
            if started {
                q = q.double();
            }
            let digit = naf[i];
            if digit != 0 {
                started = true;
                q = odd.apply(&q, digit);
            }
        }
        q
    }

    /// Scalar multiplication by double-and-add over the 256-bit scalar
    /// (the reference oracle for the windowed fast paths; also the only
    /// route for raw clamped scalars, which may exceed ℓ).
    pub fn mul_scalar_naive(&self, scalar: &Scalar) -> EdwardsPoint {
        let bytes = scalar.to_bytes();
        self.mul_bytes(&bytes)
    }

    /// Computes `[s]B + [k]·self` with Straus/Shamir interleaving: one
    /// shared doubling chain instead of two independent ones. The `[s]B`
    /// half reads the static basepoint window; the `[k]` half uses odd
    /// multiples of `self` computed on the fly. This is the one-shot
    /// verification work-horse; [`PreparedVerifyingKey`] beats it only
    /// because its fixed table removes the doubling chain entirely.
    pub fn double_scalar_mul_basepoint(s: &Scalar, k: &Scalar, a: &EdwardsPoint) -> EdwardsPoint {
        let b_odd = basepoint_odd_multiples();
        let a_odd = OddMultiples::new(a);
        let s_naf = s.non_adjacent_form4();
        let k_naf = k.non_adjacent_form4();
        let mut q = EdwardsPoint::identity();
        let mut started = false;
        for i in (0..256).rev() {
            if started {
                q = q.double();
            }
            if s_naf[i] != 0 {
                started = true;
                q = b_odd.apply(&q, s_naf[i]);
            }
            if k_naf[i] != 0 {
                started = true;
                q = a_odd.apply(&q, k_naf[i]);
            }
        }
        q
    }

    /// Scalar multiplication where the scalar is raw little-endian bytes
    /// (used with clamped secret scalars, which may exceed ℓ).
    pub fn mul_bytes(&self, bytes: &[u8; 32]) -> EdwardsPoint {
        let mut q = EdwardsPoint::identity();
        for bit in (0..256).rev() {
            q = q.double();
            if (bytes[bit / 8] >> (bit % 8)) & 1 == 1 {
                q = q.add(self);
            }
        }
        q
    }

    /// Compresses to the 32-byte encoding: y with the sign of x in the
    /// top bit.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses a 32-byte encoding, returning `None` if the bytes do
    /// not name a curve point (RFC 8032 §5.1.3).
    ///
    /// A y-coordinate encoded as `y + p` is accepted here (public keys
    /// have always been decoded this way); signature nonces go through
    /// `EdwardsPoint::decompress_canonical` instead.
    pub fn decompress(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        let y = Fe::from_bytes(bytes);
        let sign = (bytes[31] >> 7) & 1;
        let y2 = y.square();
        let u = y2.sub(&Fe::ONE);
        let v = y2.mul(&d()).add(&Fe::ONE);
        // Candidate root x = (u/v)^((p+3)/8), computed without an
        // inversion as u·v³·(u·v⁷)^((p−5)/8): one exponentiation instead
        // of two. Verification decodes every signature's R on the batch
        // path, so this sits on the hot path.
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        let x_candidate = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let vx2 = v.mul(&x_candidate.square());
        let x = if vx2 == u {
            x_candidate
        } else if vx2 == u.neg() {
            x_candidate.mul(&sqrt_m1())
        } else {
            return None;
        };
        if x.is_zero() && sign == 1 {
            return None; // "negative zero" is rejected
        }
        let x = if (x.is_negative() as u8) != sign {
            x.neg()
        } else {
            x
        };
        Some(EdwardsPoint {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        })
    }

    /// [`EdwardsPoint::decompress`] that also rejects a non-canonical
    /// y-coordinate (`y ≥ p`), so exactly one encoding names each point.
    /// Signature nonces `R` are decoded this way: every verification
    /// flavour must reject an `R` that the compress-and-compare check
    /// could never match.
    fn decompress_canonical(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        if Fe::from_bytes(&y_bytes).to_bytes() != y_bytes {
            return None;
        }
        EdwardsPoint::decompress(bytes)
    }

    /// `[8]·self`: clears the small-order component.
    fn mul_by_cofactor(&self) -> EdwardsPoint {
        self.double().double().double()
    }

    /// True for the neutral element, tested projectively (`X = 0`,
    /// `Y = Z`) with no inversion.
    fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y == self.z
    }

    /// True if two points are equal (projectively).
    pub fn equals(&self, other: &EdwardsPoint) -> bool {
        // X1 Z2 == X2 Z1 and Y1 Z2 == Y2 Z1
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }
}

/// A point in "projective Niels" form `(Y+X, Y−X, Z, 2d·T)`: the shape
/// additions want their second operand in, precomputed once.
#[derive(Clone, Copy, Debug)]
struct PNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// Odd multiples `[P, 3P, 5P, 7P]` backing the 4-bit sliding windows.
struct OddMultiples([PNiels; 4]);

impl OddMultiples {
    fn new(p: &EdwardsPoint) -> OddMultiples {
        let p2 = p.double();
        let p3 = p2.add(p);
        let p5 = p3.add(&p2);
        let p7 = p5.add(&p2);
        OddMultiples([
            p.to_pniels(),
            p3.to_pniels(),
            p5.to_pniels(),
            p7.to_pniels(),
        ])
    }

    /// Adds `digit·P` to `q` for a w-NAF digit in `{±1, ±3, ±5, ±7}`.
    fn apply(&self, q: &EdwardsPoint, digit: i8) -> EdwardsPoint {
        if digit > 0 {
            q.add_pniels(&self.0[(digit as usize) / 2])
        } else {
            q.sub_pniels(&self.0[((-digit) as usize) / 2])
        }
    }
}

/// A signed radix-16 fixed-window table: `windows[i][j] = (j+1)·16^i·P`
/// for 64 windows, so `[s]P` is a sum of at most 64 precomputed points
/// with **no doublings** at multiplication time.
///
/// Building costs ~520 point operations (~60 µs); one multiplication
/// through it costs ~64 mixed additions (~15 µs). It pays for itself
/// after a single reuse, which is why it backs both the static
/// [`basepoint_table`] and the per-author [`PreparedVerifyingKey`].
pub struct FixedWindowTable {
    windows: Vec<[PNiels; 8]>,
}

impl std::fmt::Debug for FixedWindowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FixedWindowTable({} windows)", self.windows.len())
    }
}

impl FixedWindowTable {
    /// Precomputes the table for `p`.
    pub fn new(p: &EdwardsPoint) -> FixedWindowTable {
        let mut windows = Vec::with_capacity(64);
        let mut base = *p;
        for i in 0..64 {
            let mut acc = base;
            let mut row = [acc.to_pniels(); 8];
            for entry in row.iter_mut().skip(1) {
                acc = acc.add(&base);
                *entry = acc.to_pniels();
            }
            if i < 63 {
                base = acc.double(); // 16·base from 8·base
            }
            windows.push(row);
        }
        FixedWindowTable { windows }
    }

    /// Computes `[s]P` as a doubling-free sum over the signed radix-16
    /// digits of `s`.
    pub fn mul(&self, s: &Scalar) -> EdwardsPoint {
        let digits = s.to_radix16();
        let mut q = EdwardsPoint::identity();
        for (i, &d) in digits.iter().enumerate() {
            if d > 0 {
                q = q.add_pniels(&self.windows[i][(d - 1) as usize]);
            } else if d < 0 {
                q = q.sub_pniels(&self.windows[i][(-d - 1) as usize]);
            }
        }
        q
    }
}

/// The lazily built fixed-window table of the RFC 8032 basepoint, shared
/// by signing, key generation, and the `[s]B` half of verification.
pub fn basepoint_table() -> &'static FixedWindowTable {
    static TABLE: OnceLock<FixedWindowTable> = OnceLock::new();
    TABLE.get_or_init(|| FixedWindowTable::new(&EdwardsPoint::basepoint()))
}

/// Odd multiples of the basepoint for the Straus interleaved path.
fn basepoint_odd_multiples() -> &'static OddMultiples {
    static ODD: OnceLock<OddMultiples> = OnceLock::new();
    ODD.get_or_init(|| OddMultiples::new(&EdwardsPoint::basepoint()))
}

/// An Ed25519 signing key: the 32-byte seed plus its expanded parts.
///
/// The clamped scalar is reduced mod ℓ and the deterministic-nonce
/// prefix is pre-absorbed into a SHA-512 state once, at construction —
/// [`SigningKey::sign`] only pays for the message-dependent work.
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; 32],
    /// a reduced mod ℓ (valid because B has order ℓ: `[a]B = [a mod ℓ]B`).
    a_scalar: Scalar,
    /// SHA-512 state with the deterministic-nonce prefix already absorbed.
    prefix_state: Sha512,
    /// Compressed public key A = [a]B.
    public: [u8; 32],
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SigningKey(pub={})", crate::hex::encode(&self.public))
    }
}

fn clamp(mut bytes: [u8; 32]) -> [u8; 32] {
    bytes[0] &= 248;
    bytes[31] &= 127;
    bytes[31] |= 64;
    bytes
}

impl SigningKey {
    /// Derives the key pair from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: [u8; 32]) -> SigningKey {
        let h = crate::sha2::sha512(&seed);
        let mut a_bytes = [0u8; 32];
        a_bytes.copy_from_slice(&h[..32]);
        let a_bytes = clamp(a_bytes);
        // a may exceed ℓ after clamping; B has order ℓ, so reducing once
        // here keeps every later use on the canonical-scalar fast paths.
        let a_scalar = Scalar::from_bytes_mod_order(&a_bytes);
        let mut prefix_state = Sha512::new();
        prefix_state.update(&h[32..]);
        let public = basepoint_table().mul(&a_scalar).compress();
        SigningKey {
            seed,
            a_scalar,
            prefix_state,
            public,
        }
    }

    /// Generates a key pair from a random number generator.
    pub fn generate<R: rand::RngCore>(rng: &mut R) -> SigningKey {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        SigningKey::from_seed(seed)
    }

    /// The seed this key was derived from.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// The compressed public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey(self.public)
    }

    /// Signs `message`, producing a 64-byte signature (RFC 8032 §5.1.6).
    ///
    /// Uses the pre-absorbed prefix state, the pre-reduced secret
    /// scalar, and the fixed-window basepoint table; output is
    /// bit-identical to the naive path (RFC 8032 vectors below).
    pub fn sign(&self, message: &[u8]) -> Signature {
        let r = self.nonce(message);
        self.sign_with_nonce(message, &r, &basepoint_table().mul(&r))
    }

    /// The deterministic nonce `r = H(prefix ‖ message) mod ℓ`.
    fn nonce(&self, message: &[u8]) -> Scalar {
        let mut h = self.prefix_state.clone();
        h.update(message);
        Scalar::from_bytes_mod_order(&h.finalize())
    }

    /// Completes a signature from the nonce `r` and the nonce point
    /// `R`: `s = r + H(R ‖ A ‖ message)·a`.
    fn sign_with_nonce(&self, message: &[u8], r: &Scalar, r_point: &EdwardsPoint) -> Signature {
        let r_enc = r_point.compress();
        let mut h = Sha512::new();
        h.update(&r_enc);
        h.update(&self.public);
        h.update(message);
        let k = Scalar::from_bytes_mod_order(&h.finalize());

        let s = k.muladd(&self.a_scalar, r);

        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_enc);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }

    /// Signs `message` with the nonce point malleated by `[t]T8`, for
    /// an order-8 point `T8`: `R = [r]B + [t]T8` and `s = r + k·a` with
    /// `k` hashed over that `R`.
    ///
    /// Only the secret-key holder can build such a signature, and the
    /// holder can sign anything anyway. For `t mod 8 ≠ 0` it is valid
    /// under the cofactored rule every fast flavour applies and invalid
    /// under the cofactorless oracle [`VerifyingKey::verify_naive`];
    /// the equivalence tests pin both behaviours with it.
    #[doc(hidden)]
    pub fn sign_torsion_malleated(&self, message: &[u8], t: u8) -> Signature {
        let r = self.nonce(message);
        let torsion = EdwardsPoint::decompress(&EIGHT_TORSION_GENERATOR)
            .map_or_else(EdwardsPoint::identity, |t8| {
                t8.mul_scalar(&Scalar::from_u64(u64::from(t % 8)))
            });
        let r_point = basepoint_table().mul(&r).add(&torsion);
        self.sign_with_nonce(message, &r, &r_point)
    }
}

/// Encoding of a point of order 8 (it and its multiples make up the
/// whole small-order subgroup of edwards25519).
const EIGHT_TORSION_GENERATOR: [u8; 32] = [
    0xc7, 0x17, 0x6a, 0x70, 0x3d, 0x4d, 0xd8, 0x4f, 0xba, 0x3c, 0x0b, 0x76, 0x0d, 0x10, 0x67, 0x0f,
    0x2a, 0x20, 0x53, 0xfa, 0x2c, 0x39, 0xcc, 0xc6, 0x4e, 0xc7, 0xfd, 0x77, 0x92, 0xac, 0x03, 0x7a,
];

/// A compressed Ed25519 public key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(pub [u8; 32]);

impl serde::Serialize for VerifyingKey {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.0.to_vec().serialize(s)
    }
}

impl<'de> serde::Deserialize<'de> for VerifyingKey {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v: Vec<u8> = serde::Deserialize::deserialize(d)?;
        if v.len() != 32 {
            return Err(serde::de::Error::invalid_length(v.len(), &"32 bytes"));
        }
        let mut out = [0u8; 32];
        out.copy_from_slice(&v);
        Ok(VerifyingKey(out))
    }
}

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey({})", crate::hex::encode(&self.0))
    }
}

impl VerifyingKey {
    /// The raw 32-byte encoding.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Verifies `signature` over `message` (RFC 8032 §5.1.7).
    ///
    /// Checks that `s` is canonical and that `[8]([s]B − R − [k]A)` is
    /// the identity (the cofactored equation; see the module docs for
    /// why). Repeat verifications by the same key hit a bounded
    /// process-wide [`PreparedVerifyingKey`] cache, skipping
    /// decompression and the doubling chain entirely.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        match prepared_cache_lookup(self) {
            Some(prepared) => prepared.verify(message, signature),
            None => false,
        }
    }

    /// Verifies many signatures by this one key, returning one verdict
    /// per item, each equal to [`VerifyingKey::verify`] on that item.
    ///
    /// From [`BATCH_MIN`] items on, all well-formed signatures are
    /// checked with one random-linear-combination equation; see
    /// [`PreparedVerifyingKey::verify_batch`]. This is the hot path of
    /// a sync encounter, where one author's bundles arrive in bursts.
    pub fn verify_batch(&self, items: &[(&[u8], &Signature)]) -> Vec<bool> {
        match prepared_cache_lookup(self) {
            Some(prepared) => prepared.verify_batch(items),
            None => vec![false; items.len()],
        }
    }

    /// One-shot verification via the Straus interleaved double-scalar
    /// multiplication: no per-key table is built or cached. Useful when
    /// a key is known to be seen once (equivalence-tested against both
    /// the cached path and the naive oracle).
    pub fn verify_uncached(&self, message: &[u8], signature: &Signature) -> bool {
        let Some((s, k, r_enc)) = self.verify_parts(message, signature) else {
            return false;
        };
        let a = match EdwardsPoint::decompress(&self.0) {
            Some(a) => a,
            None => return false,
        };
        let r_prime = EdwardsPoint::double_scalar_mul_basepoint(&s, &k, &a.neg());
        cofactored_accept(&r_prime, &r_enc)
    }

    /// The original double-and-add verification, kept verbatim as the
    /// reference oracle for the windowed fast paths. It applies the
    /// cofactorless equation `[s]B = R + [k]A`, so unlike every other
    /// flavour it rejects a valid signature whose `R` carries a
    /// small-order component.
    pub fn verify_naive(&self, message: &[u8], signature: &Signature) -> bool {
        let sig = &signature.0;
        let mut r_enc = [0u8; 32];
        r_enc.copy_from_slice(&sig[..32]);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&sig[32..]);
        let s = match Scalar::from_canonical_bytes(&s_bytes) {
            Some(s) => s,
            None => return false,
        };
        let a = match EdwardsPoint::decompress(&self.0) {
            Some(a) => a,
            None => return false,
        };
        let mut h = Sha512::new();
        h.update(&r_enc);
        h.update(&self.0);
        h.update(message);
        let k = Scalar::from_bytes_mod_order(&h.finalize());

        // R' = [s]B + [k](-A); valid iff R' encodes to sig.R
        let sb = EdwardsPoint::basepoint().mul_scalar_naive(&s);
        let ka = a.neg().mul_scalar_naive(&k);
        let r_prime = sb.add(&ka);
        crate::hmac::ct_eq(&r_prime.compress(), &r_enc)
    }

    /// Shared front half of every verification flavour: parses `s`
    /// (rejecting non-canonical values) and computes the challenge `k`.
    fn verify_parts(
        &self,
        message: &[u8],
        signature: &Signature,
    ) -> Option<(Scalar, Scalar, [u8; 32])> {
        let sig = &signature.0;
        let mut r_enc = [0u8; 32];
        r_enc.copy_from_slice(&sig[..32]);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&sig[32..]);
        let s = Scalar::from_canonical_bytes(&s_bytes)?;
        let mut h = Sha512::new();
        h.update(&r_enc);
        h.update(&self.0);
        h.update(message);
        let k = Scalar::from_bytes_mod_order(&h.finalize());
        Some((s, k, r_enc))
    }
}

/// A verifying key prepared for repeat use: the decompressed point plus
/// a fixed-window table of `-A`, so each verification is two
/// doubling-free table sums and one addition (~5–6x faster than the
/// naive path; see `cargo bench -p sos-bench --bench crypto`).
///
/// Building one costs about three naive verifications' worth of point
/// additions amortized away after the first few signatures — exactly
/// the SOS workload, where a sync encounter delivers an author's bundles
/// in batches (~200 per session).
pub struct PreparedVerifyingKey {
    compressed: [u8; 32],
    neg_table: FixedWindowTable,
}

impl std::fmt::Debug for PreparedVerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PreparedVerifyingKey({})",
            crate::hex::encode(&self.compressed)
        )
    }
}

impl PreparedVerifyingKey {
    /// Decompresses `key` and precomputes the window table of `-A`.
    ///
    /// Returns `None` when the key bytes do not name a curve point.
    pub fn new(key: &VerifyingKey) -> Option<PreparedVerifyingKey> {
        let a = EdwardsPoint::decompress(&key.0)?;
        Some(PreparedVerifyingKey {
            compressed: key.0,
            neg_table: FixedWindowTable::new(&a.neg()),
        })
    }

    /// The compressed key this table was built from.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey(self.compressed)
    }

    /// Verifies `signature` over `message` with the cofactored rule;
    /// agrees with [`VerifyingKey::verify_naive`] on every signature
    /// whose `R` has no small-order component.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let key = VerifyingKey(self.compressed);
        let Some((s, k, r_enc)) = key.verify_parts(message, signature) else {
            return false;
        };
        // R' = [s]B + [k](-A), both halves through fixed tables.
        let sb = basepoint_table().mul(&s);
        let ka = self.neg_table.mul(&k);
        cofactored_accept(&sb.add(&ka), &r_enc)
    }

    /// Verifies many signatures by this key; `result[i]` equals
    /// [`PreparedVerifyingKey::verify`] on `items[i]`.
    ///
    /// Below [`BATCH_MIN`] items this is that serial loop. From there
    /// on, items with a non-canonical `s` or an undecodable or
    /// non-canonical `R` are rejected at once, and the rest are checked
    /// together: with 128-bit weights `zᵢ` it tests
    ///
    /// ```text
    /// [8]( [Σzᵢsᵢ]B + [Σzᵢkᵢ](−A) − Σ[zᵢ]Rᵢ ) = O
    /// ```
    ///
    /// The two scalar sums are accumulated unreduced and reduced once;
    /// `P` goes through the basepoint table and this key's `−A` table;
    /// `Σ[zᵢ]Rᵢ` interleaves every item's 128-bit w-NAF over one shared
    /// chain of ~128 doublings. Each item then costs one decompression
    /// and ~26 additions instead of two 64-addition table sums and an
    /// inversion.
    ///
    /// The weights come from SHA-512 in counter mode over a domain tag,
    /// the key and every `(kᵢ, sᵢ)` (the deterministic practice of
    /// BIP-340 batch verification), so no randomness is drawn and a
    /// replayed run makes identical calls. A set containing a bad
    /// signature passes with probability ≤ 2⁻¹²⁸ over the weights,
    /// which an attacker cannot steer without changing some `kᵢ` or
    /// `sᵢ` and so every weight. When the equation fails, every item
    /// is re-verified on its own to find the bad ones.
    pub fn verify_batch(&self, items: &[(&[u8], &Signature)]) -> Vec<bool> {
        if items.len() < BATCH_MIN {
            return items.iter().map(|(m, sig)| self.verify(m, sig)).collect();
        }
        self.verify_batch_equation(items)
    }

    /// The batch path of [`PreparedVerifyingKey::verify_batch`] with no
    /// size threshold: same verdicts at any size. Public so the crypto
    /// bench can measure where it overtakes serial verification (the
    /// crossover [`BATCH_MIN`] is set from).
    pub fn verify_batch_equation(&self, items: &[(&[u8], &Signature)]) -> Vec<bool> {
        let key = VerifyingKey(self.compressed);
        let mut verdicts = vec![false; items.len()];
        // (item index, s, k, decoded R) for every well-formed signature.
        let mut batch: Vec<(usize, Scalar, Scalar, EdwardsPoint)> = Vec::with_capacity(items.len());
        for (i, (message, signature)) in items.iter().enumerate() {
            let Some((s, k, r_enc)) = key.verify_parts(message, signature) else {
                continue;
            };
            if let Some(r) = EdwardsPoint::decompress_canonical(&r_enc) {
                batch.push((i, s, k, r));
            }
        }
        if batch.is_empty() {
            return verdicts;
        }

        let mut seed = Sha512::new();
        seed.update(BATCH_WEIGHT_DOMAIN);
        seed.update(&self.compressed);
        for (_, s, k, _) in &batch {
            seed.update(&k.to_bytes());
            seed.update(&s.to_bytes());
        }
        let mut weights = Vec::with_capacity(batch.len());
        for block in 0..batch.len().div_ceil(4) as u64 {
            let mut h = seed.clone();
            h.update(&block.to_le_bytes());
            for z in h.finalize().chunks_exact(16) {
                let mut le = [0u8; 16];
                le.copy_from_slice(z);
                weights.push(u128::from_le_bytes(le));
            }
        }

        let mut sum_zs = WideSum::default();
        let mut sum_zk = WideSum::default();
        let mut lanes = Vec::with_capacity(batch.len());
        for ((_, s, k, r), &z) in batch.iter().zip(&weights) {
            sum_zs.add_product(z, s);
            sum_zk.add_product(z, k);
            let z = Scalar([z as u64, (z >> 64) as u64, 0, 0]);
            lanes.push((z.non_adjacent_form4(), OddMultiples::new(r)));
        }
        // Q = Σ[zᵢ]Rᵢ: a 128-bit weight has at most 129 w-NAF digits.
        let mut q = EdwardsPoint::identity();
        let mut started = false;
        for i in (0..=128).rev() {
            if started {
                q = q.double();
            }
            for (naf, odd) in &lanes {
                if naf[i] != 0 {
                    started = true;
                    q = odd.apply(&q, naf[i]);
                }
            }
        }
        let p = basepoint_table()
            .mul(&sum_zs.reduce())
            .add(&self.neg_table.mul(&sum_zk.reduce()));
        let all_valid = p.add(&q.neg()).mul_by_cofactor().is_identity();
        for (i, ..) in &batch {
            verdicts[*i] = all_valid || {
                let (message, signature) = items[*i];
                self.verify(message, signature)
            };
        }
        verdicts
    }
}

/// Domain tag for the batch weights' hash, so no other use of SHA-512
/// in the protocol can collide with them.
const BATCH_WEIGHT_DOMAIN: &[u8] = b"SOS Ed25519 batch weights v1";

/// Smallest group [`PreparedVerifyingKey::verify_batch`] checks with
/// one batch equation; smaller groups are verified one by one.
///
/// The batch path pays one `R` decompression and a shared ~128-doubling
/// chain that serial verification does not, so it only wins once a few
/// signatures share the chain. Batch time over warm serial time, per
/// signature, on a 2-core x86-64 VM (`cargo bench -p sos-bench --bench
/// crypto`, recorded in `BENCH_crypto.json`): 128% at 2 signatures,
/// 105% at 3, 87% at 4, 71% at 8, 39% at 16 and 51% at 67. The
/// crossover lies between 3 and 4.
pub const BATCH_MIN: usize = 4;

/// The RFC 8032 §5.1.7 cofactored acceptance test for a computed
/// `R' = [s]B − [k]A` against the signature's encoded `R`.
///
/// An honest signature compresses to exactly `R`, so the byte compare
/// stays the fast accept path. Only on a mismatch is `R` decoded
/// (rejecting non-canonical encodings) and accepted iff `R' − R` has
/// small order. This makes single verification agree with
/// [`PreparedVerifyingKey::verify_batch`] on every input: a
/// cofactorless batch cannot, since a small-order component in `R`
/// survives the weighted sum with probability ≥ 1/8.
fn cofactored_accept(r_prime: &EdwardsPoint, r_enc: &[u8; 32]) -> bool {
    if crate::hmac::ct_eq(&r_prime.compress(), r_enc) {
        return true;
    }
    match EdwardsPoint::decompress_canonical(r_enc) {
        Some(r) => r_prime.add(&r.neg()).mul_by_cofactor().is_identity(),
        None => false,
    }
}

/// Cap on the process-wide prepared-key cache. Each entry holds a
/// 64×8-point table (~80 KiB), so the cap bounds memory at ~20 MiB while
/// covering far more concurrent authors than a node meets per session.
const PREPARED_CACHE_CAP: usize = 256;

/// Number of keys currently in the process-wide prepared cache
/// (observability for tests and benchmarks).
pub fn prepared_cache_len() -> usize {
    prepared_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .len()
}

/// Empties the process-wide prepared-key cache. Exists so benchmarks and
/// tests can measure genuinely cold verifications; production code never
/// needs it.
pub fn clear_prepared_cache() {
    prepared_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

type PreparedMap = std::collections::HashMap<[u8; 32], std::sync::Arc<PreparedVerifyingKey>>;

// Lookups recover from a poisoned lock (`PoisonError::into_inner`)
// instead of panicking: entries are pure functions of the key bytes, so
// a writer that died mid-insert cannot corrupt what a reader sees.
fn prepared_cache() -> &'static Mutex<PreparedMap> {
    static CACHE: OnceLock<Mutex<PreparedMap>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(std::collections::HashMap::new()))
}

/// Looks up (building on miss) the prepared form of `key` in the
/// process-wide cache. Returns `None` only for undecompressible keys.
fn prepared_cache_lookup(key: &VerifyingKey) -> Option<std::sync::Arc<PreparedVerifyingKey>> {
    let cache = prepared_cache();
    if let Some(hit) = cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key.0)
    {
        return Some(hit.clone());
    }
    // Build outside the lock: table construction is ~60 µs and must not
    // serialize other threads' verifications.
    let prepared = std::sync::Arc::new(PreparedVerifyingKey::new(key)?);
    let mut map = cache.lock().unwrap_or_else(PoisonError::into_inner);
    if map.len() >= PREPARED_CACHE_CAP {
        // Rare full-drop keeps the code free of LRU bookkeeping on the
        // hot path; the next encounters simply rebuild their authors.
        map.clear();
    }
    Some(map.entry(key.0).or_insert(prepared).clone())
}

/// A detached 64-byte Ed25519 signature.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 64]);

impl serde::Serialize for Signature {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.0.to_vec().serialize(s)
    }
}

impl<'de> serde::Deserialize<'de> for Signature {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v: Vec<u8> = serde::Deserialize::deserialize(d)?;
        Signature::from_slice(&v)
            .ok_or_else(|| serde::de::Error::invalid_length(v.len(), &"64 bytes"))
    }
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({})", crate::hex::encode(&self.0[..8]))
    }
}

impl Signature {
    /// Parses a signature from a 64-byte slice.
    ///
    /// # Errors
    ///
    /// Returns `None` when the slice is not exactly 64 bytes.
    pub fn from_slice(bytes: &[u8]) -> Option<Signature> {
        if bytes.len() != 64 {
            return None;
        }
        let mut sig = [0u8; 64];
        sig.copy_from_slice(bytes);
        Some(Signature(sig))
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 64] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn seed(s: &str) -> [u8; 32] {
        hex::decode_array::<32>(s).unwrap()
    }

    // RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test1() {
        let sk = SigningKey::from_seed(seed(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        assert_eq!(
            hex::encode(sk.verifying_key().as_bytes()),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = sk.sign(b"");
        assert_eq!(
            hex::encode(sig.as_bytes()),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        assert!(sk.verifying_key().verify(b"", &sig));
    }

    // RFC 8032 §7.1 TEST 2 (one byte).
    #[test]
    fn rfc8032_test2() {
        let sk = SigningKey::from_seed(seed(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        ));
        assert_eq!(
            hex::encode(sk.verifying_key().as_bytes()),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let msg = [0x72u8];
        let sig = sk.sign(&msg);
        assert_eq!(
            hex::encode(sig.as_bytes()),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
        assert!(sk.verifying_key().verify(&msg, &sig));
    }

    // RFC 8032 §7.1 TEST 3 (two bytes).
    #[test]
    fn rfc8032_test3() {
        let sk = SigningKey::from_seed(seed(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        ));
        assert_eq!(
            hex::encode(sk.verifying_key().as_bytes()),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        );
        let msg = [0xaf, 0x82];
        let sig = sk.sign(&msg);
        assert_eq!(
            hex::encode(sig.as_bytes()),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        assert!(sk.verifying_key().verify(&msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let sk = SigningKey::from_seed([7u8; 32]);
        let sig = sk.sign(b"genuine message");
        assert!(sk.verifying_key().verify(b"genuine message", &sig));
        assert!(!sk.verifying_key().verify(b"genuine messagf", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = SigningKey::from_seed([8u8; 32]);
        let mut sig = sk.sign(b"msg");
        sig.0[0] ^= 1;
        assert!(!sk.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = SigningKey::from_seed([9u8; 32]);
        let sk2 = SigningKey::from_seed([10u8; 32]);
        let sig = sk1.sign(b"msg");
        assert!(!sk2.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn non_canonical_s_rejected() {
        let sk = SigningKey::from_seed([11u8; 32]);
        let mut sig = sk.sign(b"msg");
        // Force s >= l by setting a high bit pattern.
        sig.0[63] |= 0xf0;
        assert!(!sk.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn point_roundtrip() {
        let b = EdwardsPoint::basepoint();
        let enc = b.compress();
        assert_eq!(
            hex::encode(&enc),
            "5866666666666666666666666666666666666666666666666666666666666666"
        );
        let dec = EdwardsPoint::decompress(&enc).unwrap();
        assert!(dec.equals(&b));
    }

    #[test]
    fn addition_consistency() {
        let b = EdwardsPoint::basepoint();
        // 2B via doubling and via addition must agree.
        assert!(b.double().equals(&b.add(&b)));
        // 3B two ways.
        let three1 = b.double().add(&b);
        let three2 = b.add(&b.double());
        assert!(three1.equals(&three2));
        // [3]B via scalar mult.
        let three3 = b.mul_scalar(&Scalar::from_u64(3));
        assert!(three1.equals(&three3));
    }

    #[test]
    fn identity_behaviour() {
        let b = EdwardsPoint::basepoint();
        let id = EdwardsPoint::identity();
        assert!(b.add(&id).equals(&b));
        assert!(b.add(&b.neg()).equals(&id));
        assert!(b.mul_scalar(&Scalar::ZERO).equals(&id));
    }

    #[test]
    fn fast_keygen_matches_naive_mul_bytes() {
        // [a]B through the fixed-window table (after reducing a mod ℓ)
        // must match the double-and-add oracle on the raw clamped bytes.
        for seed in [[0u8; 32], [7u8; 32], [0xffu8; 32]] {
            let sk = SigningKey::from_seed(seed);
            let h = crate::sha2::sha512(&seed);
            let mut a_bytes = [0u8; 32];
            a_bytes.copy_from_slice(&h[..32]);
            let a_bytes = clamp(a_bytes);
            let naive = EdwardsPoint::basepoint().mul_bytes(&a_bytes).compress();
            assert_eq!(sk.verifying_key().0, naive);
        }
    }

    #[test]
    fn verify_flavours_agree() {
        let sk = SigningKey::from_seed([13u8; 32]);
        let vk = sk.verifying_key();
        let prepared = PreparedVerifyingKey::new(&vk).unwrap();
        let msg = b"every path, same verdict";
        let sig = sk.sign(msg);
        assert!(vk.verify(msg, &sig));
        assert!(vk.verify_uncached(msg, &sig));
        assert!(vk.verify_naive(msg, &sig));
        assert!(prepared.verify(msg, &sig));
        let mut bad = sig;
        bad.0[5] ^= 1;
        assert!(!vk.verify(msg, &bad));
        assert!(!vk.verify_uncached(msg, &bad));
        assert!(!vk.verify_naive(msg, &bad));
        assert!(!prepared.verify(msg, &bad));
    }

    #[test]
    fn undecompressible_key_rejected_by_all_paths() {
        // A y-coordinate off the curve: all verify flavours must return
        // false rather than panic (and the cache must not poison).
        let mut bytes = [0u8; 32];
        bytes[0] = 2;
        bytes[1] = 0x5a;
        let mut off_curve = None;
        for b0 in 0..=255u8 {
            bytes[0] = b0;
            if EdwardsPoint::decompress(&bytes).is_none() {
                off_curve = Some(VerifyingKey(bytes));
                break;
            }
        }
        let vk = off_curve.expect("some encoding must be off-curve");
        let sig = Signature([1u8; 64]);
        assert!(!vk.verify(b"m", &sig));
        assert!(!vk.verify_uncached(b"m", &sig));
        assert!(!vk.verify_naive(b"m", &sig));
        assert!(PreparedVerifyingKey::new(&vk).is_none());
    }

    #[test]
    fn double_scalar_mul_matches_two_naive_muls() {
        let a = EdwardsPoint::basepoint().mul_scalar_naive(&Scalar::from_u64(77));
        for (sv, kv) in [(0u64, 5u64), (1, 0), (3, 9), (u64::MAX, 12345)] {
            let s = Scalar::from_u64(sv);
            let k = Scalar::from_u64(kv);
            let fast = EdwardsPoint::double_scalar_mul_basepoint(&s, &k, &a);
            let naive = EdwardsPoint::basepoint()
                .mul_scalar_naive(&s)
                .add(&a.mul_scalar_naive(&k));
            assert!(fast.equals(&naive), "s={sv} k={kv}");
        }
    }

    #[test]
    fn fixed_window_table_matches_naive() {
        let p = EdwardsPoint::basepoint().mul_scalar_naive(&Scalar::from_u64(99));
        let table = FixedWindowTable::new(&p);
        let h = crate::sha2::sha512(b"table scalar");
        let s = Scalar::from_bytes_mod_order(&h);
        assert!(table.mul(&s).equals(&p.mul_scalar_naive(&s)));
        assert!(table.mul(&Scalar::ZERO).equals(&EdwardsPoint::identity()));
    }

    #[test]
    fn torsion_generator_has_order_eight() {
        let t8 = EdwardsPoint::decompress(&EIGHT_TORSION_GENERATOR).expect("on the curve");
        assert!(
            !t8.double().double().is_identity(),
            "order is not 4 or less"
        );
        assert!(t8.mul_by_cofactor().is_identity(), "order divides 8");
    }

    #[test]
    fn decompress_matches_inversion_formula() {
        // The one-exponentiation root must equal (u/v)^((p+3)/8), the
        // two-exponentiation formula it replaced.
        let mut p38_exp = [0xffu8; 32]; // (p + 3)/8 = 2^252 − 2
        p38_exp[0] = 0xfe;
        p38_exp[31] = 0x0f;
        for n in 0..64u64 {
            let mut bytes = crate::sha2::sha256(&n.to_le_bytes());
            bytes[31] &= 0x7f;
            let y = Fe::from_bytes(&bytes);
            let u = y.square().sub(&Fe::ONE);
            let v = y.square().mul(&d()).add(&Fe::ONE);
            let x = u.mul(&v.invert()).pow_le(&p38_exp);
            let expect_on_curve = v.mul(&x.square()) == u || v.mul(&x.square()) == u.neg();
            assert_eq!(EdwardsPoint::decompress(&bytes).is_some(), expect_on_curve);
            if let Some(p) = EdwardsPoint::decompress(&bytes) {
                assert_eq!(p.compress(), bytes, "canonical encodings round-trip");
            }
        }
    }

    #[test]
    fn non_canonical_nonce_encoding_rejected() {
        // y = 1 (the identity) encoded as 1 + p: decompress accepts it,
        // the canonical decoder does not.
        let mut one_plus_p = [0xffu8; 32];
        one_plus_p[0] = 0xee;
        one_plus_p[31] = 0x7f;
        let p = EdwardsPoint::decompress(&one_plus_p).expect("names the identity");
        assert!(p.is_identity());
        assert!(EdwardsPoint::decompress_canonical(&one_plus_p).is_none());
        let one = EdwardsPoint::identity().compress();
        assert!(EdwardsPoint::decompress_canonical(&one).is_some());
    }

    /// The cofactored rule in one place: a signature whose `R` is
    /// malleated by a small-order point is accepted by every fast
    /// flavour and by the batch, and rejected by the cofactorless
    /// oracle.
    #[test]
    fn small_order_malleated_nonce_accepted_by_cofactored_rule() {
        let sk = SigningKey::from_seed([21u8; 32]);
        let vk = sk.verifying_key();
        let prepared = PreparedVerifyingKey::new(&vk).unwrap();
        let msg = b"malleated nonce";
        for t in 1..8u8 {
            let sig = sk.sign_torsion_malleated(msg, t);
            assert!(vk.verify(msg, &sig), "t={t}");
            assert!(vk.verify_uncached(msg, &sig), "t={t}");
            assert!(prepared.verify(msg, &sig), "t={t}");
            assert!(!vk.verify_naive(msg, &sig), "t={t}");
            let honest = sk.sign(msg);
            let mut items: Vec<(&[u8], &Signature)> = vec![(msg, &honest); BATCH_MIN];
            items.push((msg, &sig));
            assert!(vk.verify_batch(&items).iter().all(|&ok| ok), "t={t}");
        }
        // t = 0 is the honest signature.
        assert_eq!(sk.sign_torsion_malleated(msg, 0), sk.sign(msg));
    }

    #[test]
    fn batch_finds_the_bad_signature() {
        let sk = SigningKey::from_seed([22u8; 32]);
        let vk = sk.verifying_key();
        let msgs: Vec<Vec<u8>> = (0..12u8).map(|n| vec![n; 40]).collect();
        let mut sigs: Vec<Signature> = msgs.iter().map(|m| sk.sign(m)).collect();
        sigs[7].0[40] ^= 4; // corrupt s
        sigs[3].0[2] ^= 1; // corrupt R
        let items: Vec<(&[u8], &Signature)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        let verdicts = vk.verify_batch(&items);
        let expected: Vec<bool> = (0..12).map(|i| i != 7 && i != 3).collect();
        assert_eq!(verdicts, expected);
        assert!(vk.verify_batch(&[]).is_empty());
    }

    #[test]
    fn decompress_garbage_fails() {
        // Roughly half of all y-coordinates are not on the curve; scan a
        // few candidates and require at least one rejection.
        let mut found_invalid = false;
        for b0 in 0..=16u8 {
            let mut candidate = [0u8; 32];
            candidate[0] = b0;
            candidate[1] = 0x5a;
            if EdwardsPoint::decompress(&candidate).is_none() {
                found_invalid = true;
                break;
            }
        }
        assert!(found_invalid, "expected some non-point encodings");
    }
}
