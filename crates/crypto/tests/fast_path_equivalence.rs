//! Property tests pinning every windowed/precomputed fast path to the
//! naive double-and-add oracles it replaced: the fixed-window basepoint
//! table, the 4-bit sliding-window variable-base multiplication, the
//! Straus/Shamir interleaved double-scalar multiplication, the
//! prepared/cached verification flavours, batch verification, and the
//! validator's certificate cache.
//!
//! Every fast verification flavour applies the cofactored rule of
//! RFC 8032 §5.1.7, so its oracle is [`verify_naive_cofactored`] below;
//! the kept cofactorless `VerifyingKey::verify_naive` differs from it
//! only on signatures whose `R` carries a small-order component.
//!
//! Random inputs come from proptest; the edge scalars the recodings are
//! most likely to mishandle (0, 1, ℓ−1, ℓ, 2²⁵⁶−1) are exercised
//! deterministically below.

use proptest::prelude::*;
use sos_crypto::ca::{CertificateAuthority, Validator};
use sos_crypto::cert::UserId;
use sos_crypto::ed25519::{
    basepoint_table, EdwardsPoint, FixedWindowTable, PreparedVerifyingKey, Signature, SigningKey,
    VerifyingKey,
};
use sos_crypto::scalar::Scalar;
use sos_crypto::x25519::AgreementKey;

/// ℓ − 1 as canonical little-endian bytes.
fn l_minus_one_bytes() -> [u8; 32] {
    let l: [u64; 4] = [
        0x5812631a5cf5d3ec, // low limb of ℓ, minus one
        0x14def9dea2f79cd6,
        0x0000000000000000,
        0x1000000000000000,
    ];
    let mut out = [0u8; 32];
    for (i, limb) in l.iter().enumerate() {
        out[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
    }
    out
}

/// ℓ itself as raw little-endian bytes (non-canonical input).
fn l_bytes() -> [u8; 32] {
    let mut out = l_minus_one_bytes();
    out[0] += 1;
    out
}

/// The edge scalars of the satellite checklist, as reduced scalars.
fn edge_scalars() -> Vec<Scalar> {
    vec![
        Scalar::ZERO,
        Scalar::ONE,
        Scalar::from_canonical_bytes(&l_minus_one_bytes()).expect("ℓ−1 is canonical"),
        Scalar::from_bytes_mod_order(&l_bytes()),  // ℓ → 0
        Scalar::from_bytes_mod_order(&[0xff; 32]), // 2²⁵⁶ − 1, reduced
    ]
}

/// A "random-looking" subgroup point derived from a seed scalar.
fn subgroup_point(seed: u64) -> EdwardsPoint {
    EdwardsPoint::basepoint().mul_scalar_naive(&Scalar::from_u64(seed | 1))
}

#[test]
fn edge_scalars_basepoint_table() {
    for s in edge_scalars() {
        let fast = basepoint_table().mul(&s);
        let naive = EdwardsPoint::basepoint().mul_scalar_naive(&s);
        assert!(fast.equals(&naive), "basepoint table diverges on {s:?}");
    }
}

#[test]
fn edge_scalars_sliding_window() {
    let p = subgroup_point(0xdead_beef);
    for s in edge_scalars() {
        let fast = p.mul_scalar(&s);
        let naive = p.mul_scalar_naive(&s);
        assert!(fast.equals(&naive), "sliding window diverges on {s:?}");
    }
}

#[test]
fn edge_scalars_double_scalar() {
    let a = subgroup_point(0x5051_e5e5);
    for s in edge_scalars() {
        for k in edge_scalars() {
            let fast = EdwardsPoint::double_scalar_mul_basepoint(&s, &k, &a);
            let naive = EdwardsPoint::basepoint()
                .mul_scalar_naive(&s)
                .add(&a.mul_scalar_naive(&k));
            assert!(fast.equals(&naive), "Straus diverges on s={s:?} k={k:?}");
        }
    }
}

#[test]
fn non_canonical_byte_inputs_reduce_like_subgroup_order() {
    // ℓ·B = identity and (2²⁵⁶−1)·B = ((2²⁵⁶−1) mod ℓ)·B: the naive
    // raw-bytes ladder on non-canonical inputs must agree with the fast
    // paths on the reduced scalar (B generates the order-ℓ subgroup).
    for raw in [l_bytes(), [0xffu8; 32]] {
        let naive = EdwardsPoint::basepoint().mul_bytes(&raw);
        let fast = basepoint_table().mul(&Scalar::from_bytes_mod_order(&raw));
        assert!(fast.equals(&naive));
    }
}

/// The cofactored verification rule by double-and-add only: `s` must be
/// canonical, `R` must decode from its one canonical encoding, and
/// `[8]([s]B − R − [k]A)` must be the identity.
fn verify_naive_cofactored(vk: &VerifyingKey, message: &[u8], signature: &Signature) -> bool {
    let sig = signature.as_bytes();
    let mut r_enc = [0u8; 32];
    r_enc.copy_from_slice(&sig[..32]);
    let mut s_bytes = [0u8; 32];
    s_bytes.copy_from_slice(&sig[32..]);
    let Some(s) = Scalar::from_canonical_bytes(&s_bytes) else {
        return false;
    };
    let Some(a) = EdwardsPoint::decompress(vk.as_bytes()) else {
        return false;
    };
    // A decoded R that does not re-encode to the same bytes was given
    // in a non-canonical encoding.
    let Some(r) = EdwardsPoint::decompress(&r_enc).filter(|r| r.compress() == r_enc) else {
        return false;
    };
    let mut h = sos_crypto::sha2::Sha512::new();
    h.update(&r_enc);
    h.update(vk.as_bytes());
    h.update(message);
    let k = Scalar::from_bytes_mod_order(&h.finalize());
    let sb = EdwardsPoint::basepoint().mul_scalar_naive(&s);
    let rhs = r.add(&a.mul_scalar_naive(&k));
    let mut eight = [0u8; 32];
    eight[0] = 8;
    sb.add(&rhs.neg())
        .mul_bytes(&eight)
        .equals(&EdwardsPoint::identity())
}

/// An encoding of no curve point (a y whose x² is a non-square).
fn off_curve_encoding() -> [u8; 32] {
    (0..=255u8)
        .map(|b0| {
            let mut bytes = [0x5au8; 32];
            bytes[0] = b0;
            bytes[31] = 0x2a;
            bytes
        })
        .find(|b| EdwardsPoint::decompress(b).is_none())
        .expect("about half of all encodings are off the curve")
}

/// The identity (y = 1) encoded non-canonically as y = 1 + p.
fn non_canonical_identity() -> [u8; 32] {
    let mut bytes = [0xffu8; 32];
    bytes[0] = 0xee;
    bytes[31] = 0x7f;
    bytes
}

/// `s + ℓ` as bytes: the same scalar, non-canonically encoded.
fn add_l(s: &[u8]) -> [u8; 32] {
    let l = l_bytes();
    let mut out = [0u8; 32];
    let mut carry = 0u16;
    for i in 0..32 {
        let v = s[i] as u16 + l[i] as u16 + carry;
        out[i] = v as u8;
        carry = v >> 8;
    }
    out
}

/// Builds item `i` of a batch from its corruption choice. Kinds 0 and 7
/// stay valid under the cofactored rule; every other kind is invalid.
fn batch_item(sk: &SigningKey, i: usize, kind: u8, bit: u16, t: u8) -> (Vec<u8>, Signature) {
    let mut msg = format!("bundle {i} of a sync frame").into_bytes();
    let mut sig = *sk.sign(&msg).as_bytes();
    match kind {
        1 => sig[(bit % 256) as usize / 8] ^= 1 << (bit % 8),
        2 => sig[32 + (bit % 256) as usize / 8] ^= 1 << (bit % 8),
        3 => {
            let at = bit as usize % msg.len();
            msg[at] ^= 1 << (bit % 8);
        }
        4 => {
            let s = add_l(&sig[32..]);
            sig[32..].copy_from_slice(&s);
        }
        5 => sig[..32].copy_from_slice(&off_curve_encoding()),
        6 => sig[..32].copy_from_slice(&non_canonical_identity()),
        7 => sig = *sk.sign_torsion_malleated(&msg, t).as_bytes(),
        _ => {}
    }
    (msg, Signature(sig))
}

#[test]
fn small_order_malleation_splits_the_two_oracles() {
    let sk = SigningKey::from_seed([5u8; 32]);
    let vk = sk.verifying_key();
    let msg = b"torsion";
    for t in 0..8u8 {
        let sig = sk.sign_torsion_malleated(msg, t);
        assert!(verify_naive_cofactored(&vk, msg, &sig), "t={t}");
        assert!(vk.verify(msg, &sig), "t={t}");
        assert_eq!(vk.verify_naive(msg, &sig), t == 0, "t={t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `verify_batch(items)[i] == verify(items[i]) ==
    /// verify_naive_cofactored(items[i])` for 0..=80 items mixing honest
    /// signatures, bit flips in `R`, `s` or the message, a non-canonical
    /// `s`, an undecodable or non-canonical `R`, small-order-malleated
    /// `R`, and repeats of earlier items. Half the cases corrupt
    /// nothing, so the all-valid branch of the batch equation runs too.
    #[test]
    fn batch_verdicts_match_single_and_cofactored_oracle(
        seed in prop::array::uniform32(any::<u8>()),
        clean in any::<bool>(),
        plan in prop::collection::vec((0u8..12, any::<u16>(), any::<u8>(), any::<u8>()), 0..=80)
    ) {
        let sk = SigningKey::from_seed(seed);
        let vk = sk.verifying_key();
        let prepared = PreparedVerifyingKey::new(&vk).expect("derived keys decompress");
        let mut owned: Vec<(Vec<u8>, Signature)> = Vec::with_capacity(plan.len());
        for (i, &(kind, bit, t, repeat)) in plan.iter().enumerate() {
            if i > 0 && repeat % 6 == 0 {
                let earlier = owned[repeat as usize % i].clone();
                owned.push(earlier);
                continue;
            }
            let kind = if clean && kind != 7 { 0 } else { kind };
            owned.push(batch_item(&sk, i, kind, bit, t));
        }
        let items: Vec<(&[u8], &Signature)> =
            owned.iter().map(|(m, s)| (m.as_slice(), s)).collect();
        let batch = vk.verify_batch(&items);
        let equation = prepared.verify_batch_equation(&items);
        prop_assert_eq!(batch.len(), items.len());
        for (i, (msg, sig)) in items.iter().enumerate() {
            let single = vk.verify(msg, sig);
            prop_assert_eq!(batch[i], single, "item {} batch vs verify", i);
            prop_assert_eq!(equation[i], single, "item {} equation vs verify", i);
            prop_assert_eq!(vk.verify_uncached(msg, sig), single, "item {} uncached", i);
            prop_assert_eq!(
                single,
                verify_naive_cofactored(&vk, msg, sig),
                "item {} verify vs cofactored oracle",
                i
            );
        }
    }
}

proptest! {
    #[test]
    fn basepoint_table_matches_naive(bytes in prop::array::uniform32(any::<u8>())) {
        let s = Scalar::from_bytes_mod_order(&bytes);
        let fast = basepoint_table().mul(&s);
        let naive = EdwardsPoint::basepoint().mul_scalar_naive(&s);
        prop_assert!(fast.equals(&naive));
    }

    #[test]
    fn sliding_window_matches_naive(bytes in prop::array::uniform32(any::<u8>()),
                                    point_seed in any::<u64>()) {
        let s = Scalar::from_bytes_mod_order(&bytes);
        let p = subgroup_point(point_seed);
        prop_assert!(p.mul_scalar(&s).equals(&p.mul_scalar_naive(&s)));
    }

    #[test]
    fn fixed_window_table_matches_naive(bytes in prop::array::uniform32(any::<u8>()),
                                        point_seed in any::<u64>()) {
        let s = Scalar::from_bytes_mod_order(&bytes);
        let p = subgroup_point(point_seed);
        let table = FixedWindowTable::new(&p);
        prop_assert!(table.mul(&s).equals(&p.mul_scalar_naive(&s)));
    }

    #[test]
    fn double_scalar_matches_naive(sb in prop::array::uniform32(any::<u8>()),
                                   kb in prop::array::uniform32(any::<u8>()),
                                   point_seed in any::<u64>()) {
        let s = Scalar::from_bytes_mod_order(&sb);
        let k = Scalar::from_bytes_mod_order(&kb);
        let a = subgroup_point(point_seed);
        let fast = EdwardsPoint::double_scalar_mul_basepoint(&s, &k, &a);
        let naive = EdwardsPoint::basepoint()
            .mul_scalar_naive(&s)
            .add(&a.mul_scalar_naive(&k));
        prop_assert!(fast.equals(&naive));
    }

    #[test]
    fn verify_flavours_agree_on_valid_and_corrupt(seed in prop::array::uniform32(any::<u8>()),
                                                  msg in prop::collection::vec(any::<u8>(), 0..128),
                                                  flip in 0usize..512) {
        let sk = SigningKey::from_seed(seed);
        let vk = sk.verifying_key();
        let prepared = PreparedVerifyingKey::new(&vk).expect("derived keys decompress");
        let sig = sk.sign(&msg);
        prop_assert!(vk.verify(&msg, &sig));
        prop_assert!(vk.verify_uncached(&msg, &sig));
        prop_assert!(vk.verify_naive(&msg, &sig));
        prop_assert!(prepared.verify(&msg, &sig));
        // Corrupt one signature bit; every flavour must agree on the
        // verdict (the cofactorless equation either holds or it does not).
        let mut bad = Signature(*sig.as_bytes());
        bad.0[flip / 8] ^= 1 << (flip % 8);
        let naive = vk.verify_naive(&msg, &bad);
        prop_assert_eq!(vk.verify(&msg, &bad), naive);
        prop_assert_eq!(vk.verify_uncached(&msg, &bad), naive);
        prop_assert_eq!(prepared.verify(&msg, &bad), naive);
    }

    #[test]
    fn cert_cache_matches_fresh_validator(issued_at in 0u64..1_000,
                                          validity in 1u64..10_000,
                                          probe in prop::collection::vec(0u64..20_000, 1..6)) {
        let mut ca = CertificateAuthority::new("Root", [42u8; 32], 0, u64::MAX);
        ca.default_validity_secs = validity;
        let sk = SigningKey::from_seed([1u8; 32]);
        let ak = AgreementKey::from_secret([2u8; 32]);
        let cert = ca.issue(
            UserId::from_str_padded("alice"),
            "Alice",
            sk.verifying_key(),
            *ak.public(),
            issued_at,
        );
        let cached = Validator::new(ca.root_certificate().clone());
        for now in probe {
            let fresh = Validator::new(ca.root_certificate().clone());
            prop_assert_eq!(cached.validate(&cert, now), fresh.validate(&cert, now));
        }
    }
}
