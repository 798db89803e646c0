//! Cross-crate security integration: every §IV property enforced through
//! the full stack — identity detection, source verification, integrity,
//! revocation — plus the adversarial cases the paper's design must stop.

use rand::SeedableRng;
use sos::core::middleware::encounter;
use sos::core::prelude::*;
use sos::core::{Bundle, MessageId, SosMessage};
use sos::crypto::ca::{CertificateAuthority, Validator};
use sos::crypto::ed25519::SigningKey;
use sos::crypto::x25519::AgreementKey;
use sos::crypto::{DeviceIdentity, UserId};
use sos::social::{AlleyOopApp, Cloud};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn pump(a: &mut AlleyOopApp, b: &mut AlleyOopApp, now: SimTime, seed: u64) {
    encounter(a.middleware_mut(), b.middleware_mut(), now, &mut rng(seed));
}

/// A device with a certificate from a *different* CA (an impostor
/// infrastructure) cannot establish a session with legitimate users.
#[test]
fn foreign_ca_cannot_join_the_network() {
    let mut r = rng(1);
    let mut real_cloud = Cloud::new("AlleyOop Root CA", [1; 32]);
    let mut fake_cloud = Cloud::new("AlleyOop Root CA", [66; 32]); // same name!
    let mut alice = AlleyOopApp::sign_up(
        &mut real_cloud,
        PeerId(0),
        "alice",
        SchemeKind::Epidemic,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();
    let mut mallory = AlleyOopApp::sign_up(
        &mut fake_cloud,
        PeerId(1),
        "mallory",
        SchemeKind::Epidemic,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();
    mallory.post("evil content", SimTime::from_secs(1));
    // Direction 1: alice browses mallory's advertisement and initiates;
    // the handshake dies at the first certificate check (mallory's
    // honest stack rejects alice's foreign certificate as responder).
    pump(&mut mallory, &mut alice, SimTime::from_secs(2), 7);
    alice.process_events_at(SimTime::from_secs(2));
    assert_eq!(alice.middleware().store().len(), 0, "no content crossed");

    // Direction 2: alice posts, mallory browses and initiates — now
    // *alice* is the responder and her validator must reject mallory's
    // certificate.
    alice.post("legit content", SimTime::from_secs(3));
    pump(&mut alice, &mut mallory, SimTime::from_secs(4), 8);
    assert_eq!(mallory.middleware().store().len(), 1, "only her own post");
    assert!(
        alice.middleware().stats().security_rejections > 0,
        "alice must reject the foreign certificate"
    );
    assert!(
        mallory.middleware().stats().security_rejections > 0,
        "mallory's honest stack rejected alice too"
    );
}

/// A legitimate-session peer forwarding a *tampered* bundle is caught by
/// the end-to-end signature even though the session itself is valid.
#[test]
fn tampered_forwarded_bundle_rejected() {
    let mut r = rng(2);
    let mut cloud = Cloud::new("AlleyOop Root CA", [1; 32]);
    let mut alice = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(0),
        "alice",
        SchemeKind::Epidemic,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();
    let mut bob = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(1),
        "bob",
        SchemeKind::Epidemic,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();
    let mut carol = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(2),
        "carol",
        SchemeKind::Epidemic,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();

    alice.post("original", SimTime::from_secs(1));
    pump(&mut alice, &mut bob, SimTime::from_secs(2), 8);
    assert_eq!(bob.middleware().store().len(), 1);

    // Bob's device is compromised: it alters the stored payload before
    // forwarding to Carol.
    let id = MessageId {
        author: alice.user_id(),
        number: 1,
    };
    // Direct store surgery via the testing backdoor: re-encode the
    // bundle with a modified payload but the original signature.
    let stored = bob.middleware().store().get(&id).unwrap().clone();
    let mut tampered = stored.clone();
    tampered.message.payload = b"fake news".to_vec();
    // Re-inject through Carol's verification path.
    let validator = Validator::new(cloud.root_certificate().clone());
    assert!(stored.verify(&validator, 10).is_ok());
    assert!(tampered.verify(&validator, 10).is_err());

    // And through the live session path: craft the frame stream by
    // pumping normally after poisoning bob's store is not possible via
    // the public API (the store only accepts verified bundles), so the
    // wire-level check above is the enforcement point Carol relies on.
    pump(&mut bob, &mut carol, SimTime::from_secs(3), 9);
    carol.process_events_at(SimTime::from_secs(3));
    assert_eq!(carol.feed().len(), 0, "carol does not follow alice");
    assert_eq!(
        carol.middleware().store().len(),
        1,
        "genuine bundle carried under epidemic"
    );
}

/// Revocation: after a CRL sync, content and sessions from the revoked
/// device are refused network-wide.
#[test]
fn revoked_device_is_cut_off() {
    let mut r = rng(3);
    let mut cloud = Cloud::new("AlleyOop Root CA", [1; 32]);
    let mut alice = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(0),
        "alice",
        SchemeKind::InterestBased,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();
    let mut bob = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(1),
        "bob",
        SchemeKind::InterestBased,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();
    bob.follow(alice.user_id());

    // Pre-revocation delivery works.
    alice.post("before revocation", SimTime::from_secs(10));
    pump(&mut alice, &mut bob, SimTime::from_secs(11), 10);
    bob.process_events_at(SimTime::from_secs(11));
    assert_eq!(bob.feed().len(), 1);

    // Alice's key leaks; the CA revokes her. Bob syncs while online.
    cloud.revoke_user(&alice.user_id()).unwrap();
    bob.set_online(true);
    bob.sync_with_cloud(&mut cloud, SimTime::from_secs(20));

    alice.post("after revocation", SimTime::from_secs(30));
    pump(&mut alice, &mut bob, SimTime::from_secs(31), 11);
    bob.process_events_at(SimTime::from_secs(31));
    assert_eq!(bob.feed().len(), 1, "no new content from revoked device");
    assert!(bob.middleware().stats().security_rejections > 0);
}

/// Sealed-box direct messages survive multi-hop forwarding and only the
/// recipient can open them.
#[test]
fn sealed_direct_message_end_to_end() {
    let mut r = rng(4);
    // Keys for sender and recipient.
    let recipient_keys = AgreementKey::generate(&mut r);
    let plaintext = b"meet at the library at noon";
    let sealed = sos::crypto::sealed::seal(&mut r, recipient_keys.public(), plaintext).unwrap();
    // Any forwarder sees only ciphertext.
    let eavesdropper = AgreementKey::generate(&mut r);
    assert!(sos::crypto::sealed::open(&eavesdropper, &sealed).is_err());
    assert_eq!(
        sos::crypto::sealed::open(&recipient_keys, &sealed).unwrap(),
        plaintext
    );
}

/// A certificate whose subject does not match the message author is
/// rejected even when both are individually valid (stolen-certificate
/// replay).
#[test]
fn certificate_author_binding_enforced() {
    let mut ca = CertificateAuthority::new("Root", [5; 32], 0, u64::MAX);
    let alice_sk = SigningKey::from_seed([1; 32]);
    let alice_ak = AgreementKey::from_secret([2; 32]);
    let mallory_sk = SigningKey::from_seed([3; 32]);
    let mallory_ak = AgreementKey::from_secret([4; 32]);
    let alice_uid = UserId::from_str_padded("alice");
    let mallory_uid = UserId::from_str_padded("mallory");
    let _alice_cert = ca.issue(
        alice_uid,
        "Alice",
        alice_sk.verifying_key(),
        *alice_ak.public(),
        0,
    );
    let mallory_cert = ca.issue(
        mallory_uid,
        "Mallory",
        mallory_sk.verifying_key(),
        *mallory_ak.public(),
        0,
    );
    let validator = Validator::new(ca.root_certificate().clone());

    // Mallory signs a message claiming to be alice and attaches her own
    // (valid) certificate.
    let msg = SosMessage::create(
        &mallory_sk,
        alice_uid,
        1,
        SimTime::ZERO,
        MessageKind::Post,
        b"i am alice, trust me".to_vec(),
    );
    let bundle = Bundle::new(msg, mallory_cert);
    assert!(
        bundle.verify(&validator, 10).is_err(),
        "author/subject mismatch must be rejected"
    );
}

/// DeviceIdentity refuses to assemble with someone else's certificate.
#[test]
#[should_panic(expected = "certificate subject mismatch")]
fn identity_assembly_is_strict() {
    let mut ca = CertificateAuthority::new("Root", [5; 32], 0, u64::MAX);
    let alice_sk = SigningKey::from_seed([1; 32]);
    let alice_ak = AgreementKey::from_secret([2; 32]);
    let cert = ca.issue(
        UserId::from_str_padded("alice"),
        "Alice",
        alice_sk.verifying_key(),
        *alice_ak.public(),
        0,
    );
    let _ = DeviceIdentity::new(
        UserId::from_str_padded("bob"),
        alice_sk,
        alice_ak,
        cert,
        Validator::new(ca.root_certificate().clone()),
    );
}
