//! Sync protocol v2: frames-per-encounter and end-to-end sync
//! throughput with batched bundle frames.
//!
//! The acceptance gate for the batching change: at 200 bundles per
//! session, batched `SyncMsg::Bundles` frames must cut the encrypted
//! payload frame count by ≥2x versus the v1 one-frame-per-bundle
//! protocol, while delivering exactly the same message set. The
//! invariants are asserted here (a bench run that violates them fails
//! loudly), then the full encounter and the codec hot paths are timed.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use sos_core::middleware::{encounter, Sos};
use sos_core::routing::SchemeKind;
use sos_core::sync::{AuthorWant, SyncMsg};
use sos_core::MessageKind;
use sos_crypto::ca::{CertificateAuthority, Validator};
use sos_crypto::ed25519::SigningKey;
use sos_crypto::x25519::AgreementKey;
use sos_crypto::{DeviceIdentity, UserId};
use sos_net::PeerId;
use sos_sim::SimTime;

const BUNDLES_PER_SESSION: u64 = 200;

fn identity(ca: &mut CertificateAuthority, seed: u8, name: &str) -> DeviceIdentity {
    let signing = SigningKey::from_seed([seed; 32]);
    let agreement = AgreementKey::from_secret([seed.wrapping_add(50); 32]);
    let uid = UserId::from_str_padded(name);
    let cert = ca.issue(uid, name, signing.verifying_key(), *agreement.public(), 0);
    DeviceIdentity::new(
        uid,
        signing,
        agreement,
        cert,
        Validator::new(ca.root_certificate().clone()),
    )
}

fn author_with_posts(ca: &mut CertificateAuthority, posts: u64) -> Sos {
    let mut author = Sos::new(PeerId(0), identity(ca, 10, "author"), SchemeKind::Epidemic);
    for n in 0..posts {
        author
            .post(MessageKind::Post, vec![n as u8; 140], SimTime::from_secs(n))
            .expect("post");
    }
    author
}

/// Pumps one full encounter (browse → handshake → sync → close) via the
/// shared `sos_core::middleware::encounter` frame pump and returns the
/// number of frames exchanged on the air.
fn run_encounter(author: &mut Sos, browser: &mut Sos) -> u64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    encounter(author, browser, SimTime::from_secs(1000), &mut rng)
}

fn bench_sync_protocol(c: &mut Criterion) {
    // --- Acceptance invariants (checked once, outside the timing loop).
    let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
    let mut author = author_with_posts(&mut ca, BUNDLES_PER_SESSION);
    let mut browser = Sos::new(
        PeerId(1),
        identity(&mut ca, 20, "browser"),
        SchemeKind::Epidemic,
    );
    run_encounter(&mut author, &mut browser);
    let served = author.stats();
    assert_eq!(
        served.bundles_sent, BUNDLES_PER_SESSION,
        "full transfer expected"
    );
    assert_eq!(
        browser
            .store()
            .ranges_for(&UserId::from_str_padded("author")),
        vec![(1, BUNDLES_PER_SESSION)],
        "delivered-message set must be exactly the author's sequence"
    );
    // v1 sent one payload frame per bundle plus Done; v2 must be ≥2x
    // fewer. (sync_frames_sent counts the author's batch + done frames.)
    let v1_frames = BUNDLES_PER_SESSION + 1;
    assert!(
        served.sync_frames_sent * 2 <= v1_frames,
        "batching must cut payload frames ≥2x at {BUNDLES_PER_SESSION} bundles: \
         {} vs v1's {v1_frames}",
        served.sync_frames_sent
    );
    eprintln!(
        "sync_protocol: {BUNDLES_PER_SESSION} bundles in {} payload frames \
         (v1: {v1_frames}; {:.1}x reduction)",
        served.sync_frames_sent,
        v1_frames as f64 / served.sync_frames_sent as f64
    );

    // --- Timed: the full 200-bundle encounter, handshake included.
    c.bench_function("sync/encounter_200_bundles", |b| {
        b.iter_with_setup(
            || {
                let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
                let author = author_with_posts(&mut ca, BUNDLES_PER_SESSION);
                let browser = Sos::new(
                    PeerId(1),
                    identity(&mut ca, 20, "browser"),
                    SchemeKind::Epidemic,
                );
                (author, browser)
            },
            |(mut author, mut browser)| run_encounter(&mut author, &mut browser),
        )
    });

    // --- Timed: ranged-request codec hot path.
    let wants: Vec<AuthorWant> = (0..64)
        .map(|i| AuthorWant {
            author: UserId::from_str_padded(&format!("user-{i}")),
            have: vec![(1, 40), (44, 90), (100, 120)],
        })
        .collect();
    let encoded = SyncMsg::Request {
        wants: wants.clone(),
    }
    .encode()
    .expect("encodable");
    c.bench_function("sync/encode_request_64_authors", |b| {
        let msg = SyncMsg::Request {
            wants: wants.clone(),
        };
        b.iter(|| msg.encode().unwrap().len())
    });
    c.bench_function("sync/decode_request_64_authors", |b| {
        b.iter(|| SyncMsg::decode(std::hint::black_box(&encoded)).unwrap())
    });
}

criterion_group!(benches, bench_sync_protocol);
criterion_main!(benches);
