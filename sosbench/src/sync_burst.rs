//! `sync_burst`: one client on one thread running back-to-back
//! encounters in a closed loop. In each, an Epidemic author holds
//! fresh, signed 140-byte bundles the subscriber lacks; a frame pump
//! in this file (the loop of `experiments::eviction::encounter`)
//! drives `Sos::handle_frame` from handing the author's advertisement
//! to the subscriber until the air is quiet.
//!
//! Set-up per encounter is a fresh CA, both identities and the
//! author's posts; the encounter alone is timed.

use crate::report::{E2e, Encounters, Partition, Report};
use crate::stats::{
    host_line, iteration_seed, now, peak_rss_mb, per_item, repeat, secs, twin, Yardstick,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sos_core::message::SosMessage;
use sos_core::middleware::Sos;
use sos_core::routing::SchemeKind;
use sos_core::{Bundle, MessageKind, MessageStore, SyncMsg};
use sos_crypto::ca::{CertificateAuthority, Validator};
use sos_crypto::{AgreementKey, DeviceIdentity, SigningKey, UserId};
use sos_net::{Frame, Initiator, PeerId, Responder, SYNC_BATCH_BUDGET};
use sos_sim::SimTime;
use std::collections::VecDeque;
use std::hint::black_box;

/// Workload size: bundles the author holds at each encounter.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub bundles: u64,
}

pub const FULL: Size = Size { bundles: 200 };
pub const TINY: Size = Size { bundles: 20 };

const PAYLOAD_BYTES: usize = 140;
/// Frame kinds the pump times `Sos::handle_frame` by, as ledger lines.
const KINDS: [&str; 5] = [
    "core.handle_frame_us.ad",
    "core.handle_frame_us.handshake",
    "core.handle_frame_us.request",
    "core.handle_frame_us.bundles",
    "core.handle_frame_us.close",
];
const FRAME_STORM: u64 = 100_000;
/// Unmeasured encounters before timing starts.
const WARMUP: u64 = 10;
/// The host-speed reference: an encounter is ~90% signature
/// verification, so multiply lanes only (~0.1 ms). Contention comes and
/// goes within milliseconds, so the pump reads it after every frame
/// (see [`Clock::Nominal`]) rather than once per encounter; set-up is
/// scaled by one reading after it.
const YARDSTICK: Yardstick = Yardstick {
    lanes: 25_000,
    chain: 0,
    nominal_s: 0.0001,
    every_core: false,
};

struct Pair {
    author: Sos,
    subscriber: Sos,
    /// Seconds the author spent in `Sos::post`.
    post_s: f64,
}

fn identity(ca: &mut CertificateAuthority, rng: &mut StdRng, name: &str) -> DeviceIdentity {
    let signing = SigningKey::generate(rng);
    let agreement = AgreementKey::generate(rng);
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

/// A fresh CA, author and subscriber; the author posts `bundles`
/// seeded 140-byte texts.
fn setup(seed: u64, size: Size) -> Pair {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ca_seed = [0u8; 32];
    rng.fill_bytes(&mut ca_seed);
    let mut ca = CertificateAuthority::new("Sync Burst Root", ca_seed, 0, u64::MAX);
    let mut author = Sos::new(
        PeerId(0),
        identity(&mut ca, &mut rng, "author"),
        SchemeKind::Epidemic,
    );
    let mut subscriber = Sos::new(
        PeerId(1),
        identity(&mut ca, &mut rng, "subscriber"),
        SchemeKind::Epidemic,
    );
    subscriber.subscribe(author.user_id());
    let mut post_s = 0.0;
    for k in 0..size.bundles {
        let payload: Vec<u8> = (0..PAYLOAD_BYTES)
            .map(|_| rng.gen_range(b' '..=b'~'))
            .collect();
        let t = now();
        let posted = author.post(MessageKind::Post, payload, SimTime::from_secs(k));
        post_s += secs(t);
        posted.expect("a 140-byte payload is within MAX_PAYLOAD");
    }
    Pair {
        author,
        subscriber,
        post_s,
    }
}

fn kind(frame: &Frame, to_author: bool) -> usize {
    match frame {
        Frame::Advertisement(_) | Frame::Invite { .. } => 0,
        Frame::HandshakeInit(_) | Frame::HandshakeResponse(_) => 1,
        Frame::Data { .. } if to_author => 2,
        Frame::Data { .. } => 3,
        Frame::Disconnect { .. } => 4,
    }
}

/// How the pump times an encounter.
enum Clock<'a> {
    /// Not at all: the caller times the whole encounter.
    Off,
    /// Each `handle_frame` call into its frame kind's slot, seconds.
    PerKind(&'a mut [f64; 5]),
    /// The encounter at nominal host speed, seconds, with every
    /// reading's scale factor: after each frame the yardstick reads the
    /// host, and the stretch since the previous reading is scaled by it.
    Nominal(&'a mut f64, &'a mut Vec<f64>),
}

/// One encounter, pumped until quiet and timed by `clock`. Returns the
/// frame count, or `None` on a frame storm.
fn encounter(p: &mut Pair, now: SimTime, rng: &mut StdRng, mut clock: Clock) -> Option<u64> {
    let mut mark = crate::stats::now();
    let (author_id, sub_id) = (p.author.peer_id(), p.subscriber.peer_id());
    let ad = Frame::Advertisement(p.author.advertisement(now));
    let mut queue: VecDeque<(PeerId, PeerId, Frame)> = VecDeque::new();
    queue.push_back((author_id, sub_id, ad));
    let mut frames = 0u64;
    while let Some((src, dst, frame)) = queue.pop_front() {
        frames += 1;
        if frames > FRAME_STORM {
            return None;
        }
        let to_author = dst == author_id;
        let target = if to_author {
            &mut p.author
        } else {
            &mut p.subscriber
        };
        let replies = match &mut clock {
            Clock::PerKind(slots) => {
                let k = kind(&frame, to_author);
                let t = crate::stats::now();
                let replies = target.handle_frame(src, frame, now, rng);
                slots[k] += secs(t);
                replies
            }
            _ => target.handle_frame(src, frame, now, rng),
        };
        for (d, f) in replies {
            queue.push_back((dst, d, f));
        }
        if let Clock::Nominal(total, scales) = &mut clock {
            let stretch = secs(mark);
            let scale = YARDSTICK.scale();
            **total += stretch * scale;
            scales.push(scale);
            mark = crate::stats::now();
        }
    }
    Some(frames)
}

fn check(p: &Pair, size: Size, frames: Option<u64>) -> bool {
    let ranges = p.subscriber.store().ranges_for(&p.author.user_id());
    let ok = frames.is_some()
        && ranges == vec![(1, size.bundles)]
        && p.author.stats().bundles_sent == size.bundles
        && p.subscriber.stats().bundles_received == size.bundles
        && p.subscriber.stats().security_rejections == 0;
    if !ok {
        println!(
            "sync_burst CHECK FAILED: frames {frames:?} ranges {ranges:?} sent {} received {}",
            p.author.stats().bundles_sent,
            p.subscriber.stats().bundles_received
        );
    }
    ok
}

fn encounter_time(size: Size) -> SimTime {
    SimTime::from_secs(size.bundles + 60)
}

/// Untraced: encounters back to back until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, size: Size) -> Report {
    // Times reach `e` already at nominal speed.
    let mut e = E2e::new(None, Encounters::Each);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut scales = Vec::new();
    repeat(WARMUP, seconds, |i, measured| {
        let t = now();
        let mut pair = setup(iteration_seed(seed, i), size);
        let setup_s = secs(t) * YARDSTICK.scale();
        let mut s = 0.0;
        let mut readings = Vec::new();
        let clock = Clock::Nominal(&mut s, &mut readings);
        let frames = encounter(&mut pair, encounter_time(size), &mut rng, clock);
        e.op(check(&pair, size, frames));
        if measured {
            e.sample(setup_s, s, pair.subscriber.stats().bundles_received, 1);
            scales.append(&mut readings);
        }
    });
    host_line("sync_burst", &YARDSTICK, "per frame", &scales);
    e.report("sync_burst", peak_rss_mb())
}

/// Traced: alternates an untraced and a traced encounter on identical
/// pairs, splits the traced one by frame kind, and probes the receive
/// path's layers on the last pair's own bundles.
pub fn ledger(seed: u64, seconds: f64, size: Size) -> Report {
    let mut r = Report::default();
    let mut part = Partition::default();
    let (mut post_s, mut frames_total) = (0.0, 0u64);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut last = None;
    let n = repeat(0, seconds, |i, _| {
        let pair_seed = iteration_seed(seed, i);
        let (plain, traced, _) = twin(i, |traced| {
            let mut pair = setup(pair_seed, size);
            let mut slots = [0.0; 5];
            let clock = if traced {
                Clock::PerKind(&mut slots)
            } else {
                Clock::Off
            };
            let t = now();
            let frames = encounter(&mut pair, encounter_time(size), &mut rng, clock);
            (pair, frames, secs(t), slots)
        });
        let (plain, plain_frames, plain_s, _) = plain;
        r.op(check(&plain, size, plain_frames));
        let (traced, frames, traced_s, slots) = traced;
        r.op(check(&traced, size, frames));
        post_s += traced.post_s;
        frames_total += frames.unwrap_or(0);
        for (k, s) in KINDS.iter().zip(slots) {
            part.add(k, s);
        }
        part.iteration(traced_s, plain_s);
        last = Some(traced);
    }) as f64;
    let units = KINDS.map(|k| (k, "us", 1e6));
    part.report(
        "sync_burst",
        "sync_burst.unattributed_us",
        ("us", 1e6),
        &units,
        &mut r,
    );
    let per_bundle = size.bundles as f64;
    r.metric("core.post_us", post_s * 1e6 / (n * per_bundle), "us");
    r.metric(
        "core.frames_per_bundle",
        frames_total as f64 / (n * per_bundle),
        "count",
    );
    let receive_us = part.part_s(KINDS[3]) * 1e6 / (n * per_bundle);
    probes(
        seed,
        &last.expect("the loop runs at least once"),
        receive_us,
        &mut r,
    );
    r
}

/// The receive path's layers on the pair's bundles: seal/open and sync
/// decode per 32 KiB batch frame, then bundle decode, signature verify,
/// bundle verify and store insert per bundle. What the subscriber's
/// `bundles` frames cost beyond these is `core.receive.unattributed_us`.
fn probes(seed: u64, p: &Pair, receive_us: f64, r: &mut Report) {
    const REPS: usize = 5;
    let bundles: Vec<Bundle> = p.author.store().iter().cloned().collect();
    let bodies: Vec<Vec<u8>> = bundles.iter().map(Bundle::encode).collect();
    let mut batches: Vec<Vec<u8>> = Vec::new();
    let mut chunk: Vec<Vec<u8>> = Vec::new();
    let mut chunk_bytes = 0;
    for body in &bodies {
        if !chunk.is_empty() && chunk_bytes + body.len() > SYNC_BATCH_BUDGET {
            batches.push(SyncMsg::encode_bundle_batch(&chunk));
            chunk.clear();
            chunk_bytes = 0;
        }
        chunk_bytes += body.len();
        chunk.push(body.clone());
    }
    batches.push(SyncMsg::encode_bundle_batch(&chunk));
    let batches_per_bundle = batches.len() as f64 / bundles.len() as f64;

    let mut rng = StdRng::seed_from_u64(seed);
    let (a, b) = (p.subscriber.identity(), p.author.identity());
    let now_secs = 3_600;
    let init = Initiator::start(a, &mut rng);
    let Ok((resp, mut responder, _)) = Responder::respond(b, init.message(), now_secs, &mut rng)
    else {
        r.op(false);
        return;
    };
    let Ok((mut initiator, _)) = init.finish(a, &resp, now_secs) else {
        r.op(false);
        return;
    };
    let (mut seal_s, mut open_s, mut decode_s) = (0.0, 0.0, 0.0);
    let mut ok = true;
    for _ in 0..REPS {
        let mut sealed = Vec::new();
        seal_s += per_item(&batches, |m| sealed.push(responder.seal(b"", m)));
        open_s += per_item(&sealed, |(seq, c)| {
            ok &= black_box(initiator.open(*seq, b"", c)).is_ok();
        });
        decode_s += per_item(&batches, |m| {
            ok &= matches!(black_box(SyncMsg::decode(m)), Ok(SyncMsg::Bundles(_)));
        });
    }
    let reps = REPS as f64;
    let (seal_us, open_us, sync_us) = (
        seal_s * 1e6 / reps,
        open_s * 1e6 / reps,
        decode_s * 1e6 / reps,
    );
    r.metric("net.seal_us", seal_us, "us");
    r.metric("net.open_us", open_us, "us");
    r.metric("core.sync_decode_us", sync_us, "us");

    let validator = a.validator();
    let signed: Vec<(Vec<u8>, &Bundle)> = bundles
        .iter()
        .map(|b| {
            let m = &b.message;
            let bytes = SosMessage::signing_bytes(&m.id, m.created_at, m.kind, &m.payload);
            (bytes, b)
        })
        .collect();
    let (mut dec, mut sig, mut ver, mut ins) = (0.0, 0.0, 0.0, 0.0);
    for _ in 0..REPS {
        dec += per_item(&bodies, |body| {
            ok &= black_box(Bundle::decode(body)).is_ok()
        });
        sig += per_item(&signed, |(msg, b)| {
            let key = &b.author_certificate.ed25519_public;
            ok &= key.verify(black_box(msg), &b.message.signature);
        });
        ver += per_item(&bundles, |b| {
            ok &= black_box(b.verify(validator, now_secs)).is_ok()
        });
        let mut store = MessageStore::new();
        let copies = bundles.clone();
        let t = now();
        for b in copies {
            black_box(store.insert(b));
        }
        ins += secs(t) / bundles.len() as f64;
        ok &= store.len() == bundles.len();
    }
    r.op(ok);
    let (dec_us, sig_us, ver_us, ins_us) = (
        dec * 1e6 / reps,
        sig * 1e6 / reps,
        ver * 1e6 / reps,
        ins * 1e6 / reps,
    );
    r.metric("core.bundle_decode_us", dec_us, "us");
    r.metric("crypto.verify_us", sig_us, "us");
    r.metric("core.bundle_verify_us", ver_us, "us");
    r.metric("core.store_insert_us", ins_us, "us");
    // Per received bundle: its share of the batch frame's open and sync
    // decode (which includes the bundle decode), then verify and insert.
    let explained = (open_us + sync_us) * batches_per_bundle + ver_us + ins_us;
    r.metric("core.receive_us", receive_us, "us");
    r.metric("core.receive.unattributed_us", receive_us - explained, "us");
}
