//! `field_study`: the paper's Fig. 4 Gainesville study (10 users,
//! 7 days, 259 posts, Interest-Based routing, naive `World` contact
//! scan), run back to back as a batch through `run_field_study_on`.
//!
//! The constructor hook of `run_field_study_on` splits each run from
//! outside: everything before the hook is called (identities, the CA,
//! mobility) is set-up, everything after it is the timed phase. The
//! hook wraps `World` so the contact scan is timed and its contact-ups
//! counted without touching the driver.

use crate::report::{E2e, Encounters, Partition, Report};
use crate::stats::{iteration_seed, now, peak_rss_mb, per_item, repeat, secs, twin, Yardstick};
use rand::SeedableRng;
use sos_core::routing::{InterestBased, RoutingContext, RoutingScheme};
use sos_crypto::{AgreementKey, DeviceIdentity};
use sos_experiments::replay::{record_field_study_trace, replay_field_study};
use sos_experiments::scenario::{run_field_study_on, FieldStudyConfig, FieldStudyOutcome};
use sos_net::{Initiator, Responder};
use sos_sim::{ContactEvent, ContactPhase, EncounterSource, Point, SimDuration, SimTime, World};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Subscriptions in the reconstructed Fig. 4a graph.
const SUBSCRIPTIONS: usize = 46;
/// Transfers of the published configuration at its default seed.
const SEED2_TRANSFERS: u64 = 887;

/// The driver's event spans and the ledger lines (ms) they fill.
const DRIVER_SPANS: [(&str, &str); 4] = [
    ("driver/advertise", "experiments.driver.advertise_ms"),
    ("driver/deliver", "experiments.driver.deliver_ms"),
    ("driver/post", "experiments.driver.post_ms"),
    ("driver/contact", "experiments.driver.contact_ms"),
];

/// The host-speed reference: a study's timed phase is about 35-40%
/// handshake cryptography and the rest driver and protocol logic, so
/// both kinds of work in about those proportions (~25 ms).
const YARDSTICK: Yardstick = Yardstick {
    lanes: 2_500_000,
    chain: 5_000_000,
    nominal_s: 0.025,
    every_core: false,
};

/// Workload size: the study's days and posts.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub days: u64,
    pub posts: usize,
}

pub const FULL: Size = Size {
    days: 7,
    posts: 259,
};
pub const TINY: Size = Size { days: 1, posts: 20 };

fn config(seed: u64, size: Size) -> FieldStudyConfig {
    FieldStudyConfig {
        seed,
        days: size.days,
        total_posts: size.posts,
        ..FieldStudyConfig::default()
    }
}

/// What the wrapped contact source saw.
#[derive(Default)]
struct Probe {
    timed_from: Cell<Option<Instant>>,
    scan_s: Cell<f64>,
    ups: Cell<u64>,
}

/// `World` behind a timing, counting shim.
struct Scanned {
    world: World,
    probe: Rc<Probe>,
}

impl EncounterSource for Scanned {
    fn node_count(&self) -> usize {
        EncounterSource::node_count(&self.world)
    }

    fn encounter_events(&self, start: SimTime, end: SimTime) -> Vec<ContactEvent> {
        let t = now();
        let events = self.world.encounter_events(start, end);
        self.probe.scan_s.set(self.probe.scan_s.get() + secs(t));
        let ups = events
            .iter()
            .filter(|e| e.phase == ContactPhase::Up)
            .count();
        self.probe.ups.set(self.probe.ups.get() + ups as u64);
        events
    }

    fn node_position(&self, node: usize, t: SimTime) -> Option<Point> {
        EncounterSource::node_position(&self.world, node, t)
    }

    fn range_hint_m(&self) -> Option<f64> {
        EncounterSource::range_hint_m(&self.world)
    }
}

/// One study: outcome, set-up seconds, timed seconds, and the probe.
struct Run {
    outcome: FieldStudyOutcome,
    setup_s: f64,
    timed_s: f64,
    probe: Rc<Probe>,
}

fn run_once(cfg: &FieldStudyConfig) -> Run {
    let probe = Rc::new(Probe::default());
    let hook = Rc::clone(&probe);
    let t0 = now();
    let outcome = run_field_study_on(cfg, move |trajectories, range_m, tick| {
        hook.timed_from.set(Some(now()));
        Scanned {
            world: World::new(trajectories, range_m, tick),
            probe: hook,
        }
    });
    let end = now();
    let from = probe.timed_from.get().unwrap_or(t0);
    Run {
        outcome,
        setup_s: (from - t0).as_secs_f64(),
        timed_s: (end - from).as_secs_f64(),
        probe,
    }
}

/// The output checks: post count, subscriptions, no security alerts or
/// rejections, and the published transfer count at seed 2.
fn check(cfg: &FieldStudyConfig, size: Size, o: &FieldStudyOutcome) -> bool {
    let subs: usize = o
        .apps
        .iter()
        .map(|a| a.middleware().subscriptions().len())
        .sum();
    let mut ok = o.metrics.posts == cfg.total_posts as u64
        && subs == SUBSCRIPTIONS
        && o.metrics.security_alerts == 0
        && o.totals.security_alerts == 0
        && o.totals.security_rejections == 0
        && o.transfers() > 0;
    if cfg.seed == 2 && size.days == FULL.days && size.posts == FULL.posts {
        ok &= o.transfers() == SEED2_TRANSFERS;
    }
    if !ok {
        println!(
            "field_study CHECK FAILED seed {}: posts {} subs {subs} alerts {} rejections {} transfers {}",
            cfg.seed,
            o.metrics.posts,
            o.metrics.security_alerts,
            o.totals.security_rejections,
            o.transfers()
        );
    }
    ok
}

/// Untraced: studies back to back until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, size: Size) -> Report {
    let mut e = E2e::new(Some(YARDSTICK), Encounters::PerSlice);
    repeat(1, seconds, |i, measured| {
        let cfg = config(iteration_seed(seed, i), size);
        let r = run_once(&cfg);
        e.op(check(&cfg, size, &r.outcome));
        if measured {
            let ups = r.probe.ups.get();
            e.sample(r.setup_s, r.timed_s, r.outcome.totals.bundles_received, ups);
        }
    });
    e.report("field_study", peak_rss_mb())
}

/// Traced: alternates an untraced and a traced study on the same seed
/// for `seconds`, splits the traced timed phase into the contact scan
/// and the driver's event spans, and probes the crypto, handshake and
/// routing calls on the last study's own identities and adverts.
pub fn ledger(seed: u64, seconds: f64, size: Size) -> Report {
    let mut r = Report::default();
    let mut part = Partition::default();
    let mut handshake_calls = 0u64;
    let (mut handshake_span_s, mut receive_span_s) = (0.0, 0.0);
    let mut sessions = 0u64;
    let mut last = None;
    let n = repeat(0, seconds, |i, _| {
        let cfg = config(iteration_seed(seed, i), size);
        let (plain, traced, profile) = twin(i, |_| run_once(&cfg));
        r.op(check(&cfg, size, &plain.outcome));
        r.op(check(&cfg, size, &traced.outcome));
        part.add("sim.contact_scan_s", traced.probe.scan_s.get());
        for (span, name) in DRIVER_SPANS {
            let s = profile
                .stages
                .get(span)
                .map_or(0.0, |st| st.total.as_secs_f64());
            part.add(name, s);
        }
        if let Some(st) = profile.stages.get("net/handshake") {
            handshake_calls += st.calls;
            handshake_span_s += st.total.as_secs_f64();
        }
        if let Some(st) = profile.stages.get("core/receive_bundle") {
            receive_span_s += st.total.as_secs_f64();
        }
        sessions += traced.outcome.totals.sessions_initiated;
        part.iteration(traced.timed_s, plain.timed_s);
        last = Some((cfg, traced.outcome));
    }) as f64;
    part.report(
        "field_study",
        "field_study.unattributed_s",
        ("s", 1.0),
        &DRIVER_SPANS.map(|(_, name)| (name, "ms", 1e3)),
        &mut r,
    );
    r.metric("net.handshake_calls", handshake_calls as f64 / n, "count");
    r.metric("net.handshake_span_ms", handshake_span_s * 1e3 / n, "ms");
    r.metric(
        "core.receive_bundle_span_ms",
        receive_span_s * 1e3 / n,
        "ms",
    );
    r.metric("core.sessions", sessions as f64 / n, "count");

    let (cfg, outcome) = last.expect("the loop runs at least once");
    // Replaying the recorded tape must reproduce the live run.
    let tape = record_field_study_trace(&cfg);
    let t = now();
    let replayed = replay_field_study(&cfg, &tape);
    r.metric("experiments.replay_s", secs(t), "s");
    r.op(replayed.transfers() == outcome.transfers()
        && replayed.metrics.posts == outcome.metrics.posts);

    let ids: Vec<&DeviceIdentity> = outcome
        .apps
        .iter()
        .map(|a| a.middleware().identity())
        .collect();
    probes(cfg.seed, &ids, &outcome, &mut r);
    r
}

/// Layer probes on the study's identities and adverts: one full
/// certificate handshake, one X25519 agreement, one warm certificate
/// validation, one routing decision.
fn probes(seed: u64, ids: &[&DeviceIdentity], outcome: &FieldStudyOutcome, r: &mut Report) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let now_secs = 3_600;
    let (a, b) = (ids[0], ids[1]);
    let mut handshakes_ok = true;
    let hs = per_item(&[(); 64], |()| {
        let init = Initiator::start(a, &mut rng);
        let done = Responder::respond(b, init.message(), now_secs, &mut rng)
            .and_then(|(resp, _, _)| init.finish(a, &resp, now_secs));
        handshakes_ok &= black_box(done).is_ok();
    });
    r.op(handshakes_ok);
    r.metric("net.handshake_us", hs * 1e6, "us");

    let mine = AgreementKey::generate(&mut rng);
    let theirs = AgreementKey::generate(&mut rng);
    let agree = per_item(&[(); 64], |()| {
        black_box(mine.agree(black_box(theirs.public())));
    });
    r.metric("crypto.agree_us", agree * 1e6, "us");

    let _ = a.validator().validate(b.certificate(), now_secs);
    let validate = per_item(&[(); 256], |()| {
        black_box(a.validator().validate(black_box(b.certificate()), now_secs)).ok();
    });
    r.metric("crypto.cert_validate_us", validate * 1e6, "us");

    // Every node's Interest-Based decision on every other node's final
    // advert, with the study's 7-hour holdoff.
    let end = SimTime::from_hours(24 * 7);
    let adverts: Vec<_> = outcome
        .apps
        .iter()
        .map(|a| a.middleware().advertisement(end))
        .collect();
    let nodes: Vec<_> = outcome
        .apps
        .iter()
        .map(|app| {
            let sos = app.middleware();
            (sos, sos.user_id(), sos.store().summary())
        })
        .collect();
    let mut schemes: Vec<InterestBased> = nodes
        .iter()
        .map(|_| InterestBased::with_holdoff(SimDuration::from_mins(420)))
        .collect();
    let mut calls = 0u64;
    let t = now();
    for _ in 0..20 {
        for (i, ((sos, me, summary), scheme)) in nodes.iter().zip(&mut schemes).enumerate() {
            let ctx = RoutingContext {
                me,
                subscriptions: sos.subscriptions(),
                summary,
                now: end,
            };
            for (j, ad) in adverts.iter().enumerate() {
                if i != j {
                    black_box(scheme.interests(&ctx, ad));
                    calls += 1;
                }
            }
        }
    }
    r.metric("routing.interests_ns", secs(t) * 1e9 / calls as f64, "ns");
}
