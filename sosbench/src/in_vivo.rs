//! `in_vivo`: a `Broker` in this process conducts real node daemon
//! processes over TCP on host loopback, in a closed lockstep loop
//! (each round waits for the barrier). The daemons are this binary
//! re-executed with `daemon --broker ADDR`, which calls the same
//! `sos_node::daemon::run_daemon` the `sos-node` binary does.
//!
//! The input is a seeded `sos_trace::synthetic` trace in the paper's
//! shape (10 nodes, 7 days) with Epidemic routing and 600 s adverts.
//! Set-up is generating the trace, binding the broker and spawning the
//! daemons; the timed phase is `Broker::run`. Every run is checked
//! against the in-process `run_mesh` oracle on the same plan.

use crate::report::{E2e, Encounters, Partition, Report};
use crate::stats::{iteration_seed, median, now, peak_rss_mb, repeat, secs, twin};
use sos_core::routing::SchemeKind;
use sos_core::SosStats;
use sos_net::{encode_wire, Frame, WireReader};
use sos_node::broker::{Broker, BrokerConfig, InVivoOutcome};
use sos_node::mesh::{run_mesh, MeshOutcome};
use sos_node::proto::Msg;
use sos_node::provision::{provision_apps, RunPlan};
use sos_sim::{ContactPhase, SimDuration, SimTime};
use sos_trace::{generate_social_trace, ContactTrace, SocialTraceConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::process::{Child, Command, Stdio};

/// Workload size: trace shape and posts.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub nodes: usize,
    pub days: u64,
    pub posts: usize,
}

pub const FULL: Size = Size {
    nodes: 10,
    days: 7,
    posts: 100,
};
pub const TINY: Size = Size {
    nodes: 6,
    days: 1,
    posts: 10,
};

/// Node daemon processes the broker conducts.
const DAEMONS: usize = 2;

fn inputs(seed: u64, size: Size) -> (ContactTrace, RunPlan) {
    let trace = generate_social_trace(&SocialTraceConfig {
        nodes: size.nodes,
        days: size.days,
        seed,
        ..SocialTraceConfig::default()
    })
    .expect("a non-empty population yields a valid trace");
    let plan = RunPlan {
        scheme: SchemeKind::Epidemic,
        seed,
        total_posts: size.posts,
        ad_interval: SimDuration::from_secs(600),
    };
    (trace, plan)
}

fn contact_ups(trace: &ContactTrace) -> u64 {
    trace
        .events()
        .iter()
        .filter(|e| e.phase == ContactPhase::Up)
        .count() as u64
}

/// One socket run: the outcome (or why it failed), set-up seconds
/// after the trace exists, and `Broker::run` seconds.
fn socket_run(trace: &ContactTrace, plan: &RunPlan) -> (Result<InVivoOutcome, String>, f64, f64) {
    let t = now();
    let spawned = Broker::bind(BrokerConfig {
        listen: "127.0.0.1:0".into(),
        num_procs: DAEMONS,
        plan: plan.clone(),
    })
    .map_err(|e| format!("bind: {e}"))
    .and_then(|broker| {
        let addr = broker.local_addr().map_err(|e| format!("addr: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut children: Vec<Child> = Vec::new();
        for _ in 0..DAEMONS {
            let child = Command::new(&exe)
                .args(["daemon", "--broker", &addr.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn();
            match child {
                Ok(c) => children.push(c),
                Err(e) => {
                    reap(&mut children, true);
                    return Err(format!("spawn daemon: {e}"));
                }
            }
        }
        Ok((broker, children))
    });
    let setup_s = secs(t);
    let (broker, mut children) = match spawned {
        Ok(x) => x,
        Err(e) => return (Err(e), setup_s, 0.0),
    };
    let t = now();
    let result = broker.run(trace).map_err(|e| format!("in-vivo run: {e}"));
    let timed_s = secs(t);
    let clean = reap(&mut children, result.is_err());
    let result = result.and_then(|o| {
        if clean {
            Ok(o)
        } else {
            Err("a daemon exited non-zero".into())
        }
    });
    (result, setup_s, timed_s)
}

/// Waits for every daemon (killing them first if the run failed);
/// true when all exited cleanly.
fn reap(children: &mut Vec<Child>, kill: bool) -> bool {
    let mut clean = true;
    for mut child in children.drain(..) {
        if kill {
            let _ = child.kill();
        }
        clean &= child.wait().is_ok_and(|s| s.success());
    }
    clean
}

/// Everything a socket run must share with the mesh oracle: delivered
/// set, per-node stats, journal and post count. Hashing lets the
/// untraced run defer the oracle until its timed phases are over
/// without holding the outcomes, so the peak resident set is the
/// broker's alone.
fn digest(
    delivered: &BTreeSet<(u32, String, u64)>,
    stats: &[SosStats],
    journal: &[String],
    posts: u64,
) -> u64 {
    let mut h = DefaultHasher::new();
    delivered.hash(&mut h);
    format!("{stats:?}").hash(&mut h);
    journal.hash(&mut h);
    posts.hash(&mut h);
    h.finish()
}

/// A socket run's digest, or why it produced nothing to compare.
fn socket_digest(result: &Result<InVivoOutcome, String>) -> Result<u64, String> {
    match result {
        Ok(v) if v.delivered.is_empty() => Err("the socket run delivered nothing".into()),
        Ok(v) => Ok(digest(&v.delivered, &v.stats, &v.journal, v.posts)),
        Err(e) => Err(e.clone()),
    }
}

/// The socket run must reproduce the in-process mesh exactly.
fn check(socket: &Result<u64, String>, trace: &ContactTrace, plan: &RunPlan) -> bool {
    let ok = match (socket, mesh(trace, plan)) {
        (Ok(d), Some(m)) => *d == digest(&m.delivered, &m.stats, &m.journal, m.posts),
        _ => false,
    };
    if !ok {
        match socket {
            Ok(_) => println!("in_vivo CHECK FAILED: socket outcome diverged from run_mesh"),
            Err(e) => println!("in_vivo CHECK FAILED: {e}"),
        }
    }
    ok
}

fn mesh(trace: &ContactTrace, plan: &RunPlan) -> Option<MeshOutcome> {
    match run_mesh(trace, plan) {
        Ok(m) => Some(m),
        Err(e) => {
            println!("in_vivo CHECK FAILED: mesh oracle: {e}");
            None
        }
    }
}

/// Untraced: socket runs back to back until `seconds` have passed,
/// then every run is checked against the mesh oracle.
pub fn run(seed: u64, seconds: f64, size: Size) -> Report {
    let mut e = E2e::new(None, Encounters::PerSlice);
    let mut socket = Vec::new();
    repeat(1, seconds, |i, measured| {
        let t = now();
        let (trace, plan) = inputs(iteration_seed(seed, i), size);
        let synth_s = secs(t);
        let (result, setup_s, timed_s) = socket_run(&trace, &plan);
        if measured {
            let bundles = result
                .as_ref()
                .map_or(0, |v| v.stats.iter().map(|s| s.bundles_received).sum());
            let ups = contact_ups(&trace);
            e.sample(synth_s + setup_s, timed_s, bundles, ups);
        }
        socket.push((i, socket_digest(&result)));
    });
    let rss = peak_rss_mb();
    for (i, d) in socket {
        let (trace, plan) = inputs(iteration_seed(seed, i), size);
        e.op(check(&d, &trace, &plan));
    }
    e.report("in_vivo", rss)
}

/// Traced: alternates an untraced and a traced socket run on the same
/// inputs and times `run_mesh` on them; the socket run's wall time
/// beyond the mesh is the transport (sockets, barrier, codecs).
pub fn ledger(seed: u64, seconds: f64, size: Size) -> Report {
    let mut r = Report::default();
    let mut part = Partition::default();
    let (mut synth, mut rounds, mut received, mut dup) = (Vec::new(), 0u64, 0u64, 0u64);
    let mut last = None;
    let n = repeat(0, seconds, |i, _| {
        let t = now();
        let (trace, plan) = inputs(iteration_seed(seed, i), size);
        synth.push(secs(t));
        let ((plain, _, plain_s), (traced, _, traced_s), _) =
            twin(i, |_| socket_run(&trace, &plan));
        let t = now();
        let oracle = mesh(&trace, &plan);
        let mesh_s = secs(t);
        let expected = oracle.map(|m| digest(&m.delivered, &m.stats, &m.journal, m.posts));
        for run in [&plain, &traced] {
            let got = socket_digest(run);
            let ok = got.is_ok() && got.ok() == expected;
            if !ok {
                println!("in_vivo CHECK FAILED: traced-ledger socket run diverged from run_mesh");
            }
            r.op(ok);
        }
        if let Ok(v) = &traced {
            rounds += v.rounds;
            for s in &v.stats {
                received += s.bundles_received;
                dup += s.bundles_duplicate;
            }
        }
        part.add("node.mesh_s", mesh_s);
        part.iteration(traced_s, plain_s);
        last = Some((trace, plan));
    }) as f64;
    part.report(
        "in_vivo",
        "node.transport.unattributed_s",
        ("s", 1.0),
        &[],
        &mut r,
    );
    let transport_s = (part.wall_s() - part.part_s("node.mesh_s")) / n;
    let rounds_per_run = rounds as f64 / n;
    r.metric("node.rounds", rounds_per_run, "count");
    r.metric(
        "node.round_us",
        transport_s * 1e6 / rounds_per_run.max(1.0),
        "us",
    );
    // Useful transfers over all transfers: duplicates are wasted work.
    let useful = received as f64 / (received + dup).max(1) as f64;
    r.metric("core.useful_ratio", useful, "ratio");
    r.metric("trace.synth_s", median(&synth), "s");
    let (trace, plan) = last.expect("the loop runs at least once");
    codec_probes(&trace, &plan, &mut r);
    r
}

/// The control-plane messages of one barrier round plus one data-plane
/// message carrying an advert frame, through the proto codec and the
/// length-prefixed wire framing.
fn codec_probes(trace: &ContactTrace, plan: &RunPlan, r: &mut Report) {
    const REPS: usize = 20_000;
    let apps = provision_apps(trace, plan);
    let ad = Frame::Advertisement(apps[0].middleware().advertisement(SimTime::from_hours(1)));
    let msgs = [
        Msg::Collect,
        Msg::CollectAck {
            sent: 1234,
            recv: 1234,
        },
        Msg::Process,
        Msg::ProcessAck { emitted: 3 },
        Msg::Data {
            from: 0,
            to: 1,
            seq: 42,
            frame: ad.encode(),
        },
    ];
    let mut ok = true;
    let t = now();
    for _ in 0..REPS {
        for m in &msgs {
            let bytes = black_box(m).encode();
            ok &= Msg::decode(black_box(&bytes)).is_ok();
        }
    }
    let per = (REPS * msgs.len()) as f64;
    r.metric("node.proto_codec_ns", secs(t) * 1e9 / per, "ns");
    let encoded: Vec<Vec<u8>> = msgs.iter().map(Msg::encode).collect();
    let mut reader = WireReader::new();
    let t = now();
    for _ in 0..REPS {
        for m in &encoded {
            match encode_wire(black_box(m)) {
                Ok(framed) => {
                    reader.push_bytes(&framed);
                    ok &= matches!(reader.next_message(), Ok(Some(_)));
                }
                Err(_) => ok = false,
            }
        }
    }
    r.metric("net.wire_ns", secs(t) * 1e9 / per, "ns");
    r.op(ok);
}
