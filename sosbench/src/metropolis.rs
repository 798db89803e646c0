//! `metropolis`: `run_metropolis` on a districts-and-transit city at a
//! population that runs in seconds, with kernel threads equal to the
//! core count. The only workload that exercises `sos-engine`; it has no
//! crypto and no sessions.
//!
//! `run_metropolis` takes a config, not a prepared city, so the set-up
//! figure is the city generation timed on its own through the same
//! public calls the scenario makes first (`Metropolis::new`,
//! `generate_all`); the timed phase is the whole `run_metropolis`.

use crate::report::{E2e, Encounters, Partition, Report};
use crate::stats::{
    cores, iteration_seed, median, now, peak_rss_mb, repeat, secs, twin, Yardstick,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sos_engine::{GridContactEngine, ShardConfig, ShardedContactEngine};
use sos_experiments::metropolis::{run_metropolis, MetroConfig, MetroOutcome};
use sos_sim::mobility::{Metropolis, MetropolisConfig, TrajectorySet};
use sos_sim::{ContactEvent, ContactPhase, ContactSource, SimTime};

/// Workload size: the population.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub nodes: usize,
}

pub const FULL: Size = Size { nodes: 4_000 };
pub const TINY: Size = Size { nodes: 400 };

/// Simulated days: one keeps a full-size run near a second.
const DAYS: u64 = 1;

/// The host-speed reference: the grid kernel and the five-scheme model
/// are memory- and branch-bound with almost no wide multiplies, so the
/// dependent chain only (~15 ms). The kernel threads fill every core,
/// so the reference runs on every core.
const YARDSTICK: Yardstick = Yardstick {
    lanes: 0,
    chain: 5_000_000,
    nominal_s: 0.014,
    every_core: true,
};

/// Kernel spans `ShardedContactEngine::for_each_epoch` records on the
/// calling thread; together they are the kernel's share of a run.
const KERNEL_SPANS: [&str; 4] = [
    "engine/epoch_partition",
    "engine/epoch_step",
    "engine/epoch_merge",
    "engine/epoch_handoff",
];

fn config(seed: u64, size: Size) -> MetroConfig {
    MetroConfig {
        days: DAYS,
        seed,
        threads: cores(),
        ..MetroConfig::for_nodes(size.nodes)
    }
}

/// The city and its trajectories, exactly as `run_metropolis` builds
/// them.
fn city(cfg: &MetroConfig) -> TrajectorySet {
    let mcfg = MetropolisConfig {
        days: cfg.days,
        ..MetropolisConfig::for_population(cfg.nodes)
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    Metropolis::new(mcfg, cfg.nodes, &mut rng).generate_all(cfg.seed)
}

fn end(cfg: &MetroConfig) -> SimTime {
    SimTime::from_hours(24 * cfg.days)
}

fn check(cfg: &MetroConfig, o: &MetroOutcome) -> bool {
    let ok = o.nodes == cfg.nodes
        && o.posts == cfg.posts
        && o.contacts > 0
        && o.events >= o.contacts
        && o.schemes.len() == 5
        && o.schemes
            .iter()
            .all(|s| s.delivered <= s.targets && s.targets > 0);
    if !ok {
        println!(
            "metropolis CHECK FAILED seed {}: nodes {} posts {} contacts {} events {}",
            cfg.seed, o.nodes, o.posts, o.contacts, o.events
        );
    }
    ok
}

fn transfers(o: &MetroOutcome) -> u64 {
    o.schemes.iter().map(|s| s.transfers).sum()
}

/// Untraced: metropolis runs back to back until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, size: Size) -> Report {
    let mut e = E2e::new(Some(YARDSTICK), Encounters::PerSlice);
    repeat(1, seconds, |i, measured| {
        let cfg = config(iteration_seed(seed, i), size);
        let t = now();
        drop(std::hint::black_box(city(&cfg)));
        let setup_s = secs(t);
        let t = now();
        let outcome = run_metropolis(&cfg);
        let s = secs(t);
        e.op(check(&cfg, &outcome));
        if measured {
            e.sample(setup_s, s, transfers(&outcome), outcome.contacts);
        }
    });
    e.report("metropolis", peak_rss_mb())
}

/// The sharded kernel's stream over `[0, end]`, collected.
fn sharded_stream(cfg: &MetroConfig, set: TrajectorySet) -> Vec<ContactEvent> {
    let engine = ShardedContactEngine::new(
        set,
        cfg.range_m,
        cfg.tick,
        ShardConfig {
            shards: cfg.shards,
            epoch_ticks: cfg.epoch_ticks,
            threads: cfg.threads,
        },
    );
    let mut events = Vec::new();
    engine.for_each_epoch(SimTime::ZERO, end(cfg), |epoch| {
        events.extend_from_slice(epoch)
    });
    events
}

/// Two streams are byte-identical: same length, same events, same
/// distance bits.
fn identical(a: &[ContactEvent], b: &[ContactEvent]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.time == y.time
                && x.a == y.a
                && x.b == y.b
                && x.phase == y.phase
                && x.distance_m.to_bits() == y.distance_m.to_bits()
        })
}

/// Traced: alternates an untraced and a traced run on the same seed,
/// splits the traced run into city generation, the kernel's epoch
/// spans and the scheme model, and checks the sharded and single-loop
/// kernels' streams for byte identity on the same city.
pub fn ledger(seed: u64, seconds: f64, size: Size) -> Report {
    let mut r = Report::default();
    let mut part = Partition::default();
    let (mut single, mut contacts) = (Vec::new(), 0u64);
    let n = repeat(0, seconds, |i, _| {
        let cfg = config(iteration_seed(seed, i), size);
        let ((plain, plain_s), (traced, traced_s), profile) = twin(i, |_| {
            let t = now();
            let outcome = run_metropolis(&cfg);
            (outcome, secs(t))
        });
        r.op(check(&cfg, &plain));
        r.op(check(&cfg, &traced) && traced == plain);
        let t = now();
        let set = city(&cfg);
        let city_s = secs(t);
        let kernel_s: f64 = KERNEL_SPANS
            .iter()
            .filter_map(|s| profile.stages.get(s))
            .map(|st| st.total.as_secs_f64())
            .sum();
        part.add("sim.city_gen_s", city_s);
        part.add("engine.kernel_s", kernel_s);
        part.iteration(traced_s, plain_s);
        contacts += traced.contacts;

        let grid = GridContactEngine::new(set.to_trajectories(), cfg.range_m, cfg.tick);
        let t = now();
        let reference = grid.contact_events(SimTime::ZERO, end(&cfg));
        single.push(secs(t));
        drop(grid);
        let sharded = sharded_stream(&cfg, set);
        let ups = sharded
            .iter()
            .filter(|e| e.phase == ContactPhase::Up)
            .count() as u64;
        let same = identical(&sharded, &reference) && ups == traced.contacts;
        if !same {
            println!(
                "metropolis CHECK FAILED seed {}: sharded stream ({} events) differs from single loop ({} events)",
                cfg.seed,
                sharded.len(),
                reference.len()
            );
        }
        r.op(same);
    });
    part.report(
        "metropolis",
        "metropolis.model.unattributed_s",
        ("s", 1.0),
        &[],
        &mut r,
    );
    r.metric("engine.single_kernel_s", median(&single), "s");
    r.metric("metropolis.contacts", contacts as f64 / n as f64, "count");
    r
}
