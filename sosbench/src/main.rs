//! The SOS stack benchmark: four workloads, seven end-to-end metrics,
//! and a per-layer ledger timed from outside the program.
//!
//! ```sh
//! cargo run --release --offline --manifest-path sosbench/Cargo.toml -- \
//!     --workload field_study --seed 1 --seconds 45 --trace 0
//! cargo run --release --offline --manifest-path sosbench/Cargo.toml -- --self-test
//! ```
//!
//! With `--trace 0` the named workload runs untraced for `--seconds`
//! and the run prints the end-to-end metrics. With `--trace 1` the run
//! prints the whole per-layer ledger: every workload's timed phase
//! split into layer lines, its unattributed remainder and its tracing
//! overhead, each workload getting a quarter of `--seconds`. The last
//! line of standard output is always one JSON result object. See
//! `sosbench/README.md` for the metric → layer → workload map.

mod field_study;
mod in_vivo;
mod metropolis;
mod report;
mod stats;
mod sync_burst;

use report::Report;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["field_study", "sync_burst", "in_vivo", "metropolis"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One workload's untraced run at full size.
fn run(workload: &str, seed: u64, seconds: f64) -> Report {
    match workload {
        "field_study" => field_study::run(seed, seconds, field_study::FULL),
        "sync_burst" => sync_burst::run(seed, seconds, sync_burst::FULL),
        "in_vivo" => in_vivo::run(seed, seconds, in_vivo::FULL),
        _ => metropolis::run(seed, seconds, metropolis::FULL),
    }
}

/// The whole ledger at full size: every workload's traced split.
fn ledger(seed: u64, seconds: f64) -> Report {
    let slice = seconds / WORKLOADS.len() as f64;
    let mut r = Report::default();
    r.absorb(field_study::ledger(seed, slice, field_study::FULL));
    r.absorb(sync_burst::ledger(seed, slice, sync_burst::FULL));
    r.absorb(in_vivo::ledger(seed, slice, in_vivo::FULL));
    r.absorb(metropolis::ledger(seed, slice, metropolis::FULL));
    r
}

/// Every workload, untraced and traced, at a tiny size through its
/// output checks: a broken workload fails in seconds.
fn self_test(seed: u64) -> Report {
    let mut r = Report::default();
    r.absorb(field_study::run(seed, 0.0, field_study::TINY));
    r.absorb(field_study::ledger(seed, 0.0, field_study::TINY));
    r.absorb(sync_burst::run(seed, 0.0, sync_burst::TINY));
    r.absorb(sync_burst::ledger(seed, 0.0, sync_burst::TINY));
    r.absorb(in_vivo::run(seed, 0.0, in_vivo::TINY));
    r.absorb(in_vivo::ledger(seed, 0.0, in_vivo::TINY));
    r.absorb(metropolis::run(seed, 0.0, metropolis::TINY));
    r.absorb(metropolis::ledger(seed, 0.0, metropolis::TINY));
    r
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        // The in-vivo workload re-executes this binary as its node
        // daemons: the same entry point as the `sos-node` binary.
        Some("daemon") => {
            let broker = args.nth(2).unwrap_or_default();
            return match sos_node::daemon::run_daemon(&broker) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("sosbench daemon: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("--self-test") => {
            let r = self_test(3);
            println!("self-test: {} operations, {} failed", r.attempted, r.failed);
            return if r.correct() {
                println!("self-test: PASS");
                ExitCode::SUCCESS
            } else {
                println!("self-test: FAIL");
                ExitCode::FAILURE
            };
        }
        _ => {}
    }
    let a = match parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sosbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "sosbench: workload {} seed {} seconds {} trace {} cores {}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        stats::cores()
    );
    let r = if a.trace {
        ledger(a.seed, a.seconds)
    } else {
        run(&a.workload, a.seed, a.seconds)
    };
    println!("{}", r.json());
    ExitCode::SUCCESS
}
