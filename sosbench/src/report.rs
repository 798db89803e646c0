//! What a run prints: human-readable metric lines as it goes, and one
//! JSON result object as the last line of standard output.

use crate::stats::{host_line, median, quantile, Yardstick};
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (iterations, encounters or socket runs).
    pub attempted: u64,
    /// Operations that failed an output check or closed with an error.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records and prints one metric line.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("metric {name:<40} {value:>16.6} {unit}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one operation; `ok == false` counts it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Folds another report's counts and metrics in.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }

    /// `correct` is true when at least one operation ran and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result object: the last line a run prints.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Timed seconds a throughput slice collects before the next one opens.
const SLICE_S: f64 = 1.0;

/// Readings on each side pooled with an operation's own: its times are
/// scaled by the median of `2 * POOL + 1` readings, which follows the
/// host's phases (seconds long) and damps the jitter of any one reading.
const POOL: usize = 1;

/// Where a workload's `encounter_ms` samples come from.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Encounters {
    /// Each operation is one encounter, timed on its own.
    Each,
    /// An operation holds many encounters the benchmark cannot time
    /// apart: each slice gives one sample, its time per contact-up.
    #[default]
    PerSlice,
}

/// One measured operation as taken: set-up and timed seconds, bundles
/// and contact-ups moved.
#[derive(Clone, Copy, Debug)]
struct Sample {
    setup_s: f64,
    timed_s: f64,
    bundles: u64,
    contacts: u64,
}

/// What every workload's untraced run measures, folded into the
/// end-to-end metrics by [`E2e::report`].
#[derive(Debug, Default)]
pub struct E2e {
    /// The host-speed reference run after each measured operation; with
    /// none, times are reported as measured.
    yardstick: Option<Yardstick>,
    encounters: Encounters,
    /// Operations attempted and failed.
    ops: Report,
    /// Every measured operation, in order.
    samples: Vec<Sample>,
    /// The reference's scale factor read after each measured operation.
    scales: Vec<f64>,
}

impl E2e {
    /// Reports times as measured, or at the nominal speed of
    /// `yardstick` when there is one.
    pub fn new(yardstick: Option<Yardstick>, encounters: Encounters) -> Self {
        E2e {
            yardstick,
            encounters,
            ..E2e::default()
        }
    }

    /// Counts one operation; `ok == false` counts it failed.
    pub fn op(&mut self, ok: bool) {
        self.ops.op(ok);
    }

    /// Records one measured operation: its set-up and timed seconds and
    /// what the timed phase moved. With a yardstick, the reference runs
    /// now.
    pub fn sample(&mut self, setup_s: f64, timed_s: f64, bundles: u64, contacts: u64) {
        self.scales.push(self.yardstick.map_or(1.0, |y| y.scale()));
        self.samples.push(Sample {
            setup_s,
            timed_s,
            bundles,
            contacts,
        });
    }

    /// The end-to-end metric set, in `BENCHMARK.json` order, with the
    /// peak resident set read when the measured work was done. Each
    /// operation's times are scaled by the median of the reference
    /// readings around it ([`POOL`]). Rates are medians over slices of consecutive
    /// operations, so a burst of host noise inside a run moves them
    /// less than a whole-run mean would.
    pub fn report(self, workload: &str, peak_rss_mb: f64) -> Report {
        if let Some(y) = &self.yardstick {
            host_line(workload, y, "per operation", &self.scales);
        }
        let n = self.samples.len();
        let mut setups = Vec::with_capacity(n);
        let mut each_ms = Vec::with_capacity(n);
        // Consecutive operations grouped into slices of at least
        // `SLICE_S` scaled seconds: (bundles, contacts, seconds).
        let mut slices: Vec<(u64, u64, f64)> = Vec::new();
        for (i, s) in self.samples.iter().enumerate() {
            let scale = median(&self.scales[i.saturating_sub(POOL)..(i + POOL + 1).min(n)]);
            let timed_s = s.timed_s * scale;
            setups.push(s.setup_s * scale);
            each_ms.push(timed_s * 1e3);
            match slices.last_mut() {
                Some(slice) if slice.2 < SLICE_S => {
                    slice.0 += s.bundles;
                    slice.1 += s.contacts;
                    slice.2 += timed_s;
                }
                _ => slices.push((s.bundles, s.contacts, timed_s)),
            }
        }
        let encounter_ms = match self.encounters {
            Encounters::Each => each_ms,
            Encounters::PerSlice => slices
                .iter()
                .map(|s| s.2 * 1e3 / s.1.max(1) as f64)
                .collect(),
        };
        let mut r = self.ops;
        println!(
            "{workload}: {} operations, {} failed, failed_ratio {:.6}; {} set-ups, {} encounter samples, {} throughput slices",
            r.attempted,
            r.failed,
            r.failed as f64 / r.attempted.max(1) as f64,
            setups.len(),
            encounter_ms.len(),
            slices.len()
        );
        let rate = |pick: fn(&(u64, u64, f64)) -> u64| {
            let rates: Vec<f64> = slices.iter().map(|s| pick(s) as f64 / s.2).collect();
            median(&rates)
        };
        r.metric("setup_s", median(&setups), "s");
        r.metric("bundles_per_s", rate(|s| s.0), "1/s");
        r.metric("contacts_per_s", rate(|s| s.1), "1/s");
        r.metric("encounter_ms.p50", median(&encounter_ms), "ms");
        r.metric("encounter_ms.p95", quantile(&encounter_ms, 0.95), "ms");
        r.metric("peak_rss_mb", peak_rss_mb, "MB");
        r
    }
}

/// Accumulates one workload's traced partition: named parts of the
/// timed phase plus the wall time they must add up to.
#[derive(Debug, Default)]
pub struct Partition {
    parts: Vec<(String, f64)>,
    wall_s: f64,
    untraced_s: f64,
    iterations: u64,
}

impl Partition {
    /// Adds `s` seconds to part `name`.
    pub fn add(&mut self, name: &str, s: f64) {
        match self.parts.iter_mut().find(|(n, _)| n == name) {
            Some(p) => p.1 += s,
            None => self.parts.push((name.to_string(), s)),
        }
    }

    /// Closes one traced iteration of `wall_s` seconds whose untraced
    /// twin took `untraced_s`.
    pub fn iteration(&mut self, wall_s: f64, untraced_s: f64) {
        self.wall_s += wall_s;
        self.untraced_s += untraced_s;
        self.iterations += 1;
    }

    /// Total traced wall seconds over all iterations.
    pub fn wall_s(&self) -> f64 {
        self.wall_s
    }

    /// Total seconds of part `name` over all iterations.
    pub fn part_s(&self, name: &str) -> f64 {
        self.parts.iter().find(|p| p.0 == name).map_or(0.0, |p| p.1)
    }

    /// Prints the partition as per-iteration means (which add up
    /// exactly), the remainder as `rest` and the traced wall time (both
    /// in `unit`, `scale` per second), the reconciliation line and the
    /// tracing overhead. Each part is reported in its own unit from
    /// `units` (name, unit, scale per second), seconds by default.
    pub fn report(
        &self,
        workload: &str,
        rest: &str,
        (unit, scale): (&'static str, f64),
        units: &[(&str, &'static str, f64)],
        r: &mut Report,
    ) {
        let n = self.iterations.max(1) as f64;
        let explained: f64 = self.parts.iter().map(|p| p.1).sum();
        for (name, s) in &self.parts {
            let (unit, scale) = units
                .iter()
                .find(|u| u.0 == name)
                .map_or(("s", 1.0), |u| (u.1, u.2));
            r.metric(name.clone(), s / n * scale, unit);
        }
        let remainder = (self.wall_s - explained) / n;
        r.metric(rest, remainder * scale, unit);
        r.metric(
            format!("{workload}.traced_wall_{unit}"),
            self.wall_s / n * scale,
            unit,
        );
        let overhead = 100.0 * (self.wall_s / self.untraced_s - 1.0);
        r.metric(format!("{workload}.trace_overhead_pct"), overhead, "%");
        println!(
            "reconcile {workload}: {} parts {:.6} s + unattributed {:.6} s = traced wall {:.6} s per iteration over {} iterations; untraced {:.6} s",
            self.parts.len(),
            explained / n,
            remainder,
            self.wall_s / n,
            self.iterations,
            self.untraced_s / n
        );
    }
}
