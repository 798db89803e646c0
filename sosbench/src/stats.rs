//! Sample statistics, seed derivation and process measurements shared
//! by every workload.

use sos_obs::profile::{self, Profile};
use std::hint::black_box;
use std::time::Instant;

/// The seed of iteration `i` of a run started with `seed`. Iteration 0
/// runs `seed` itself, so seed-specific checks (the field study's 887
/// transfers at seed 2) apply to the first iteration; later iterations
/// walk a Weyl sequence so one run averages over many inputs.
pub fn iteration_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The benchmark's stopwatch: the one place it reads the wall clock.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    // sos-lint: allow(no-wallclock) reason="the benchmark measures wall time by definition; readings only feed its reports, never simulation behaviour"
    Instant::now()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Mean wall seconds per call of `f` over each of `items`.
pub fn per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = now();
    for x in items {
        f(x);
    }
    secs(t) / items.len().max(1) as f64
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set of this process, MB (`VmHWM`), or 0 when
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the kernel threads may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed reference computation, run between measured stretches of
/// work, that reads the host's speed at that moment.
///
/// On a shared host the same operation can take 1.7x longer for
/// seconds or minutes at a time while another tenant loads the
/// physical core (the guest sees no steal time: its process CPU time
/// equals wall time). The slowdown hits throughput-bound arithmetic,
/// such as the field multiplications of signatures and key agreement,
/// far more than a single dependent chain. The reference therefore runs
/// both kinds of work in the proportions the workload does:
/// [`Yardstick::scale`] turns its measured time into the factor by which
/// the host was slower than nominal, and the end-to-end figures report
/// time at nominal speed. The reference is the benchmark's own code, so
/// a change to the program moves the figures and never the yardstick.
#[derive(Clone, Copy, Debug)]
pub struct Yardstick {
    /// Iterations of eight independent 64x64→128-bit multiply lanes:
    /// throughput-bound, like field arithmetic.
    pub lanes: u64,
    /// Iterations of one dependent multiply-rotate chain:
    /// latency-bound, like branchy protocol and driver logic.
    pub chain: u64,
    /// Seconds the reference takes on a quiet 2.1 GHz Xeon guest.
    pub nominal_s: f64,
    /// Run one copy on every core at once and take the slowest: for
    /// workloads that keep every core busy.
    pub every_core: bool,
}

impl Yardstick {
    /// Wall seconds of one run of the reference.
    pub fn measure(&self) -> f64 {
        if !self.every_core {
            return self.measure_here();
        }
        // One copy per core at once; the slowest sets the pace, as it
        // does at a multi-threaded workload's barriers.
        std::thread::scope(|s| {
            let copies: Vec<_> = (0..cores())
                .map(|_| s.spawn(|| self.measure_here()))
                .collect();
            copies
                .into_iter()
                .map(|c| c.join().unwrap_or(f64::NAN))
                .fold(0.0, f64::max)
        })
    }

    /// Wall seconds of one run of the reference on this thread.
    fn measure_here(&self) -> f64 {
        let t = now();
        let mut lanes = [0x243f_6a88_85a3_08d3u64, 3, 5, 7, 11, 13, 17, 19];
        for i in 0..self.lanes {
            for k in 0..lanes.len() {
                let m = u128::from(lanes[k]) * u128::from(lanes[(k + 1) % 8] ^ i | 1);
                lanes[k] = fold(m);
            }
        }
        let (mut x, mut y) = (0x1319_8a2e_0370_7344u64, 7u64);
        for i in 0..self.chain {
            x = fold(u128::from(x) * u128::from(y ^ i | 1));
            y = y.rotate_left(13).wrapping_add(x);
        }
        black_box((lanes, x, y));
        secs(t)
    }

    /// Nominal over measured reference time: multiplying a time taken
    /// just before by this gives the time at nominal speed.
    pub fn scale(&self) -> f64 {
        self.nominal_s / self.measure()
    }
}

/// Prints how slow the host ran against `y`'s nominal speed over a
/// run's readings (`scales` are nominal over measured times), so the
/// raw speed behind figures at nominal speed stays visible.
pub fn host_line(workload: &str, y: &Yardstick, when: &str, scales: &[f64]) {
    println!(
        "{workload}: times at nominal host speed: the reference ({} lanes, {} chain, nominal {:.6} s, read {when}) ran at {:.3}x nominal time (median of {} readings; p5 {:.3}, p95 {:.3})",
        y.lanes,
        y.chain,
        y.nominal_s,
        1.0 / median(scales),
        scales.len(),
        1.0 / quantile(scales, 0.95),
        1.0 / quantile(scales, 0.05)
    );
}

/// The two halves of a 128-bit product, xor-folded.
fn fold(m: u128) -> u64 {
    let [lo, hi] = [m, m >> 64].map(|h| u64::try_from(h & u128::from(u64::MAX)).unwrap_or(0));
    lo ^ hi
}

/// Calls `f(i, measured)` for `warmup` unmeasured iterations, then for
/// measured ones until `seconds` have passed since the first of them
/// (at least one). Returns the number of measured iterations.
pub fn repeat(warmup: u64, seconds: f64, mut f: impl FnMut(u64, bool)) -> u64 {
    for i in 0..warmup {
        f(i, false);
    }
    let start = now();
    let mut i = warmup;
    while i == warmup || secs(start) < seconds {
        f(i, true);
        i += 1;
    }
    i - warmup
}

/// Runs `f(false)` untraced and `f(true)` with the span profiler on,
/// in an order that alternates with `i` so warm-up favours neither.
/// Returns the untraced result, the traced one and the spans the
/// traced call recorded on this thread.
pub fn twin<T>(i: u64, mut f: impl FnMut(bool) -> T) -> (T, T, Profile) {
    fn traced<T>(f: &mut impl FnMut(bool) -> T) -> (T, Profile) {
        profile::take();
        profile::set_enabled(true);
        let x = f(true);
        profile::set_enabled(false);
        (x, profile::take())
    }
    if i.is_multiple_of(2) {
        let plain = f(false);
        let (t, spans) = traced(&mut f);
        (plain, t, spans)
    } else {
        let (t, spans) = traced(&mut f);
        (f(false), t, spans)
    }
}
