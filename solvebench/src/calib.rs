//! Host-speed calibration.
//!
//! The benchmark runs on a few vCPUs of a shared host. Other tenants' load
//! slows vector floating-point code on those vCPUs by up to half for
//! seconds at a time; it shows in wall-clock and CPU time alike, and it
//! moved the same binary's solve rate by ±15% from one run to the next. So
//! the timed phase stops every [`EVERY_S`] to time a fixed reference kernel
//! (a Jacobi stencil, this package's own code, which no program change
//! touches), and every end-to-end time is scaled to what it would have
//! been at the reference kernel's nominal speed:
//!
//! ```text
//! scaled = measured × (REFERENCE_NS / reference kernel time nearby) ^ SENSITIVITY
//! ```
//!
//! A change to the program moves a scaled time by the same share as the
//! measured one; the host's load mostly cancels. `SENSITIVITY` is how
//! strongly solve time follows the kernel's time: fitted on repeated runs
//! of one seed of anneal-fast, train-rl and anneal-hotspot on a 2-vCPU
//! Xeon host, where 0.7 suits all three (0.6–0.8 for each alone) and cut
//! the run-to-run spread of their total solve time from 10–13% to under 2%
//! (standard deviation of the log). The host's load is not always of one
//! kind: at other times the kernel slowed more or less than the solves did,
//! and 2–3% remained.

use std::hint::black_box;
use std::time::Instant;

/// Seconds of workload between two reference timings.
const EVERY_S: f64 = 0.05;

/// How many reference timings nearest in time a scale factor takes the
/// median of (a quarter of a second on either side of a solve).
const WINDOW: usize = 10;

/// The exponent of the scale factor (see the module documentation).
const SENSITIVITY: f64 = 0.7;

/// The reference kernel's time on an unloaded vCPU of the 2-vCPU Xeon host,
/// in nanoseconds. It only sets the scale: on that host, scaled times read
/// close to the fastest measured ones.
const REFERENCE_NS: f64 = 1.05e6;

/// Side of the stencil's square grid and the number of sweeps.
const GRID: usize = 48;
const SWEEPS: usize = 300;

/// Times one run of the reference kernel, in nanoseconds: `SWEEPS` Jacobi
/// sweeps over a `GRID`×`GRID` grid, which stays in the L1 cache and
/// vectorises.
fn kernel_ns() -> f64 {
    let mut g = vec![1.0f64; GRID * GRID];
    let mut h = vec![0.0f64; GRID * GRID];
    let started = Instant::now();
    for _ in 0..SWEEPS {
        for i in 1..GRID - 1 {
            for j in 1..GRID - 1 {
                let at = i * GRID + j;
                h[at] = 0.25 * (g[at - GRID] + g[at + GRID] + g[at - 1] + g[at + 1]) + 1e-3;
            }
        }
        std::mem::swap(&mut g, &mut h);
        black_box(&mut g);
    }
    started.elapsed().as_nanos() as f64
}

/// The reference timings of one phase, and the pauses they took.
pub struct HostClock {
    start: Instant,
    last: f64,
    /// `(seconds since start, kernel ns)` of every reference timing.
    samples: Vec<(f64, f64)>,
    /// `(start, end)` seconds since start of every pause for a timing.
    pauses: Vec<(f64, f64)>,
}

impl HostClock {
    /// A clock for a phase starting at `start`.
    pub fn new(start: Instant) -> Self {
        HostClock {
            start,
            last: f64::NEG_INFINITY,
            samples: Vec::new(),
            pauses: Vec::new(),
        }
    }

    /// Seconds since the phase started.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Takes a reference timing if [`EVERY_S`] has passed since the last.
    pub fn tick(&mut self) {
        if self.now() - self.last >= EVERY_S {
            self.sample();
        }
    }

    /// Takes one reference timing now, on this thread. Call it only while
    /// this thread has no work in flight.
    pub fn sample(&mut self) {
        let from = self.now();
        let ns = kernel_ns();
        let to = self.now();
        self.samples.push(((from + to) / 2.0, ns));
        self.pauses.push((from, to));
        self.last = to;
    }

    /// The scale factor at `t` seconds since start: `(REFERENCE_NS / the
    /// median of the WINDOW timings nearest t) ^ SENSITIVITY`, or 1 when
    /// the clock took no timings.
    fn factor(&self, t: f64) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let at = self.samples.partition_point(|&(s, _)| s < t);
        let hi = (at + WINDOW / 2).min(self.samples.len());
        let lo = hi.saturating_sub(WINDOW);
        let hi = (lo + WINDOW).min(self.samples.len());
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, ns)| ns).collect();
        (REFERENCE_NS / crate::stats::median(&near)).powf(SENSITIVITY)
    }

    /// A duration measured from `from` to `to` seconds since start, scaled
    /// by the factor at its midpoint.
    pub fn scale(&self, from: f64, to: f64) -> f64 {
        (to - from) * self.factor((from + to) / 2.0)
    }

    /// The scaled length of `[0, end]` without the pauses for reference
    /// timings: each stretch of work between two pauses is scaled by the
    /// factor at its midpoint.
    pub fn scaled_span(&self, end: f64) -> f64 {
        let mut total = 0.0;
        let mut from = 0.0;
        for &(pause_from, pause_to) in &self.pauses {
            if pause_from >= end {
                break;
            }
            total += self.scale(from, pause_from);
            from = pause_to;
        }
        if end > from {
            total += self.scale(from, end);
        }
        total
    }

    /// The median scale factor over the phase, for the printed notes (1
    /// when the clock took no timings).
    pub fn median_factor(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let factors: Vec<f64> = self
            .samples
            .iter()
            .map(|&(_, ns)| (REFERENCE_NS / ns).powf(SENSITIVITY))
            .collect();
        crate::stats::median(&factors)
    }
}

/// Runs a block of work between two bursts of reference timings and
/// returns its value, its scaled duration and its measured duration in
/// seconds: for set-up, which runs as one piece the benchmark cannot
/// interleave with.
pub fn scaled_block<T>(work: impl FnOnce() -> T) -> (T, f64, f64) {
    const BURST: usize = WINDOW / 2;
    let mut clock = HostClock::new(Instant::now());
    for _ in 0..BURST {
        clock.sample();
    }
    let from = clock.now();
    let value = work();
    let to = clock.now();
    for _ in 0..BURST {
        clock.sample();
    }
    // All 2 × BURST timings fall in the factor's window.
    (value, clock.scale(from, to), to - from)
}
