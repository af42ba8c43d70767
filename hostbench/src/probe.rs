//! Host-speed probe: corrects host times for interference from other
//! tenants of the machine.
//!
//! On a shared host the same code runs at very different speeds from one
//! second to the next (measured on a 2-vCPU cloud VM: a fixed emulator
//! kernel swings between about 21 and 42 ms in phases of seconds), because
//! neighbours contend for the shared cache and memory. That swamps the
//! differences the benchmark exists to detect. The probe is a fixed loop
//! of random read-modify-writes over a 16 MiB buffer that lives in this
//! file, so no change to the code under test can change it. It runs every
//! [`PERIOD_S`] between operations; its duration tracks the contention the
//! workload sees at that moment.
//!
//! A host time `t` measured from `at` is reported as `t × NOMINAL_S / p`,
//! where `p` is the mean duration of the probe samples taken within
//! [`MARGIN_S`] of `[at, at + t]` — for a long operation, the samples that
//! bracket it — or, when there are fewer than two, of the [`NEAREST`]
//! samples nearest to it. On an idle host the factor is close to 1; the
//! run's mean factor is printed with every result.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Buffer size: larger than the per-core L2, so the probe reaches the
/// shared cache levels neighbours contend for.
const PROBE_WORDS: usize = 1 << 21;
/// Read-modify-writes per probe sample.
const PROBE_UPDATES: usize = 40_000;
/// Minimum time between probe samples.
const PERIOD_S: f64 = 0.02;
/// Probe samples averaged for one correction of a short operation.
const NEAREST: usize = 8;
/// How far around an operation a probe sample still describes it.
const MARGIN_S: f64 = 2.0 * PERIOD_S;
/// The probe's duration on an idle host (2-vCPU Xeon cloud VM, 300 MiB
/// LLC): the speed every corrected time is expressed at.
const NOMINAL_S: f64 = 400e-6;

struct Probe {
    buf: Vec<u64>,
    state: u64,
    origin: Instant,
    last: f64,
    /// `(midpoint, duration)` of every sample, in time order.
    samples: Vec<(f64, f64)>,
}

thread_local! {
    static PROBE: RefCell<Probe> = RefCell::new(Probe {
        buf: (0..PROBE_WORDS as u64).collect(),
        state: 0x9E37_79B9_7F4A_7C15,
        origin: Instant::now(),
        last: f64::NEG_INFINITY,
        samples: Vec::new(),
    });
}

impl Probe {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn sample(&mut self) {
        let start = self.now();
        let t = Instant::now();
        let mask = self.buf.len() - 1;
        let mut x = black_box(self.state);
        for i in 0..PROBE_UPDATES {
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            let j = (x as usize) & mask;
            self.buf[j] = self.buf[j].wrapping_add(x ^ i as u64);
        }
        self.state = black_box(x);
        let dur = t.elapsed().as_secs_f64();
        self.samples.push((start + dur / 2.0, dur));
        self.last = self.now();
    }

    /// Mean probe duration around an operation that ran from `at` for
    /// `secs`.
    fn local(&self, at: f64, secs: f64) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return NOMINAL_S;
        }
        let lo = self.samples.partition_point(|s| s.0 < at - MARGIN_S);
        let hi = self
            .samples
            .partition_point(|s| s.0 <= at + secs + MARGIN_S);
        if hi - lo >= 2 {
            return self.samples[lo..hi].iter().map(|s| s.1).sum::<f64>() / (hi - lo) as f64;
        }
        let at = at + secs / 2.0;
        let k = NEAREST.min(n);
        let pos = self.samples.partition_point(|s| s.0 < at);
        let (mut lo, mut hi) = (pos, pos);
        while hi - lo < k {
            let take_left =
                lo > 0 && (hi == n || at - self.samples[lo - 1].0 <= self.samples[hi].0 - at);
            if take_left {
                lo -= 1;
            } else {
                hi += 1;
            }
        }
        self.samples[lo..hi].iter().map(|s| s.1).sum::<f64>() / k as f64
    }
}

/// Seconds since the probe started: the clock operations are stamped with.
pub fn now() -> f64 {
    PROBE.with(|p| p.borrow().now())
}

/// Takes a probe sample if the last one is at least [`PERIOD_S`] old.
pub fn tick() {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        if p.now() - p.last >= PERIOD_S {
            p.sample();
        }
    });
}

/// Takes a probe sample now.
pub fn sample() {
    PROBE.with(|p| p.borrow_mut().sample());
}

/// The run's mean correction factor: `NOMINAL_S` over the mean probe
/// duration.
pub fn run_factor() -> f64 {
    PROBE.with(|p| {
        let p = p.borrow();
        if p.samples.is_empty() {
            return 1.0;
        }
        NOMINAL_S * p.samples.len() as f64 / p.samples.iter().map(|s| s.1).sum::<f64>()
    })
}

/// Corrects `(at, seconds)` measurements.
pub fn correct(timed: &[(f64, f64)]) -> Vec<f64> {
    PROBE.with(|p| {
        let p = p.borrow();
        timed
            .iter()
            .map(|&(at, t)| t * NOMINAL_S / p.local(at, t))
            .collect()
    })
}
