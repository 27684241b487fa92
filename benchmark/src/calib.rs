//! Host-speed calibration.
//!
//! On a shared host the speed a run gets drifts by 10-20% over minutes:
//! every timed metric of a run moves together, and the best of several
//! passes cannot remove a slowdown that lasts the whole run. A run
//! therefore times a fixed unit of benchmark-side work every
//! [`PERIOD`] between its measurements, and scales every timed metric by
//! how fast that probe ran. The probe is none of the program's code, so a
//! change to the program moves the scaled metrics as it moves the raw ones.

use crate::report::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Words in the probe's table: 4 MiB, more than a core's private caches.
const TABLE_WORDS: usize = 1 << 20;

/// Dependent table accesses per probe (a few milliseconds).
const STEPS: usize = 100_000;

/// Least time between two probes.
pub const PERIOD: Duration = Duration::from_millis(250);

/// Probe time, in seconds, of the reference host the scaled metrics are
/// expressed on: the median probe on a 2-vCPU KVM guest of an Intel Xeon
/// host. A scaled time is what the run would have taken there.
pub const REFERENCE_S: f64 = 0.010;

/// The probe and its samples over a run.
pub struct Calibration {
    table: Vec<u32>,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration {
            table: (0..TABLE_WORDS as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9))
                .collect(),
            samples: Vec::new(),
            last: None,
        }
    }
}

impl Calibration {
    /// Times one probe: a chain of dependent reads and writes at
    /// pseudo-random places in the table, the access pattern of a solver's
    /// clause arena and watch lists.
    fn probe(&mut self) -> f64 {
        let t0 = Instant::now();
        let (mut i, mut x) = (0usize, 0x2545_F491u32);
        for _ in 0..STEPS {
            x = x.rotate_left(5) ^ self.table[i].wrapping_mul(0x9E37_79B9);
            self.table[i] = x;
            i = x as usize & (TABLE_WORDS - 1);
        }
        black_box(x);
        t0.elapsed().as_secs_f64()
    }

    /// Takes a probe if [`PERIOD`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= PERIOD) {
            let s = self.probe();
            self.samples.push(s);
            self.last = Some(Instant::now());
        }
    }

    /// Median probe seconds of the run.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }

    /// Probes taken.
    pub fn probes(&self) -> usize {
        self.samples.len()
    }
}

/// Factor that turns a time measured in a run whose median probe took
/// `probe_s` seconds into one on the reference host: below 1 when the
/// run's host was slower. 1 for a run without probes.
pub fn time_scale(probe_s: f64) -> f64 {
    if probe_s > 0.0 {
        REFERENCE_S / probe_s
    } else {
        1.0
    }
}
