//! The reference kernel: a fixed amount of work that shares no code with
//! the engine, run between trials so that each trial's wall time can be
//! read in units of the machine's speed at that moment.
//!
//! On a shared host the same trial runs up to twice as slowly while the
//! neighbours are busy, for minutes at a time, and medians within one run
//! cannot take that out.  The kernel slows down with the host, but not
//! with the engine: a change to the engine moves `trial_ref` and leaves
//! the kernel alone.
//!
//! One unit sorts [`SORTED`] random `u64`s and then inserts and looks up
//! [`HASHED`] of them in a `HashMap`: branchy, cache-missing work with
//! many instructions in flight, like the engine's.  Load slows such work
//! far more than it slows a single chain of dependent loads or RNG steps,
//! so a tight loop would under-read it.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::resident_mb;

/// `u64`s sorted per unit: 8 MiB, past the per-core caches.
const SORTED: usize = 1 << 20;
/// Keys inserted into and looked up in the map per unit.
const HASHED: usize = 300_000;

/// The speed that [`RefClock::nominal`] quotes seconds at: a host where
/// one kernel unit takes 50 ms, within the range a unit takes on a
/// 2.0 GHz Xeon.
pub const NOMINAL_UNIT_S: f64 = 0.05;

/// The kernel and its buffers, allocated once so that a unit never
/// allocates.
pub struct RefKernel {
    rng: StdRng,
    values: Vec<u64>,
    map: HashMap<u64, u64>,
}

impl Default for RefKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl RefKernel {
    /// The kernel with its buffers reserved.
    pub fn new() -> Self {
        RefKernel {
            rng: StdRng::seed_from_u64(0x5EED),
            values: Vec::with_capacity(SORTED),
            map: HashMap::with_capacity(HASHED),
        }
    }

    /// Runs `units` units back to back and returns the mean seconds of
    /// one.
    pub fn units(&mut self, units: u32) -> f64 {
        let started = Instant::now();
        let mut acc = 0u64;
        for _ in 0..units {
            self.values.clear();
            let rng = &mut self.rng;
            self.values.extend((0..SORTED).map(|_| rng.next_u64()));
            self.values.sort_unstable();
            self.map.clear();
            for &v in &self.values[..HASHED] {
                self.map.insert(v.rotate_left(17), v);
            }
            for &v in &self.values[..HASHED] {
                acc = acc.wrapping_add(self.map[&v.rotate_left(17)]);
            }
        }
        std::hint::black_box(acc);
        started.elapsed().as_secs_f64() / f64::from(units.max(1))
    }
}

/// Trial wall times read against the reference units run around them.
///
/// The loop runs `unit, trial, unit, trial, …, unit`; trial `i` is read
/// against the mean of the units just before and just after it.
pub struct RefClock {
    kernel: RefKernel,
    units_per_gap: u32,
    before: f64,
    resident_mb: f64,
    /// Seconds of one unit, one entry per gap.
    pub unit_s: Vec<f64>,
    /// Trial wall ÷ unit, one entry per trial.
    pub ratios: Vec<f64>,
}

impl RefClock {
    /// A clock that runs `units_per_gap` kernel units between trials, the
    /// first of them now.
    pub fn new(units_per_gap: u32) -> Self {
        let empty = resident_mb();
        let mut kernel = RefKernel::new();
        let before = kernel.units(units_per_gap);
        RefClock {
            kernel,
            units_per_gap,
            before,
            resident_mb: (resident_mb() - empty).max(0.0),
            unit_s: vec![before],
            ratios: Vec::new(),
        }
    }

    /// Records a trial of `wall` seconds that just ended, then runs the
    /// next gap's units.
    pub fn after_trial(&mut self, wall: f64) {
        let after = self.kernel.units(self.units_per_gap);
        self.unit_s.push(after);
        self.ratios.push(wall / ((self.before + after) / 2.0));
        self.before = after;
    }

    /// Seconds of one unit in the latest gap.
    pub fn latest_unit(&self) -> f64 {
        self.before
    }

    /// `seconds` measured while one unit took `unit` seconds, quoted at
    /// the nominal speed: `seconds ÷ unit × NOMINAL_UNIT_S`.
    pub fn nominal(seconds: f64, unit: f64) -> f64 {
        seconds / unit * NOMINAL_UNIT_S
    }

    /// How much the kernel's buffers added to the resident set, in MB.
    /// They stay resident for the clock's lifetime, so a `VmHWM` reading
    /// taken while it lives includes them.
    pub fn resident_mb(&self) -> f64 {
        self.resident_mb
    }
}
