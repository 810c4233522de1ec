//! Machine speed, measured alongside the workload.
//!
//! On a shared host the CPU this benchmark runs on slows down and speeds up
//! by up to ~1.8x in phases lasting from a fraction of a second to minutes
//! (the process keeps its core; no run-queue wait or steal time shows). A
//! fixed probe kernel run between measured calls slows down with it.
//! Wall-clock end-to-end metrics are therefore reported at [`REFERENCE`]
//! machine speed: each stretch of measured wall time is scaled by
//! `REFERENCE / probe` with the probe taken right after it. The raw values
//! stay in the run record.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe time that defines the reference machine speed: about what
/// [`Probe::run`] takes on an uncontended 2-core x86-64 VM core.
pub const REFERENCE: Duration = Duration::from_micros(90);

/// Measured wall time between probes. Speed phases last from a fraction
/// of a second up, so probing every 20 ms tracks them at ~1% cost.
const PROBE_EVERY: Duration = Duration::from_millis(20);

/// Hashing, hash-map updates and small writes, the operations the
/// simulator spends its time on. It shares no state with the program: its
/// map and buffer are allocated once and reused, its hash keys are fixed,
/// and an untimed pass brings its data back into cache before the timed
/// one. So neither the program's heap nor its cache footprint changes what
/// the probe measures, and a slowdown the program causes itself stays in
/// the scaled figures.
#[derive(Default)]
pub struct Probe {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    cells: Vec<[u64; 4]>,
}

impl Probe {
    fn kernel(&mut self) {
        self.map.clear();
        self.cells.clear();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..4_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *self.map.entry(x % 2_048).or_insert(0) += i;
            if i % 8 == 0 {
                self.cells.push([x; 4]);
            }
        }
        black_box(&self.map);
        black_box(&self.cells);
    }

    /// Times one kernel run, after an untimed one.
    pub fn run(&mut self) -> Duration {
        self.kernel();
        let t0 = Instant::now();
        self.kernel();
        t0.elapsed()
    }
}

/// `wall` as it would have read at reference speed, given the probe time
/// measured next to it.
pub fn at_reference(wall: Duration, probe: Duration) -> f64 {
    wall.as_secs_f64() * REFERENCE.as_secs_f64() / probe.as_secs_f64()
}

/// Converts measured wall time to reference speed, probing the machine
/// after every [`PROBE_EVERY`] of it. The probes run between measured
/// calls, never inside one.
#[derive(Default)]
pub struct Meter {
    probe: Probe,
    pending: Duration,
    at_reference: f64,
    probe_sum: Duration,
    probes: u32,
}

impl Meter {
    pub fn add(&mut self, wall: Duration) {
        self.pending += wall;
        if self.pending >= PROBE_EVERY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let p = self.probe.run();
        self.at_reference += at_reference(self.pending, p);
        self.probe_sum += p;
        self.probes += 1;
        self.pending = Duration::ZERO;
    }

    /// Seconds at reference speed and the mean probe time since the last
    /// call; probes once more to cover the tail.
    pub fn take(&mut self) -> (f64, Duration) {
        self.flush();
        let out = (self.at_reference, self.probe_sum / self.probes);
        self.at_reference = 0.0;
        self.probe_sum = Duration::ZERO;
        self.probes = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_undoes_a_uniform_slowdown() {
        let fast = at_reference(Duration::from_millis(10), REFERENCE);
        let slow = at_reference(Duration::from_millis(15), REFERENCE * 3 / 2);
        assert!((fast - 0.010).abs() < 1e-12);
        assert!((slow - fast).abs() < 1e-12);
        assert!(Probe::default().run() > Duration::ZERO);
        let mut m = Meter::default();
        m.add(Duration::from_millis(5));
        let (secs, p) = m.take();
        assert!(secs > 0.0 && p > Duration::ZERO);
        assert_eq!(m.take().0, 0.0, "take resets the meter");
    }
}
