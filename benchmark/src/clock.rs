//! Timing on a box whose speed changes under the benchmark.
//!
//! The sandbox is a two-core slice of a shared host, and two things
//! move under it.
//!
//! *The core clock.* The cores run in one of two states a fifth apart —
//! a dependent-chain spin loop takes 1.53 or 1.87 ns per iteration —
//! each lasting from one to fifteen seconds, and which of the two is the
//! common one changes from minute to minute. So neither the fastest
//! repetition of a twenty-second run nor the median repeats from one run
//! to the next: both read whatever share of each state the run got.
//! Against this, every timed interval is bracketed by two runs of that
//! spin loop ([`calibrate`]). When the two agree, the cores held one
//! speed over the interval, and its time is scaled to what it would have
//! been at [`NOMINAL_NS_PER_ITER`]; when they disagree, the speed changed
//! inside the interval and the sample is set aside.
//!
//! *The neighbours.* For stretches of four to fifteen seconds, a few
//! times in ten minutes, other tenants load the shared cache and memory:
//! a cache miss costs a quarter more and code that walks hub labels —
//! most of what this system does — runs up to half slower, while the
//! spin loop does not change at all. A reference kernel that does see
//! these stretches (merge joins over a 16 MiB table) reads 7 % apart
//! from one run of it to the next and a quarter lower after another
//! calibration than after real work, too rough to scale a single
//! interval by. But the stretches only ever add time and leave most of
//! a run alone, so a metric is the *lower quartile* of its steady, scaled
//! samples: it holds still until three quarters of a run are disturbed.

use std::hint::black_box;
use std::time::Instant;

/// The core speed every time is scaled to, in nanoseconds per iteration
/// of [`spin`]: the faster of the two states of the 2.1 GHz Xeon
/// sandbox. On another host the scaled times shift by a constant factor,
/// the same for every commit measured there.
pub const NOMINAL_NS_PER_ITER: f64 = 1.5;

/// Iterations of one spin; a calibration is the fastest of
/// [`CAL_SPINS`], so an interrupt in one does not read as a slow core.
const CAL_ITERS: u64 = 50_000;
const CAL_SPINS: usize = 3;

/// Two calibrations bracket a steady interval when they differ by no
/// more than this share of their mean; the two states are 20 % apart
/// and one state repeats within 2 %.
const STEADY_TOLERANCE: f64 = 0.05;

/// A xorshift chain: every step waits for the one before, so its time
/// is a fixed number of core cycles and it touches no memory.
fn spin(iters: u64) -> u64 {
    let mut x = 88_172_645_463_325_252u64;
    let mut sum = 0u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(x);
    }
    sum
}

/// The core's speed now, in nanoseconds per spin iteration (≈0.25 ms).
pub fn calibrate() -> f64 {
    (0..CAL_SPINS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(spin(black_box(CAL_ITERS)));
            t0.elapsed().as_nanos() as f64 / CAL_ITERS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One timed interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Seconds at the nominal core speed.
    pub scaled_s: f64,
    /// Whether the calibrations before and after agreed.
    pub steady: bool,
}

impl Sample {
    /// The sample of an interval of `wall_s` seconds between the
    /// calibrations `before` and `after`.
    pub fn new(wall_s: f64, before: f64, after: f64) -> Sample {
        let mean = (before + after) / 2.0;
        Sample {
            wall_s,
            scaled_s: wall_s * NOMINAL_NS_PER_ITER / mean,
            steady: (before - after).abs() <= STEADY_TOLERANCE * mean,
        }
    }
}

/// Times consecutive intervals, calibrating between them; the
/// calibration that ends one interval begins the next.
pub struct Stopwatch {
    speed: f64,
    since: Instant,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        let speed = calibrate();
        Stopwatch {
            speed,
            since: Instant::now(),
        }
    }

    /// Ends the interval running since `start` or the last `lap`, and
    /// starts the next one after a calibration.
    pub fn lap(&mut self) -> Sample {
        let wall_s = self.since.elapsed().as_secs_f64();
        let speed = calibrate();
        let sample = Sample::new(wall_s, self.speed, speed);
        self.speed = speed;
        self.since = Instant::now();
        sample
    }
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let mut watch = Stopwatch::start();
    let out = f();
    (out, watch.lap())
}

/// The repetitions of one timed loop.
#[derive(Clone, Debug, Default)]
pub struct Series {
    samples: Vec<Sample>,
}

/// Steady samples a series needs before it ignores the unsteady ones.
const MIN_STEADY: usize = 4;

impl Series {
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    fn steady(&self) -> usize {
        self.samples.iter().filter(|s| s.steady).count()
    }

    /// The series' value in seconds at the nominal core speed: the
    /// lower quartile of the scaled times of the steady samples — of all
    /// samples while fewer than [`MIN_STEADY`] are steady, each scaled by
    /// the mean of its two calibrations. Panics on an empty series.
    pub fn typical_s(&self) -> f64 {
        let enough = self.steady() >= MIN_STEADY;
        let scaled: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.steady || !enough)
            .map(|s| s.scaled_s)
            .collect();
        crate::stats::lower_quartile(&scaled)
    }

    /// Median wall-clock seconds over all samples, for the notes.
    pub fn wall_s(&self) -> f64 {
        let wall: Vec<f64> = self.samples.iter().map(|s| s.wall_s).collect();
        crate::stats::median(&wall)
    }

    /// `"<steady>/<all>"`, for the sample counts in the notes.
    pub fn counts(&self) -> String {
        format!("{}/{}", self.steady(), self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: f64 = NOMINAL_NS_PER_ITER;

    #[test]
    fn a_sample_scales_to_the_nominal_speed_and_flags_a_speed_change() {
        let s = Sample::new(2.0, 3.0, 3.0);
        assert!(s.steady);
        assert_eq!(s.scaled_s, 2.0 * N / 3.0);
        // 1.53 and 1.87 ns: the two states, a fifth apart.
        assert!(!Sample::new(1.0, 1.53, 1.87).steady);
        assert!(Sample::new(1.0, 1.53, 1.55).steady);
    }

    #[test]
    fn a_series_reports_the_lower_quartile_of_its_steady_samples() {
        let mut series = Series::default();
        for (wall, before, after) in [
            (1.0, N, N),
            (0.1, N, 2.0 * N), // unsteady: ignored once four are steady
            (3.0, N, N),
            (4.0, 2.0 * N, 2.0 * N), // a slow core: 4 s scale to 2 s
            (4.0, N, N),
            (5.0, N, N),
        ] {
            series.push(Sample::new(wall, before, after));
        }
        assert_eq!(series.counts(), "5/6");
        // Steady scaled times 1, 2, 3, 4, 5.
        assert_eq!(series.typical_s(), 2.0);
        assert_eq!(series.wall_s(), 3.5);
    }

    #[test]
    fn a_series_without_enough_steady_samples_uses_them_all() {
        let mut series = Series::default();
        series.push(Sample::new(1.0, N, N));
        assert_eq!(series.typical_s(), 1.0);
        series.push(Sample::new(3.0, N, 2.0 * N));
        assert_eq!(series.typical_s(), 1.0);
    }

    #[test]
    fn the_stopwatch_times_what_ran_between_two_laps() {
        let mut watch = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let lap = watch.lap();
        assert!(lap.wall_s >= 0.005 && lap.scaled_s > 0.0);
        assert!(calibrate() > 0.0);
    }
}
