//! The benchmark's only clock: a monotonic stopwatch. Every duration the
//! benchmark reports is read through here, so the one wall-clock read
//! in the package sits behind a single reasoned waiver.

use std::time::Instant;

/// A started monotonic stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a stopwatch now.
    #[allow(clippy::disallowed_methods)] // measuring wall time is this package's purpose
    pub fn start() -> Self {
        // dpm-lint: allow(ambient-nondeterminism) -- benchmark timing: elapsed time is the measured output and never feeds the program under test
        Stopwatch(Instant::now())
    }

    /// Seconds elapsed since [`Self::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Milliseconds elapsed since [`Self::start`].
    pub fn ms(&self) -> f64 {
        self.secs() * 1e3
    }

    /// Nanoseconds elapsed since [`Self::start`] (saturating).
    pub fn ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}
