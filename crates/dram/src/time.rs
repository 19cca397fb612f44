//! Simulation time types.
//!
//! The whole workspace measures time in integer **picoseconds** so that DDR2
//! timing parameters (e.g. `tRFC = 70 ns`, `tCK = 3 ns`) and long horizons
//! (hundreds of milliseconds of simulated wall-clock) can coexist in a `u64`
//! without rounding. `2^64 ps ≈ 213 days`, far beyond any simulation here.
//!
//! [`Instant`] is a point on the simulation timeline; [`Duration`] is a span.
//! The API mirrors `std::time` but is purely arithmetic: there is no clock.
//!
//! # Examples
//!
//! ```
//! use smartrefresh_dram::time::{Duration, Instant};
//!
//! let start = Instant::ZERO;
//! let trfc = Duration::from_ns(70);
//! let done = start + trfc;
//! assert_eq!(done.as_ps(), 70_000);
//! assert_eq!(done - start, trfc);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point on the simulation timeline, in picoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

/// A span of simulation time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Instant {
    /// The origin of the simulation timeline.
    pub const ZERO: Instant = Instant(0);

    /// The far-future sentinel: later than every reachable simulation
    /// instant. Useful as the identity for `min`-folds over deadlines.
    pub const MAX: Instant = Instant(u64::MAX);

    /// Creates an instant at `ps` picoseconds after simulation start.
    pub const fn from_ps(ps: u64) -> Self {
        Instant(ps)
    }

    /// Returns the raw picosecond value.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: Instant) -> Duration {
        debug_assert!(earlier.0 <= self.0, "`earlier` is after `self`");
        Duration(self.0 - earlier.0)
    }

    /// Saturating version of [`Instant::since`]: returns zero when `earlier`
    /// is actually later than `self`.
    #[inline]
    pub fn saturating_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Instant) -> Instant {
        Instant(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Instant) -> Instant {
        Instant(self.0.min(other.0))
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration of `ps` picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Creates a duration of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * 1_000)
    }

    /// Creates a duration of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        Duration(us * 1_000_000)
    }

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Duration(ms * 1_000_000_000)
    }

    /// Returns the raw picosecond value.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The duration in seconds as a float (for reporting and rates).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// The duration in nanoseconds as a float.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 * 1e-3
    }

    /// True when this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Integer division by a count, used to split an interval into slots.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn div_by(self, n: u64) -> Duration {
        assert!(n > 0, "cannot divide a duration into zero slots");
        Duration(self.0 / n)
    }

    /// Checked subtraction; `None` when `other` exceeds `self`.
    pub fn checked_sub(self, other: Duration) -> Option<Duration> {
        self.0.checked_sub(other.0).map(Duration)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        Instant(self.0 - rhs.0)
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(rhs.0 <= self.0, "duration subtraction underflow");
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        debug_assert!(rhs.0 <= self.0, "duration subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        self.div_by(rhs)
    }
}

impl Div<Duration> for Duration {
    type Output = u64;
    fn div(self, rhs: Duration) -> u64 {
        assert!(!rhs.is_zero(), "division by zero duration");
        self.0 / rhs.0
    }
}

impl Rem<Duration> for Duration {
    type Output = Duration;
    fn rem(self, rhs: Duration) -> Duration {
        assert!(!rhs.is_zero(), "remainder by zero duration");
        Duration(self.0 % rhs.0)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Duration(self.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps.is_multiple_of(1_000_000_000) {
            write!(f, "{}ms", ps / 1_000_000_000)
        } else if ps.is_multiple_of(1_000_000) {
            write!(f, "{}us", ps / 1_000_000)
        } else if ps.is_multiple_of(1_000) {
            write!(f, "{}ns", ps / 1_000)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_duration_arithmetic() {
        let t0 = Instant::from_ps(100);
        let d = Duration::from_ps(50);
        assert_eq!((t0 + d).as_ps(), 150);
        assert_eq!((t0 + d) - t0, d);
        assert_eq!((t0 + d).since(t0), d);
    }

    #[test]
    fn unit_constructors_scale() {
        assert_eq!(Duration::from_ns(1).as_ps(), 1_000);
        assert_eq!(Duration::from_us(1).as_ps(), 1_000_000);
        assert_eq!(Duration::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(Duration::from_ms(64).as_secs_f64(), 0.064);
    }

    #[test]
    fn division_splits_interval() {
        // The paper's staggered index clock: 16 ms / 16384 rows per segment.
        let access_period = Duration::from_ms(16);
        let tick = access_period.div_by(16384);
        assert_eq!(tick.as_ps(), 976_562); // ~976.6 ns, truncated
        assert_eq!(access_period / tick, 16384);
    }

    #[test]
    fn saturating_ops() {
        let early = Instant::from_ps(10);
        let late = Instant::from_ps(20);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
        assert_eq!(late.saturating_since(early), Duration::from_ps(10));
        assert_eq!(
            Duration::from_ps(5).saturating_sub(Duration::from_ps(9)),
            Duration::ZERO
        );
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Duration::from_ms(64).to_string(), "64ms");
        assert_eq!(Duration::from_us(4).to_string(), "4us");
        assert_eq!(Duration::from_ns(70).to_string(), "70ns");
        assert_eq!(Duration::from_ps(1).to_string(), "1ps");
        assert_eq!(Duration::ZERO.to_string(), "0s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [1u64, 2, 3].iter().map(|&n| Duration::from_ns(n)).sum();
        assert_eq!(total, Duration::from_ns(6));
    }

    #[test]
    fn min_max() {
        let a = Duration::from_ns(1);
        let b = Duration::from_ns(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let t1 = Instant::from_ps(1);
        let t2 = Instant::from_ps(2);
        assert_eq!(t1.max(t2), t2);
        assert_eq!(t1.min(t2), t1);
    }
}
