//! Refresh-schedule optimality (§4.4).
//!
//! The paper defines optimality as how close a scheme refreshes each row to
//! its data-retention deadline: refreshing exactly every `retention` is 100%
//! optimal; refreshing earlier wastes energy. For Smart Refresh the counter
//! quantisation bounds the worst case: with a `k`-bit counter a row can be
//! refreshed as early as `(1 - 1/2^k) · retention` after its last restore,
//! giving
//!
//! ```text
//! Optimality = (1 - 1 / 2^k) · 100%
//! ```
//!
//! — 75% for 2-bit counters and 87.5% for 3-bit counters. The measured
//! counterpart comes from [`RetentionTracker::summary`]'s mean inter-restore
//! interval.
//!
//! [`RetentionTracker::summary`]: smartrefresh_dram::RetentionTracker::summary

/// Worst-case optimality of a `k`-bit Smart Refresh counter (§4.4 formula),
/// as a fraction in `(0, 1)`.
///
/// # Panics
///
/// Panics if `bits` is not in `1..=8`.
///
/// # Examples
///
/// ```
/// use smartrefresh_core::optimality::counter_optimality;
///
/// assert_eq!(counter_optimality(2), 0.75);
/// assert_eq!(counter_optimality(3), 0.875);
/// ```
pub fn counter_optimality(bits: u32) -> f64 {
    assert!((1..=8).contains(&bits), "counter width must be 1..=8 bits");
    1.0 - 1.0 / f64::from(1u32 << bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        assert_eq!(counter_optimality(2), 0.75);
        assert_eq!(counter_optimality(3), 0.875);
        assert_eq!(counter_optimality(4), 0.9375);
    }

    #[test]
    fn monotone_in_bits() {
        for b in 1..8 {
            assert!(counter_optimality(b) < counter_optimality(b + 1));
        }
    }

    /// The periodic policy refreshes exactly at the deadline: optimality 1.
    #[test]
    fn bounded_by_periodic() {
        for b in 1..=8 {
            assert!(counter_optimality(b) < 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn rejects_zero_bits() {
        counter_optimality(0);
    }
}
