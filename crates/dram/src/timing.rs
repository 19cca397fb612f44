//! DDR2 timing parameters.
//!
//! Only the parameters that matter at the granularity this reproduction
//! simulates are modelled: row activate/restore/precharge latencies, column
//! access latency, the per-row refresh cycle time, and the data retention
//! deadline (the paper's "refresh interval", 64 ms for conventional DRAM,
//! 32 ms for the hot 3D die-stacked configuration).

use crate::time::Duration;

/// Timing parameters for a DRAM module.
///
/// Defaults follow the paper's configuration: a DDR2-667 part with a 70 ns
/// per-row refresh cycle ("A typical time taken to refresh a row is 70ns",
/// §5) and a 64 ms retention interval.
///
/// # Examples
///
/// ```
/// use smartrefresh_dram::timing::TimingParams;
///
/// let t = TimingParams::ddr2_667();
/// assert_eq!(t.trfc.as_ns_f64(), 70.0);
/// assert_eq!(t.retention.as_secs_f64(), 0.064);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Clock period of the command/address bus.
    pub tck: Duration,
    /// ACTIVATE to READ/WRITE delay (RAS-to-CAS).
    pub trcd: Duration,
    /// PRECHARGE period: row close to next ACTIVATE in the same bank.
    pub trp: Duration,
    /// CAS latency: READ command to first data beat.
    pub tcl: Duration,
    /// Minimum row-open time: ACTIVATE to PRECHARGE.
    pub tras: Duration,
    /// Burst transfer time on the data bus for one column access.
    pub tburst: Duration,
    /// ACTIVATE-to-ACTIVATE delay between different banks of one rank.
    pub trrd: Duration,
    /// Four-activate window: at most four ACTIVATEs per rank per tFAW.
    pub tfaw: Duration,
    /// Write recovery: last write data to PRECHARGE of the same bank.
    pub twr: Duration,
    /// Refresh cycle time: one per-row refresh occupies its bank this long.
    pub trfc: Duration,
    /// Data retention deadline: every row must be restored at least once per
    /// this interval (64 ms conventional, 32 ms for hot 3D stacks).
    pub retention: Duration,
}

impl TimingParams {
    /// DDR2-667 timings used for Tables 1 and 2 (conventional, 64 ms).
    pub fn ddr2_667() -> Self {
        TimingParams {
            tck: Duration::from_ps(3_000),
            trcd: Duration::from_ns(15),
            trp: Duration::from_ns(15),
            tcl: Duration::from_ns(15),
            tras: Duration::from_ns(45),
            tburst: Duration::from_ns(6), // BL4 at 667 MT/s
            trrd: Duration::from_ps(7_500),
            tfaw: Duration::from_ps(37_500),
            twr: Duration::from_ns(15),
            trfc: Duration::from_ns(70),
            retention: Duration::from_ms(64),
        }
    }

    /// Returns a copy with a different retention interval.
    pub fn with_retention(self, retention: Duration) -> Self {
        assert!(!retention.is_zero(), "retention must be nonzero");
        TimingParams { retention, ..self }
    }

    /// Random-access latency of a closed bank: ACTIVATE + column access.
    pub fn row_miss_latency(&self) -> Duration {
        self.trcd + self.tcl + self.tburst
    }

    /// Latency of a row-buffer hit: column access only.
    pub fn row_hit_latency(&self) -> Duration {
        self.tcl + self.tburst
    }

    /// Validates internal consistency (e.g. `tRAS >= tRCD`).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when a constraint is violated. Used
    /// by device constructors so misconfigurations fail fast.
    pub fn validate(&self) {
        assert!(!self.tck.is_zero(), "tCK must be nonzero");
        assert!(self.tras >= self.trcd, "tRAS must cover tRCD");
        assert!(!self.trfc.is_zero(), "tRFC must be nonzero");
        assert!(
            self.tfaw >= self.trrd,
            "tFAW must be at least one tRRD window"
        );
        assert!(
            self.retention > self.trfc,
            "retention must exceed one refresh cycle"
        );
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr2_667()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        TimingParams::ddr2_667().validate();
    }

    /// The stack above 85 °C (§4.5): `configs::stacked_3d_64mb(32 ms)`.
    #[test]
    fn hot_variant_halves_retention() {
        let cold = TimingParams::ddr2_667();
        let hot = cold.with_retention(Duration::from_ms(32));
        hot.validate();
        assert_eq!(hot.retention * 2, cold.retention);
        assert_eq!(hot.trfc, cold.trfc);
    }

    #[test]
    fn latency_ordering_hit_miss_conflict() {
        let t = TimingParams::ddr2_667();
        assert!(t.row_hit_latency() < t.row_miss_latency());
        // A conflict pays a precharge on top of a miss.
        assert!(!t.trp.is_zero());
    }

    #[test]
    #[should_panic(expected = "retention must exceed")]
    fn validate_rejects_tiny_retention() {
        let mut t = TimingParams::ddr2_667();
        t.retention = Duration::from_ns(10);
        t.validate();
    }

    #[test]
    fn with_retention_overrides() {
        let t = TimingParams::ddr2_667().with_retention(Duration::from_ms(128));
        assert_eq!(t.retention, Duration::from_ms(128));
    }
}
