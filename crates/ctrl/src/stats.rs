//! Controller-side statistics: row-buffer outcomes and access latency.

use smartrefresh_dram::time::Duration;

/// Row-buffer outcome of one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBufferOutcome {
    /// The target row was already open.
    Hit,
    /// The bank was precharged; an activate was needed.
    Miss,
    /// A different row was open; precharge + activate were needed.
    Conflict,
}

/// Statistics accumulated by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// Demand transactions completed.
    pub transactions: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (bank was precharged).
    pub row_misses: u64,
    /// Row-buffer conflicts (another row was open).
    pub row_conflicts: u64,
    /// Sum of per-transaction latencies (completion − arrival).
    pub total_latency: Duration,
    /// Worst single-transaction latency.
    pub max_latency: Duration,
    /// Refresh commands dispatched to the device.
    pub refreshes_issued: u64,
    /// Refreshes that drove an explicit row address over the external bus
    /// (charged bus energy by the energy model).
    pub bus_charged_refreshes: u64,
    /// Refreshes suppressed by an installed fault injector (never issued to
    /// the device; the retention tracker is expected to flag the row).
    pub refreshes_dropped: u64,
    /// Refreshes postponed by an installed fault injector.
    pub refreshes_delayed: u64,
    /// Accumulated time the module could sit in precharge power-down: idle
    /// gaps between commands, net of entry/exit overheads. The energy model
    /// bills these at the power-down rate instead of full standby.
    pub powerdown_time: Duration,
    /// CKE-low windows credited (each one `note_command` idle-gap credit).
    pub powerdown_windows: u64,
    /// Time the counter SRAM was kept powered through CKE-low windows
    /// (`CounterPowerPolicy::Persistent` only); the energy model bills it
    /// at the configured retention power.
    pub counter_retention_time: Duration,
    /// Counter entries force-zeroed on power-down wake
    /// (`CounterPowerPolicy::ConservativeReset` only).
    pub counters_reset_on_wake: u64,
    /// Checkpoint/restore round trips performed, one per credited window
    /// (`CounterPowerPolicy::Snapshot` only).
    pub counter_snapshots: u64,
    /// Counter entries checkpointed and restored across all snapshots;
    /// the energy model bills them at the per-entry snapshot cost.
    pub counter_snapshot_entries: u64,
    /// Patrol scrubs issued from the deadline-order walk.
    pub scrubs_issued: u64,
    /// Scrubs forced out of deadline order by a watchdog violation.
    pub forced_scrubs: u64,
    /// Corrected (single-bit) ECC errors: detected, repaired, written back.
    pub ce_corrected: u64,
    /// Uncorrectable (multi-bit) ECC errors detected, one per poisoned row.
    pub ue_detected: u64,
    /// RFM commands issued (elective RAAIMT crossings plus mandatory
    /// RAAMMT back-pressure relief).
    pub rfm_commands: u64,
    /// Victim rows refreshed by RFM commands (several per command).
    pub rfm_row_refreshes: u64,
    /// ACTs stalled behind a mandatory RFM because the bank's RAA counter
    /// sat at RAAMMT.
    pub rfm_backpressure_stalls: u64,
}

impl ControllerStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean transaction latency; zero when no transactions completed.
    pub fn avg_latency(&self) -> Duration {
        if self.transactions == 0 {
            Duration::ZERO
        } else {
            self.total_latency.div_by(self.transactions)
        }
    }

    /// Row-buffer hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.transactions as f64
        }
    }

    /// Difference of two snapshots (`self` later minus `earlier`), used to
    /// exclude warm-up periods from measurements.
    ///
    /// `max_latency` is taken from the later snapshot (a maximum cannot be
    /// meaningfully subtracted).
    pub fn delta_since(&self, earlier: &ControllerStats) -> ControllerStats {
        ControllerStats {
            transactions: self.transactions - earlier.transactions,
            row_hits: self.row_hits - earlier.row_hits,
            row_misses: self.row_misses - earlier.row_misses,
            row_conflicts: self.row_conflicts - earlier.row_conflicts,
            total_latency: self.total_latency - earlier.total_latency,
            max_latency: self.max_latency,
            refreshes_issued: self.refreshes_issued - earlier.refreshes_issued,
            bus_charged_refreshes: self.bus_charged_refreshes - earlier.bus_charged_refreshes,
            refreshes_dropped: self.refreshes_dropped - earlier.refreshes_dropped,
            refreshes_delayed: self.refreshes_delayed - earlier.refreshes_delayed,
            powerdown_time: self.powerdown_time - earlier.powerdown_time,
            powerdown_windows: self.powerdown_windows - earlier.powerdown_windows,
            counter_retention_time: self.counter_retention_time - earlier.counter_retention_time,
            counters_reset_on_wake: self.counters_reset_on_wake - earlier.counters_reset_on_wake,
            counter_snapshots: self.counter_snapshots - earlier.counter_snapshots,
            counter_snapshot_entries: self.counter_snapshot_entries
                - earlier.counter_snapshot_entries,
            scrubs_issued: self.scrubs_issued - earlier.scrubs_issued,
            forced_scrubs: self.forced_scrubs - earlier.forced_scrubs,
            ce_corrected: self.ce_corrected - earlier.ce_corrected,
            ue_detected: self.ue_detected - earlier.ue_detected,
            rfm_commands: self.rfm_commands - earlier.rfm_commands,
            rfm_row_refreshes: self.rfm_row_refreshes - earlier.rfm_row_refreshes,
            rfm_backpressure_stalls: self.rfm_backpressure_stalls - earlier.rfm_backpressure_stalls,
        }
    }

    /// Sum of two sets of statistics, field by field — the totals of two
    /// controllers (channels) side by side. `max_latency` is the larger of
    /// the two maxima.
    ///
    /// Written as a struct literal so that a new field left unsummed fails
    /// to compile.
    pub fn add(&self, other: &ControllerStats) -> ControllerStats {
        ControllerStats {
            transactions: self.transactions + other.transactions,
            row_hits: self.row_hits + other.row_hits,
            row_misses: self.row_misses + other.row_misses,
            row_conflicts: self.row_conflicts + other.row_conflicts,
            total_latency: self.total_latency + other.total_latency,
            max_latency: self.max_latency.max(other.max_latency),
            refreshes_issued: self.refreshes_issued + other.refreshes_issued,
            bus_charged_refreshes: self.bus_charged_refreshes + other.bus_charged_refreshes,
            refreshes_dropped: self.refreshes_dropped + other.refreshes_dropped,
            refreshes_delayed: self.refreshes_delayed + other.refreshes_delayed,
            powerdown_time: self.powerdown_time + other.powerdown_time,
            powerdown_windows: self.powerdown_windows + other.powerdown_windows,
            counter_retention_time: self.counter_retention_time + other.counter_retention_time,
            counters_reset_on_wake: self.counters_reset_on_wake + other.counters_reset_on_wake,
            counter_snapshots: self.counter_snapshots + other.counter_snapshots,
            counter_snapshot_entries: self.counter_snapshot_entries
                + other.counter_snapshot_entries,
            scrubs_issued: self.scrubs_issued + other.scrubs_issued,
            forced_scrubs: self.forced_scrubs + other.forced_scrubs,
            ce_corrected: self.ce_corrected + other.ce_corrected,
            ue_detected: self.ue_detected + other.ue_detected,
            rfm_commands: self.rfm_commands + other.rfm_commands,
            rfm_row_refreshes: self.rfm_row_refreshes + other.rfm_row_refreshes,
            rfm_backpressure_stalls: self.rfm_backpressure_stalls + other.rfm_backpressure_stalls,
        }
    }

    /// Records one transaction outcome.
    pub(crate) fn record(&mut self, outcome: RowBufferOutcome, latency: Duration) {
        self.transactions += 1;
        match outcome {
            RowBufferOutcome::Hit => self.row_hits += 1,
            RowBufferOutcome::Miss => self.row_misses += 1,
            RowBufferOutcome::Conflict => self.row_conflicts += 1,
        }
        self.total_latency += latency;
        self.max_latency = self.max_latency.max(latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_and_rates() {
        let mut s = ControllerStats::new();
        s.record(RowBufferOutcome::Hit, Duration::from_ns(20));
        s.record(RowBufferOutcome::Miss, Duration::from_ns(40));
        assert_eq!(s.transactions, 2);
        assert_eq!(s.avg_latency(), Duration::from_ns(30));
        assert_eq!(s.max_latency, Duration::from_ns(40));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = ControllerStats::new();
        assert_eq!(s.avg_latency(), Duration::ZERO);
        assert_eq!(s.hit_rate(), 0.0);
    }

    /// Every field gets a distinct value, so a field summed into the wrong
    /// slot, or not summed at all, shows up.
    #[test]
    fn add_sums_every_field() {
        let d = Duration::from_ps;
        let a = ControllerStats {
            transactions: 1,
            row_hits: 2,
            row_misses: 3,
            row_conflicts: 4,
            total_latency: d(5),
            max_latency: d(600),
            refreshes_issued: 7,
            bus_charged_refreshes: 8,
            refreshes_dropped: 9,
            refreshes_delayed: 10,
            powerdown_time: d(11),
            powerdown_windows: 12,
            counter_retention_time: d(13),
            counters_reset_on_wake: 14,
            counter_snapshots: 15,
            counter_snapshot_entries: 16,
            scrubs_issued: 17,
            forced_scrubs: 18,
            ce_corrected: 19,
            ue_detected: 20,
            rfm_commands: 21,
            rfm_row_refreshes: 22,
            rfm_backpressure_stalls: 23,
        };
        let b = ControllerStats {
            transactions: 100,
            row_hits: 200,
            row_misses: 300,
            row_conflicts: 400,
            total_latency: d(500),
            max_latency: d(60),
            refreshes_issued: 700,
            bus_charged_refreshes: 800,
            refreshes_dropped: 900,
            refreshes_delayed: 1_000,
            powerdown_time: d(1_100),
            powerdown_windows: 1_200,
            counter_retention_time: d(1_300),
            counters_reset_on_wake: 1_400,
            counter_snapshots: 1_500,
            counter_snapshot_entries: 1_600,
            scrubs_issued: 1_700,
            forced_scrubs: 1_800,
            ce_corrected: 1_900,
            ue_detected: 2_000,
            rfm_commands: 2_100,
            rfm_row_refreshes: 2_200,
            rfm_backpressure_stalls: 2_300,
        };
        let s = a.add(&b);
        assert_eq!(s.transactions, 101);
        assert_eq!(s.row_hits, 202);
        assert_eq!(s.row_misses, 303);
        assert_eq!(s.row_conflicts, 404);
        assert_eq!(s.total_latency, d(505));
        assert_eq!(s.max_latency, d(600), "the larger maximum, not a sum");
        assert_eq!(s.refreshes_issued, 707);
        assert_eq!(s.bus_charged_refreshes, 808);
        assert_eq!(s.refreshes_dropped, 909);
        assert_eq!(s.refreshes_delayed, 1_010);
        assert_eq!(s.powerdown_time, d(1_111));
        assert_eq!(s.powerdown_windows, 1_212);
        assert_eq!(s.counter_retention_time, d(1_313));
        assert_eq!(s.counters_reset_on_wake, 1_414);
        assert_eq!(s.counter_snapshots, 1_515);
        assert_eq!(s.counter_snapshot_entries, 1_616);
        assert_eq!(s.scrubs_issued, 1_717);
        assert_eq!(s.forced_scrubs, 1_818);
        assert_eq!(s.ce_corrected, 1_919);
        assert_eq!(s.ue_detected, 2_020);
        assert_eq!(s.rfm_commands, 2_121);
        assert_eq!(s.rfm_row_refreshes, 2_222);
        assert_eq!(s.rfm_backpressure_stalls, 2_323);
        assert_eq!(b.add(&a), s, "the sum is symmetric");
        assert_eq!(a.add(&ControllerStats::new()), a, "zero is the identity");
    }
}
