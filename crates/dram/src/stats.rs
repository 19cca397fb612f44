//! Operation counters accumulated by the device.
//!
//! The energy model converts these counts (plus bank open-time) into energy;
//! the figure harnesses read the refresh counts directly (Figs 6, 9, 12, 15).

/// Counts of DRAM operations performed since construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpStats {
    /// ACTIVATE commands (row opens) from normal accesses.
    pub activates: u64,
    /// READ column accesses.
    pub reads: u64,
    /// WRITE column accesses.
    pub writes: u64,
    /// Explicit PRECHARGE commands (row closes) from normal accesses.
    pub precharges: u64,
    /// Row refreshes performed via CBR (internal address counter).
    pub cbr_refreshes: u64,
    /// Row refreshes performed via RAS-only (explicit row address on the bus).
    pub ras_only_refreshes: u64,
    /// Refreshes that found the bank with an open page and had to close it
    /// first (costs extra energy, §7.1).
    pub refreshes_closing_open_page: u64,
    /// Patrol-scrub reads (each restores the row like a RAS-only refresh,
    /// but is accounted separately so scrub overhead stays visible).
    pub scrubs: u64,
    /// RFM victim refreshes (Refresh Management RAS cycles against hammer
    /// victims; accounted separately so mitigation overhead stays visible).
    pub rfm_refreshes: u64,
    /// SARP overlapped refreshes: subarray-granular refreshes that ran
    /// under a different subarray's open page without closing it (opt-in
    /// capability; priced separately by the energy model). Each is *also*
    /// counted in its mechanism's own counter above.
    pub sarp_overlapped_refreshes: u64,
}

impl OpStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total row refreshes regardless of mechanism.
    pub fn total_refreshes(&self) -> u64 {
        self.cbr_refreshes + self.ras_only_refreshes
    }

    /// Difference of two snapshots (`self` later minus `earlier`), used for
    /// excluding warm-up periods from measurements.
    pub fn delta_since(&self, earlier: &OpStats) -> OpStats {
        OpStats {
            activates: self.activates - earlier.activates,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            precharges: self.precharges - earlier.precharges,
            cbr_refreshes: self.cbr_refreshes - earlier.cbr_refreshes,
            ras_only_refreshes: self.ras_only_refreshes - earlier.ras_only_refreshes,
            refreshes_closing_open_page: self.refreshes_closing_open_page
                - earlier.refreshes_closing_open_page,
            scrubs: self.scrubs - earlier.scrubs,
            rfm_refreshes: self.rfm_refreshes - earlier.rfm_refreshes,
            sarp_overlapped_refreshes: self.sarp_overlapped_refreshes
                - earlier.sarp_overlapped_refreshes,
        }
    }

    /// Sum of two sets of counters, field by field — the totals of two
    /// devices (channels) side by side.
    ///
    /// Written as a struct literal so that a new field left unsummed fails
    /// to compile.
    pub fn add(&self, other: &OpStats) -> OpStats {
        OpStats {
            activates: self.activates + other.activates,
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            precharges: self.precharges + other.precharges,
            cbr_refreshes: self.cbr_refreshes + other.cbr_refreshes,
            ras_only_refreshes: self.ras_only_refreshes + other.ras_only_refreshes,
            refreshes_closing_open_page: self.refreshes_closing_open_page
                + other.refreshes_closing_open_page,
            scrubs: self.scrubs + other.scrubs,
            rfm_refreshes: self.rfm_refreshes + other.rfm_refreshes,
            sarp_overlapped_refreshes: self.sarp_overlapped_refreshes
                + other.sarp_overlapped_refreshes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_combine_both_refresh_kinds() {
        let s = OpStats {
            cbr_refreshes: 3,
            ras_only_refreshes: 4,
            ..OpStats::new()
        };
        assert_eq!(s.total_refreshes(), 7);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let early = OpStats {
            reads: 10,
            writes: 5,
            ..OpStats::new()
        };
        let late = OpStats {
            reads: 25,
            writes: 11,
            ..OpStats::new()
        };
        let d = late.delta_since(&early);
        assert_eq!(d.reads, 15);
        assert_eq!(d.writes, 6);
    }

    /// Every field gets a distinct value, so a field summed into the wrong
    /// slot, or not summed at all, shows up.
    #[test]
    fn add_sums_every_field() {
        let a = OpStats {
            activates: 1,
            reads: 2,
            writes: 3,
            precharges: 4,
            cbr_refreshes: 5,
            ras_only_refreshes: 6,
            refreshes_closing_open_page: 7,
            scrubs: 8,
            rfm_refreshes: 9,
            sarp_overlapped_refreshes: 10,
        };
        let b = OpStats {
            activates: 100,
            reads: 200,
            writes: 300,
            precharges: 400,
            cbr_refreshes: 500,
            ras_only_refreshes: 600,
            refreshes_closing_open_page: 700,
            scrubs: 800,
            rfm_refreshes: 900,
            sarp_overlapped_refreshes: 1_000,
        };
        let s = a.add(&b);
        assert_eq!(s.activates, 101);
        assert_eq!(s.reads, 202);
        assert_eq!(s.writes, 303);
        assert_eq!(s.precharges, 404);
        assert_eq!(s.cbr_refreshes, 505);
        assert_eq!(s.ras_only_refreshes, 606);
        assert_eq!(s.refreshes_closing_open_page, 707);
        assert_eq!(s.scrubs, 808);
        assert_eq!(s.rfm_refreshes, 909);
        assert_eq!(s.sarp_overlapped_refreshes, 1_010);
        assert_eq!(s.delta_since(&b), a, "delta_since undoes add");
    }
}
