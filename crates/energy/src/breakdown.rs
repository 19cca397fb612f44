//! Whole-system energy breakdown and savings arithmetic.
//!
//! An [`EnergyBreakdown`] collects the DRAM-internal energy plus the two
//! overheads Smart Refresh introduces — counter-array SRAM accesses and
//! RAS-only address-bus transfers — so that comparisons against the CBR
//! baseline charge the technique honestly for everything it adds, exactly
//! as the paper does ("the energy overheads caused by these extra counters
//! were all accounted for", §4.7).

use std::fmt;

use crate::dram_power::DramEnergy;

/// Energy totals for one simulated run, joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// DRAM-internal energy split.
    pub dram: DramEnergy,
    /// Counter-array SRAM access energy (Smart Refresh only).
    pub counter_sram_j: f64,
    /// Address-bus energy for RAS-only refreshes (Smart Refresh only).
    pub refresh_bus_j: f64,
    /// DRAM energy spent on patrol scrubs (each scrub occupies a bank like
    /// a RAS-cycle refresh). Charged to the refresh mechanism: a scrub that
    /// resets a row's counter displaces a refresh, and the comparison must
    /// net the two.
    pub scrub_j: f64,
    /// Controller-side SECDED decode/correct logic energy.
    pub ecc_logic_j: f64,
    /// Energy spent keeping (or recovering) counter state across CKE-low
    /// power-down windows: SRAM retention leakage under
    /// `CounterPowerPolicy::Persistent`, checkpoint/restore traffic under
    /// `Snapshot`, zero under `ConservativeReset` (which pays in forfeited
    /// refresh savings instead). Charged to the refresh mechanism — the
    /// counters exist only to serve it.
    pub counter_power_j: f64,
    /// DRAM energy spent on RFM victim refreshes (each occupies a bank
    /// like a RAS-cycle refresh). Charged to the refresh mechanism: the
    /// mitigation exists to police the refresh schedule's safety margin,
    /// and the attack-vs-defense comparison must pay for it honestly.
    pub rfm_j: f64,
    /// Extra DRAM energy for SARP overlapped refreshes: driving a second
    /// subarray's sense amplifiers under an open page costs more than a
    /// precharged-bank refresh (local wordline/sense-amp duplication, Chang
    /// et al.). Charged to the refresh mechanism — the overlap exists only
    /// to hide refresh latency, and the DARP-vs-baseline comparison must
    /// pay for the hardware honestly.
    pub sarp_j: f64,
}

impl EnergyBreakdown {
    /// Total energy attributable to the refresh mechanism: the DRAM refresh
    /// energy plus all technique overheads. This is the quantity compared in
    /// the "relative refresh energy savings" figures (Figs 7, 10, 13, 16).
    pub fn refresh_mechanism_j(&self) -> f64 {
        self.dram.refresh_j
            + self.counter_sram_j
            + self.refresh_bus_j
            + self.scrub_j
            + self.counter_power_j
            + self.rfm_j
            + self.sarp_j
    }

    /// Total system energy (the "total DRAM energy" of Figs 8, 11, 14, 17).
    pub fn total_j(&self) -> f64 {
        self.dram.total_j()
            + self.counter_sram_j
            + self.refresh_bus_j
            + self.scrub_j
            + self.ecc_logic_j
            + self.counter_power_j
            + self.rfm_j
            + self.sarp_j
    }

    /// Relative savings of `self` (the technique) versus `baseline`:
    /// `1 - self/baseline`, as a fraction. Negative when the technique loses.
    pub fn total_savings_vs(&self, baseline: &EnergyBreakdown) -> f64 {
        savings(self.total_j(), baseline.total_j())
    }

    /// Relative refresh-mechanism savings versus `baseline`.
    pub fn refresh_savings_vs(&self, baseline: &EnergyBreakdown) -> f64 {
        savings(self.refresh_mechanism_j(), baseline.refresh_mechanism_j())
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bg {:.3} mJ | act/pre {:.3} mJ | rd/wr {:.3} mJ | refresh {:.3} mJ | \
             counters {:.3} mJ | bus {:.3} mJ | scrub {:.3} mJ | ecc {:.3} mJ | \
             ctr-pwr {:.3} mJ | rfm {:.3} mJ | sarp {:.3} mJ | total {:.3} mJ",
            self.dram.background_j * 1e3,
            self.dram.activate_precharge_j * 1e3,
            self.dram.read_write_j * 1e3,
            self.dram.refresh_j * 1e3,
            self.counter_sram_j * 1e3,
            self.refresh_bus_j * 1e3,
            self.scrub_j * 1e3,
            self.ecc_logic_j * 1e3,
            self.counter_power_j * 1e3,
            self.rfm_j * 1e3,
            self.sarp_j * 1e3,
            self.total_j() * 1e3,
        )
    }
}

/// Per-channel attribution of patrol-scrub DRAM energy.
///
/// A multi-channel maintenance scheduler spends scrub energy unevenly: an
/// adaptive interval and watchdog-forced scrubs concentrate slots on the
/// channels that are actually faulting. This breaks the system-wide
/// `scrub_j` lump of [`EnergyBreakdown`] down by channel so campaign
/// reports can show *where* the scrub budget went. Each scrub is priced
/// like one RAS-cycle row refresh
/// ([`DramPowerParams::e_refresh_row`](crate::DramPowerParams)), the same
/// rate the savings pairing uses.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChannelScrubEnergy {
    /// Scrub energy spent on each channel, joules, indexed by channel.
    pub per_channel_j: Vec<f64>,
}

impl ChannelScrubEnergy {
    /// Prices `scrubs[i]` scrub operations on channel `i` at
    /// `e_refresh_row` joules each.
    pub fn from_counts(scrubs: &[u64], e_refresh_row: f64) -> Self {
        ChannelScrubEnergy {
            per_channel_j: scrubs.iter().map(|&n| n as f64 * e_refresh_row).collect(),
        }
    }

    /// System-wide scrub energy, joules — the value that belongs in
    /// [`EnergyBreakdown::scrub_j`].
    pub fn total_j(&self) -> f64 {
        self.per_channel_j.iter().sum()
    }
}

/// Fractional savings of `value` relative to `baseline` (`1 - value/baseline`).
/// Returns 0 for a zero baseline.
pub fn savings(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        1.0 - value / baseline
    }
}

/// Geometric mean of a slice of positive values; 0.0 for an empty slice.
///
/// The paper reports GMEANs across benchmarks for every figure.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(refresh: f64, other: f64, overhead: f64) -> EnergyBreakdown {
        EnergyBreakdown {
            dram: DramEnergy {
                background_j: other,
                refresh_j: refresh,
                ..DramEnergy::default()
            },
            counter_sram_j: overhead / 2.0,
            refresh_bus_j: overhead / 2.0,
            ..EnergyBreakdown::default()
        }
    }

    #[test]
    fn scrub_and_ecc_are_charged() {
        let baseline = bd(1.0, 3.0, 0.0);
        let scrubbed = EnergyBreakdown {
            scrub_j: 0.2,
            ecc_logic_j: 0.1,
            ..bd(0.5, 3.0, 0.0)
        };
        // Refresh mechanism: (0.5 + 0.2) vs 1.0 -> 30% savings.
        assert!((scrubbed.refresh_savings_vs(&baseline) - 0.3).abs() < 1e-12);
        // Total also pays the ECC logic: 3.8 vs 4.0 -> 5%.
        assert!((scrubbed.total_savings_vs(&baseline) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn counter_power_is_charged_to_the_mechanism() {
        let baseline = bd(1.0, 3.0, 0.0);
        let retained = EnergyBreakdown {
            counter_power_j: 0.2,
            ..bd(0.5, 3.0, 0.0)
        };
        // Refresh mechanism: (0.5 + 0.2) vs 1.0 -> 30% savings, not 50%.
        assert!((retained.refresh_savings_vs(&baseline) - 0.3).abs() < 1e-12);
        // Total pays it too: 3.7 vs 4.0 -> 7.5%.
        assert!((retained.total_savings_vs(&baseline) - 0.075).abs() < 1e-12);
        assert!(retained.to_string().contains("ctr-pwr"));
    }

    #[test]
    fn rfm_is_charged_to_the_mechanism() {
        let baseline = bd(1.0, 3.0, 0.0);
        let defended = EnergyBreakdown {
            rfm_j: 0.2,
            ..bd(0.5, 3.0, 0.0)
        };
        // Refresh mechanism: (0.5 + 0.2) vs 1.0 -> 30% savings, not 50%.
        assert!((defended.refresh_savings_vs(&baseline) - 0.3).abs() < 1e-12);
        // Total pays it too: 3.7 vs 4.0 -> 7.5%.
        assert!((defended.total_savings_vs(&baseline) - 0.075).abs() < 1e-12);
        assert!(defended.to_string().contains("rfm"));
    }

    #[test]
    fn sarp_is_charged_to_the_mechanism() {
        let baseline = bd(1.0, 3.0, 0.0);
        let overlapped = EnergyBreakdown {
            sarp_j: 0.2,
            ..bd(0.5, 3.0, 0.0)
        };
        // Refresh mechanism: (0.5 + 0.2) vs 1.0 -> 30% savings, not 50%.
        assert!((overlapped.refresh_savings_vs(&baseline) - 0.3).abs() < 1e-12);
        // Total pays it too: 3.7 vs 4.0 -> 7.5%.
        assert!((overlapped.total_savings_vs(&baseline) - 0.075).abs() < 1e-12);
        assert!(overlapped.to_string().contains("sarp"));
    }

    #[test]
    fn savings_basic() {
        assert_eq!(savings(50.0, 100.0), 0.5);
        assert_eq!(savings(100.0, 100.0), 0.0);
        assert!(savings(110.0, 100.0) < 0.0);
        assert_eq!(savings(1.0, 0.0), 0.0);
    }

    #[test]
    fn overheads_are_charged_to_the_technique() {
        let baseline = bd(1.0, 3.0, 0.0);
        let smart = bd(0.5, 3.0, 0.1);
        // Refresh mechanism: (0.5 + 0.1) vs 1.0 -> 40% savings, not 50%.
        assert!((smart.refresh_savings_vs(&baseline) - 0.4).abs() < 1e-12);
        // Total: 3.6 vs 4.0 -> 10%.
        assert!((smart.total_savings_vs(&baseline) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn gmean_matches_paper_style() {
        let vals = [0.25, 0.79];
        let g = geometric_mean(&vals);
        assert!((g - (0.25f64 * 0.79).sqrt()).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn gmean_rejects_nonpositive() {
        geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn channel_scrub_energy_attributes_per_channel() {
        let e = ChannelScrubEnergy::from_counts(&[100, 0, 50], 2e-9);
        assert!((e.per_channel_j[0] - 200e-9).abs() < 1e-15);
        assert_eq!(e.per_channel_j[1], 0.0);
        assert!((e.total_j() - 300e-9).abs() < 1e-15);
        // The total is what EnergyBreakdown charges as scrub_j.
        let bd = EnergyBreakdown {
            scrub_j: e.total_j(),
            ..EnergyBreakdown::default()
        };
        assert_eq!(bd.refresh_mechanism_j(), e.total_j());
    }

    #[test]
    fn display_mentions_total() {
        let s = bd(1.0, 1.0, 0.0).to_string();
        assert!(s.contains("total"));
    }
}
