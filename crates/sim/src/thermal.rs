//! Thermal feedback for the 3D die-stacked DRAM (§4.5 extension).
//!
//! The paper motivates the 32 ms refresh interval thermally: a stacked DRAM
//! bonded to the processor runs at ~90 °C, and above 85 °C the Micron
//! datasheet requires the refresh rate to double. That coupling runs both
//! ways — refresh itself burns power, and power raises temperature — so a
//! technique that removes refresh energy can cool the stack *below* the
//! threshold and escape the 2× penalty entirely. This module closes that
//! loop with a simple steady-state thermal model:
//!
//! ```text
//! T = T_base + R_th · P_dram
//! retention(T) = 64 ms if T ≤ 85 °C else 32 ms
//! ```
//!
//! and iterates to a fixed point. The `abl_thermal_feedback` study
//! (`smart-refresh study abl_thermal_feedback`) runs the loop for the CBR
//! baseline and Smart Refresh.

use smartrefresh_dram::time::Duration;

/// The datasheet threshold above which the refresh rate must double (§4.5).
pub const THRESHOLD_C: f64 = 85.0;

/// Steady-state thermal model of the stacked DRAM die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Die temperature contributed by the processor underneath, °C.
    pub base_c: f64,
    /// Thermal resistance from DRAM power to die temperature, °C/W.
    pub r_c_per_w: f64,
}

/// Outcome of the thermal fixed-point iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalOperatingPoint {
    /// Settled refresh interval.
    pub retention: Duration,
    /// Settled die temperature, °C.
    pub temperature_c: f64,
    /// DRAM power at the settled point, watts.
    pub power_w: f64,
    /// Fixed-point iterations taken.
    pub iterations: u32,
}

impl ThermalModel {
    /// A stack sitting just below the threshold when idle: the processor
    /// holds the die at 80.5 °C and every DRAM watt adds 60 °C. The implied
    /// crossover power is ~75 mW — between the 64 ms power draw of a smart
    /// stack and that of a CBR one, so the refresh policy decides which side
    /// of the datasheet threshold the die lands on.
    pub fn stacked_default() -> Self {
        ThermalModel {
            base_c: 80.5,
            r_c_per_w: 60.0,
        }
    }

    /// Die temperature for a DRAM power draw.
    pub fn temperature_c(&self, power_w: f64) -> f64 {
        self.base_c + self.r_c_per_w * power_w
    }

    /// The refresh interval the datasheet mandates at `temperature_c`.
    pub fn required_retention(&self, temperature_c: f64) -> Duration {
        if temperature_c > THRESHOLD_C {
            Duration::from_ms(32)
        } else {
            Duration::from_ms(64)
        }
    }

    /// Iterates `retention → power → temperature → retention` to a fixed
    /// point (at most `max_iters`; the two-state interval space converges or
    /// oscillates, in which case the hotter, safe state is kept).
    ///
    /// `power_of` maps a retention interval to the module's average power in
    /// watts (typically by running a simulation).
    pub fn settle<F>(&self, mut power_of: F, max_iters: u32) -> ThermalOperatingPoint
    where
        F: FnMut(Duration) -> f64,
    {
        let mut retention = Duration::from_ms(64);
        let mut last = ThermalOperatingPoint {
            retention,
            temperature_c: self.base_c,
            power_w: 0.0,
            iterations: 0,
        };
        for i in 1..=max_iters {
            let power_w = power_of(retention);
            let temperature_c = self.temperature_c(power_w);
            let next = self.required_retention(temperature_c);
            last = ThermalOperatingPoint {
                retention,
                temperature_c,
                power_w,
                iterations: i,
            };
            if next == retention {
                return last;
            }
            if next < retention {
                retention = next;
            } else {
                // Cooling enough at 32 ms to qualify for 64 ms: accept the
                // slower rate only if it is self-consistent; otherwise stay
                // at the safe fast rate (prevents oscillation).
                let cool_power = power_of(next);
                if self.temperature_c(cool_power) <= THRESHOLD_C {
                    retention = next;
                } else {
                    return last;
                }
            }
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperature_is_affine_in_power() {
        let m = ThermalModel::stacked_default();
        assert_eq!(m.temperature_c(0.0), 80.5);
        assert!((m.temperature_c(0.1) - 86.5).abs() < 1e-9);
    }

    #[test]
    fn threshold_selects_interval() {
        let m = ThermalModel::stacked_default();
        assert_eq!(m.required_retention(84.9), Duration::from_ms(64));
        assert_eq!(m.required_retention(85.1), Duration::from_ms(32));
    }

    #[test]
    fn hot_module_settles_at_32ms() {
        let m = ThermalModel::stacked_default();
        // 90 mW at 64 ms, 110 mW at 32 ms: both above the ~75 mW crossover.
        let p = m.settle(
            |r| {
                if r == Duration::from_ms(64) {
                    0.090
                } else {
                    0.110
                }
            },
            5,
        );
        assert_eq!(p.retention, Duration::from_ms(32));
        assert!(p.temperature_c > THRESHOLD_C);
    }

    #[test]
    fn cool_module_settles_at_64ms() {
        let m = ThermalModel::stacked_default();
        let p = m.settle(|_| 0.055, 5);
        assert_eq!(p.retention, Duration::from_ms(64));
        assert!(p.temperature_c <= THRESHOLD_C);
        assert_eq!(p.iterations, 1);
    }

    #[test]
    fn oscillation_resolves_to_safe_fast_rate() {
        let m = ThermalModel::stacked_default();
        // Hot at 64 ms (forces 32 ms) but cool enough at 32 ms to qualify
        // for 64 ms again — the classic limit cycle. Must stay at 32 ms.
        let p = m.settle(
            |r| {
                if r == Duration::from_ms(64) {
                    0.090
                } else {
                    0.060
                }
            },
            8,
        );
        assert_eq!(p.retention, Duration::from_ms(32));
    }
}
