//! Opt-in gating for the shadow protocol sanitizer.
//!
//! The conformance CI job re-runs the campaigns and the quarter-scale
//! figure harness with `SMARTREFRESH_SANITIZE=1`; every harness entry
//! point in this crate consults [`sanitize_from_env`] when building its
//! devices and fails the run on any sanitizer violation. With the
//! variable unset the checker is never constructed, so ordinary runs pay
//! one `Option` branch per DRAM command.

use smartrefresh_dram::{DramDevice, Geometry, TimingParams};

/// True when `SMARTREFRESH_SANITIZE` is set to `1`, `true`, `yes`, or
/// `on` (case-insensitive).
pub fn sanitize_from_env() -> bool {
    std::env::var("SMARTREFRESH_SANITIZE") // check:allow(deterministic)
        .is_ok_and(|v| matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "yes" | "on"))
}

/// A fresh device, with the protocol sanitizer enabled when
/// [`sanitize_from_env`] asks for it.
pub(crate) fn device(geometry: Geometry, timing: TimingParams) -> DramDevice {
    let mut device = DramDevice::new(geometry, timing);
    if sanitize_from_env() {
        device.enable_protocol_checker();
    }
    device
}
