//! Synthetic benchmark models for the Smart Refresh reproduction.
//!
//! The paper's evaluation drove DRAMsim with SPLASH-2, SPECint2000 and
//! BioBench traces captured under Simics/Solaris. Those traces are not
//! reproducible here, so each program is modelled as a calibrated
//! stochastic row-access process — see [`spec::WorkloadSpec`] for the
//! parameters and `DESIGN.md` for why this substitution preserves the
//! behaviour under study (the mechanism only observes the row-access
//! stream; calibration sets the *inputs*, the simulator computes all
//! *outputs*).
//!
//! ```
//! use smartrefresh_dram::configs::conventional_2gb;
//! use smartrefresh_workloads::{catalog, AccessGenerator};
//!
//! let cfg = conventional_2gb();
//! let gcc = &catalog()[17]; // or find("gcc")
//! let mut gen = AccessGenerator::new(
//!     &gcc.conventional, cfg.geometry, cfg.timing.retention, 0, 1);
//! assert!(gen.next().is_some());
//! ```

pub mod calibrate;
pub mod catalog;
pub mod generator;
pub mod hammer;
pub mod phased;
pub mod spec;
pub mod trace;

pub use catalog::{
    cache_resident, catalog, find, idle_os, BenchmarkEntry, FOUR_GB_COVERAGE_FACTOR,
};
pub use generator::{AccessGenerator, MergedGenerator, TraceEvent};
pub use hammer::{HammerGenerator, HammerPattern, HammerSpec};
pub use phased::PhasedGenerator;
pub use spec::{Suite, WorkloadSpec};
