//! DDR2-style DRAM device substrate for the Smart Refresh reproduction.
//!
//! This crate rebuilds, from scratch, the slice of a DRAM simulator (the
//! paper used DRAMsim) that the Smart Refresh technique interacts with:
//!
//! * [`geometry::Geometry`] — module shape and physical address mapping;
//! * [`timing::TimingParams`] — DDR2-667 timing incl. the 70 ns per-row
//!   refresh cycle and the 64/32 ms retention deadline;
//! * [`bank::Bank`] — per-bank open-page state machines;
//! * [`device::DramDevice`] — the command interface (ACTIVATE / READ / WRITE /
//!   PRECHARGE / CBR refresh / RAS-only refresh) with protocol enforcement;
//! * [`retention::RetentionTracker`] — *checked* data integrity: any refresh
//!   policy that lets a row decay is caught, not silently tolerated;
//! * [`deadline::DeadlineIndex`] — the tournament tree that answers "which
//!   row's deadline comes first?" for the patrol and the scheduler;
//! * [`configs`] — the exact module configurations of the paper's Tables 1–2.
//!
//! # Quick start
//!
//! ```
//! use smartrefresh_dram::configs::conventional_2gb;
//! use smartrefresh_dram::{DramDevice, RowAddr};
//! use smartrefresh_dram::time::Instant;
//!
//! let cfg = conventional_2gb();
//! assert_eq!(cfg.baseline_refreshes_per_sec(), 2_048_000.0);
//!
//! let mut dev = DramDevice::new(cfg.geometry, cfg.timing);
//! let row = RowAddr { rank: 0, bank: 0, row: 42 };
//! let out = dev.refresh_ras_only(row, Instant::ZERO)?;
//! assert_eq!(out.bank_ready_at.as_ps(), 70_000); // tRFC = 70 ns
//! # Ok::<(), smartrefresh_dram::DramError>(())
//! ```

pub mod bank;
pub mod configs;
pub mod deadline;
pub mod device;
pub mod error;
pub mod geometry;
pub mod profile;
pub mod protocol;
pub mod rank;
pub mod retention;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timing;

pub use configs::ModuleConfig;
pub use device::{DramDevice, OpOutcome};
pub use error::DramError;
pub use geometry::{DecodedAddr, Geometry, RowAddr};
pub use profile::RetentionProfile;
pub use protocol::{ProtocolChecker, RefreshClass, RuleId, SanitizerReport, Violation};
pub use retention::RetentionTracker;
pub use rng::Rng;
pub use stats::OpStats;
pub use timing::TimingParams;
