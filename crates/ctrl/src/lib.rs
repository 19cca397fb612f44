//! Memory controller for the Smart Refresh reproduction.
//!
//! Binds a [`smartrefresh_dram::DramDevice`] to a
//! [`smartrefresh_core::RefreshPolicy`], implementing the open-page
//! scheduling of the paper's Table 1 configuration and the refresh/access
//! arbitration whose latency interaction Fig 18 measures.
//!
//! ```
//! use smartrefresh_core::{SmartRefresh, SmartRefreshConfig};
//! use smartrefresh_ctrl::{MemTransaction, MemoryController};
//! use smartrefresh_dram::{DramDevice, Geometry, TimingParams};
//! use smartrefresh_dram::time::{Duration, Instant};
//!
//! let g = Geometry::new(1, 4, 64, 16, 64);
//! let t = TimingParams::ddr2_667();
//! let cfg = SmartRefreshConfig { hysteresis: None, ..Default::default() };
//! let mut mc = MemoryController::new(
//!     DramDevice::new(g, t),
//!     SmartRefresh::new(g, t.retention, cfg),
//! );
//! mc.access(MemTransaction::read(4096, Instant::ZERO))?;
//! mc.advance_to(Instant::ZERO + Duration::from_ms(64))?;
//! assert!(mc.device().check_integrity(mc.now()).is_ok());
//! # Ok::<(), smartrefresh_ctrl::SimError>(())
//! ```

pub mod controller;
pub mod darp;
pub mod ecc;
pub mod error;
pub mod rfm;
pub mod scrub;
pub mod stats;
pub mod transaction;
pub mod watchdog;

pub use controller::{AccessResult, MemoryController, PagePolicy};
pub use darp::{BurstTracker, DarpConfig, DarpEngine, DarpStats};
pub use ecc::EccConfig;
pub use error::SimError;
pub use rfm::{RfmConfig, RfmEngine, RfmEngineStats, RfmLevel};
pub use scrub::{PatrolScrubber, ScrubConfig};
pub use stats::{ControllerStats, RowBufferOutcome};
pub use transaction::MemTransaction;
pub use watchdog::{RetentionWatchdog, WatchdogConfig, WatchdogViolation};
