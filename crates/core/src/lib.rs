//! The Smart Refresh technique (Ghosh & Lee, MICRO 2007).
//!
//! Smart Refresh eliminates unnecessary DRAM refreshes by observing that any
//! row recently read, written, or closed has just had its charge restored
//! and does not need the upcoming periodic refresh. The memory controller
//! keeps one small time-out counter per `(rank, bank, row)`:
//!
//! * an access **resets** the row's counter to its maximum ([`counter`]);
//! * a staggered walk **decrements** each counter exactly once per
//!   `retention / 2^bits` ([`stagger`], avoiding burst-refresh pile-ups);
//! * a counter found at **zero** — a row untouched for a whole retention
//!   interval — generates a RAS-only refresh through a bounded pending
//!   queue ([`queue`]);
//! * an activity monitor disables the machinery under cache-resident
//!   workloads and re-enables it when DRAM traffic returns ([`hysteresis`]).
//!
//! [`smart::SmartRefresh`] composes these into a [`policy::RefreshPolicy`];
//! [`baselines`] provides the CBR/burst/RAS-only reference policies the
//! paper compares against.
//!
//! # Example: counting skipped refreshes
//!
//! ```
//! use smartrefresh_core::{RefreshPolicy, SmartRefresh, SmartRefreshConfig};
//! use smartrefresh_dram::{Geometry, RowAddr};
//! use smartrefresh_dram::time::{Duration, Instant};
//!
//! let g = Geometry::new(1, 4, 64, 16, 64);
//! let cfg = SmartRefreshConfig { hysteresis: None, ..Default::default() };
//! let mut policy = SmartRefresh::new(g, Duration::from_ms(64), cfg);
//!
//! // Touch one row continuously; advance one interval; count refreshes.
//! let hot = RowAddr { rank: 0, bank: 0, row: 0 };
//! let mut refreshes = 0;
//! for step in 0..64u64 {
//!     let now = Instant::ZERO + Duration::from_ms(step);
//!     policy.on_row_opened(hot, now);
//!     policy.advance(now);
//!     while policy.pop_pending().is_some() { refreshes += 1; }
//! }
//! // 256 rows total, one skipped: the hot row.
//! assert!(refreshes < 256);
//! ```

pub mod atomicio;
pub mod baselines;
pub mod counter;
pub mod counter_power;
pub mod hysteresis;
pub mod optimality;
pub mod policy;
pub mod queue;
pub mod retention_aware;
pub mod smart;
pub mod stagger;
pub mod sync;

pub use atomicio::write_atomic;
pub use baselines::{BurstRefresh, CbrDistributed, NoRefresh, RasOnlyDistributed};
pub use counter::CounterArray;
pub use counter_power::{CounterPowerConfig, CounterPowerPolicy};
pub use hysteresis::{ActivityMonitor, HysteresisConfig, PolicyMode};
pub use policy::{DegradationEvent, DegradeCause, RefreshAction, RefreshPolicy, SramTraffic};
pub use queue::{PendingRefresh, PendingRefreshQueue, QueueOverflow};
pub use retention_aware::RetentionAwareDistributed;
pub use smart::{SmartRefresh, SmartRefreshConfig, SmartRefreshStats};
pub use stagger::StaggerSchedule;
pub use sync::WorkCursor;
