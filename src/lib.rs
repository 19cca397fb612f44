//! # smart-refresh
//!
//! A from-scratch Rust reproduction of **"Smart Refresh: An Enhanced Memory
//! Controller Design for Reducing Energy in Conventional and 3D Die-Stacked
//! DRAMs"** (Ghosh & Lee, MICRO 2007).
//!
//! Smart Refresh observes that any DRAM row recently read, written or closed
//! has just had its charge restored, so its upcoming periodic refresh is
//! redundant. A per-row time-out counter array in the memory controller
//! tracks this and eliminates the redundant refreshes — up to 86% of all
//! refresh operations on the paper's workloads.
//!
//! This umbrella crate re-exports the workspace layers:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`dram`] | `smartrefresh-dram` | DDR2 device model, timing, retention checking, Table 1–2 configs |
//! | [`energy`] | `smartrefresh-energy` | DRAM power, counter-SRAM and Table 3 bus-energy models |
//! | [`core`] | `smartrefresh-core` | the technique: counters, staggering, pending queue, hysteresis, baselines |
//! | [`ctrl`] | `smartrefresh-ctrl` | open-page memory controller with refresh arbitration, patrol scrub & retention watchdog |
//! | [`ecc`] | `smartrefresh-ecc` | (72,64) SECDED Hamming code and per-row error state |
//! | [`faults`] | `smartrefresh-faults` | seeded fault injector: weak cells, bit flips, thermal derating, lost refreshes |
//! | [`cache`] | `smartrefresh-cache` | L2 and the 3D die-stacked DRAM L3 cache |
//! | [`cpu`] | `smartrefresh-cpu` | closed-loop in-order core with L1/L2 (the Simics+Ruby stand-in) |
//! | [`workloads`] | `smartrefresh-workloads` | calibrated benchmark models (SPLASH-2 / SPECint2000 / BioBench) |
//! | [`sim`] | `smartrefresh-sim` | experiment runner and the Fig 6–18 regeneration harness |
//! | [`orchestrator`] | `smartrefresh-orchestrator` | crash-safe fleet campaigns: checkpoint/resume, supervised workers, replay verification, chaos mode |
//!
//! # Quick start
//!
//! ```
//! use smart_refresh::core::{RefreshPolicy, SmartRefresh, SmartRefreshConfig};
//! use smart_refresh::ctrl::{MemTransaction, MemoryController};
//! use smart_refresh::dram::time::{Duration, Instant};
//! use smart_refresh::dram::{DramDevice, Geometry, TimingParams};
//!
//! // A small module: 1 rank x 4 banks x 256 rows.
//! let g = Geometry::new(1, 4, 256, 32, 64);
//! let t = TimingParams::ddr2_667();
//! let policy = SmartRefresh::new(g, t.retention, SmartRefreshConfig::paper_defaults());
//! let mut mc = MemoryController::new(DramDevice::new(g, t), policy);
//!
//! // Issue an access, advance a full refresh interval, verify integrity.
//! mc.access(MemTransaction::read(0x4000, Instant::ZERO))?;
//! mc.advance_to(Instant::ZERO + Duration::from_ms(64))?;
//! assert!(mc.device().check_integrity(mc.now()).is_ok());
//! # Ok::<(), smart_refresh::ctrl::SimError>(())
//! ```
//!
//! [`study`] holds every named study beyond Figs 6–18 — the paper's
//! tables and Figs 1–4, the §4 ablations, the extensions and the
//! resilience campaigns — each pinned by a digest of its report; the
//! `smart-refresh` binary runs them (`study <name|all>`) and regenerates
//! the figures. See `examples/` for API walkthroughs.

pub use smartrefresh_cache as cache;
pub use smartrefresh_core as core;
pub use smartrefresh_cpu as cpu;
pub use smartrefresh_ctrl as ctrl;
pub use smartrefresh_dram as dram;
pub use smartrefresh_ecc as ecc;
pub use smartrefresh_energy as energy;
pub use smartrefresh_faults as faults;
pub use smartrefresh_orchestrator as orchestrator;
pub use smartrefresh_sim as sim;
pub use smartrefresh_workloads as workloads;

pub mod study;
