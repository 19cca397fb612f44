//! Event-driven system simulator and experiment harness.
//!
//! Wires the substrate crates together — workload generators → (optionally
//! the 3D stacked cache) → memory controller + refresh policy → DRAM device
//! → energy models — and regenerates every table and figure of the paper's
//! evaluation:
//!
//! * [`experiment::run_experiment`] — one workload × one module × one policy;
//! * [`figures::Evaluation`] — the cached four-corpus sweep behind
//!   Figs 6–18, with the paper's reference values embedded for comparison;
//! * [`kernel`] — the single-channel run path (build, background stream,
//!   drain to the horizon with the sanitizer's verdict) behind the fault,
//!   scrub, power-down and rowhammer campaigns;
//! * [`faults::run_campaign`] — the fault-injection campaign that attacks
//!   the §4.3/§5 guarantees and checks detection + graceful degradation;
//! * [`rfm::run_rfm_campaign`] — the rowhammer attack-vs-defense campaign:
//!   disturbance faults versus the activation-counter RFM engine, with
//!   graceful degradation under budget exhaustion;
//! * [`scrub::run_scrub_campaign`] — the recovery campaign: SECDED ECC,
//!   patrol scrubbing, and the retention watchdog correcting what the
//!   fault campaign only detects;
//! * [`powerdown::run_powerdown_campaign`] — the counter power-state
//!   campaign: the three `CounterPowerPolicy` options compared on an
//!   idle-heavy workload, plus the idle-fraction sweep;
//! * [`scheduler::MaintenanceScheduler`] — the system-level maintenance
//!   scheduler co-ordinating scrubs and refreshes across the channels of a
//!   [`system::MultiChannelSystem`], with a CE-rate-adaptive scrub
//!   interval; evaluated by [`coschedule::run_coschedule_campaign_threaded`];
//! * [`hotchannel::run_hot_channel_campaign_threaded`] — the refresh–access
//!   parallelism campaign: DARP deferral, demand-aware slot skewing, and
//!   SARP subarray overlap versus the static baseline on a channel whose
//!   demand pins a hot page open on every bank;
//! * [`digest`] — deterministic FNV-1a state digests over run results,
//!   the replay-verification currency of the fleet orchestrator;
//! * [`report`] — text tables printed by the `smart-refresh` CLI's
//!   `figures`, `run` and `study` verbs.
//!
//! ```no_run
//! use smartrefresh_sim::figures::{Evaluation, FigureId};
//! use smartrefresh_sim::report::render_figure;
//!
//! let mut eval = Evaluation::with_scale(0.25); // quick look
//! let fig6 = eval.figure(FigureId::Fig06)?;
//! println!("{}", render_figure(&fig6));
//! # Ok::<(), smartrefresh_ctrl::SimError>(())
//! ```

pub mod coschedule;
pub mod digest;
pub mod experiment;
pub mod faults;
pub mod figures;
pub mod hotchannel;
pub mod kernel;
pub mod parallel;
pub mod powerdown;
pub mod report;
pub mod rfm;
pub mod sanitize;
pub mod scheduler;
pub mod scrub;
pub mod system;
pub mod thermal;

pub use coschedule::{
    run_coschedule_campaign_threaded, run_coschedule_setup, CoscheduleCampaignResult,
    CoscheduleConfig, CoscheduleOutcome, Load, Setup,
};
pub use digest::{digest_energy, digest_run, Digest64};
pub use experiment::{
    run_experiment, DisturbanceConfig, ExperimentConfig, PolicyKind, RunResult, Topology,
};
pub use faults::{
    run_campaign, run_scenario, standard_campaign, CampaignConfig, CampaignResult, Expectation,
    FaultScenario, ScenarioOutcome,
};
pub use figures::{BenchPair, CorpusId, Evaluation, Figure, FigureId, FigureRow};
pub use hotchannel::{
    run_hot_channel_campaign_threaded, run_hot_channel_setup, HotChannelCampaignResult,
    HotChannelConfig, HotChannelOutcome, HotSetup,
};
pub use parallel::{default_threads, par_map, par_map_mut, resolve_threads, MAX_DEFAULT_THREADS};
pub use powerdown::{
    idle_sweep, run_powerdown_campaign, run_powerdown_scenario, IdleSweepPoint,
    PowerdownCampaignResult, PowerdownOutcome,
};
pub use rfm::{
    rfm_threshold_sweep, run_rfm_campaign, run_rfm_scenario, standard_rfm_campaign,
    RfmCampaignConfig, RfmCampaignResult, RfmOutcome, RfmScenario,
};
pub use scheduler::{AdaptiveScrubConfig, MaintenanceScheduler, SchedulerConfig, SchedulerStats};
pub use scrub::{
    run_scrub_campaign, run_scrub_scenario, scrub_savings, standard_scrub_campaign,
    ScrubCampaignResult, ScrubExpectation, ScrubOutcome, ScrubSavings, ScrubScenario,
};
pub use system::MultiChannelSystem;
pub use thermal::{ThermalModel, ThermalOperatingPoint};
