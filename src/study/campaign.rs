//! The six resilience campaigns, each reported under the configuration
//! line it ran with.

use super::Report;
use crate::ctrl::SimError;
use crate::dram::ModuleConfig;
use crate::sim::report::{
    render_campaign, render_coschedule, render_hotchannel, render_powerdown_campaign, render_rfm,
    render_scrub_campaign,
};
use crate::sim::{
    run_campaign, run_coschedule_campaign_threaded, run_hot_channel_campaign_threaded,
    run_powerdown_campaign, run_rfm_campaign, run_scrub_campaign, CampaignConfig, CoscheduleConfig,
    HotChannelConfig, RfmCampaignConfig,
};

/// A campaign report: its configuration line, a blank line, the rendered
/// result.
fn report(header: String, rendered: String, held: bool) -> Result<Report, SimError> {
    Ok((format!("{header}\n\n{rendered}\n"), held))
}

fn single_channel_header(cfg: &CampaignConfig) -> String {
    format!(
        "module {} ({} rows, retention {}), horizon {}, one access per {}",
        cfg.module.name,
        cfg.module.geometry.total_rows(),
        cfg.module.timing.retention,
        cfg.horizon,
        cfg.access_gap,
    )
}

fn multi_channel_header(
    module: &ModuleConfig,
    channels: impl std::fmt::Display,
    epochs: impl std::fmt::Display,
) -> String {
    format!(
        "module {} ({channels} channels x {} rows, retention {}), {epochs} epochs",
        module.name,
        module.geometry.total_rows(),
        module.timing.retention,
    )
}

/// Every injected fault class is detected and degrades safely.
pub(super) fn faults(_threads: usize) -> Result<Report, SimError> {
    let cfg = CampaignConfig::quick(0xfa17);
    let r = run_campaign(&cfg)?;
    report(
        single_channel_header(&cfg),
        render_campaign(&r),
        r.all_hold(),
    )
}

/// Patrol scrub corrects or escalates every injected error.
pub(super) fn scrub(_threads: usize) -> Result<Report, SimError> {
    let cfg = CampaignConfig::quick(0x5c2b);
    let r = run_scrub_campaign(&cfg)?;
    report(
        single_channel_header(&cfg),
        render_scrub_campaign(&r),
        r.all_hold(),
    )
}

/// System-level scrub/refresh co-scheduling against per-channel autonomy.
pub(super) fn coschedule(threads: usize) -> Result<Report, SimError> {
    let cfg = CoscheduleConfig::quick(0xC05C);
    let r = run_coschedule_campaign_threaded(&cfg, threads)?;
    report(
        multi_channel_header(&cfg.module, cfg.channels, cfg.epochs),
        render_coschedule(&r),
        r.all_hold(),
    )
}

/// Counter power-state policies across CKE-low windows.
pub(super) fn powerdown(_threads: usize) -> Result<Report, SimError> {
    let cfg = CampaignConfig::quick(0x90da);
    let r = run_powerdown_campaign(&cfg)?;
    report(
        single_channel_header(&cfg),
        render_powerdown_campaign(&r),
        r.all_hold(),
    )
}

/// Rowhammer disturbance against the Refresh Management engine.
pub(super) fn rfm(_threads: usize) -> Result<Report, SimError> {
    let cfg = RfmCampaignConfig::quick(0xfa17);
    let r = run_rfm_campaign(&cfg)?;
    let header = format!(
        "module {} ({} rows, retention {}), horizon {}, scrub period {}",
        cfg.module.name,
        cfg.module.geometry.total_rows(),
        cfg.module.timing.retention,
        cfg.horizon,
        cfg.scrub_period,
    );
    report(header, render_rfm(&r), r.all_hold())
}

/// DARP/SARP against the static schedule on a hot channel.
pub(super) fn darp(threads: usize) -> Result<Report, SimError> {
    let cfg = HotChannelConfig::quick(0xDA59);
    let r = run_hot_channel_campaign_threaded(&cfg, threads)?;
    report(
        multi_channel_header(&cfg.module, cfg.channels, cfg.epochs),
        render_hotchannel(&r),
        r.darp_wins(),
    )
}
