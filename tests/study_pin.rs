//! Every study's report pinned through the library: one test per row of
//! `smart_refresh::study::STUDIES`, each running the study, requiring its
//! claim to hold and its report digest to equal the row's pin.
//!
//! Two kinds of row are left to `smart-refresh study all`, which CI runs
//! in release, plain and under the protocol sanitizer:
//! `abl_counter_power` (a 2 GB idle-OS run that takes minutes in a debug
//! build), and the six campaigns, whose rendered reports
//! `crates/sim/tests/*` already pin.

use smart_refresh::study::{find, report_digest, STUDIES};

/// Rows checked only by `smart-refresh study all`.
const RELEASE_ONLY: [&str; 7] = [
    "abl_counter_power",
    "faults",
    "scrub",
    "coschedule",
    "powerdown",
    "rfm",
    "darp",
];

macro_rules! pinned {
    ($($name:ident),* $(,)?) => {
        /// Every row this file checks.
        const CHECKED: &[&str] = &[$(stringify!($name)),*];
        $(
            #[test]
            fn $name() {
                let study = find(stringify!($name)).expect("a study row");
                let (report, held) = (study.run)(2).expect("study runs");
                assert!(held, "{} failed: {}\n{report}", study.name, study.claim);
                let digest = report_digest(&report);
                assert_eq!(digest, study.pin, "report digest {digest:#018x}\n{report}");
            }
        )*
    };
}

pinned!(
    fig_tables,
    fig01_motivation,
    fig03_stagger,
    fig03_walk,
    fig04_correctness,
    abl_counter_width,
    abl_segments,
    abl_stagger_burstiness,
    abl_baseline_energy,
    abl_idle_os,
    abl_page_policy,
    abl_retention_aware,
    abl_edram,
    abl_32mb_stack,
    abl_thermal_feedback,
    abl_closed_loop,
    abl_powerdown,
    abl_phase_hysteresis,
    abl_multichannel,
    abl_coschedule,
    abl_rfm,
);

#[test]
fn every_row_is_checked_here_or_in_release() {
    for study in &STUDIES {
        assert!(
            CHECKED.contains(&study.name) != RELEASE_ONLY.contains(&study.name),
            "{} must be checked exactly once",
            study.name
        );
    }
    assert_eq!(CHECKED.len() + RELEASE_ONLY.len(), STUDIES.len());
}
