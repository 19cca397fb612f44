//! Bit-identity pin for the resilience path of the fleet grid.
//!
//! The `dist` cells run SECDED with a covering patrol scrub, the hammer
//! fault channel and the standard RFM defense on top of the refresh
//! policy, so their run digests move if the scrubber's deadline-order
//! victim, the hammer pressure bookkeeping, the flip draws or the RFM
//! victim refreshes change in any way. The grid is the one the repository
//! benchmark's `fleet` workload runs for seed 1 (`scale_bits = 4.0`),
//! restricted to the 8 `mini` × `dist` cells. `digest_run` does not fold
//! in the SECDED outcome counts, so each cell also pins its corrected and
//! uncorrectable error counts, which move with every hammer flip that
//! escapes the defense. The pinned values were recorded before the dense
//! pressure table and the packed-key deadline tree and must never move
//! without an intended behaviour change.

use smart_refresh::orchestrator::{FaultTag, GridSpec, ModuleKind, PolicyTag};
use smart_refresh::sim::digest_run;

/// `(digest_run, corrected errors, uncorrectable errors)` of each cell, in
/// grid order (workload, then policy, then seed).
const PINNED: [(u64, u64, u64); 8] = [
    (0xfd72_fae2_a41b_b396, 0, 0),
    (0xeac8_c9e3_8bae_0090, 0, 0),
    (0xf142_8d8d_c6fe_338b, 0, 0),
    (0xdc73_ddeb_6fc2_284c, 0, 0),
    (0xce0b_d5cb_33fb_3511, 0, 0),
    (0xc680_9cde_24d8_4ef8, 0, 0),
    (0x6068_97a5_3da8_d7a8, 0, 0),
    (0x46ed_57e4_9c34_057c, 0, 0),
];

#[test]
fn mini_dist_cells_are_pinned() {
    let grid = GridSpec {
        workloads: vec!["gcc".into(), "radix".into()],
        modules: vec![ModuleKind::Mini],
        policies: vec![PolicyTag::Cbr, PolicyTag::Smart],
        faults: vec![FaultTag::Disturbance],
        seeds: vec![1, 2],
        scale_bits: 4.0f64.to_bits(),
    };
    assert_eq!(grid.cell_count(), PINNED.len() as u64);
    let got: Vec<(u64, u64, u64)> = (0..grid.cell_count())
        .map(|i| {
            let r = grid.run_cell(i).expect("dist cell runs");
            assert!(r.integrity_ok, "cell {i}");
            (digest_run(&r), r.ctrl.ce_corrected, r.ctrl.ue_detected)
        })
        .collect();
    let shown: Vec<String> = got
        .iter()
        .map(|(d, ce, ue)| format!("({d:#018x}, {ce}, {ue})"))
        .collect();
    assert_eq!(got, PINNED, "dist cells {shown:?}");
}
