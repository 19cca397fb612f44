//! Bit-identity pin for the 3D die-stacked corpora (Figs 12–17).
//!
//! Every stacked run pushes its L2-miss stream through the 64 MB
//! direct-mapped L3 model, so this digest moves if the cache's hit/miss,
//! fill or write-back behaviour changes in any way — including a change to
//! its internal line layout. The pinned value was recorded before the
//! cache's line-word rewrite and must never move without an intended
//! behaviour change.

use smart_refresh::core::SmartRefreshConfig;
use smart_refresh::dram::configs::stacked_3d_64mb;
use smart_refresh::dram::time::Duration;
use smart_refresh::energy::DramPowerParams;
use smart_refresh::sim::{digest_run, run_experiment, Digest64, ExperimentConfig, PolicyKind};
use smart_refresh::workloads::find;

/// Tiny time scale: a few ms of simulated time per run, enough for the
/// cold L3 to fill, conflict and write back.
const SCALE: f64 = 0.05;

const ENTRIES: [&str; 4] = ["fasta", "mummer", "radix", "gcc"];

/// Folds `digest_run` of the CBR and Smart runs of every entry, at 64 ms
/// and at 32 ms retention, into one value.
fn stacked_corpus_digest() -> u64 {
    let mut d = Digest64::new();
    for retention_ms in [64, 32] {
        for name in ENTRIES {
            let spec = find(name).expect("catalog entry").stacked;
            let mut base = ExperimentConfig::stacked(
                stacked_3d_64mb(Duration::from_ms(retention_ms)),
                DramPowerParams::stacked_3d_64mb(),
                PolicyKind::CbrDistributed,
            )
            .scaled(SCALE);
            base.reference = Duration::from_ms(64);
            let mut smart = base.clone();
            smart.policy = PolicyKind::Smart(SmartRefreshConfig::paper_defaults());
            for cfg in [&base, &smart] {
                let r = run_experiment(cfg, &spec).expect("stacked run");
                assert!(r.integrity_ok, "{name} at {retention_ms} ms");
                d.update_u64(digest_run(&r));
            }
        }
    }
    d.finish()
}

#[test]
fn stacked_corpus_digest_is_pinned() {
    let got = stacked_corpus_digest();
    assert_eq!(
        got, 0x5750_4fe6_93bc_863a,
        "stacked corpus digest {got:#018x}"
    );
}
