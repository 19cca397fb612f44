//! Bit-identity pin for the conventional DDR2 corpora (Figs 6–11).
//!
//! Every conventional run pushes its access stream straight into the
//! memory controller, so this digest moves if demand arbitration, the
//! device's command timing, the idle-page closer, the policy's counter
//! resets or the retention bookkeeping change in any way. The slice covers
//! both Table 1 modules, the CBR baseline, Smart Refresh and Smart Refresh
//! on a retention profile (§8), under open- and closed-page management.
//! The pinned value was recorded before the demand path carried resolved
//! bank and row indices and must never move without an intended
//! behaviour change.

use smart_refresh::core::SmartRefreshConfig;
use smart_refresh::ctrl::PagePolicy;
use smart_refresh::dram::configs::{conventional_2gb, conventional_4gb};
use smart_refresh::dram::time::Duration;
use smart_refresh::energy::DramPowerParams;
use smart_refresh::sim::{digest_run, run_experiment, Digest64, ExperimentConfig, PolicyKind};
use smart_refresh::workloads::find;

/// Tiny time scale: a few ms of simulated time per run, enough for the
/// Smart counters to walk and the idle-page closer to fire.
const SCALE: f64 = 0.02;

const ENTRIES: [&str; 2] = ["fasta", "radix"];

/// Folds `digest_run` of every (module, entry, page policy, policy) run
/// into one value.
fn conventional_slice_digest() -> u64 {
    let smart = SmartRefreshConfig::paper_defaults();
    let policies = [
        PolicyKind::CbrDistributed,
        PolicyKind::Smart(smart),
        PolicyKind::SmartRetentionAware {
            cfg: smart,
            profile_seed: 0x5eed,
        },
    ];
    let mut d = Digest64::new();
    for four_gb in [false, true] {
        for name in ENTRIES {
            let entry = find(name).expect("catalog entry");
            let (module, power, spec) = if four_gb {
                (
                    conventional_4gb(),
                    DramPowerParams::ddr2_4gb(),
                    entry.conventional_4gb(),
                )
            } else {
                (
                    conventional_2gb(),
                    DramPowerParams::ddr2_2gb(),
                    entry.conventional.clone(),
                )
            };
            for page_policy in [PagePolicy::Open, PagePolicy::Closed] {
                for policy in policies {
                    let mut cfg =
                        ExperimentConfig::conventional(module.clone(), power, policy).scaled(SCALE);
                    cfg.reference = Duration::from_ms(64);
                    cfg.page_policy = page_policy;
                    let r = run_experiment(&cfg, &spec).expect("conventional run");
                    assert!(r.integrity_ok, "{name} {page_policy:?} {}", r.policy);
                    d.update_u64(digest_run(&r));
                }
            }
        }
    }
    d.finish()
}

#[test]
fn conventional_slice_digest_is_pinned() {
    let got = conventional_slice_digest();
    assert_eq!(
        got, 0xe41e_bc0d_78ac_1fbe,
        "conventional slice digest {got:#018x}"
    );
}
