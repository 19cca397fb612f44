//! Supervised execution of a fleet campaign.
//!
//! The supervisor advances the campaign in **epochs**. Each epoch it
//! (A) settles time-based state — stall countdowns, the deadline watchdog,
//! retry backoff expiry; (B) fans the ready cells out with
//! [`smartrefresh_sim::par_map`]: the calling thread is worker 0 and
//! spawns `workers - 1` scoped workers, all pulling from one shared
//! [`smartrefresh_core::sync::WorkCursor`] (work stealing: a slow shard
//! occupies one worker, never a whole static lane), each shard attempt
//! wrapped in `catch_unwind`, so a one-worker fleet spawns no thread;
//! (C) merges worker verdicts back into the checkpoint in cell order and
//! writes the checkpoint atomically. Because every transition in (A) and
//! (C) is a deterministic function of checkpointed state, and chaos
//! decisions are a pure function of `(seed, cell, attempt)`, killing the
//! process after any epoch and resuming reproduces the exact same
//! remaining schedule — the fleet digest of an interrupted-and-resumed
//! campaign is bit-identical to an uninterrupted one.
//!
//! Epochs, not wall-clock, are also the watchdog's currency: a shard whose
//! stall outlives [`OrchestratorConfig::deadline_epochs`] is killed and
//! retried. This keeps the whole harness inside the workspace's
//! determinism lint (no `std::time`) and makes watchdog behaviour itself
//! replayable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use smartrefresh_ctrl::SimError;
use smartrefresh_dram::rng::Rng;

use crate::chaos::{decide, install_quiet_chaos_hook, ChaosAction, ChaosCrash};
use crate::checkpoint::{CellOutcome, CellState, FleetCheckpoint, SkipCause};

/// Supervision parameters. All budgets are in epochs, so two runs of the
/// same campaign agree about every deadline regardless of host speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrchestratorConfig {
    /// Worker threads per epoch.
    pub workers: usize,
    /// Maximum shard launches per epoch (checkpoint granularity knob:
    /// smaller = more frequent durable progress).
    pub cells_per_epoch: usize,
    /// Total attempts per cell before it is skipped-and-reported.
    pub max_attempts: u32,
    /// Cap on the exponential retry backoff, in epochs.
    pub backoff_cap_epochs: u64,
    /// A stall at least this many epochs long is a watchdog kill.
    pub deadline_epochs: u32,
    /// Stop after this many epochs *of this invocation* (crash simulation
    /// for the kill-and-resume tests and the CI crash-recovery job).
    pub halt_after_epochs: Option<u64>,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            workers: 4,
            cells_per_epoch: 8,
            max_attempts: 3,
            backoff_cap_epochs: 8,
            deadline_epochs: 4,
            halt_after_epochs: None,
        }
    }
}

impl OrchestratorConfig {
    fn validate(&self) -> Result<(), SimError> {
        if self.workers == 0 || self.cells_per_epoch == 0 {
            return Err(SimError::Config {
                what: "orchestrator needs at least one worker and one cell per epoch",
            });
        }
        if self.max_attempts == 0 {
            return Err(SimError::Config {
                what: "orchestrator needs at least one attempt per cell",
            });
        }
        if self.deadline_epochs == 0 {
            return Err(SimError::Config {
                what: "orchestrator deadline must be at least one epoch",
            });
        }
        Ok(())
    }
}

/// What one launched shard attempt came back with.
enum AttemptVerdict {
    /// Ran to completion.
    Completed(CellOutcome),
    /// Chaos stalled the worker for this many epochs.
    Stalled(u32),
    /// The attempt panicked (injected or real) and was absorbed.
    Panicked,
    /// The simulator returned an error.
    SimFailed,
}

struct WorkItem {
    index: u64,
    /// Attempts consumed before this launch (0-based attempt number).
    prior_attempts: u32,
    action: ChaosAction,
}

/// Runs the campaign in `ckpt` until every cell is terminal, checkpointing
/// into `dir` after every epoch, invoking `on_epoch` after each save.
///
/// Returns `true` when the campaign finished, `false` when it halted early
/// because of [`OrchestratorConfig::halt_after_epochs`] (the simulated
/// crash) — in that case the checkpoint on disk is a valid resume point.
///
/// # Errors
///
/// [`SimError::Config`] for invalid configuration or an unwritable
/// campaign directory. Shard failures are absorbed and retried, never
/// propagated.
pub fn run_fleet(
    ckpt: &mut FleetCheckpoint,
    cfg: &OrchestratorConfig,
    dir: Option<&Path>,
    mut on_epoch: impl FnMut(&FleetCheckpoint),
) -> Result<bool, SimError> {
    cfg.validate()?;
    ckpt.grid.validate()?;
    if ckpt.chaos.is_some() {
        install_quiet_chaos_hook();
    }
    let mut epochs_this_invocation = 0u64;
    while !ckpt.finished() {
        let epoch = ckpt.epoch;

        // Phase A: settle stalls, fire the watchdog, collect ready cells.
        let mut ready: Vec<WorkItem> = Vec::new();
        for index in 0..ckpt.cells.len() {
            let (remaining, total, attempts) = match &ckpt.cells[index] {
                CellState::Stalled {
                    remaining,
                    total,
                    attempts,
                } => (*remaining, *total, *attempts),
                _ => continue,
            };
            if total >= cfg.deadline_epochs {
                // The stall can never finish inside the budget; kill it
                // now rather than waiting it out.
                ckpt.stats.deadline_misses += 1;
                ckpt.cells[index] = fail_attempt(cfg, epoch, attempts, SkipCause::DeadlineExceeded);
                if matches!(ckpt.cells[index], CellState::Skipped { .. }) {
                    ckpt.stats.skips += 1;
                }
            } else if remaining <= 1 {
                // Stall served in full; the same attempt resumes clean
                // (no fresh chaos draw) next epoch.
                ckpt.cells[index] = CellState::Pending {
                    available_from: epoch,
                    attempts,
                    chaos_done: true,
                };
            } else {
                ckpt.cells[index] = CellState::Stalled {
                    remaining: remaining - 1,
                    total,
                    attempts,
                };
            }
        }
        for index in 0..ckpt.cells.len() {
            if ready.len() >= cfg.cells_per_epoch {
                break;
            }
            let (available_from, attempts, chaos_done) = match &ckpt.cells[index] {
                CellState::Pending {
                    available_from,
                    attempts,
                    chaos_done,
                } => (*available_from, *attempts, *chaos_done),
                _ => continue,
            };
            if available_from > epoch {
                continue;
            }
            let action = match (&ckpt.chaos, chaos_done) {
                (Some(chaos), false) => decide(chaos, index as u64, attempts),
                _ => ChaosAction::None,
            };
            ckpt.stats.attempts += 1;
            if attempts > 0 && !chaos_done {
                ckpt.stats.retries += 1;
            }
            ready.push(WorkItem {
                index: index as u64,
                prior_attempts: attempts,
                action,
            });
        }

        // Phase B: fan the ready cells out across supervised workers, the
        // calling thread being worker 0. The workers pull from a shared
        // atomic cursor (work stealing), so a shard that stalls or
        // crashes ties up one worker while the rest drain the remaining
        // cells — no cell waits behind a slow one it merely shared a
        // static lane with. `par_map` returns the verdicts in `ready`'s
        // order, which is cell order.
        let grid = &ckpt.grid;
        let verdicts =
            smartrefresh_sim::par_map(cfg.workers, &ready, |_, item| run_attempt(grid, item));

        // Phase C: merge verdicts in cell order — the order is part of the
        // determinism contract, independent of worker interleaving.
        for (index, prior_attempts, verdict) in verdicts {
            let i = index as usize;
            match verdict {
                AttemptVerdict::Completed(outcome) => {
                    ckpt.cells[i] = CellState::Done(outcome);
                }
                AttemptVerdict::Stalled(n) => {
                    ckpt.stats.stalls += 1;
                    ckpt.cells[i] = CellState::Stalled {
                        remaining: n,
                        total: n,
                        attempts: prior_attempts + 1,
                    };
                }
                AttemptVerdict::Panicked => {
                    ckpt.stats.panics += 1;
                    ckpt.cells[i] =
                        fail_attempt(cfg, epoch, prior_attempts + 1, SkipCause::Panicked);
                    if matches!(ckpt.cells[i], CellState::Skipped { .. }) {
                        ckpt.stats.skips += 1;
                    }
                }
                AttemptVerdict::SimFailed => {
                    ckpt.stats.sim_failures += 1;
                    ckpt.cells[i] =
                        fail_attempt(cfg, epoch, prior_attempts + 1, SkipCause::SimFailed);
                    if matches!(ckpt.cells[i], CellState::Skipped { .. }) {
                        ckpt.stats.skips += 1;
                    }
                }
            }
        }

        ckpt.epoch += 1;
        ckpt.stats.epochs += 1;
        if let Some(dir) = dir {
            ckpt.save(dir)?;
        }
        on_epoch(ckpt);
        epochs_this_invocation += 1;
        if let Some(halt) = cfg.halt_after_epochs {
            if epochs_this_invocation >= halt && !ckpt.finished() {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// One supervised shard launch: chaos first, then the simulator, the whole
/// thing inside `catch_unwind` so neither injected nor genuine panics can
/// take the fleet down.
fn run_attempt(grid: &crate::grid::GridSpec, item: &WorkItem) -> (u64, u32, AttemptVerdict) {
    if let ChaosAction::Stall(n) = item.action {
        return (item.index, item.prior_attempts, AttemptVerdict::Stalled(n));
    }
    let index = item.index;
    let attempt = item.prior_attempts;
    let crash = item.action == ChaosAction::Crash;
    let result = catch_unwind(AssertUnwindSafe(|| {
        if crash {
            std::panic::panic_any(ChaosCrash {
                cell: index,
                attempt,
            });
        }
        grid.run_cell(index)
    }));
    let verdict = match result {
        Ok(Ok(run)) => AttemptVerdict::Completed(CellOutcome::from_run(&run, attempt + 1)),
        Ok(Err(_)) => AttemptVerdict::SimFailed,
        Err(_) => AttemptVerdict::Panicked,
    };
    (index, attempt, verdict)
}

/// Retry-or-skip decision after a failed attempt. `attempts` counts the
/// failed launch. Backoff is capped-exponential in epochs:
/// 1, 2, 4, … up to [`OrchestratorConfig::backoff_cap_epochs`].
fn fail_attempt(
    cfg: &OrchestratorConfig,
    epoch: u64,
    attempts: u32,
    cause: SkipCause,
) -> CellState {
    if attempts >= cfg.max_attempts {
        return CellState::Skipped { cause, attempts };
    }
    let exponent = attempts.saturating_sub(1).min(62);
    let backoff = (1u64 << exponent).min(cfg.backoff_cap_epochs);
    CellState::Pending {
        available_from: epoch + 1 + backoff,
        attempts,
        chaos_done: false,
    }
}

/// Outcome of replay-verifying one sampled cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifiedCell {
    /// Cell index that was re-executed.
    pub index: u64,
    /// Digest recorded in the checkpoint.
    pub recorded: u64,
    /// Digest of the fresh re-execution.
    pub fresh: u64,
}

impl VerifiedCell {
    /// True when the replay reproduced the recorded state bit-exactly.
    pub fn matches(&self) -> bool {
        self.recorded == self.fresh
    }
}

/// Replay verification: re-executes up to `samples` completed cells
/// (chosen by a seeded draw, without replacement) and compares state
/// digests against the checkpoint.
///
/// # Errors
///
/// Propagates simulator errors from the re-execution; an error here means
/// the checkpoint recorded a cell the simulator can no longer run, which
/// is itself a verification failure worth surfacing loudly.
pub fn verify_fleet(
    ckpt: &FleetCheckpoint,
    samples: usize,
    sample_seed: u64,
) -> Result<Vec<VerifiedCell>, SimError> {
    let mut done: Vec<(u64, u64)> = ckpt
        .cells
        .iter()
        .enumerate()
        .filter_map(|(i, c)| match c {
            CellState::Done(o) => Some((i as u64, o.digest)),
            _ => None,
        })
        .collect();
    let mut rng = Rng::seed_from_u64(sample_seed);
    let mut picked = Vec::new();
    while !done.is_empty() && picked.len() < samples {
        let at = rng.gen_range(0usize..done.len());
        picked.push(done.swap_remove(at));
    }
    picked.sort_by_key(|(i, _)| *i);
    let mut report = Vec::with_capacity(picked.len());
    for (index, recorded) in picked {
        let fresh = smartrefresh_sim::digest_run(&ckpt.grid.run_cell(index)?);
        report.push(VerifiedCell {
            index,
            recorded,
            fresh,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::grid::{FaultTag, GridSpec, ModuleKind, PolicyTag};

    fn tiny_grid() -> GridSpec {
        GridSpec {
            workloads: vec!["gcc".into(), "radix".into()],
            modules: vec![ModuleKind::Mini],
            policies: vec![PolicyTag::Cbr, PolicyTag::Smart],
            faults: vec![FaultTag::Clean],
            seeds: vec![1, 2],
            scale_bits: 0.125f64.to_bits(),
        }
    }

    fn quick_cfg() -> OrchestratorConfig {
        OrchestratorConfig {
            workers: 2,
            cells_per_epoch: 4,
            ..OrchestratorConfig::default()
        }
    }

    #[test]
    fn clean_campaign_completes_every_cell() {
        let mut ckpt = FleetCheckpoint::fresh(tiny_grid(), None);
        let finished = run_fleet(&mut ckpt, &quick_cfg(), None, |_| {}).expect("runs");
        assert!(finished);
        assert!(ckpt.finished());
        assert!(ckpt
            .cells
            .iter()
            .all(|c| matches!(c, CellState::Done(o) if o.attempts == 1)));
        assert_eq!(ckpt.stats.attempts, ckpt.grid.cell_count());
        assert_eq!(ckpt.stats.retries, 0);
        assert_eq!(ckpt.stats.skips, 0);
    }

    #[test]
    fn worker_count_does_not_change_the_fleet_digest() {
        let mut one = FleetCheckpoint::fresh(tiny_grid(), None);
        run_fleet(
            &mut one,
            &OrchestratorConfig {
                workers: 1,
                ..quick_cfg()
            },
            None,
            |_| {},
        )
        .expect("runs");
        let mut many = FleetCheckpoint::fresh(tiny_grid(), None);
        run_fleet(
            &mut many,
            &OrchestratorConfig {
                workers: 4,
                cells_per_epoch: 8,
                ..quick_cfg()
            },
            None,
            |_| {},
        )
        .expect("runs");
        assert_eq!(one.fleet_digest(), many.fleet_digest());
        // More workers than ready cells: the caller is worker 0, one more
        // worker is spawned per remaining ready cell, and the surplus
        // threads are simply never spawned.
        let mut surplus = FleetCheckpoint::fresh(tiny_grid(), None);
        run_fleet(
            &mut surplus,
            &OrchestratorConfig {
                workers: 64,
                cells_per_epoch: 8,
                ..quick_cfg()
            },
            None,
            |_| {},
        )
        .expect("runs");
        assert_eq!(one.fleet_digest(), surplus.fleet_digest());
    }

    #[test]
    fn chaos_campaign_retries_deterministically() {
        let chaos = ChaosConfig {
            seed: 0xbad,
            crash_prob: 0.4,
            stall_prob: 0.3,
            max_stall_epochs: 6,
        };
        let run = |workers| {
            let mut ckpt = FleetCheckpoint::fresh(tiny_grid(), Some(chaos));
            let cfg = OrchestratorConfig {
                workers,
                ..quick_cfg()
            };
            run_fleet(&mut ckpt, &cfg, None, |_| {}).expect("runs");
            ckpt
        };
        let a = run(2);
        // One worker runs every attempt, injected crashes included, on
        // the calling thread; the schedule must not notice.
        for b in [run(2), run(1)] {
            assert_eq!(a.stats, b.stats, "chaos schedule must be reproducible");
            assert_eq!(a.fleet_digest(), b.fleet_digest());
        }
        assert!(
            a.stats.panics > 0 || a.stats.stalls > 0,
            "chaos at these rates must inject something: {:?}",
            a.stats
        );
        // Completed cells carry the same measurements as a clean campaign:
        // chaos attacks the harness, never the physics.
        let mut clean = FleetCheckpoint::fresh(tiny_grid(), None);
        run_fleet(&mut clean, &quick_cfg(), None, |_| {}).expect("runs");
        for (i, cell) in a.cells.iter().enumerate() {
            if let (CellState::Done(x), CellState::Done(y)) = (cell, &clean.cells[i]) {
                assert_eq!(x.digest, y.digest, "cell {i}");
            }
        }
    }

    #[test]
    fn certain_crashes_exhaust_retries_into_skips() {
        let chaos = ChaosConfig {
            seed: 1,
            crash_prob: 1.0,
            stall_prob: 0.0,
            max_stall_epochs: 1,
        };
        let mut ckpt = FleetCheckpoint::fresh(tiny_grid(), Some(chaos));
        let finished = run_fleet(&mut ckpt, &quick_cfg(), None, |_| {}).expect("runs");
        assert!(finished);
        assert_eq!(ckpt.stats.skips, ckpt.grid.cell_count());
        assert!(ckpt.cells.iter().all(|c| matches!(
            c,
            CellState::Skipped {
                cause: SkipCause::Panicked,
                attempts: 3,
            }
        )));
        // Retry backoff: 3 attempts with backoffs 1 and 2 epochs.
        assert_eq!(ckpt.stats.retries, 2 * ckpt.grid.cell_count());
    }

    #[test]
    fn watchdog_kills_stalls_past_the_deadline() {
        let chaos = ChaosConfig {
            seed: 2,
            crash_prob: 0.0,
            stall_prob: 1.0,
            max_stall_epochs: 10,
        };
        let cfg = OrchestratorConfig {
            deadline_epochs: 3,
            max_attempts: 2,
            ..quick_cfg()
        };
        let mut ckpt = FleetCheckpoint::fresh(tiny_grid(), Some(chaos));
        run_fleet(&mut ckpt, &cfg, None, |_| {}).expect("runs");
        assert!(ckpt.finished());
        assert!(ckpt.stats.stalls > 0);
        // Every cell either served a short stall then completed, or was
        // watchdog-killed; long stalls must show up as deadline misses.
        let long_stalls = (0..ckpt.grid.cell_count())
            .flat_map(|c| (0..cfg.max_attempts).map(move |a| (c, a)))
            .filter(|&(c, a)| matches!(decide(&chaos, c, a), ChaosAction::Stall(n) if n >= 3))
            .count();
        assert!(long_stalls > 0, "seed must draw at least one long stall");
        assert!(ckpt.stats.deadline_misses > 0);
    }

    #[test]
    fn halt_and_resume_matches_uninterrupted_run() {
        let dir = std::env::temp_dir().join("srft-halt-resume-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let chaos = Some(ChaosConfig::with_seed(7));

        let mut uninterrupted = FleetCheckpoint::fresh(tiny_grid(), chaos);
        run_fleet(&mut uninterrupted, &quick_cfg(), None, |_| {}).expect("runs");

        // Crash after every single epoch until done: the harshest resume
        // schedule possible.
        let halting = FleetCheckpoint::fresh(tiny_grid(), chaos);
        halting.save(&dir).expect("seed checkpoint");
        let cfg = OrchestratorConfig {
            halt_after_epochs: Some(1),
            ..quick_cfg()
        };
        let mut rounds = 0;
        loop {
            let mut ckpt = FleetCheckpoint::load(&dir, None).expect("load");
            let finished = run_fleet(&mut ckpt, &cfg, Some(&dir), |_| {}).expect("runs");
            rounds += 1;
            assert!(rounds < 1000, "campaign must converge");
            if finished {
                assert_eq!(ckpt.fleet_digest(), uninterrupted.fleet_digest());
                assert_eq!(ckpt.stats, uninterrupted.stats);
                break;
            }
        }
        assert!(rounds > 1, "halt_after_epochs must actually interrupt");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn replay_verification_confirms_done_cells() {
        let mut ckpt = FleetCheckpoint::fresh(tiny_grid(), None);
        run_fleet(&mut ckpt, &quick_cfg(), None, |_| {}).expect("runs");
        let report = verify_fleet(&ckpt, 3, 42).expect("verifies");
        assert_eq!(report.len(), 3);
        assert!(report.iter().all(VerifiedCell::matches));
        // A tampered digest is caught.
        if let CellState::Done(o) = &mut ckpt.cells[report[0].index as usize] {
            o.digest ^= 1;
        }
        let report = verify_fleet(&ckpt, ckpt.cells.len(), 42).expect("verifies");
        assert!(report.iter().any(|v| !v.matches()));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut ckpt = FleetCheckpoint::fresh(tiny_grid(), None);
        for bad in [
            OrchestratorConfig {
                workers: 0,
                ..OrchestratorConfig::default()
            },
            OrchestratorConfig {
                cells_per_epoch: 0,
                ..OrchestratorConfig::default()
            },
            OrchestratorConfig {
                max_attempts: 0,
                ..OrchestratorConfig::default()
            },
            OrchestratorConfig {
                deadline_epochs: 0,
                ..OrchestratorConfig::default()
            },
        ] {
            let err = run_fleet(&mut ckpt, &bad, None, |_| {}).expect_err("must reject");
            assert!(matches!(err, SimError::Config { .. }));
        }
    }
}
