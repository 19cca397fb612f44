//! Bounded interleaving model checker for the concurrency protocols.
//!
//! A hermetic mini-loom on `std` alone: a [`Model`] exposes a small set
//! of actors that advance in atomic steps, and [`explore`] enumerates
//! **every** interleaving of those steps (depth-first, replaying the
//! model from scratch per schedule), failing loudly with the exact
//! schedule prefix that broke an invariant. One model ships by default,
//! matching the one shared-state protocol the workspace runs:
//! [`CursorModel`], worker pools claiming from a real [`WorkCursor`].
//! Every schedule must partition the index space exactly, and the
//! index-ordered merge must be bit-identical to the sequential reference.
//!
//! The schedule space is exact and closed-form (`workers^items ×
//! workers!`), so the suite proves exhaustiveness by count, not by
//! sampling. Run it with `cargo run -p smartrefresh-check -- model-check`.

use std::fmt;

use smartrefresh_core::WorkCursor;

/// Ceiling on schedules per model — a schedule-explosion guard so a
/// mis-sized model fails fast instead of hanging CI.
pub const MAX_SCHEDULES: usize = 250_000;

/// A system small enough to model-check: a fixed set of actors, each
/// advancing in atomic steps over shared state.
///
/// `reset` must rebuild the shared state from scratch (the explorer
/// replays every schedule from the start) but may keep cross-schedule
/// accumulators such as a first-schedule reference result.
pub trait Model {
    /// Display name used in reports and errors.
    fn name(&self) -> &'static str;
    /// Number of actors; actor ids are `0..actors()`.
    fn actors(&self) -> usize;
    /// Rebuilds the shared state for a fresh schedule.
    fn reset(&mut self);
    /// Advances `actor` by one atomic step. `Ok(true)` keeps the actor
    /// schedulable; `Ok(false)` retires it for this schedule.
    ///
    /// # Errors
    ///
    /// An invariant violation, described for the failure report.
    fn step(&mut self, actor: usize) -> Result<bool, String>;
    /// Runs end-of-schedule invariants after every actor has retired.
    ///
    /// # Errors
    ///
    /// An invariant violation, described for the failure report.
    fn finish(&mut self) -> Result<(), String>;
}

/// A model invariant violated under one specific schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError {
    /// Which model failed.
    pub model: &'static str,
    /// The actor sequence that reproduces the failure, in step order.
    pub schedule: Vec<usize>,
    /// What broke.
    pub message: String,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model `{}` failed under schedule {:?}: {}",
            self.model, self.schedule, self.message
        )
    }
}

/// What one exhaustive exploration covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreReport {
    /// Distinct complete schedules enumerated.
    pub schedules: usize,
    /// Total atomic steps executed across all schedules.
    pub steps: usize,
}

/// Exhaustively enumerates every interleaving of `model`'s actors,
/// replaying from scratch per schedule, depth-first in actor order.
///
/// # Errors
///
/// The first invariant violation (with its schedule), or a
/// schedule-explosion error once `max_schedules` complete schedules have
/// been enumerated with choice points still open.
pub fn explore(model: &mut dyn Model, max_schedules: usize) -> Result<ExploreReport, ModelError> {
    let n = model.actors();
    let name = model.name();
    let mut report = ExploreReport {
        schedules: 0,
        steps: 0,
    };
    // The current schedule prefix, and at each depth the alternative
    // actors not yet tried there.
    let mut prefix: Vec<usize> = Vec::new();
    let mut alternatives: Vec<Vec<usize>> = Vec::new();
    let fail = |prefix: &[usize], message: String| ModelError {
        model: name,
        schedule: prefix.to_vec(),
        message,
    };
    loop {
        // Replay the prefix, then extend greedily (lowest enabled actor
        // first), recording the untried alternatives for backtracking.
        model.reset();
        let mut done = vec![false; n];
        for (at, &a) in prefix.iter().enumerate() {
            report.steps += 1;
            match model.step(a) {
                Ok(alive) => done[a] = !alive,
                Err(msg) => return Err(fail(&prefix[..=at], msg)),
            }
        }
        while done.iter().any(|&d| !d) {
            let enabled: Vec<usize> = (0..n).filter(|&a| !done[a]).collect();
            let (chosen, rest) = match enabled.split_first() {
                Some((c, r)) => (*c, r.to_vec()),
                None => break,
            };
            alternatives.push(rest);
            prefix.push(chosen);
            report.steps += 1;
            match model.step(chosen) {
                Ok(alive) => done[chosen] = !alive,
                Err(msg) => return Err(fail(&prefix, msg)),
            }
        }
        if let Err(msg) = model.finish() {
            return Err(fail(&prefix, msg));
        }
        report.schedules += 1;
        // Backtrack to the deepest choice point with an untried actor.
        let advanced = loop {
            let Some(mut alts) = alternatives.pop() else {
                break false;
            };
            prefix.pop();
            if alts.is_empty() {
                continue;
            }
            let next = alts.remove(0);
            alternatives.push(alts);
            prefix.push(next);
            break true;
        };
        if !advanced {
            return Ok(report);
        }
        if report.schedules >= max_schedules {
            return Err(fail(
                &prefix,
                format!("schedule explosion: more than {max_schedules} schedules"),
            ));
        }
    }
}

/// Model of the sharded-map claim protocol: `workers` actors pulling
/// from one real [`WorkCursor`] over `items` indices. Invariants: each
/// index is claimed exactly once, and the index-ordered merge of
/// per-item results is bit-identical to the sequential reference — the
/// workspace's "any thread count, same output" promise in miniature.
///
/// Distinct schedules: `workers^items × workers!`.
#[derive(Debug)]
pub struct CursorModel {
    workers: usize,
    items: usize,
    cursor: WorkCursor,
    claims: Vec<Vec<usize>>,
}

impl CursorModel {
    /// A model of `workers` actors draining `items` work items.
    pub fn new(workers: usize, items: usize) -> CursorModel {
        CursorModel {
            workers,
            items,
            cursor: WorkCursor::new(items),
            claims: vec![Vec::new(); workers],
        }
    }

    /// The per-item result the "computation" produces — anything
    /// injective in the index works; the merge must reproduce it in
    /// index order.
    fn result_of(i: usize) -> usize {
        i.wrapping_mul(2654435761) ^ 0x5eed
    }
}

impl Model for CursorModel {
    fn name(&self) -> &'static str {
        "work-cursor"
    }
    fn actors(&self) -> usize {
        self.workers
    }
    fn reset(&mut self) {
        self.cursor = WorkCursor::new(self.items);
        for c in &mut self.claims {
            c.clear();
        }
    }
    fn step(&mut self, actor: usize) -> Result<bool, String> {
        match self.cursor.claim() {
            Some(i) => {
                if i >= self.items {
                    return Err(format!("claimed out-of-range index {i}"));
                }
                self.claims[actor].push(i);
                Ok(true)
            }
            None => Ok(false),
        }
    }
    fn finish(&mut self) -> Result<(), String> {
        // Merge exactly as par_map does: flatten the per-worker shards
        // and sort by claimed index.
        let mut merged: Vec<(usize, usize)> = self
            .claims
            .iter()
            .flatten()
            .map(|&i| (i, Self::result_of(i)))
            .collect();
        merged.sort_unstable();
        let reference: Vec<(usize, usize)> =
            (0..self.items).map(|i| (i, Self::result_of(i))).collect();
        if merged != reference {
            return Err(format!(
                "merged claims diverge from the sequential reference: {:?}",
                self.claims
            ));
        }
        Ok(())
    }
}

/// Runs the default model suite exhaustively: the claim protocol over
/// [`WorkCursor`], as a [`CursorModel`] of 3 workers and 5 items.
///
/// # Errors
///
/// The first invariant violation, carrying the schedule that exposed it.
pub fn run_model_check() -> Result<ExploreReport, ModelError> {
    explore(&mut CursorModel::new(3, 5), MAX_SCHEDULES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_schedule_space_is_exact() {
        // workers^items × workers! distinct schedules.
        let mut model = CursorModel::new(2, 3);
        let report = explore(&mut model, MAX_SCHEDULES).unwrap();
        assert_eq!(report.schedules, 2usize.pow(3) * 2);
        let mut model = CursorModel::new(3, 2);
        let report = explore(&mut model, MAX_SCHEDULES).unwrap();
        assert_eq!(report.schedules, 3usize.pow(2) * 6);
    }

    #[test]
    fn default_suite_exceeds_the_coverage_floor() {
        let report = run_model_check().unwrap();
        // 3^5 × 3!, past the 1,000-schedule floor.
        assert_eq!(report.schedules, 1458);
    }

    #[test]
    fn schedule_cap_trips_loudly() {
        let mut model = CursorModel::new(3, 5);
        let err = explore(&mut model, 10).unwrap_err();
        assert!(err.message.contains("schedule explosion"));
    }

    /// A deliberately racy two-phase cursor: each claim is a separate
    /// read step and write step, so two workers interleaved between the
    /// phases claim the same index. The explorer must catch it.
    struct BrokenCursorModel {
        next: usize,
        limit: usize,
        staged: Vec<Option<usize>>,
        claims: Vec<Vec<usize>>,
    }

    impl BrokenCursorModel {
        fn new(workers: usize, limit: usize) -> Self {
            BrokenCursorModel {
                next: 0,
                limit,
                staged: vec![None; workers],
                claims: vec![Vec::new(); workers],
            }
        }
    }

    impl Model for BrokenCursorModel {
        fn name(&self) -> &'static str {
            "broken-cursor"
        }
        fn actors(&self) -> usize {
            self.staged.len()
        }
        fn reset(&mut self) {
            self.next = 0;
            for s in &mut self.staged {
                *s = None;
            }
            for c in &mut self.claims {
                c.clear();
            }
        }
        fn step(&mut self, actor: usize) -> Result<bool, String> {
            match self.staged[actor].take() {
                None => {
                    // Phase 1: read the shared counter.
                    self.staged[actor] = Some(self.next);
                    Ok(true)
                }
                Some(v) => {
                    // Phase 2: write it back — the non-atomic sin.
                    self.next = v + 1;
                    if v < self.limit {
                        self.claims[actor].push(v);
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                }
            }
        }
        fn finish(&mut self) -> Result<(), String> {
            let mut all: Vec<usize> = self.claims.iter().flatten().copied().collect();
            all.sort_unstable();
            let expected: Vec<usize> = (0..self.limit).collect();
            if all != expected {
                return Err(format!("claims {all:?} are not a partition of the items"));
            }
            Ok(())
        }
    }

    #[test]
    fn explorer_catches_the_torn_claim_protocol() {
        let mut model = BrokenCursorModel::new(2, 2);
        let err = explore(&mut model, MAX_SCHEDULES).unwrap_err();
        assert!(err.message.contains("not a partition"), "{err}");
        assert!(!err.schedule.is_empty());
    }

    #[test]
    fn model_error_display_names_the_schedule() {
        let err = ModelError {
            model: "m",
            schedule: vec![0, 1, 0],
            message: "boom".to_string(),
        };
        assert_eq!(
            err.to_string(),
            "model `m` failed under schedule [0, 1, 0]: boom"
        );
    }
}
