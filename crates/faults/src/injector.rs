//! The seeded fault injector.
//!
//! A [`FaultInjector`] holds a list of [`FaultSpec`]s — each a fault kind, a
//! `(rank, bank, row)` site pattern, and an activation window — plus a log
//! of every injection it performed. The memory controller consults it on
//! the refresh dispatch path ([`FaultInjector::perturb_refresh`] and
//! [`FaultInjector::dispatch_stalled`]); static faults (weak cells, thermal
//! derating) are applied once to the device's retention tracker via
//! [`FaultInjector::apply_static_faults`].

use smartrefresh_dram::rng::Rng;
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{Geometry, RetentionTracker, RowAddr};

use crate::temperature::ThermalDerating;

/// A `(rank, bank, row)` pattern; `None` components are wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSite {
    /// Rank to match, or any rank.
    pub rank: Option<u32>,
    /// Bank to match, or any bank.
    pub bank: Option<u32>,
    /// Row to match, or any row.
    pub row: Option<u32>,
}

impl FaultSite {
    /// Matches every row of the module.
    pub const ANY: FaultSite = FaultSite {
        rank: None,
        bank: None,
        row: None,
    };

    /// A site matching exactly one row.
    pub fn exact(rank: u32, bank: u32, row: u32) -> Self {
        FaultSite {
            rank: Some(rank),
            bank: Some(bank),
            row: Some(row),
        }
    }

    /// Whether `addr` matches this pattern.
    pub fn matches(&self, addr: RowAddr) -> bool {
        self.rank.is_none_or(|r| r == addr.rank)
            && self.bank.is_none_or(|b| b == addr.bank)
            && self.row.is_none_or(|w| w == addr.row)
    }
}

/// What a fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The site's rows are weak cells: their true retention deadline is
    /// `deadline`, tighter than the rated worst case. Applied statically to
    /// the retention tracker; the refresh policy is deliberately not told.
    WeakCell {
        /// The true (tightened) retention deadline of the weak rows.
        deadline: Duration,
    },
    /// RAS-only refreshes dispatched to the site are silently lost.
    DropRefresh,
    /// RAS-only refreshes dispatched to the site are postponed by `delay`.
    DelayRefresh {
        /// How long each matching dispatch is postponed.
        delay: Duration,
    },
    /// While active, refresh dispatch is suspended entirely, so pending
    /// requests pile up in the §5 queue (the queue-pressure fault).
    StallDispatch,
    /// The site's rows come up with this many bits flipped in their stored
    /// data (a hard/latent fault rather than a retention fault). Applied
    /// once via [`FaultInjector::apply_bit_flips`]; one flip is correctable
    /// by SECDED, two force an uncorrectable error.
    BitFlip {
        /// How many distinct bits to flip in each matching row's word.
        bits: u8,
    },
    /// Variable retention time (VRT): while the spec's window is active the
    /// site's rows hold charge only for `deadline`; when the window closes
    /// their baseline deadlines are restored. Applied mid-run on the
    /// controller's advance path via
    /// [`FaultInjector::apply_vrt_transitions`]; the refresh policy is
    /// deliberately not told, so the retention watchdog and the protocol
    /// sanitizer have to catch the decay.
    VariableRetention {
        /// The retention deadline while the episode is active.
        deadline: Duration,
    },
    /// Disturbance (rowhammer) susceptibility: every ACTIVATE of a row
    /// matching the site hammers its physically adjacent rows (row ± 1 in
    /// the same bank). Each victim accumulates pressure — adjacent ACTs
    /// since the victim's own last charge restore — and at every
    /// `act_threshold` crossing the victim probabilistically flips
    /// `flips_per_crossing` stored bits, with odds that grow with the
    /// accumulated pressure. Flips compose with the SECDED CE/UE path via
    /// [`FaultInjector::note_activation`]; a refresh, scrub, or activation
    /// of the victim itself clears its pressure
    /// ([`FaultInjector::note_row_restored`]).
    Disturbance {
        /// Adjacent-ACT count between flip evaluations of a victim.
        act_threshold: u32,
        /// Bits flipped in the victim's word per successful evaluation
        /// (1 is SECDED-correctable; repeated flips accumulate to a UE).
        flips_per_crossing: u8,
    },
}

/// One fault: a kind, where it applies, and when it is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Which rows the fault applies to.
    pub site: FaultSite,
    /// Activation window start (inclusive).
    pub from: Instant,
    /// Activation window end (exclusive); [`FaultSpec::FOREVER`] = no end.
    pub until: Instant,
    /// What the fault does.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Sentinel "never deactivates" window end.
    pub const FOREVER: Instant = Instant::from_ps(u64::MAX);

    /// A fault active for the whole run.
    pub fn always(site: FaultSite, kind: FaultKind) -> Self {
        FaultSpec {
            site,
            from: Instant::ZERO,
            until: Self::FOREVER,
            kind,
        }
    }

    /// A fault active in `[from, until)`.
    pub fn windowed(site: FaultSite, from: Instant, until: Instant, kind: FaultKind) -> Self {
        assert!(from < until, "empty activation window");
        FaultSpec {
            site,
            from,
            until,
            kind,
        }
    }

    /// Whether the fault is active at `now`.
    pub fn active_at(&self, now: Instant) -> bool {
        now >= self.from && now < self.until
    }
}

/// The controller's verdict for one refresh dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// No active fault matched; dispatch normally.
    Pass,
    /// The refresh is lost; do not issue it.
    Drop,
    /// Issue the refresh, but this much later.
    Delay(Duration),
}

/// What kind of injection a [`FaultEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEventKind {
    /// A RAS-only refresh was dropped.
    DroppedRefresh,
    /// A RAS-only refresh was postponed.
    DelayedRefresh {
        /// By how much.
        by: Duration,
    },
    /// Refresh dispatch entered a stall window.
    DispatchStalled,
    /// A row's retention deadline was tightened (weak cell / VRT).
    WeakCellApplied {
        /// The tightened deadline.
        deadline: Duration,
    },
    /// All deadlines were scaled for temperature.
    RetentionScaled {
        /// The applied scale factor.
        factor: f64,
    },
    /// Bit flips were seeded into a row's stored data.
    BitFlipsSeeded {
        /// How many bits were flipped.
        bits: u8,
    },
    /// A VRT episode began: the row's deadline was tightened mid-run.
    VrtOnset {
        /// The deadline in force for the episode.
        deadline: Duration,
    },
    /// A VRT episode ended: the row's baseline deadline was restored.
    VrtRecovered {
        /// The restored baseline deadline.
        deadline: Duration,
    },
    /// Hammer pressure on a victim row crossed a threshold and the flip
    /// draw succeeded: bits flipped in the victim's stored data.
    DisturbanceFlip {
        /// How many bits were flipped.
        bits: u8,
    },
}

/// One recorded injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the injection happened (simulation time).
    pub at: Instant,
    /// The affected row, when the fault targets a single row.
    pub row: Option<RowAddr>,
    /// What was injected.
    pub kind: FaultEventKind,
}

/// Aggregate injection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Refreshes dropped on the dispatch path.
    pub refreshes_dropped: u64,
    /// Refreshes delayed on the dispatch path.
    pub refreshes_delayed: u64,
    /// Dispatch attempts suppressed by an active stall window.
    pub dispatches_stalled: u64,
    /// Rows whose deadline was tightened by a weak-cell fault.
    pub weak_rows_applied: u64,
    /// Rows seeded with bit flips by a [`FaultKind::BitFlip`] fault.
    pub rows_bit_flipped: u64,
    /// Row deadline transitions (onsets + recoveries) performed by
    /// [`FaultKind::VariableRetention`] episodes.
    pub vrt_transitions: u64,
    /// Hammer-pressure threshold crossings evaluated (each one flip draw).
    pub hammer_crossings: u64,
    /// Total bits flipped by [`FaultKind::Disturbance`] injections.
    pub disturbance_bits_flipped: u64,
}

/// Where a VRT episode stands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum VrtPhase {
    /// The onset has not been applied yet.
    #[default]
    Pending,
    /// The onset tightened the victims; their baselines are saved.
    Active,
    /// The episode is over: recovered, or its whole window elapsed before
    /// any call saw it open.
    Done,
}

/// Per-spec runtime state of a VRT episode (parallel to the spec list).
#[derive(Debug, Clone, Default)]
struct VrtRuntime {
    phase: VrtPhase,
    /// `(flat row, baseline deadline)` pairs saved at onset.
    saved: Vec<(u64, Duration)>,
}

/// Deterministic, seeded fault injector.
///
/// # Examples
///
/// ```
/// use smartrefresh_dram::time::{Duration, Instant};
/// use smartrefresh_dram::RowAddr;
/// use smartrefresh_faults::{FaultInjector, FaultKind, FaultSite, FaultSpec, Perturbation};
///
/// let mut inj = FaultInjector::new().with_spec(FaultSpec::always(
///     FaultSite::exact(0, 0, 7),
///     FaultKind::DropRefresh,
/// ));
/// let hit = RowAddr { rank: 0, bank: 0, row: 7 };
/// let miss = RowAddr { rank: 0, bank: 0, row: 8 };
/// assert_eq!(inj.perturb_refresh(hit, Instant::ZERO), Perturbation::Drop);
/// assert_eq!(inj.perturb_refresh(miss, Instant::ZERO), Perturbation::Pass);
/// assert_eq!(inj.stats().refreshes_dropped, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    specs: Vec<FaultSpec>,
    temperature_c: Option<f64>,
    derating: ThermalDerating,
    events: Vec<FaultEvent>,
    stats: FaultStats,
    in_stall: bool,
    vrt_runtime: Vec<VrtRuntime>,
    /// [`next_vrt_edge`](FaultInjector::next_vrt_edge) as the last
    /// [`apply_vrt_transitions`](FaultInjector::apply_vrt_transitions)
    /// that walked the specs left it; `None` before the first walk and
    /// after [`with_spec`](FaultInjector::with_spec). A call before it
    /// returns at once.
    vrt_edge: Option<Instant>,
    /// Per-victim hammer pressure: adjacent-row ACTs since the victim's own
    /// last charge restore, indexed by flat row; 0 means no pressure. Empty
    /// until the first [`note_activation`] under a
    /// [`FaultKind::Disturbance`] spec, which sizes it to the geometry's
    /// row count (and grows it if a larger geometry arrives later); only
    /// rows a disturbance spec covers ever become nonzero.
    ///
    /// [`note_activation`]: FaultInjector::note_activation
    disturbance_pressure: Vec<u32>,
    /// Seeded draw stream for the probabilistic flip decision at each
    /// threshold crossing. Installed by [`FaultInjector::with_disturbance`];
    /// lazily created from the default seed otherwise.
    disturbance_rng: Option<Rng>,
}

impl FaultInjector {
    /// An injector with no faults (every query passes).
    pub fn new() -> Self {
        FaultInjector {
            derating: ThermalDerating::default(),
            ..FaultInjector::default()
        }
    }

    /// Adds one fault spec.
    pub fn with_spec(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self.vrt_edge = None;
        self
    }

    /// Sets the operating temperature; [`apply_static_faults`] will scale
    /// every retention deadline by the derating curve.
    ///
    /// [`apply_static_faults`]: FaultInjector::apply_static_faults
    pub fn with_temperature(mut self, temp_c: f64) -> Self {
        self.temperature_c = Some(temp_c);
        self
    }

    /// Adds `count` weak-cell faults at seed-determined distinct rows, each
    /// with the given tightened `deadline`. Deterministic for a fixed seed.
    pub fn with_random_weak_cells(
        mut self,
        geometry: &Geometry,
        seed: u64,
        count: usize,
        deadline: Duration,
    ) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0xfa17_0000_0000_0001);
        let total = geometry.total_rows();
        assert!(
            (count as u64) <= total,
            "more weak cells ({count}) than rows ({total})"
        );
        let mut chosen = Vec::with_capacity(count);
        while chosen.len() < count {
            let flat = rng.gen_range(0..total);
            if !chosen.contains(&flat) {
                chosen.push(flat);
                let addr = geometry.unflatten(flat);
                self.specs.push(FaultSpec::always(
                    FaultSite::exact(addr.rank, addr.bank, addr.row),
                    FaultKind::WeakCell { deadline },
                ));
            }
        }
        self
    }

    /// The configured fault specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Every injection performed so far, in order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Aggregate injection counters.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Applies the static faults — weak-cell deadline tightening and thermal
    /// derating — to a device's retention tracker. Call once after building
    /// the device (weak cells exist from power-up) or at the instant a VRT
    /// episode begins.
    ///
    /// # Panics
    ///
    /// Panics if the tracker does not cover `geometry`'s rows.
    pub fn apply_static_faults(
        &mut self,
        tracker: &mut RetentionTracker,
        geometry: &Geometry,
        now: Instant,
    ) {
        assert_eq!(
            tracker.len() as u64,
            geometry.total_rows(),
            "tracker does not match geometry"
        );
        if let Some(temp) = self.temperature_c {
            let factor = self.derating.scale(temp);
            if factor < 1.0 {
                tracker.scale_deadlines(factor);
                self.events.push(FaultEvent {
                    at: now,
                    row: None,
                    kind: FaultEventKind::RetentionScaled { factor },
                });
            }
        }
        for spec in &self.specs {
            let FaultKind::WeakCell { deadline } = spec.kind else {
                continue;
            };
            for addr in geometry.iter_rows() {
                if spec.site.matches(addr) {
                    tracker.set_row_deadline(geometry.flatten(addr), deadline);
                    self.stats.weak_rows_applied += 1;
                    self.events.push(FaultEvent {
                        at: now,
                        row: Some(addr),
                        kind: FaultEventKind::WeakCellApplied { deadline },
                    });
                }
            }
        }
    }

    /// Enumerates the rows every [`FaultKind::BitFlip`] spec targets,
    /// recording the injections, and returns `(row, bits)` pairs for the
    /// caller to materialize in its ECC error state. Like
    /// [`apply_static_faults`], call once after building the device: the
    /// flips exist from power-up (latent faults), so the spec's activation
    /// window is ignored.
    ///
    /// [`apply_static_faults`]: FaultInjector::apply_static_faults
    pub fn apply_bit_flips(&mut self, geometry: &Geometry, now: Instant) -> Vec<(RowAddr, u8)> {
        let mut out = Vec::new();
        for spec in &self.specs {
            let FaultKind::BitFlip { bits } = spec.kind else {
                continue;
            };
            for addr in geometry.iter_rows() {
                if spec.site.matches(addr) {
                    self.stats.rows_bit_flipped += 1;
                    self.events.push(FaultEvent {
                        at: now,
                        row: Some(addr),
                        kind: FaultEventKind::BitFlipsSeeded { bits },
                    });
                    out.push((addr, bits));
                }
            }
        }
        out
    }

    /// Adds one [`FaultKind::VariableRetention`] episode at a
    /// seed-determined row: between `from` and `until` the victim's
    /// retention deadline drops to `deadline`, then recovers. Deterministic
    /// for a fixed seed.
    pub fn with_random_vrt_episode(
        self,
        geometry: &Geometry,
        seed: u64,
        deadline: Duration,
        from: Instant,
        until: Instant,
    ) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0xfa17_0000_0000_0002);
        let flat = rng.gen_range(0..geometry.total_rows());
        let addr = geometry.unflatten(flat);
        self.with_spec(FaultSpec::windowed(
            FaultSite::exact(addr.rank, addr.bank, addr.row),
            from,
            until,
            FaultKind::VariableRetention { deadline },
        ))
    }

    /// Processes every [`FaultKind::VariableRetention`] spec whose window
    /// opened or closed by `now`: an onset saves each victim row's baseline
    /// deadline and tightens it; the window's end restores the baselines.
    /// An episode whose whole window elapsed before any call saw it open
    /// never starts. Called by the controller at every policy wakeup, so
    /// transitions take effect within one refresh slot. Idempotent between
    /// transitions: a call before the cached
    /// [`next_vrt_edge`](Self::next_vrt_edge) returns without walking the
    /// specs.
    pub fn apply_vrt_transitions(
        &mut self,
        tracker: &mut RetentionTracker,
        geometry: &Geometry,
        now: Instant,
    ) {
        if self.vrt_edge.is_some_and(|edge| now < edge) {
            return;
        }
        if self.vrt_runtime.len() != self.specs.len() {
            self.vrt_runtime
                .resize_with(self.specs.len(), VrtRuntime::default);
        }
        for i in 0..self.specs.len() {
            let spec = self.specs[i];
            let FaultKind::VariableRetention { deadline } = spec.kind else {
                continue;
            };
            if self.vrt_runtime[i].phase == VrtPhase::Pending && now >= spec.until {
                self.vrt_runtime[i].phase = VrtPhase::Done;
            }
            if self.vrt_runtime[i].phase == VrtPhase::Pending && spec.active_at(now) {
                let mut saved = Vec::new();
                for addr in geometry.iter_rows() {
                    if spec.site.matches(addr) {
                        let flat = geometry.flatten(addr);
                        let base = tracker.row_deadline(flat);
                        if deadline < base {
                            tracker.set_row_deadline(flat, deadline);
                            saved.push((flat, base));
                            self.stats.vrt_transitions += 1;
                            self.events.push(FaultEvent {
                                at: now,
                                row: Some(addr),
                                kind: FaultEventKind::VrtOnset { deadline },
                            });
                        }
                    }
                }
                self.vrt_runtime[i].saved = saved;
                self.vrt_runtime[i].phase = VrtPhase::Active;
            }
            if self.vrt_runtime[i].phase == VrtPhase::Active && now >= spec.until {
                let saved = std::mem::take(&mut self.vrt_runtime[i].saved);
                for (flat, base) in saved {
                    tracker.set_row_deadline(flat, base);
                    self.stats.vrt_transitions += 1;
                    self.events.push(FaultEvent {
                        at: now,
                        row: Some(geometry.unflatten(flat)),
                        kind: FaultEventKind::VrtRecovered { deadline: base },
                    });
                }
                self.vrt_runtime[i].phase = VrtPhase::Done;
            }
        }
        self.vrt_edge = Some(self.scan_vrt_edge());
    }

    /// The earliest instant [`apply_vrt_transitions`] can change anything:
    /// the onset of the first episode not yet applied, or the end of the
    /// first one in force; `Instant::MAX` when every episode is over (or
    /// none exists). A call before it is a no-op.
    ///
    /// [`apply_vrt_transitions`]: FaultInjector::apply_vrt_transitions
    pub fn next_vrt_edge(&self) -> Instant {
        self.vrt_edge.unwrap_or_else(|| self.scan_vrt_edge())
    }

    /// [`next_vrt_edge`](Self::next_vrt_edge) from the specs and their
    /// episode phases.
    fn scan_vrt_edge(&self) -> Instant {
        self.specs
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, FaultKind::VariableRetention { .. }))
            .filter_map(|(i, s)| {
                match self
                    .vrt_runtime
                    .get(i)
                    .map_or(VrtPhase::Pending, |r| r.phase)
                {
                    VrtPhase::Pending => Some(s.from),
                    VrtPhase::Active => Some(s.until),
                    VrtPhase::Done => None,
                }
            })
            .min()
            .unwrap_or(Instant::MAX)
    }

    /// True when any [`FaultKind::StallDispatch`] spec exists: every
    /// [`dispatch_stalled`](Self::dispatch_stalled) call inside its window
    /// counts in [`FaultStats::dispatches_stalled`].
    pub fn stalls_dispatch(&self) -> bool {
        self.specs
            .iter()
            .any(|s| matches!(s.kind, FaultKind::StallDispatch))
    }

    /// Whether refresh dispatch is suspended at `now` (an active
    /// [`FaultKind::StallDispatch`] window). Records the stall on entry.
    pub fn dispatch_stalled(&mut self, now: Instant) -> bool {
        let stalled = self
            .specs
            .iter()
            .any(|s| matches!(s.kind, FaultKind::StallDispatch) && s.active_at(now));
        if stalled {
            self.stats.dispatches_stalled += 1;
            if !self.in_stall {
                self.events.push(FaultEvent {
                    at: now,
                    row: None,
                    kind: FaultEventKind::DispatchStalled,
                });
            }
        }
        self.in_stall = stalled;
        stalled
    }

    /// The dispatch-path hook: the first active drop/delay fault matching
    /// `row` decides the refresh's fate. Records the injection.
    pub fn perturb_refresh(&mut self, row: RowAddr, now: Instant) -> Perturbation {
        for spec in &self.specs {
            if !spec.active_at(now) || !spec.site.matches(row) {
                continue;
            }
            match spec.kind {
                FaultKind::DropRefresh => {
                    self.stats.refreshes_dropped += 1;
                    self.events.push(FaultEvent {
                        at: now,
                        row: Some(row),
                        kind: FaultEventKind::DroppedRefresh,
                    });
                    return Perturbation::Drop;
                }
                FaultKind::DelayRefresh { delay } => {
                    self.stats.refreshes_delayed += 1;
                    self.events.push(FaultEvent {
                        at: now,
                        row: Some(row),
                        kind: FaultEventKind::DelayedRefresh { by: delay },
                    });
                    return Perturbation::Delay(delay);
                }
                FaultKind::WeakCell { .. }
                | FaultKind::StallDispatch
                | FaultKind::BitFlip { .. }
                | FaultKind::VariableRetention { .. }
                | FaultKind::Disturbance { .. } => {}
            }
        }
        Perturbation::Pass
    }

    /// Adds one [`FaultKind::Disturbance`] spec over `site` and seeds the
    /// flip-draw stream. A zero threshold would fire on every ACT and is
    /// rejected as a config bug.
    ///
    /// # Panics
    ///
    /// Panics if `act_threshold` is zero.
    pub fn with_disturbance(
        mut self,
        site: FaultSite,
        act_threshold: u32,
        flips_per_crossing: u8,
        seed: u64,
    ) -> Self {
        assert!(act_threshold > 0, "disturbance threshold must be positive");
        self.disturbance_rng = Some(Rng::seed_from_u64(seed ^ 0xfa17_0000_0000_0003));
        self.with_spec(FaultSpec::always(
            site,
            FaultKind::Disturbance {
                act_threshold,
                flips_per_crossing,
            },
        ))
    }

    /// True when any [`FaultKind::Disturbance`] spec exists;
    /// [`note_activation`](FaultInjector::note_activation) returns at once
    /// otherwise.
    pub fn has_disturbance(&self) -> bool {
        self.specs
            .iter()
            .any(|s| matches!(s.kind, FaultKind::Disturbance { .. }))
    }

    /// The accumulated hammer pressure on flat row `flat`: adjacent-row
    /// ACTs since the row's own last charge restore.
    pub fn disturbance_pressure(&self, flat: u64) -> u32 {
        usize::try_from(flat)
            .ok()
            .and_then(|i| self.disturbance_pressure.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// The per-ACT hook: `aggressor` was just activated at `now`. Its own
    /// pressure clears (the ACT restored its cells), its physically
    /// adjacent rows (row ± 1, same bank) each gain one unit of pressure,
    /// and every victim whose pressure crosses a multiple of its spec's
    /// `act_threshold` draws a flip with probability `n / (n + 1)` at the
    /// `n`-th crossing — flip odds scale with accumulated pressure. Returns
    /// the `(victim, bits)` flips for the caller to materialize in its ECC
    /// error state (exactly how [`apply_bit_flips`] composes with SECDED).
    ///
    /// [`apply_bit_flips`]: FaultInjector::apply_bit_flips
    pub fn note_activation(
        &mut self,
        geometry: &Geometry,
        aggressor: RowAddr,
        now: Instant,
    ) -> Vec<(RowAddr, u8)> {
        let mut flips = Vec::new();
        if !self.has_disturbance() {
            return flips;
        }
        let rows = geometry.total_rows() as usize;
        if self.disturbance_pressure.len() < rows {
            self.disturbance_pressure.resize(rows, 0);
        }
        self.disturbance_pressure[geometry.flatten(aggressor) as usize] = 0;
        let neighbors = [aggressor.row.checked_sub(1), aggressor.row.checked_add(1)];
        for victim_row in neighbors.into_iter().flatten() {
            if victim_row >= geometry.rows() {
                continue;
            }
            let victim = RowAddr {
                rank: aggressor.rank,
                bank: aggressor.bank,
                row: victim_row,
            };
            let Some((threshold, bits)) = self.specs.iter().find_map(|s| match s.kind {
                FaultKind::Disturbance {
                    act_threshold,
                    flips_per_crossing,
                } if s.active_at(now) && s.site.matches(victim) => {
                    Some((act_threshold, flips_per_crossing))
                }
                _ => None,
            }) else {
                continue;
            };
            let pressure = &mut self.disturbance_pressure[geometry.flatten(victim) as usize];
            *pressure += 1;
            let pressure = *pressure;
            if !pressure.is_multiple_of(threshold) {
                continue;
            }
            self.stats.hammer_crossings += 1;
            let crossings = u64::from(pressure / threshold);
            let rng = self
                .disturbance_rng
                .get_or_insert_with(|| Rng::seed_from_u64(0xfa17_0000_0000_0003));
            if rng.gen_range(0..crossings + 1) == 0 {
                continue; // the draw spared the victim this crossing
            }
            self.stats.disturbance_bits_flipped += u64::from(bits);
            self.events.push(FaultEvent {
                at: now,
                row: Some(victim),
                kind: FaultEventKind::DisturbanceFlip { bits },
            });
            flips.push((victim, bits));
        }
        flips
    }

    /// The charge of `row` was restored by a refresh, scrub, or RFM victim
    /// refresh: its accumulated hammer pressure clears.
    pub fn note_row_restored(&mut self, geometry: &Geometry, row: RowAddr) {
        // Rows past the slots sized so far have never gained pressure.
        if let Some(pressure) = self
            .disturbance_pressure
            .get_mut(geometry.flatten(row) as usize)
        {
            *pressure = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn row(rank: u32, bank: u32, row: u32) -> RowAddr {
        RowAddr { rank, bank, row }
    }

    fn ms(n: u64) -> Instant {
        Instant::ZERO + Duration::from_ms(n)
    }

    #[test]
    fn wildcard_sites_match_by_component() {
        let bank_wide = FaultSite {
            rank: Some(0),
            bank: Some(1),
            row: None,
        };
        assert!(bank_wide.matches(row(0, 1, 5)));
        assert!(bank_wide.matches(row(0, 1, 99)));
        assert!(!bank_wide.matches(row(0, 2, 5)));
        assert!(FaultSite::ANY.matches(row(3, 2, 1)));
    }

    #[test]
    fn activation_window_gates_injection() {
        let w0 = Instant::ZERO + Duration::from_ms(10);
        let w1 = Instant::ZERO + Duration::from_ms(20);
        let mut inj = FaultInjector::new().with_spec(FaultSpec::windowed(
            FaultSite::ANY,
            w0,
            w1,
            FaultKind::DropRefresh,
        ));
        let r = row(0, 0, 0);
        assert_eq!(inj.perturb_refresh(r, Instant::ZERO), Perturbation::Pass);
        assert_eq!(inj.perturb_refresh(r, w0), Perturbation::Drop);
        assert_eq!(inj.perturb_refresh(r, w1), Perturbation::Pass);
        assert_eq!(inj.stats().refreshes_dropped, 1);
        assert_eq!(inj.events().len(), 1);
    }

    #[test]
    fn delay_faults_report_their_postponement() {
        let mut inj = FaultInjector::new().with_spec(FaultSpec::always(
            FaultSite::exact(0, 0, 3),
            FaultKind::DelayRefresh {
                delay: Duration::from_ms(2),
            },
        ));
        assert_eq!(
            inj.perturb_refresh(row(0, 0, 3), Instant::ZERO),
            Perturbation::Delay(Duration::from_ms(2))
        );
        assert_eq!(inj.stats().refreshes_delayed, 1);
    }

    #[test]
    fn stall_windows_suspend_dispatch_and_log_once() {
        let w0 = Instant::ZERO + Duration::from_ms(1);
        let w1 = Instant::ZERO + Duration::from_ms(2);
        let mut inj = FaultInjector::new().with_spec(FaultSpec::windowed(
            FaultSite::ANY,
            w0,
            w1,
            FaultKind::StallDispatch,
        ));
        assert!(!inj.dispatch_stalled(Instant::ZERO));
        assert!(inj.dispatch_stalled(w0));
        assert!(inj.dispatch_stalled(w0 + Duration::from_us(1)));
        assert!(!inj.dispatch_stalled(w1));
        // Two suppressed dispatches, one logged stall edge.
        assert_eq!(inj.stats().dispatches_stalled, 2);
        assert_eq!(inj.events().len(), 1);
    }

    #[test]
    fn random_weak_cells_are_deterministic_and_distinct() {
        let g = Geometry::new(1, 2, 32, 4, 64);
        let pick = |seed| {
            let mut inj =
                FaultInjector::new().with_random_weak_cells(&g, seed, 8, Duration::from_ms(16));
            let mut t = RetentionTracker::new(&g, Duration::from_ms(64));
            inj.apply_static_faults(&mut t, &g, Instant::ZERO);
            let rows: Vec<u64> = (0..g.total_rows())
                .filter(|&i| t.row_deadline(i) == Duration::from_ms(16))
                .collect();
            (rows, inj.stats().weak_rows_applied)
        };
        let (a, na) = pick(1);
        let (b, nb) = pick(1);
        let (c, _) = pick(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(na, 8);
        assert_eq!(nb, 8);
        assert_eq!(a.len(), 8, "weak rows must be distinct");
    }

    #[test]
    fn bit_flip_specs_enumerate_matching_rows() {
        let g = Geometry::new(1, 2, 8, 4, 64);
        let mut inj = FaultInjector::new()
            .with_spec(FaultSpec::always(
                FaultSite::exact(0, 1, 3),
                FaultKind::BitFlip { bits: 2 },
            ))
            .with_spec(FaultSpec::always(
                FaultSite::exact(0, 0, 5),
                FaultKind::BitFlip { bits: 1 },
            ));
        let sites = inj.apply_bit_flips(&g, Instant::ZERO);
        assert_eq!(sites, vec![(row(0, 1, 3), 2), (row(0, 0, 5), 1)]);
        assert_eq!(inj.stats().rows_bit_flipped, 2);
        assert_eq!(inj.events().len(), 2);
        // Bit-flip specs never perturb the dispatch path.
        assert_eq!(
            inj.perturb_refresh(row(0, 1, 3), Instant::ZERO),
            Perturbation::Pass
        );
    }

    #[test]
    fn temperature_scaling_tightens_every_deadline() {
        let g = Geometry::new(1, 1, 8, 4, 64);
        let mut inj = FaultInjector::new().with_temperature(95.0);
        let mut t = RetentionTracker::new(&g, Duration::from_ms(64));
        inj.apply_static_faults(&mut t, &g, Instant::ZERO);
        assert_eq!(t.retention(), Duration::from_ms(32));
        assert!(matches!(
            inj.events()[0].kind,
            FaultEventKind::RetentionScaled { .. }
        ));
    }

    #[test]
    fn vrt_onset_tightens_and_recovery_restores_the_deadline() {
        let g = Geometry::new(1, 2, 8, 4, 64);
        let base = Duration::from_ms(64);
        let tight = Duration::from_ms(8);
        let from = Instant::ZERO + Duration::from_ms(10);
        let until = Instant::ZERO + Duration::from_ms(30);
        let victim = row(0, 1, 5);
        let flat = g.flatten(victim);
        let mut inj = FaultInjector::new().with_spec(FaultSpec::windowed(
            FaultSite::exact(0, 1, 5),
            from,
            until,
            FaultKind::VariableRetention { deadline: tight },
        ));
        let mut t = RetentionTracker::new(&g, base);

        // Before the window: nothing moves.
        inj.apply_vrt_transitions(&mut t, &g, Instant::ZERO);
        assert_eq!(t.row_deadline(flat), base);
        assert_eq!(inj.stats().vrt_transitions, 0);

        // Onset: only the victim row tightens, and the event names it.
        inj.apply_vrt_transitions(&mut t, &g, from);
        assert_eq!(t.row_deadline(flat), tight);
        assert_eq!(t.row_deadline(0), base, "non-victim rows keep baseline");
        assert_eq!(inj.stats().vrt_transitions, 1);
        assert!(matches!(
            inj.events().last(),
            Some(FaultEvent {
                row: Some(r),
                kind: FaultEventKind::VrtOnset { deadline },
                ..
            }) if *r == victim && *deadline == tight
        ));

        // Mid-window re-application is idempotent.
        inj.apply_vrt_transitions(&mut t, &g, from + Duration::from_ms(5));
        assert_eq!(inj.stats().vrt_transitions, 1);
        assert_eq!(t.row_deadline(flat), tight);

        // Window end: the saved baseline comes back, exactly once.
        inj.apply_vrt_transitions(&mut t, &g, until);
        assert_eq!(t.row_deadline(flat), base);
        assert_eq!(inj.stats().vrt_transitions, 2);
        assert!(matches!(
            inj.events().last(),
            Some(FaultEvent {
                kind: FaultEventKind::VrtRecovered { deadline },
                ..
            }) if *deadline == base
        ));
        inj.apply_vrt_transitions(&mut t, &g, until + Duration::from_ms(5));
        assert_eq!(inj.stats().vrt_transitions, 2);
    }

    #[test]
    fn next_vrt_edge_walks_onset_then_recovery() {
        let g = Geometry::new(1, 1, 8, 4, 64);
        let mut t = RetentionTracker::new(&g, Duration::from_ms(64));
        let (from, until) = (ms(10), ms(20));
        let mut inj = FaultInjector::new().with_spec(FaultSpec::windowed(
            FaultSite::exact(0, 0, 3),
            from,
            until,
            FaultKind::VariableRetention {
                deadline: Duration::from_ms(16),
            },
        ));
        assert_eq!(inj.next_vrt_edge(), from, "the onset is next");
        inj.apply_vrt_transitions(&mut t, &g, from - Duration::from_ps(1));
        assert_eq!(
            inj.stats().vrt_transitions,
            0,
            "a call before the edge is a no-op"
        );
        inj.apply_vrt_transitions(&mut t, &g, from);
        assert_eq!(inj.stats().vrt_transitions, 1);
        assert_eq!(inj.next_vrt_edge(), until, "then the recovery");
        inj.apply_vrt_transitions(&mut t, &g, until - Duration::from_ps(1));
        assert_eq!(inj.stats().vrt_transitions, 1);
        inj.apply_vrt_transitions(&mut t, &g, until);
        assert_eq!(inj.stats().vrt_transitions, 2);
        assert_eq!(inj.next_vrt_edge(), Instant::MAX, "nothing left");
        // Non-VRT specs have no edges.
        let plain = FaultInjector::new().with_spec(FaultSpec::windowed(
            FaultSite::ANY,
            from,
            until,
            FaultKind::StallDispatch,
        ));
        assert_eq!(plain.next_vrt_edge(), Instant::MAX);
        assert!(plain.stalls_dispatch());
        assert!(!inj.stalls_dispatch());
    }

    /// The cached edge is dropped when a spec is added: an episode added
    /// after a walk that found none still starts on time.
    #[test]
    fn a_vrt_spec_added_after_a_walk_is_seen() {
        let g = Geometry::new(1, 1, 8, 4, 64);
        let mut t = RetentionTracker::new(&g, Duration::from_ms(64));
        let mut inj = FaultInjector::new();
        inj.apply_vrt_transitions(&mut t, &g, ms(5));
        assert_eq!(inj.next_vrt_edge(), Instant::MAX);
        let mut inj = inj.with_spec(FaultSpec::windowed(
            FaultSite::exact(0, 0, 3),
            ms(10),
            ms(20),
            FaultKind::VariableRetention {
                deadline: Duration::from_ms(16),
            },
        ));
        assert_eq!(inj.next_vrt_edge(), ms(10));
        inj.apply_vrt_transitions(&mut t, &g, ms(10));
        assert_eq!(inj.stats().vrt_transitions, 1);
        assert_eq!(t.row_deadline(3), Duration::from_ms(16));
    }

    #[test]
    fn a_vrt_window_skipped_between_two_calls_never_starts() {
        let g = Geometry::new(1, 1, 8, 4, 64);
        let mut t = RetentionTracker::new(&g, Duration::from_ms(64));
        let mut inj = FaultInjector::new()
            .with_spec(FaultSpec::windowed(
                FaultSite::exact(0, 0, 3),
                ms(10),
                ms(20),
                FaultKind::VariableRetention {
                    deadline: Duration::from_ms(16),
                },
            ))
            .with_spec(FaultSpec::windowed(
                FaultSite::exact(0, 0, 5),
                ms(40),
                ms(50),
                FaultKind::VariableRetention {
                    deadline: Duration::from_ms(16),
                },
            ));
        inj.apply_vrt_transitions(&mut t, &g, ms(5));
        assert_eq!(inj.next_vrt_edge(), ms(10));
        // The next call lands past the first window's end: that episode
        // is over without ever starting, and the bound moves on.
        inj.apply_vrt_transitions(&mut t, &g, ms(25));
        assert_eq!(inj.stats().vrt_transitions, 0);
        assert_eq!(t.row_deadline(3), Duration::from_ms(64));
        assert_eq!(inj.next_vrt_edge(), ms(40));
        // Nor does a later call inside the missed window revive it.
        inj.apply_vrt_transitions(&mut t, &g, ms(15));
        assert_eq!(inj.stats().vrt_transitions, 0);
        inj.apply_vrt_transitions(&mut t, &g, ms(60));
        assert_eq!(inj.next_vrt_edge(), Instant::MAX);
        assert!(inj.events().is_empty());
    }

    #[test]
    fn vrt_onset_never_loosens_an_already_tighter_row() {
        let g = Geometry::new(1, 1, 8, 4, 64);
        let victim = row(0, 0, 2);
        let flat = g.flatten(victim);
        let mut inj = FaultInjector::new().with_spec(FaultSpec::always(
            FaultSite::exact(0, 0, 2),
            FaultKind::VariableRetention {
                deadline: Duration::from_ms(32),
            },
        ));
        let mut t = RetentionTracker::new(&g, Duration::from_ms(64));
        // The row is already weaker than the episode would make it.
        t.set_row_deadline(flat, Duration::from_ms(4));
        inj.apply_vrt_transitions(&mut t, &g, Instant::ZERO);
        assert_eq!(t.row_deadline(flat), Duration::from_ms(4));
        assert_eq!(inj.stats().vrt_transitions, 0);
    }

    #[test]
    fn random_vrt_episode_is_seed_deterministic() {
        let g = Geometry::new(2, 4, 64, 8, 64);
        let window = (
            Instant::ZERO + Duration::from_ms(1),
            Instant::ZERO + Duration::from_ms(2),
        );
        let build = |seed: u64| {
            FaultInjector::new().with_random_vrt_episode(
                &g,
                seed,
                Duration::from_ms(16),
                window.0,
                window.1,
            )
        };
        assert_eq!(build(7).specs(), build(7).specs());
        let spec = build(7).specs()[0];
        assert_eq!(spec.from, window.0);
        assert_eq!(spec.until, window.1);
        assert!(matches!(
            spec.kind,
            FaultKind::VariableRetention { deadline } if deadline == Duration::from_ms(16)
        ));
        assert!(
            spec.site.rank.is_some() && spec.site.bank.is_some() && spec.site.row.is_some(),
            "the episode must pin one exact row"
        );
    }

    #[test]
    fn hammering_flips_adjacent_rows_only() {
        let g = Geometry::new(1, 2, 32, 4, 64);
        let mut inj = FaultInjector::new().with_disturbance(FaultSite::ANY, 4, 1, 0xbeef);
        let aggressor = row(0, 1, 10);
        let mut flipped = Vec::new();
        for i in 0..64u64 {
            let at = Instant::ZERO + Duration::from_us(i);
            flipped.extend(inj.note_activation(&g, aggressor, at));
        }
        assert!(inj.stats().hammer_crossings >= 2, "crossings must fire");
        assert!(!flipped.is_empty(), "sustained hammering must flip bits");
        for (victim, bits) in &flipped {
            assert!(
                *victim == row(0, 1, 9) || *victim == row(0, 1, 11),
                "flip landed off-neighbor: {victim:?}"
            );
            assert_eq!(*bits, 1);
        }
        assert_eq!(
            inj.stats().disturbance_bits_flipped,
            flipped.len() as u64,
            "one bit per successful draw"
        );
        // Rows two away never accumulate pressure.
        assert_eq!(inj.disturbance_pressure(g.flatten(row(0, 1, 8))), 0);
        assert_eq!(inj.disturbance_pressure(g.flatten(row(0, 1, 12))), 0);
    }

    #[test]
    fn restore_clears_hammer_pressure() {
        let g = Geometry::new(1, 1, 16, 4, 64);
        let mut inj = FaultInjector::new().with_disturbance(FaultSite::ANY, 100, 1, 1);
        let aggressor = row(0, 0, 5);
        for i in 0..10u64 {
            inj.note_activation(&g, aggressor, Instant::ZERO + Duration::from_us(i));
        }
        let victim = row(0, 0, 6);
        assert_eq!(inj.disturbance_pressure(g.flatten(victim)), 10);
        // A refresh of the victim clears it; the other neighbor keeps its.
        inj.note_row_restored(&g, victim);
        assert_eq!(inj.disturbance_pressure(g.flatten(victim)), 0);
        assert_eq!(inj.disturbance_pressure(g.flatten(row(0, 0, 4))), 10);
        // Activating the victim itself also clears it.
        inj.note_activation(&g, row(0, 0, 4), Instant::ZERO + Duration::from_ms(1));
        assert_eq!(inj.disturbance_pressure(g.flatten(row(0, 0, 4))), 0);
    }

    #[test]
    fn disturbance_flips_are_seed_deterministic() {
        let g = Geometry::new(1, 2, 64, 4, 64);
        let run = |seed: u64| {
            let mut inj = FaultInjector::new().with_disturbance(FaultSite::ANY, 8, 2, seed);
            let mut flips = Vec::new();
            for i in 0..256u64 {
                let aggressor = row(0, (i % 2) as u32, 20 + (i % 3) as u32 * 2);
                flips.extend(inj.note_activation(
                    &g,
                    aggressor,
                    Instant::ZERO + Duration::from_us(i),
                ));
            }
            (flips, inj.stats())
        };
        assert_eq!(run(3), run(3), "same seed, same flips");
        assert_ne!(run(3).0, run(4).0, "different seeds must diverge somewhere");
    }

    #[test]
    fn disturbance_never_perturbs_dispatch() {
        let mut inj = FaultInjector::new().with_disturbance(FaultSite::ANY, 4, 1, 0);
        assert!(inj.has_disturbance());
        assert_eq!(
            inj.perturb_refresh(row(0, 0, 1), Instant::ZERO),
            Perturbation::Pass
        );
        assert!(!inj.dispatch_stalled(Instant::ZERO));
    }

    /// The sparse per-victim pressure map the dense table replaced, with
    /// the same threshold and draw rules: the oracle for the hammer path
    /// of a one-spec injector.
    struct PressureMapModel {
        site: FaultSite,
        threshold: u32,
        bits: u8,
        pressure: BTreeMap<u64, u32>,
        rng: Rng,
        stats: FaultStats,
    }

    impl PressureMapModel {
        fn new(site: FaultSite, threshold: u32, bits: u8, seed: u64) -> Self {
            PressureMapModel {
                site,
                threshold,
                bits,
                pressure: BTreeMap::new(),
                rng: Rng::seed_from_u64(seed ^ 0xfa17_0000_0000_0003),
                stats: FaultStats::default(),
            }
        }

        fn activate(&mut self, g: &Geometry, aggressor: RowAddr) -> Vec<(RowAddr, u8)> {
            let mut flips = Vec::new();
            self.pressure.remove(&g.flatten(aggressor));
            for victim_row in [aggressor.row.checked_sub(1), aggressor.row.checked_add(1)]
                .into_iter()
                .flatten()
                .filter(|&r| r < g.rows())
            {
                let victim = RowAddr {
                    row: victim_row,
                    ..aggressor
                };
                if !self.site.matches(victim) {
                    continue;
                }
                let pressure = self.pressure.entry(g.flatten(victim)).or_insert(0);
                *pressure += 1;
                if !pressure.is_multiple_of(self.threshold) {
                    continue;
                }
                self.stats.hammer_crossings += 1;
                let crossings = u64::from(*pressure / self.threshold);
                if self.rng.gen_range(0..crossings + 1) != 0 {
                    self.stats.disturbance_bits_flipped += u64::from(self.bits);
                    flips.push((victim, self.bits));
                }
            }
            flips
        }

        fn pressure(&self, flat: u64) -> u32 {
            self.pressure.get(&flat).copied().unwrap_or(0)
        }
    }

    #[test]
    fn dense_pressure_matches_the_map_model() {
        // Only bank 1 is susceptible, so bank-0 victims never gain pressure.
        let site = FaultSite {
            rank: None,
            bank: Some(1),
            row: None,
        };
        let small = Geometry::new(1, 2, 16, 4, 64);
        let large = Geometry::new(2, 2, 32, 4, 64);
        let mut inj = FaultInjector::new().with_disturbance(site, 3, 1, 0x5eed);
        let mut model = PressureMapModel::new(site, 3, 1, 0x5eed);
        let mut rng = Rng::seed_from_u64(0x0dd_ba11);
        let beyond = [large.total_rows(), large.total_rows() + 7, u64::MAX];

        // A restore before any activation finds no slots and reads 0.
        inj.note_row_restored(&small, row(0, 1, 4));
        assert_eq!(inj.disturbance_pressure(small.flatten(row(0, 1, 4))), 0);

        let mut now = Instant::ZERO;
        // One injector serves a small geometry first, then a larger one.
        for (phase, g) in [small, large].iter().enumerate() {
            for step in 0..4_000 {
                now += Duration::from_ns(50);
                let addr = g.unflatten(rng.gen_range(0..g.total_rows()));
                if rng.gen_range(0u32..4) == 0 {
                    inj.note_row_restored(g, addr);
                    model.pressure.remove(&g.flatten(addr));
                } else {
                    // Hammer a narrow band so pressure builds past several
                    // thresholds before a restore clears it.
                    let addr = RowAddr {
                        row: addr.row % 6,
                        ..addr
                    };
                    let got = inj.note_activation(g, addr, now);
                    assert_eq!(got, model.activate(g, addr), "phase {phase} step {step}");
                }
                assert_eq!(inj.stats(), model.stats, "phase {phase} step {step}");
            }
            for flat in (0..large.total_rows()).chain(beyond) {
                assert_eq!(
                    inj.disturbance_pressure(flat),
                    model.pressure(flat),
                    "phase {phase} flat {flat}"
                );
            }
        }
        assert!(
            model.stats.disturbance_bits_flipped > 0 && !model.pressure.is_empty(),
            "the sequence must flip bits and leave pressure behind"
        );
        // Bank-0 rows are outside the site: untouched, so they read 0.
        assert_eq!(inj.disturbance_pressure(large.flatten(row(1, 0, 2))), 0);
    }

    #[test]
    fn disturbance_respects_edge_rows_and_site_filters() {
        let g = Geometry::new(1, 1, 8, 4, 64);
        // Only bank-0 row 1 is susceptible.
        let mut inj = FaultInjector::new().with_disturbance(FaultSite::exact(0, 0, 1), 1, 1, 9);
        // Hammer row 0: only neighbor row 1 matches the site; row -1 does
        // not exist and must not underflow.
        for i in 0..8u64 {
            inj.note_activation(&g, row(0, 0, 0), Instant::ZERO + Duration::from_us(i));
        }
        assert!(inj.disturbance_pressure(g.flatten(row(0, 0, 1))) > 0);
        // Hammer the top row: neighbor 8 is out of range, neighbor 6 does
        // not match the site — no pressure anywhere new.
        inj.note_activation(&g, row(0, 0, 7), Instant::ZERO + Duration::from_ms(1));
        assert_eq!(inj.disturbance_pressure(g.flatten(row(0, 0, 6))), 0);
    }
}
