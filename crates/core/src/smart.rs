//! The Smart Refresh policy (§4) — the paper's contribution.
//!
//! One k-bit down-counter per `(rank, bank, row)` is kept in the memory
//! controller. Opening or closing a row resets its counter to the maximum
//! (the access itself restored the charge); the staggered update circuitry
//! walks the counter array and only generates a refresh for counters that
//! have counted all the way down — i.e. rows that went a full retention
//! interval without any access. Refreshes are dispatched as RAS-only
//! commands through the bounded pending queue of §5.
//!
//! # Correctness (§4.3)
//!
//! Every counter is examined exactly once per access period
//! `P = retention / 2^k`. After an access at time `a` resets a counter to
//! `2^k - 1`, the counter is examined at `a + δ` (`δ ≤ P`), decremented
//! `2^k - 1` times, and found zero at `a + δ + (2^k - 1)·P ≤ a + 2^k·P =
//! a + retention` — so the refresh is never late, for any access pattern.
//! The property tests in this crate machine-check that argument against the
//! retention tracker.
//!
//! # Fallback mode (§4.6)
//!
//! Below the activity watermark the policy stops consulting the counters on
//! accesses and lets the countdown run free, which makes it a perfectly
//! distributed once-per-interval sweep at each row's locked phase. This is
//! energy-modelled as the conventional CBR policy (no counter-array or
//! address-bus charges), per the paper's description of the disable
//! circuitry; see DESIGN.md for the correctness discussion of why the
//! phase-preserving sweep is used instead of handing control to the
//! device-internal CBR counter (which §3 notes cannot be re-aligned).

use std::collections::VecDeque;

use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{Geometry, RowAddr};

use smartrefresh_dram::profile::RetentionProfile;

use crate::counter::CounterArray;
use crate::hysteresis::{ActivityMonitor, HysteresisConfig, PolicyMode};
use crate::policy::{DegradationEvent, DegradeCause, RefreshAction, RefreshPolicy, SramTraffic};
use crate::queue::PendingRefreshQueue;
use crate::stagger::StaggerSchedule;

/// Configuration of the Smart Refresh engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmartRefreshConfig {
    /// Counter width in bits (paper: 2-bit exposition, 3-bit simulations).
    pub counter_bits: u32,
    /// Number of stagger segments (paper: 8).
    pub segments: u32,
    /// Pending refresh queue capacity (paper: 8).
    pub queue_capacity: usize,
    /// Auto enable/disable thresholds; `None` keeps Smart Refresh always on.
    pub hysteresis: Option<HysteresisConfig>,
}

impl SmartRefreshConfig {
    /// The configuration used for all of the paper's simulations: 3-bit
    /// counters, 8 segments, 8-entry queue, 1%/2% hysteresis.
    pub fn paper_defaults() -> Self {
        SmartRefreshConfig {
            counter_bits: 3,
            segments: 8,
            queue_capacity: 8,
            hysteresis: Some(HysteresisConfig::paper_defaults()),
        }
    }
}

impl Default for SmartRefreshConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Statistics specific to the Smart Refresh engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SmartRefreshStats {
    /// Refresh requests generated (counters found at zero).
    pub refreshes_requested: u64,
    /// Counter resets caused by row opens/closes.
    pub access_resets: u64,
    /// Times the bounded queue would have overflowed (contract violations;
    /// the spilled entries are still dispatched so correctness holds).
    pub queue_overflows: u64,
    /// Mode switches performed by the hysteresis circuitry.
    pub mode_switches: u64,
}

/// The Smart Refresh policy engine.
///
/// # Examples
///
/// ```
/// use smartrefresh_core::{RefreshPolicy, SmartRefresh, SmartRefreshConfig};
/// use smartrefresh_dram::{Geometry, RowAddr};
/// use smartrefresh_dram::time::{Duration, Instant};
///
/// let g = Geometry::new(1, 2, 16, 4, 64);
/// let mut p = SmartRefresh::new(
///     g,
///     Duration::from_ms(64),
///     SmartRefreshConfig { hysteresis: None, ..SmartRefreshConfig::paper_defaults() },
/// );
/// // A row accessed now will not appear in the refresh stream for a full
/// // retention interval.
/// p.on_row_opened(RowAddr { rank: 0, bank: 0, row: 3 }, Instant::ZERO);
/// p.advance(Instant::ZERO + Duration::from_ms(60));
/// let mut refreshed_row3 = false;
/// while let Some(a) = p.pop_pending() {
///     if let smartrefresh_core::RefreshAction::RasOnly { row, .. } = a {
///         refreshed_row3 |= row.row == 3 && row.bank == 0;
///     }
/// }
/// assert!(!refreshed_row3);
/// ```
#[derive(Debug, Clone)]
pub struct SmartRefresh {
    geometry: Geometry,
    cfg: SmartRefreshConfig,
    retention: Duration,
    counters: CounterArray,
    schedule: StaggerSchedule,
    next_tick: u64,
    /// `next_tick % rows_per_segment`: the walk's offset within each
    /// segment, kept as a wrap-around cursor instead of a per-tick divide.
    walk_offset: u64,
    queue: PendingRefreshQueue,
    spill: VecDeque<RefreshAction>,
    sram: SramTraffic,
    monitor: Option<ActivityMonitor>,
    /// Graceful-degradation log: forced falls back to the CBR sweep, with
    /// cause and (once re-armed) duration.
    degradations: Vec<DegradationEvent>,
    last_mode: PolicyMode,
    /// Per-row countdown strides for the retention-aware combination (§8):
    /// a row with stride `2^m` has its counter examined every `2^m`-th walk
    /// visit, stretching its refresh deadline to `retention << m`.
    strides: Option<StrideState>,
    stats: SmartRefreshStats,
}

#[derive(Debug, Clone)]
struct StrideState {
    log2: Vec<u8>,
    phase: Vec<u8>,
}

impl SmartRefresh {
    /// Creates the engine for a module with the given retention interval.
    ///
    /// # Panics
    ///
    /// Panics on a zero-dimension configuration (see
    /// [`StaggerSchedule::new`] and [`CounterArray::new`]).
    pub fn new(geometry: Geometry, retention: Duration, cfg: SmartRefreshConfig) -> Self {
        let total = geometry.total_rows();
        let schedule = StaggerSchedule::new(total, cfg.segments, cfg.counter_bits, retention);
        let monitor = cfg
            .hysteresis
            .map(|h| ActivityMonitor::new(h, retention, total));
        SmartRefresh {
            geometry,
            cfg,
            retention,
            counters: CounterArray::new(total, cfg.counter_bits),
            schedule,
            next_tick: 0,
            walk_offset: 0,
            queue: PendingRefreshQueue::new(cfg.queue_capacity),
            spill: VecDeque::new(),
            sram: SramTraffic::default(),
            monitor,
            degradations: Vec::new(),
            last_mode: PolicyMode::Smart,
            strides: None,
            stats: SmartRefreshStats::default(),
        }
    }

    /// Creates the engine with a per-row retention profile — the §8
    /// combination of Smart Refresh with retention-aware (RAPID-style)
    /// refresh. A row whose cells retain data for `retention << m` has its
    /// countdown strided by `2^m`, so an idle strong row is refreshed once
    /// per *its own* deadline instead of the worst-case one, while accesses
    /// still reset the counter and eliminate the refresh entirely.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not cover the module's rows.
    pub fn with_profile(
        geometry: Geometry,
        retention: Duration,
        cfg: SmartRefreshConfig,
        profile: &RetentionProfile,
    ) -> Self {
        let mut engine = Self::new(geometry, retention, cfg);
        assert_eq!(
            profile.len(),
            geometry.total_rows(),
            "profile must cover every row"
        );
        engine.strides = Some(StrideState {
            log2: profile.iter().collect(),
            phase: vec![0; profile.len() as usize],
        });
        engine
    }

    /// Current mode (always [`PolicyMode::Smart`] when hysteresis is off).
    pub fn mode(&self) -> PolicyMode {
        self.monitor
            .as_ref()
            .map_or(PolicyMode::Smart, ActivityMonitor::mode)
    }

    /// Engine statistics.
    pub fn stats(&self) -> SmartRefreshStats {
        let mut s = self.stats;
        s.mode_switches = self.monitor.as_ref().map_or(0, ActivityMonitor::switches);
        s
    }

    /// The stagger schedule in use (exposed for inspection and tests).
    pub fn schedule(&self) -> &StaggerSchedule {
        &self.schedule
    }

    /// Direct read access to the counter array (for visualisation examples).
    pub fn counters(&self) -> &CounterArray {
        &self.counters
    }

    /// Enters the graceful-degradation path: forces the §4.6 fallback (the
    /// phase-preserving CBR sweep keeps every row alive) and opens a logged
    /// episode. If the engine was built without hysteresis, the circuitry is
    /// armed on the fly with the paper's watermarks so the normal re-enable
    /// path still applies. A no-op while an episode is already open.
    fn enter_degraded(&mut self, cause: DegradeCause, now: Instant) {
        if self
            .degradations
            .last()
            .is_some_and(|e| e.recovered_at.is_none())
        {
            return;
        }
        if self.monitor.is_none() {
            self.monitor = Some(ActivityMonitor::starting_at(
                HysteresisConfig::paper_defaults(),
                self.retention,
                self.geometry.total_rows(),
                now,
            ));
        }
        if let Some(m) = &mut self.monitor {
            m.force_fallback(now);
        }
        self.last_mode = PolicyMode::FallbackCbr;
        self.degradations.push(DegradationEvent {
            cause,
            at: now,
            recovered_at: None,
        });
    }

    /// Closes the open degradation episode when the hysteresis path has
    /// switched the engine back to smart mode.
    fn note_mode(&mut self, mode: PolicyMode, now: Instant) {
        if self.last_mode == PolicyMode::FallbackCbr && mode == PolicyMode::Smart {
            if let Some(e) = self
                .degradations
                .last_mut()
                .filter(|e| e.recovered_at.is_none())
            {
                e.recovered_at = Some(now);
            }
        }
        self.last_mode = mode;
    }

    fn reset_on_access(&mut self, row: RowAddr, now: Instant) {
        if let Some(m) = &mut self.monitor {
            let mode = m.roll_to(now);
            self.note_mode(mode, now);
        }
        let smart = self.mode() == PolicyMode::Smart;
        if smart {
            let idx = self.geometry.flatten(row);
            self.counters.reset(idx);
            if let Some(st) = &mut self.strides {
                st.phase[idx as usize] = 0;
            }
            self.sram.writes += 1;
            self.stats.access_resets += 1;
        }
    }

    fn process_tick(&mut self, tick: u64) {
        let now = self.schedule.tick_time(tick);
        let mode = match &mut self.monitor {
            Some(m) => m.roll_to(now),
            None => PolicyMode::Smart,
        };
        self.note_mode(mode, now);
        let charged = mode == PolicyMode::Smart;
        let rps = self.schedule.rows_per_segment();
        let offset = self.walk_offset;
        self.walk_offset = if offset + 1 == rps { 0 } else { offset + 1 };
        let total = self.schedule.total_rows();
        for s in 0..u64::from(self.cfg.segments) {
            let idx = s * rps + offset;
            if idx >= total {
                continue;
            }
            if charged {
                self.sram.reads += 1;
            }
            // Retention-aware stride gate: strong rows advance their
            // countdown only every 2^m-th visit.
            if let Some(st) = &mut self.strides {
                let i = idx as usize;
                let stride = 1u8 << st.log2[i];
                st.phase[i] = st.phase[i].wrapping_add(1);
                if st.phase[i] < stride {
                    continue;
                }
                st.phase[i] = 0;
            }
            if self.counters.is_zero(idx) {
                // Reset back to max and request a refresh for the row.
                self.counters.reset(idx);
                if charged {
                    self.sram.writes += 1;
                }
                self.stats.refreshes_requested += 1;
                let row = self.geometry.unflatten(idx);
                let action = RefreshAction::RasOnly {
                    row,
                    charge_bus: charged,
                };
                if self.queue.push(row, charged, now).is_err() {
                    // §5 argues this cannot happen when the controller drains
                    // between ticks; spill rather than drop so data is safe,
                    // and degrade to the CBR sweep since the dispatch
                    // contract is evidently broken.
                    self.stats.queue_overflows += 1;
                    self.spill.push_back(action);
                    self.enter_degraded(DegradeCause::QueueOverflow, now);
                }
            } else {
                self.counters.decrement(idx);
                if charged {
                    self.sram.writes += 1;
                }
            }
        }
    }
}

impl RefreshPolicy for SmartRefresh {
    fn name(&self) -> &'static str {
        "smart"
    }

    fn on_row_opened(&mut self, row: RowAddr, now: Instant) {
        if let Some(m) = &mut self.monitor {
            m.record_access(now);
        }
        self.reset_on_access(row, now);
    }

    fn on_row_closed(&mut self, row: RowAddr, now: Instant) {
        // Closing a page rewrites the cells (§4.1), so the counter resets
        // again; the close is not counted as a new access by the monitor.
        self.reset_on_access(row, now);
    }

    fn next_wakeup(&self) -> Option<Instant> {
        Some(self.schedule.tick_time(self.next_tick))
    }

    fn advance(&mut self, now: Instant) {
        while self.schedule.tick_time(self.next_tick) <= now {
            let t = self.next_tick;
            self.next_tick += 1;
            self.process_tick(t);
        }
    }

    fn pop_pending(&mut self) -> Option<RefreshAction> {
        if let Some(p) = self.queue.pop() {
            // Whether the entry is charged bus energy was decided when it
            // was enqueued (smart mode drives the row address, the fallback
            // sweep does not) and travels with it: a degrade that fires
            // before the queue drains must not re-tag it.
            return Some(RefreshAction::RasOnly {
                row: p.row,
                charge_bus: p.charge_bus,
            });
        }
        self.spill.pop_front()
    }

    fn pending_len(&self) -> usize {
        self.queue.len() + self.spill.len()
    }

    fn sram_traffic(&self) -> SramTraffic {
        self.sram
    }

    fn queue_high_water(&self) -> usize {
        self.queue.high_water()
    }

    fn in_fallback(&self) -> bool {
        self.mode() == PolicyMode::FallbackCbr
    }

    fn degrade(&mut self, cause: DegradeCause, now: Instant) {
        self.enter_degraded(cause, now);
    }

    fn degradation_events(&self) -> &[DegradationEvent] {
        &self.degradations
    }

    fn on_powerdown_wake(&mut self, now: Instant, reset_counters: bool) -> u64 {
        let entries = self.counters.len();
        if reset_counters {
            // The counter SRAM was unpowered: no stored time-out value can
            // be trusted, so force every row to the refresh-now state (one
            // SRAM write per entry) and stand down to the safe CBR sweep
            // until the hysteresis machinery re-arms.
            self.counters.zero_all();
            self.sram.writes += entries;
            self.enter_degraded(DegradeCause::CounterPowerLoss, now);
        }
        // Snapshot restore leaves the values as checkpointed; the caller
        // prices the round trip from the returned entry count.
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> Geometry {
        Geometry::new(1, 2, 16, 4, 64) // 32 rows
    }

    fn engine(hysteresis: bool) -> SmartRefresh {
        let cfg = SmartRefreshConfig {
            counter_bits: 2,
            segments: 4,
            queue_capacity: 4,
            hysteresis: hysteresis.then(HysteresisConfig::paper_defaults),
        };
        SmartRefresh::new(geometry(), Duration::from_ms(64), cfg)
    }

    fn drain(p: &mut SmartRefresh) -> Vec<RefreshAction> {
        let mut v = Vec::new();
        while let Some(a) = p.pop_pending() {
            v.push(a);
        }
        v
    }

    fn ms(n: u64) -> Instant {
        Instant::ZERO + Duration::from_ms(n)
    }

    #[test]
    fn idle_engine_refreshes_every_row_once_per_interval() {
        let mut p = engine(false);
        let mut per_row = vec![0u32; 32];
        let mut last_refresh = vec![Instant::ZERO; 32];
        let g = geometry();
        let mut t = Duration::ZERO;
        // Drive tick by tick for two intervals, checking deadlines.
        while t <= Duration::from_ms(128) {
            p.advance(Instant::ZERO + t);
            for a in drain(&mut p) {
                if let RefreshAction::RasOnly { row, .. } = a {
                    let idx = g.flatten(row) as usize;
                    per_row[idx] += 1;
                    let gap = (Instant::ZERO + t).since(last_refresh[idx]);
                    assert!(
                        gap <= Duration::from_ms(64),
                        "row {idx} gap {gap} exceeds retention"
                    );
                    last_refresh[idx] = Instant::ZERO + t;
                }
            }
            t += Duration::from_us(100);
        }
        assert!(
            per_row.iter().all(|&c| c == 2),
            "each row refreshed once per interval: {per_row:?}"
        );
    }

    #[test]
    fn degrade_before_the_queue_drains_keeps_the_enqueued_charge() {
        let mut p = engine(false);
        let mut t = Instant::ZERO;
        // Idle counters reach zero after one interval; stop at the first
        // tick that queues refreshes, in smart mode.
        while p.pending_len() == 0 {
            t = p.next_wakeup().expect("smart engine always has a tick");
            p.advance(t);
        }
        assert_eq!(p.mode(), PolicyMode::Smart);
        let queued = p.pending_len();
        // A dispatch-path fault degrades the policy mid-drain.
        p.degrade(DegradeCause::External, t);
        assert_eq!(p.mode(), PolicyMode::FallbackCbr);
        let drained = drain(&mut p);
        assert_eq!(drained.len(), queued);
        for a in drained {
            assert!(
                matches!(
                    a,
                    RefreshAction::RasOnly {
                        charge_bus: true,
                        ..
                    }
                ),
                "entry enqueued in smart mode lost its bus charge: {a:?}"
            );
        }
        // Entries enqueued after the degrade belong to the fallback sweep,
        // which drives no row address.
        while p.pending_len() == 0 {
            t = p.next_wakeup().expect("smart engine always has a tick");
            p.advance(t);
        }
        assert!(drain(&mut p).iter().all(|a| matches!(
            a,
            RefreshAction::RasOnly {
                charge_bus: false,
                ..
            }
        )));
    }

    #[test]
    fn accessed_row_skips_its_periodic_refresh() {
        let mut p = engine(false);
        let g = geometry();
        let hot = RowAddr {
            rank: 0,
            bank: 0,
            row: 5,
        };
        // Touch the hot row every 10 ms.
        let mut refreshed_hot = 0u32;
        let mut refreshed_total = 0u32;
        for step in 0..640u64 {
            let now = Instant::ZERO + Duration::from_us(100) * step; // 64 ms total
            if step % 100 == 0 {
                p.on_row_opened(hot, now);
            }
            p.advance(now);
            for a in drain(&mut p) {
                if let RefreshAction::RasOnly { row, .. } = a {
                    refreshed_total += 1;
                    if g.flatten(row) == g.flatten(hot) {
                        refreshed_hot += 1;
                    }
                }
            }
        }
        assert_eq!(refreshed_hot, 0, "hot row must never be refreshed");
        assert!(refreshed_total >= 20, "cold rows still refresh");
        assert!(p.stats().access_resets >= 7);
    }

    #[test]
    fn queue_never_exceeds_segment_count_when_drained() {
        let mut p = engine(false);
        for step in 0..20_000u64 {
            p.advance(Instant::ZERO + Duration::from_us(10) * step);
            drain(&mut p);
        }
        assert!(
            p.queue_high_water() <= 4,
            "high water {}",
            p.queue_high_water()
        );
        assert_eq!(p.stats().queue_overflows, 0);
    }

    #[test]
    fn sram_traffic_counts_reads_and_writes() {
        let mut p = engine(false);
        // One full access period: every counter examined once.
        p.advance(Instant::ZERO + Duration::from_ms(16));
        drain(&mut p);
        let t = p.sram_traffic();
        assert_eq!(t.reads, 32, "each of 32 counters read once per period");
        assert_eq!(t.writes, 32, "each examined counter written back");
    }

    #[test]
    fn fallback_mode_stops_charging_sram() {
        let mut p = engine(true);
        // No accesses at all: first window boundary switches to fallback.
        p.advance(ms(200));
        drain(&mut p);
        assert_eq!(p.mode(), PolicyMode::FallbackCbr);
        let after_first_window = p.sram_traffic();
        p.advance(ms(400));
        drain(&mut p);
        assert_eq!(
            p.sram_traffic(),
            after_first_window,
            "no SRAM charges accrue during fallback"
        );
        assert!(p.stats().mode_switches >= 1);
    }

    #[test]
    fn fallback_still_refreshes_every_row() {
        let mut p = engine(true);
        let mut count = 0u64;
        let mut t = Duration::ZERO;
        while t <= Duration::from_ms(256) {
            p.advance(Instant::ZERO + t);
            count += drain(&mut p).len() as u64;
            t += Duration::from_us(250);
        }
        // 4 intervals x 32 rows = 128 refreshes expected.
        assert_eq!(count, 128);
    }

    #[test]
    fn fallback_refreshes_are_not_bus_charged() {
        let mut p = engine(true);
        p.advance(ms(80)); // past the first idle window boundary
        let actions = drain(&mut p);
        assert!(!actions.is_empty());
        let late: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                RefreshAction::RasOnly { charge_bus, .. } => Some(*charge_bus),
                RefreshAction::Cbr { .. } => None,
            })
            .collect();
        assert!(
            late.iter().any(|&c| !c),
            "fallback-period refreshes uncharged"
        );
    }

    #[test]
    fn busy_engine_stays_in_smart_mode() {
        let mut p = engine(true);
        // 32 rows; >2% means >0.64 accesses/window — touch one row per ms.
        for i in 0..200u64 {
            p.on_row_opened(
                RowAddr {
                    rank: 0,
                    bank: 0,
                    row: (i % 16) as u32,
                },
                Instant::ZERO + Duration::from_ms(i),
            );
            p.advance(Instant::ZERO + Duration::from_ms(i));
            drain(&mut p);
        }
        assert_eq!(p.mode(), PolicyMode::Smart);
        assert_eq!(p.stats().mode_switches, 0);
    }

    #[test]
    fn strided_rows_refresh_at_their_own_deadline() {
        // All rows at 2x the base retention: the idle engine must refresh
        // each row once per 128 ms instead of per 64 ms.
        let g = geometry();
        let profile = RetentionProfile::from_bins(g.total_rows(), 0, &[(1, 1.0)]);
        let cfg = SmartRefreshConfig {
            counter_bits: 2,
            segments: 4,
            queue_capacity: 4,
            hysteresis: None,
        };
        let mut p = SmartRefresh::with_profile(g, Duration::from_ms(64), cfg, &profile);
        let mut count = 0u64;
        let mut t = Duration::ZERO;
        while t <= Duration::from_ms(256) {
            p.advance(Instant::ZERO + t);
            count += drain(&mut p).len() as u64;
            t += Duration::from_us(250);
        }
        // 256 ms at one refresh per row per 128 ms = 2 x 32 rows.
        assert_eq!(count, 64);
    }

    #[test]
    fn stride_mix_refreshes_weak_rows_faster() {
        let g = geometry();
        // Rows 0..16 (bank 0) weak (1x), rows 16..32 strong (4x) — use a
        // hand-built profile via from_bins on a half/half split is random,
        // so instead check aggregate rate.
        let profile = RetentionProfile::from_bins(g.total_rows(), 3, &[(0, 0.5), (2, 0.5)]);
        let cfg = SmartRefreshConfig {
            counter_bits: 2,
            segments: 4,
            queue_capacity: 4,
            hysteresis: None,
        };
        let mut p = SmartRefresh::with_profile(g, Duration::from_ms(64), cfg, &profile);
        let mut count = 0u64;
        let mut t = Duration::ZERO;
        // One full period of the slowest bin: 4 x 64 ms.
        while t <= Duration::from_ms(256) {
            p.advance(Instant::ZERO + t);
            count += drain(&mut p).len() as u64;
            t += Duration::from_us(250);
        }
        let expected = (profile.ideal_refresh_fraction() * 32.0 * 4.0).round() as u64;
        let diff = count.abs_diff(expected);
        assert!(diff <= 2, "count {count}, expected {expected}");
    }

    #[test]
    fn access_resets_stride_phase_too() {
        let g = geometry();
        let profile = RetentionProfile::from_bins(g.total_rows(), 0, &[(1, 1.0)]);
        let cfg = SmartRefreshConfig {
            counter_bits: 2,
            segments: 4,
            queue_capacity: 4,
            hysteresis: None,
        };
        let mut p = SmartRefresh::with_profile(g, Duration::from_ms(64), cfg, &profile);
        let hot = RowAddr {
            rank: 0,
            bank: 0,
            row: 5,
        };
        // Touch the hot row every 50 ms; over 2x-retention (128 ms) windows
        // it must never be refreshed.
        let mut refreshed_hot = 0u32;
        for step in 0..2560u64 {
            let now = Instant::ZERO + Duration::from_us(100) * step; // 256 ms
            if step % 500 == 0 {
                p.on_row_opened(hot, now);
            }
            p.advance(now);
            for a in drain(&mut p) {
                if let RefreshAction::RasOnly { row, .. } = a {
                    if geometry().flatten(row) == geometry().flatten(hot) {
                        refreshed_hot += 1;
                    }
                }
            }
        }
        assert_eq!(refreshed_hot, 0);
    }

    #[test]
    fn next_wakeup_tracks_tick_schedule() {
        let p = engine(false);
        assert_eq!(p.next_wakeup(), Some(p.schedule().tick_time(0)));
    }

    #[test]
    fn forced_overflow_degrades_to_fallback_and_logs() {
        // One-entry queue, never drained: the second zero-counter in a tick
        // overflows, which must spill (data safety), degrade to the CBR
        // sweep, and open a logged episode.
        let cfg = SmartRefreshConfig {
            counter_bits: 2,
            segments: 4,
            queue_capacity: 1,
            hysteresis: None,
        };
        let mut p = SmartRefresh::new(geometry(), Duration::from_ms(64), cfg);
        // Advance a whole interval without draining: counters hit zero in
        // groups of `segments` per tick.
        p.advance(ms(64));
        assert!(p.stats().queue_overflows > 0);
        assert!(p.in_fallback(), "overflow must degrade to the CBR sweep");
        let events = p.degradation_events();
        assert_eq!(events.len(), 1, "one open episode, not one per overflow");
        assert_eq!(events[0].cause, DegradeCause::QueueOverflow);
        assert!(events[0].recovered_at.is_none());
        // All requested refreshes are still deliverable (queue + spill).
        let total = drain(&mut p).len();
        assert_eq!(total as u64, p.stats().refreshes_requested);
    }

    #[test]
    fn degraded_engine_rearms_via_hysteresis_and_closes_episode() {
        let mut p = engine(true);
        // Stay busy so the engine is in smart mode, then degrade externally.
        for i in 0..5u64 {
            p.on_row_opened(
                RowAddr {
                    rank: 0,
                    bank: 0,
                    row: (i % 16) as u32,
                },
                ms(i),
            );
        }
        p.degrade(DegradeCause::FaultInjection, ms(5));
        assert!(p.in_fallback());
        // A busy following window re-arms via the normal watermark path
        // (32 rows: >2% means at least one access per window). Drain after
        // every advance like the controller does, so the fallback sweep
        // cannot re-overflow the queue.
        for i in 0..120u64 {
            p.on_row_opened(
                RowAddr {
                    rank: 0,
                    bank: 0,
                    row: (i % 16) as u32,
                },
                ms(6 + i),
            );
            p.advance(ms(6 + i));
            drain(&mut p);
        }
        p.advance(ms(130));
        drain(&mut p);
        assert!(!p.in_fallback(), "hysteresis must re-arm the engine");
        let e = p.degradation_events()[0];
        assert_eq!(e.cause, DegradeCause::FaultInjection);
        let recovered = e.recovered_at.expect("episode closed");
        assert!(recovered > e.at);
        assert_eq!(e.duration(), Some(recovered.since(e.at)));
    }

    #[test]
    fn degrade_installs_hysteresis_when_absent() {
        let mut p = engine(false);
        assert!(p.degradation_events().is_empty());
        p.degrade(DegradeCause::External, ms(1));
        assert!(p.in_fallback());
        assert_eq!(p.degradation_events().len(), 1);
        // Fallback still refreshes: a full interval yields every row.
        let mut count = 0usize;
        let mut t = Duration::from_ms(1);
        while t <= Duration::from_ms(66) {
            p.advance(Instant::ZERO + t);
            count += drain(&mut p).len();
            t += Duration::from_us(250);
        }
        assert_eq!(count, 32, "the CBR sweep keeps every row alive");
    }
}
