//! Refresh–access parallelism: DARP deferral and the demand-burst tracker.
//!
//! The Smart Refresh counters tell the controller *when* each row must
//! refresh; they say nothing about when it is *cheap* to do so. Chang et
//! al.'s DARP ("Improving DRAM Performance by Parallelizing Refreshes with
//! Accesses") hides refresh cost behind demand traffic in two ways, both
//! implemented here as opt-in controller capabilities:
//!
//! * **Out-of-order per-bank deferral** ([`DarpEngine`]): a due refresh
//!   whose bank holds an open *hot* page (used within
//!   [`DarpConfig::hot_window`]) is held back while refreshes to idle
//!   banks issue ahead of it, so the maintenance traffic drains into
//!   demand gaps instead of closing pages mid-burst. Deferral is bounded
//!   by [`DarpConfig::max_deferral`], which must stay under the protocol
//!   sanitizer's per-bank `8 × tREFI` refresh-deferral rule — past the
//!   bound the refresh is forced through the open page, exactly like the
//!   non-DARP path.
//! * **Demand-burst phase tracking** ([`BurstTracker`]): a bounded ring of
//!   recent activation times the system-level co-scheduler reads to skew
//!   each channel's scrub slots away from the phase where demand bursts
//!   cluster (the scheduling half of DARP, applied to patrol scrubs).
//!
//! Both default off; an unconfigured controller behaves bit-identically to
//! one built before this module existed.

use smartrefresh_core::RefreshAction;
use smartrefresh_dram::time::{Duration, Instant};

/// DARP dispatch parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DarpConfig {
    /// A bank whose open page was used within this window counts as *hot*;
    /// refreshes due to hot banks are deferred while idle banks take
    /// theirs out of order.
    pub hot_window: Duration,
    /// Longest a due refresh may be deferred before it is force-issued
    /// through the open page. Keep this under the sanitizer's `8 × tREFI`
    /// per-bank deferral bound (the issue instant also absorbs bank-busy
    /// wait on top of the deferral).
    pub max_deferral: Duration,
}

impl DarpConfig {
    /// A configuration bounded by the per-bank refresh interval `trefi`
    /// (`retention / rows`): deferral capped at `6 × tREFI`, leaving two
    /// intervals of margin under the sanitizer's `8 × tREFI` rule for
    /// bank-busy wait, with a 1 µs hot-page window.
    pub fn bounded_by_trefi(trefi: Duration) -> Self {
        DarpConfig {
            hot_window: Duration::from_us(1),
            max_deferral: trefi * 6,
        }
    }
}

/// One refresh action the engine is holding back, with the wakeup at which
/// it fell due (the sanitizer's deferral bound is measured from `due`, so
/// it must survive across dispatch passes).
#[derive(Debug, Clone, Copy)]
pub struct DeferredRefresh {
    /// The held-back refresh.
    pub action: RefreshAction,
    /// The policy wakeup at which the action fell due.
    pub due: Instant,
    /// Whether this entry has already been counted in
    /// [`DarpStats::deferred`] (an action deferred across several dispatch
    /// passes counts once).
    counted: bool,
}

/// Counters the DARP engine accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DarpStats {
    /// Due refreshes deferred at least once because their bank held an
    /// open hot page.
    pub deferred: u64,
    /// Refreshes issued out of order, ahead of an older deferred one.
    pub ooo_issued: u64,
    /// Deferred refreshes force-issued through a still-open page at the
    /// deferral bound.
    pub forced: u64,
}

/// Deferral state for DARP dispatch: the queue of held-back refreshes and
/// the decision of which pending actions may issue now.
#[derive(Debug, Clone)]
pub struct DarpEngine {
    cfg: DarpConfig,
    queue: Vec<DeferredRefresh>,
    stats: DarpStats,
}

impl DarpEngine {
    /// Creates an engine with an empty deferral queue.
    pub fn new(cfg: DarpConfig) -> Self {
        DarpEngine {
            cfg,
            queue: Vec::new(),
            stats: DarpStats::default(),
        }
    }

    /// The dispatch parameters.
    pub fn config(&self) -> DarpConfig {
        self.cfg
    }

    /// The accumulated counters.
    pub fn stats(&self) -> DarpStats {
        self.stats
    }

    /// Refreshes currently held back.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Adds a newly due action to the deferral queue (it may still issue
    /// in the same dispatch pass if its bank is cold).
    pub fn push(&mut self, action: RefreshAction, due: Instant) {
        self.queue.push(DeferredRefresh {
            action,
            due,
            counted: false,
        });
    }

    /// Takes the whole queue for a dispatch pass. The controller issues
    /// what it can and returns the survivors via
    /// [`DarpEngine::retain`]; splitting the pass this way keeps the
    /// engine borrow-free while the controller drives the device.
    pub fn take_queue(&mut self) -> Vec<DeferredRefresh> {
        std::mem::take(&mut self.queue)
    }

    /// Returns a still-deferred entry to the queue, counting a first-time
    /// deferral in [`DarpStats::deferred`]. Queue order (due order) is
    /// preserved because the dispatch pass walks entries front to back.
    pub fn retain(&mut self, mut entry: DeferredRefresh) {
        if !entry.counted {
            entry.counted = true;
            self.stats.deferred += 1;
        }
        self.queue.push(entry);
    }

    /// Whether `now` has reached the deferral bound for an action that
    /// fell due at `due`.
    pub fn must_force(&self, due: Instant, now: Instant) -> bool {
        now.saturating_since(due) >= self.cfg.max_deferral
    }

    /// The earliest instant a dispatch pass could issue a held entry, given
    /// `open_page_use(rank, bank)`: when demand last used the bank's open
    /// page, or `None` when the bank holds no open page. A held entry issues once
    /// its bank cools (no open page, or unused for longer than
    /// [`DarpConfig::hot_window`]) or once it reaches
    /// [`DarpConfig::max_deferral`], whichever comes first; a closed bank
    /// makes it due at once (`Instant::ZERO`). An empty queue gives
    /// `Instant::MAX`: entries only join at policy wakeups.
    pub fn next_due(&self, mut open_page_use: impl FnMut(u32, u32) -> Option<Instant>) -> Instant {
        self.queue
            .iter()
            .map(|entry| {
                let (rank, bank) = entry.action.target_bank();
                let forced = entry.due + self.cfg.max_deferral;
                open_page_use(rank, bank).map_or(Instant::ZERO, |used| {
                    // Hot while `now - used <= hot_window`: cold one
                    // picosecond past the window.
                    forced.min(used + self.cfg.hot_window + Duration::from_ps(1))
                })
            })
            .min()
            .unwrap_or(Instant::MAX)
    }

    /// Counts one out-of-order issue (a younger action overtaking an older
    /// deferred one).
    pub fn note_ooo(&mut self) {
        self.stats.ooo_issued += 1;
    }

    /// Counts one forced issue at the deferral bound.
    pub fn note_forced(&mut self) {
        self.stats.forced += 1;
    }
}

/// Bounded ring of recent activation instants, newest last.
///
/// The controller records every row activation it issues; the system-level
/// maintenance scheduler folds the recent history into a phase histogram
/// (modulo its slot interval) and skews the channel's next scrub slot into
/// the quietest phase. The ring is deterministic and allocation-stable: a
/// fixed capacity, overwritten oldest-first.
#[derive(Debug, Clone)]
pub struct BurstTracker {
    buf: Vec<Instant>,
    head: usize,
    cap: usize,
}

impl BurstTracker {
    /// Creates a tracker remembering the last `cap` activations.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "burst tracker needs a nonzero capacity");
        BurstTracker {
            buf: Vec::with_capacity(cap),
            head: 0,
            cap,
        }
    }

    /// Records one activation at `t`, evicting the oldest sample when the
    /// ring is full.
    pub fn record(&mut self, t: Instant) {
        if self.buf.len() < self.cap {
            self.buf.push(t);
        } else {
            self.buf[self.head] = t;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no activations have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retained activation instants, in arbitrary order (phase
    /// histograms are order-insensitive).
    pub fn samples(&self) -> &[Instant] {
        &self.buf
    }

    /// The quietest phase within one `period`, at `bins` resolution, over
    /// the samples at or after `since`: the center of the bin with the
    /// fewest activations (ties break toward the earliest bin). `None`
    /// when no sample qualifies or every bin is equally loaded — in both
    /// cases there is no burst structure worth skewing away from.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `bins` is zero.
    pub fn quietest_phase(&self, period: Duration, bins: u32, since: Instant) -> Option<Duration> {
        assert!(!period.is_zero(), "phase histogram needs a nonzero period");
        assert!(bins > 0, "phase histogram needs at least one bin");
        let mut counts = vec![0u64; bins as usize];
        let mut total = 0u64;
        for &t in &self.buf {
            if t < since {
                continue;
            }
            let phase = t.as_ps() % period.as_ps();
            let bin = (phase * u64::from(bins) / period.as_ps()) as usize;
            counts[bin.min(bins as usize - 1)] += 1;
            total += 1;
        }
        if total == 0 {
            return None;
        }
        let min = *counts.iter().min().unwrap_or(&0);
        let max = *counts.iter().max().unwrap_or(&0);
        if min == max {
            return None;
        }
        let quiet = counts.iter().position(|&c| c == min).unwrap_or(0) as u64;
        // The bin's center: (quiet + ½) × period / bins, in integer ps.
        Some(Duration::from_ps(
            (2 * quiet + 1) * period.as_ps() / (2 * u64::from(bins)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartrefresh_dram::RowAddr;

    fn us(n: u64) -> Instant {
        Instant::ZERO + Duration::from_us(n)
    }

    #[test]
    fn deferral_counts_once_per_entry() {
        let mut e = DarpEngine::new(DarpConfig {
            hot_window: Duration::from_us(1),
            max_deferral: Duration::from_us(10),
        });
        let a = RefreshAction::Cbr { rank: 0, bank: 0 };
        e.push(a, us(0));
        // Two dispatch passes that both defer: one deferral counted.
        for _ in 0..2 {
            let q = e.take_queue();
            for d in q {
                e.retain(d);
            }
        }
        assert_eq!(e.stats().deferred, 1);
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn force_bound_is_reached_at_max_deferral() {
        let e = DarpEngine::new(DarpConfig {
            hot_window: Duration::from_us(1),
            max_deferral: Duration::from_us(10),
        });
        assert!(!e.must_force(us(0), us(9)));
        assert!(e.must_force(us(0), us(10)));
        assert!(e.must_force(us(0), us(11)));
    }

    #[test]
    fn next_due_is_the_earlier_of_cooling_and_forcing() {
        let mut e = DarpEngine::new(DarpConfig {
            hot_window: Duration::from_us(1),
            max_deferral: Duration::from_us(10),
        });
        // Nothing held: entries only arrive at policy wakeups.
        assert_eq!(e.next_due(|_, _| Some(us(0))), Instant::MAX);
        e.push(RefreshAction::Cbr { rank: 0, bank: 1 }, us(4));
        // The bank cools before the force instant (14 µs): one picosecond
        // past the hot window.
        let cools = us(6) + Duration::from_ps(1);
        assert_eq!(e.next_due(|_, _| Some(us(5))), cools);
        assert!(!e.must_force(us(4), cools));
        // Demand keeps the page hot past the force instant: forcing wins.
        assert_eq!(
            e.next_due(|_, _| Some(us(13) + Duration::from_ns(500))),
            us(14)
        );
        assert!(e.must_force(us(4), us(14)));
        // The page closed: the entry issues at the next pass.
        assert_eq!(e.next_due(|_, _| None), Instant::ZERO);
        // Several entries: the earliest wins, per bank.
        e.push(RefreshAction::Cbr { rank: 0, bank: 2 }, us(1));
        let due = e.next_due(|_, bank| Some(if bank == 1 { us(20) } else { us(30) }));
        assert_eq!(due, us(11));
    }

    #[test]
    fn bounded_config_stays_under_the_sanitizer_rule() {
        let trefi = Duration::from_us(15);
        let cfg = DarpConfig::bounded_by_trefi(trefi);
        assert!(cfg.max_deferral < trefi * 8);
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let mut b = BurstTracker::new(3);
        for n in 0..5 {
            b.record(us(n));
        }
        assert_eq!(b.len(), 3);
        let mut kept: Vec<u64> = b
            .samples()
            .iter()
            .map(|t| t.saturating_since(Instant::ZERO).as_ps() / 1_000_000)
            .collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn quietest_phase_avoids_the_burst() {
        let mut b = BurstTracker::new(64);
        // Bursts in the first quarter of a 100 µs period, across laps.
        for lap in 0..4u64 {
            for k in 0..5u64 {
                b.record(us(lap * 100 + k * 5));
            }
        }
        let quiet = b
            .quietest_phase(Duration::from_us(100), 4, Instant::ZERO)
            .expect("clustered bursts have a quiet phase");
        // Any of the three empty bins qualifies; the tie breaks earliest,
        // so the center of the second bin wins.
        assert_eq!(quiet, Duration::from_ps(37_500_000));
        // Uniform traffic has no quiet phase.
        let mut u = BurstTracker::new(64);
        for k in 0..8u64 {
            u.record(us(k * 25));
        }
        assert_eq!(
            u.quietest_phase(Duration::from_us(100), 4, Instant::ZERO),
            None
        );
    }

    #[test]
    fn history_filter_ignores_stale_samples() {
        let mut b = BurstTracker::new(64);
        b.record(us(1)); // stale
        b.record(us(101));
        b.record(us(102));
        let quiet = b.quietest_phase(Duration::from_us(100), 4, us(100));
        // Only the two fresh samples count (both in bin 0): bins 1..4 are
        // quiet, tie breaking toward bin 1's center.
        assert_eq!(quiet, Some(Duration::from_ps(37_500_000)));
    }

    #[test]
    fn ras_only_actions_round_trip_through_the_queue() {
        let mut e = DarpEngine::new(DarpConfig::bounded_by_trefi(Duration::from_us(15)));
        let row = RowAddr {
            rank: 0,
            bank: 1,
            row: 7,
        };
        e.push(
            RefreshAction::RasOnly {
                row,
                charge_bus: true,
            },
            us(3),
        );
        let q = e.take_queue();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].action.target_bank(), (0, 1));
        assert_eq!(q[0].due, us(3));
    }
}
