//! The pending refresh request queue (§5, Fig 5).
//!
//! When the staggered update circuitry finds a counter at zero it inserts
//! the corresponding row/bank address into this bounded queue; the memory
//! controller pops the least-recent entry and issues a RAS-only refresh.
//!
//! The paper argues the queue can never overflow: at most one request per
//! segment is generated per tick (N = queue capacity = 8), and the
//! inter-tick gap leaves slack for ~57 row refreshes at the 32 ms
//! configuration, so all N entries drain before the next tick. The queue
//! nonetheless *enforces* the bound — an overflow error here means the
//! surrounding controller violated the dispatch contract, and the
//! property-based tests in this crate check the high-water mark stays ≤ N.

use std::collections::VecDeque;
use std::error::Error as StdError;
use std::fmt;

use smartrefresh_dram::time::Instant;
use smartrefresh_dram::RowAddr;

/// A refresh request waiting for dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRefresh {
    /// The row to refresh (RAS-only, explicit address).
    pub row: RowAddr,
    /// Whether the refresh drives the row address on the bus (and is
    /// charged bus energy), fixed when the request is enqueued.
    pub charge_bus: bool,
    /// When the request was enqueued (for latency accounting).
    pub enqueued_at: Instant,
}

/// Error returned when the bounded queue would overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueOverflow {
    /// Configured capacity that was exceeded.
    pub capacity: usize,
}

impl fmt::Display for QueueOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pending refresh queue overflow (capacity {})",
            self.capacity
        )
    }
}

impl StdError for QueueOverflow {}

/// Bounded FIFO of pending refresh requests.
///
/// # Examples
///
/// ```
/// use smartrefresh_core::queue::PendingRefreshQueue;
/// use smartrefresh_dram::RowAddr;
/// use smartrefresh_dram::time::Instant;
///
/// let mut q = PendingRefreshQueue::new(8);
/// q.push(RowAddr { rank: 0, bank: 0, row: 1 }, true, Instant::ZERO)?;
/// assert_eq!(q.len(), 1);
/// let req = q.pop().unwrap();
/// assert_eq!(req.row.row, 1);
/// # Ok::<(), smartrefresh_core::queue::QueueOverflow>(())
/// ```
#[derive(Debug, Clone)]
pub struct PendingRefreshQueue {
    entries: VecDeque<PendingRefresh>,
    capacity: usize,
    high_water: usize,
    total_pushed: u64,
}

impl PendingRefreshQueue {
    /// Creates an empty queue with the given capacity (8 in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be nonzero");
        PendingRefreshQueue {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            high_water: 0,
            total_pushed: 0,
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Highest occupancy ever observed (§5's overflow argument is that this
    /// never exceeds the segment count).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total requests ever enqueued.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Enqueues a refresh request.
    ///
    /// # Errors
    ///
    /// Returns [`QueueOverflow`] when the queue is full; per §5 this cannot
    /// happen when the controller drains between ticks, so callers treat it
    /// as a contract violation.
    pub fn push(
        &mut self,
        row: RowAddr,
        charge_bus: bool,
        now: Instant,
    ) -> Result<(), QueueOverflow> {
        if self.entries.len() == self.capacity {
            return Err(QueueOverflow {
                capacity: self.capacity,
            });
        }
        self.entries.push_back(PendingRefresh {
            row,
            charge_bus,
            enqueued_at: now,
        });
        self.total_pushed += 1;
        self.high_water = self.high_water.max(self.entries.len());
        Ok(())
    }

    /// Dequeues the least-recent request ("puts the least recent row address
    /// on the bus", §5).
    pub fn pop(&mut self) -> Option<PendingRefresh> {
        self.entries.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: u32) -> RowAddr {
        RowAddr {
            rank: 0,
            bank: 0,
            row: n,
        }
    }

    #[test]
    fn fifo_order_is_least_recent_first() {
        let mut q = PendingRefreshQueue::new(4);
        for i in 0..3 {
            q.push(row(i), true, Instant::from_ps(u64::from(i)))
                .unwrap();
        }
        assert_eq!(q.pop().unwrap().row, row(0));
        assert_eq!(q.pop().unwrap().row, row(1));
        assert_eq!(q.pop().unwrap().row, row(2));
    }

    #[test]
    fn overflow_is_an_error_not_a_drop() {
        let mut q = PendingRefreshQueue::new(2);
        q.push(row(0), true, Instant::ZERO).unwrap();
        q.push(row(1), true, Instant::ZERO).unwrap();
        let err = q.push(row(2), true, Instant::ZERO).unwrap_err();
        assert_eq!(err.capacity, 2);
        assert_eq!(q.len(), 2, "failed push must not enqueue");
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut q = PendingRefreshQueue::new(8);
        for i in 0..5 {
            q.push(row(i), true, Instant::ZERO).unwrap();
        }
        for _ in 0..5 {
            q.pop();
        }
        q.push(row(9), true, Instant::ZERO).unwrap();
        assert_eq!(q.high_water(), 5);
        assert_eq!(q.total_pushed(), 6);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        PendingRefreshQueue::new(0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = QueueOverflow { capacity: 8 };
        assert!(e.to_string().contains("capacity 8"));
    }
}
