//! The single-channel run path: [`build`] a controller (sanitizer armed
//! on request), feed it a transaction stream such as the campaigns'
//! background `stream`, and [`drain`] it to the horizon under the
//! sanitizer's verdict. The fault, scrub, power-down and rowhammer
//! campaigns and the single-controller studies all run through it.

use smartrefresh_core::RefreshPolicy;
use smartrefresh_ctrl::{MemTransaction, MemoryController, SimError};
use smartrefresh_dram::rng::Rng;
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{Geometry, TimingParams};

use crate::faults::addr_of;

/// A fresh controller over a `geometry`/`timing` device refreshed by
/// `policy`, with the protocol sanitizer enabled when the environment asks
/// for it.
pub fn build<P: RefreshPolicy>(
    geometry: Geometry,
    timing: TimingParams,
    policy: P,
) -> MemoryController<P> {
    MemoryController::new(crate::sanitize::device(geometry, timing), policy)
}

/// The background read stream: one read every `access_gap` from
/// `access_gap` up to and including `horizon`, each of a uniformly drawn
/// row in the lower half of the flat rows, redrawn while it is in
/// `excluded` (flat indices). The upper half stays free for fault sites
/// that only the maintenance paths may reach; `excluded` keeps demand
/// traffic off a lower-half site, whose loss an access would mask.
pub(crate) fn stream(
    geometry: Geometry,
    access_gap: Duration,
    horizon: Instant,
    seed: u64,
    excluded: &[u64],
) -> impl Iterator<Item = MemTransaction> + '_ {
    let mut rng = Rng::seed_from_u64(seed);
    let mut now = Instant::ZERO;
    std::iter::from_fn(move || {
        now += access_gap;
        if now > horizon {
            return None;
        }
        let flat = loop {
            let candidate = rng.gen_range(0..geometry.total_rows() / 2);
            if !excluded.contains(&candidate) {
                break candidate;
            }
        };
        Some(MemTransaction::read(
            addr_of(&geometry, geometry.unflatten(flat)),
            now,
        ))
    })
}

/// Feeds `transactions` to `mc`, advances it to `horizon` and checks the
/// protocol sanitizer there.
///
/// # Errors
///
/// The first [`SimError`] an access or the advance returns, else the
/// sanitizer's verdict (`Ok` when it is disabled).
pub fn drain<P: RefreshPolicy>(
    mc: &mut MemoryController<P>,
    transactions: impl IntoIterator<Item = MemTransaction>,
    horizon: Instant,
) -> Result<(), SimError> {
    for tx in transactions {
        mc.access(tx)?;
    }
    mc.advance_to(horizon)?;
    mc.check_sanitizer(horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_skips_excluded_rows_and_stays_in_the_lower_half() {
        let g = Geometry::new(1, 4, 64, 16, 64); // 256 rows
        let gap = Duration::from_us(3);
        let horizon = Instant::ZERO + Duration::from_us(3_000);
        // Eight of the 128 lower-half rows, dense enough to be drawn often.
        let excluded: Vec<u64> = (0..8).map(|k| k * 16 + 3).collect();
        let reads: Vec<MemTransaction> = stream(g, gap, horizon, 0x5eed, &excluded).collect();
        assert_eq!(reads.len(), 1000, "one read per gap up to the horizon");
        let mut prev = Instant::ZERO;
        for tx in &reads {
            let flat = g.flatten(g.decode(tx.addr).row_addr);
            assert!(!excluded.contains(&flat), "read of excluded row {flat}");
            assert!(flat < g.total_rows() / 2, "row {flat} above the lower half");
            assert!(!tx.is_write);
            assert_eq!(tx.arrival, prev + gap, "reads are exactly one gap apart");
            prev = tx.arrival;
        }
        assert!(prev <= horizon);
        assert!(prev + gap > horizon, "the stream runs to the horizon");

        // With nothing excluded, each read is exactly one draw, and the
        // same seed does land on the excluded rows.
        let mut rng = Rng::seed_from_u64(0x5eed);
        let mut hits = 0;
        for tx in stream(g, gap, horizon, 0x5eed, &[]) {
            let flat = g.flatten(g.decode(tx.addr).row_addr);
            assert_eq!(flat, rng.gen_range(0..g.total_rows() / 2));
            hits += usize::from(excluded.contains(&flat));
        }
        assert!(hits > 0, "the exclusion list was never exercised");
    }
}
