//! A fixed reference computation that tells how fast the shared host runs
//! at the moment, so host times can be reported at one fixed host speed.
//!
//! The host is a guest on a shared machine, and how fast it runs the
//! simulator drifts by up to 1.7× over minutes as other tenants come and
//! go. A pure ALU loop or a memory-latency chase does not see that drift;
//! random-key binary searches in a 2 MiB sorted table (data-dependent
//! control flow and cache misses, like the simulator's own lookups) do.
//! Each measured segment is timed right after one probe and rescaled by
//! [`REF_PROBE_S`] ÷ the running median of the probes around it (see
//! `Timings` in `workloads.rs`).

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant as Clock;

/// Entries in the sorted table (2 MiB of `u64`).
const TABLE_LEN: usize = 1 << 18;

/// Lookups per probe.
const LOOKUPS: usize = 4096;

/// The probe's time on the recording host in a quiet stretch (see
/// `README.md`). Rescaled times are host seconds at that speed.
pub const REF_PROBE_S: f64 = 1.0e-3;

fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// Copies of the table the probes take turns on: each copy lands on its
/// own physical pages, whose cache placement shifts a probe's time by a
/// few per cent from one process to the next.
const COPIES: usize = 4;

/// The probe's tables and keys, the same in every run.
pub struct Probe {
    tables: Vec<Vec<u64>>,
    keys: Vec<u64>,
    turn: Cell<usize>,
}

impl Default for Probe {
    fn default() -> Self {
        let mut s = 0x243f_6a88_85a3_08d3;
        let mut draw = || {
            s = xorshift(s);
            s
        };
        let mut table: Vec<u64> = (0..TABLE_LEN).map(|_| draw()).collect();
        table.sort_unstable();
        let keys = (0..LOOKUPS).map(|_| draw()).collect();
        Probe {
            tables: vec![table; COPIES],
            keys,
            turn: Cell::new(0),
        }
    }
}

impl Probe {
    /// Host seconds of one probe.
    pub fn time(&self) -> f64 {
        let turn = self.turn.get();
        self.turn.set((turn + 1) % COPIES);
        let table = &self.tables[turn];
        let t = Clock::now();
        let mut sum = 0usize;
        for &k in &self.keys {
            sum = sum.wrapping_add(table.partition_point(|&x| x < k));
        }
        black_box(sum);
        t.elapsed().as_secs_f64()
    }
}

/// `raw_s` host seconds measured right after a probe that took `probe_s`,
/// at the reference host speed.
pub fn at_ref(raw_s: f64, probe_s: f64) -> f64 {
    raw_s * REF_PROBE_S / probe_s
}
