//! Property tests of the cache substrate against a reference model, with
//! access streams drawn from the in-repo seeded [`Rng`].

use std::collections::HashMap;

use smartrefresh_cache::{SetAssocCache, StackedDramCache};
use smartrefresh_dram::rng::Rng;

/// A trivially-correct reference cache: per-set vectors ordered by recency.
struct ModelCache {
    sets: u64,
    ways: usize,
    line: u64,
    /// set -> most-recent-first list of (tag, dirty).
    state: HashMap<u64, Vec<(u64, bool)>>,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl ModelCache {
    fn new(capacity: u64, ways: usize, line: u64) -> Self {
        ModelCache {
            sets: capacity / line / ways as u64,
            ways,
            line,
            state: HashMap::new(),
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Returns (hit, writeback address).
    fn access(&mut self, addr: u64, is_write: bool) -> (bool, Option<u64>) {
        let set = (addr / self.line) % self.sets;
        let tag = (addr / self.line) / self.sets;
        let list = self.state.entry(set).or_default();
        if let Some(pos) = list.iter().position(|&(t, _)| t == tag) {
            let (t, d) = list.remove(pos);
            list.insert(0, (t, d || is_write));
            self.hits += 1;
            return (true, None);
        }
        let mut wb = None;
        if list.len() == self.ways {
            let (vt, vd) = list.pop().expect("full set");
            if vd {
                wb = Some((vt * self.sets + set) * self.line);
            }
        }
        list.insert(0, (tag, is_write));
        self.misses += 1;
        self.writebacks += u64::from(wb.is_some());
        (false, wb)
    }
}

/// Draws the address pool of one stream: few enough addresses that lines
/// are reused, conflict and get written back, spread over the whole
/// address space — low blocks, full-width random values, and the top
/// 2^20 bytes, where tags are largest.
fn draw_pool(rng: &mut Rng, size: usize) -> Vec<u64> {
    (0..size)
        .map(|_| match rng.gen_range(0u32..3) {
            0 => rng.gen_range(0u64..1 << 17),
            1 => rng.next_u64(),
            _ => u64::MAX - rng.gen_range(0u64..1 << 20),
        })
        .collect()
}

/// An address stream that picks uniformly from `pool`.
fn from_pool(pool: &[u64]) -> impl FnMut(&mut Rng) -> u64 + '_ {
    |rng| pool[rng.gen_range(0usize..pool.len())]
}

/// Runs `n` accesses drawn by `draw` through a cache of the given shape
/// and the reference model, asserting identical hits, fills, writebacks
/// and statistics.
fn check_shape(
    rng: &mut Rng,
    (capacity, ways, line): (u64, usize, u64),
    n: usize,
    mut draw: impl FnMut(&mut Rng) -> u64,
) {
    let mut dut = SetAssocCache::new(capacity, ways, line);
    let mut model = ModelCache::new(capacity, ways, line);
    let shape = format!("{capacity} B, {ways} ways, {line} B lines");
    for _ in 0..n {
        let addr = draw(rng);
        let is_write = rng.gen_bool(0.5);
        let got = dut.access(addr, is_write);
        let (hit, wb) = model.access(addr, is_write);
        assert_eq!(got.hit, hit, "hit mismatch at {addr:#x} ({shape})");
        assert_eq!(
            got.writeback, wb,
            "writeback mismatch at {addr:#x} ({shape})"
        );
        let fill = (!hit).then_some(addr & !(line - 1));
        assert_eq!(got.fill, fill, "fill mismatch at {addr:#x} ({shape})");
    }
    let s = dut.stats();
    assert_eq!((s.hits, s.misses), (model.hits, model.misses), "{shape}");
    assert_eq!(s.writebacks, model.writebacks, "{shape}");
}

/// The LRU set-associative cache agrees with the reference model on
/// every access outcome, fill and writeback, for arbitrary streams.
#[test]
fn cache_matches_reference_model() {
    let mut rng = Rng::seed_from_u64(0xcac4_0001);
    for &ways in &[1usize, 2, 4, 8, 16] {
        let shape = (64 * 16, ways, 64); // 16 lines
        for _ in 0..8 {
            let n = rng.gen_range(1usize..400);
            check_shape(&mut rng, shape, n, |rng| {
                let block = rng.gen_range(0u64..2048);
                block * 64 + (block % 64) // arbitrary offset in line
            });
            // The same shape over the whole address space.
            let pool = draw_pool(&mut rng, 48);
            check_shape(&mut rng, shape, 400, from_pool(&pool));
        }
    }
    // The smallest legal shapes: two lines, where a tag can span (almost)
    // the whole 64-bit address.
    for line in [1u64, 2, 64] {
        for ways in [1usize, 2] {
            for _ in 0..8 {
                let pool = draw_pool(&mut rng, 6);
                check_shape(&mut rng, (2 * line, ways, line), 300, from_pool(&pool));
            }
        }
    }
    // The Table 2 shape: 64 MiB direct-mapped, with aliases one capacity
    // apart so slots conflict.
    let mut pool = draw_pool(&mut rng, 64);
    for i in 0..64 {
        pool.push(pool[i].wrapping_add(64 << 20));
    }
    check_shape(&mut rng, (64 << 20, 1, 64), 4000, from_pool(&pool));
}

/// probe() never disturbs state: interleaving probes changes nothing.
#[test]
fn probe_is_pure() {
    let mut rng = Rng::seed_from_u64(0xcac4_0002);
    for _ in 0..16 {
        let mut a = SetAssocCache::new(1024, 2, 64);
        let mut b = SetAssocCache::new(1024, 2, 64);
        let n = rng.gen_range(1usize..100);
        for _ in 0..n {
            let block = rng.gen_range(0u64..256);
            b.probe(block * 64);
            b.probe((block + 7) * 64);
            let ra = a.access(block * 64, false);
            let rb = b.access(block * 64, false);
            assert_eq!(ra.hit, rb.hit);
        }
    }
}

/// The stacked cache's slot mapping is stable and within capacity, and a
/// hit to the same line always lands on the same stacked address.
#[test]
fn stacked_slots_are_stable() {
    let mut rng = Rng::seed_from_u64(0xcac4_0003);
    for _ in 0..16 {
        let mut l3 = StackedDramCache::new(1 << 20);
        let n = rng.gen_range(1usize..100);
        for _ in 0..n {
            let addr = rng.next_u64();
            let t1 = l3.access(addr, false);
            let t2 = l3.access(addr, false);
            assert!(t1.stacked_addr < 1 << 20);
            assert_eq!(t1.stacked_addr, t2.stacked_addr);
            assert_eq!(t2.memory_fill, None, "second access must hit");
        }
    }
}

/// Cache statistics are internally consistent.
#[test]
fn stats_add_up() {
    let mut rng = Rng::seed_from_u64(0xcac4_0004);
    for _ in 0..16 {
        let mut c = SetAssocCache::new(2048, 4, 64);
        let n = rng.gen_range(1usize..200);
        for _ in 0..n {
            let block = rng.gen_range(0u64..512);
            c.access(block * 64, rng.gen_bool(0.5));
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert!(s.writebacks <= s.misses, "writebacks only on misses");
    }
}
