//! A set-associative write-back cache with LRU replacement.
//!
//! Used for the 1 MB / 8-way L2 of Table 1 and (with one way) the
//! direct-mapped 64 MB 3D DRAM cache of Table 2. The model is functional —
//! hit/miss/eviction behaviour and statistics — because that is all the
//! refresh study needs: the cache determines *which* addresses reach the
//! DRAM behind it and *when* dirty lines come back.
//!
//! Line layout: each line is a raw tag word plus one state byte
//! (`VALID | DIRTY`), both zero-initialised with no sentinel fill. The tag
//! table is allocated on the first fill that stores a nonzero tag; until
//! then every tag reads 0. A direct-mapped cache that only sees addresses
//! below its capacity (the stacked L3 in front of a stack its size) stores
//! only tag 0, so it never pays for the 8 B-per-line table. The
//! validity bit cannot live inside the tag word: on the smallest legal
//! shape (one set of 1 B lines) every `u64` address is its own tag, so any
//! in-word sentinel would alias a real address. LRU stamps exist only when
//! there is more than one way; a direct-mapped cache has no replacement
//! choice to make.

use crate::stats::CacheStats;

/// Response to one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheResponse {
    /// True when the line was present.
    pub hit: bool,
    /// Line-aligned address of a dirty victim that must be written back.
    pub writeback: Option<u64>,
    /// Line-aligned address that must be fetched from the next level
    /// (present exactly when `hit` is false).
    pub fill: Option<u64>,
}

/// State bit of a filled line. A zero state byte is an invalid
/// (never-filled) line.
const VALID: u8 = 1;
/// State bit of a line written since its fill.
const DIRTY: u8 = 2;

/// A set-associative write-back, write-allocate cache with LRU replacement.
///
/// # Examples
///
/// ```
/// use smartrefresh_cache::SetAssocCache;
///
/// // Table 1 L2: 1 MB, 8-way, 64 B lines.
/// let mut l2 = SetAssocCache::new(1 << 20, 8, 64);
/// let first = l2.access(0x1000, false);
/// assert!(!first.hit);
/// assert_eq!(first.fill, Some(0x1000));
/// assert!(l2.access(0x1000, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: u64,
    ways: usize,
    line_bytes: u64,
    /// `log2(line_bytes)`: the set index starts above the line offset.
    line_shift: u32,
    /// `log2(sets)`: the tag starts above the set index.
    set_shift: u32,
    /// `tags[set * ways + way]`; meaningful only while the line is valid.
    /// Empty until the first nonzero tag is stored: an empty table reads
    /// tag 0 for every line.
    tags: Vec<u64>,
    /// `state[set * ways + way]`: [`VALID`] | [`DIRTY`]; zero = invalid.
    state: Vec<u8>,
    /// Per-line LRU stamp, larger = more recent; empty when direct-mapped.
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways` ways and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the shape is degenerate (zero sizes, capacity not divisible
    /// into sets, fewer than two lines) or if the line size or the set
    /// count is not a power of two: set and tag are shifts and masks of
    /// the address.
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(
            capacity_bytes > 0 && ways > 0 && line_bytes > 0,
            "zero-sized cache"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines.is_multiple_of(ways as u64) && lines > 0,
            "capacity must divide into an integral number of sets"
        );
        let sets = lines / ways as u64;
        assert!(lines > 1, "cache must hold at least two lines");
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        let n = lines as usize;
        SetAssocCache {
            sets,
            ways,
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            tags: Vec::new(),
            state: vec![0; n],
            stamps: if ways > 1 { vec![0; n] } else { Vec::new() },
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets * self.ways as u64 * self.line_bytes
    }

    /// Access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_of(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) & (self.sets - 1)
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    fn rebuild_addr(&self, tag: u64, set: u64) -> u64 {
        ((tag << self.set_shift) | set) << self.line_shift
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift >> self.set_shift
    }

    /// The tag stored in line `i` (0 while the tag table is unallocated).
    #[inline]
    fn tag_at(&self, i: usize) -> u64 {
        if self.tags.is_empty() {
            0
        } else {
            self.tags[i]
        }
    }

    /// Stores `tag` in line `i`, allocating the tag table on the first
    /// nonzero tag.
    #[inline]
    fn set_tag(&mut self, i: usize, tag: u64) {
        if self.tags.is_empty() {
            if tag == 0 {
                return;
            }
            self.tags = vec![0; self.state.len()];
        }
        self.tags[i] = tag;
    }

    /// Performs one access, allocating on miss (write-allocate) and
    /// returning any dirty victim.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheResponse {
        self.clock += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = (set * self.ways as u64) as usize;
        let slots = base..base + self.ways;
        let dirty = if is_write { DIRTY } else { 0 };

        // Hit path.
        for i in slots.clone() {
            if self.tag_at(i) == tag && self.state[i] != 0 {
                self.state[i] |= dirty;
                self.touch(i);
                self.stats.record(true, is_write, false);
                return CacheResponse {
                    hit: true,
                    writeback: None,
                    fill: None,
                };
            }
        }

        // Miss: pick the first invalid way, else the LRU way; a
        // direct-mapped set's only way is always the victim. The slot range
        // is never empty (`new` rejects zero ways).
        let mut victim = slots.start;
        if self.ways > 1 {
            for i in slots {
                if self.state[i] == 0 {
                    victim = i;
                    break;
                }
                if self.stamps[i] < self.stamps[victim] {
                    victim = i;
                }
            }
        }
        let writeback =
            (self.state[victim] & DIRTY != 0).then(|| self.rebuild_addr(self.tag_at(victim), set));
        self.set_tag(victim, tag);
        self.state[victim] = VALID | dirty;
        self.touch(victim);
        self.stats.record(false, is_write, writeback.is_some());
        CacheResponse {
            hit: false,
            writeback,
            fill: Some(self.line_addr(addr)),
        }
    }

    /// Marks line `i` most recently used (a no-op when direct-mapped).
    #[inline]
    fn touch(&mut self, i: usize) {
        if self.ways > 1 {
            self.stamps[i] = self.clock;
        }
    }

    /// True when the line containing `addr` is currently cached (no state
    /// change, no statistics).
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = (set * self.ways as u64) as usize;
        (base..base + self.ways).any(|i| self.tag_at(i) == tag && self.state[i] != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_conflict_evicts() {
        // 2 sets of 1 way, 64 B lines -> capacity 128 B.
        let mut c = SetAssocCache::new(128, 1, 64);
        assert!(!c.access(0, false).hit);
        assert!(!c.access(128, false).hit, "same set, different tag");
        assert!(!c.access(0, false).hit, "original was evicted");
    }

    #[test]
    fn lru_keeps_recently_used() {
        // One set, 2 ways.
        let mut c = SetAssocCache::new(128, 2, 64);
        c.access(0, false); // A
        c.access(128, false); // B
        c.access(0, false); // touch A -> B is LRU
        let r = c.access(256, false); // C evicts B
        assert!(!r.hit);
        assert!(c.probe(0), "A still resident");
        assert!(!c.probe(128), "B evicted");
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = SetAssocCache::new(128, 1, 64);
        c.access(64, true); // write to set 1
        let r = c.access(64 + 128, false); // conflict in set 1
        assert_eq!(r.writeback, Some(64));
        assert_eq!(r.fill, Some(64 + 128));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = SetAssocCache::new(128, 1, 64);
        c.access(0, false);
        let r = c.access(128, false);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn writeback_address_reconstruction_roundtrips() {
        let mut c = SetAssocCache::new(1 << 20, 8, 64);
        let addr = 0xdead_b000u64;
        c.access(addr, true);
        // Evict by filling the same set with 8 conflicting tags.
        let mut wbs = Vec::new();
        for k in 1..=8u64 {
            let conflicting = addr + k * c.sets() * c.line_bytes();
            if let Some(wb) = c.access(conflicting, false).writeback {
                wbs.push(wb);
            }
        }
        assert!(wbs.contains(&(addr & !63)), "writebacks {wbs:?}");
    }

    #[test]
    fn stats_count_hits_misses_writebacks() {
        let mut c = SetAssocCache::new(128, 1, 64);
        c.access(0, false);
        c.access(0, false);
        c.access(128, true);
        c.access(0, false); // evicts dirty 128
        let s = c.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.writebacks, 1);
    }

    #[test]
    fn table_configs_shape() {
        let l2 = SetAssocCache::new(1 << 20, 8, 64);
        assert_eq!(l2.sets(), 2048);
        assert_eq!(l2.capacity_bytes(), 1 << 20);
        let l3 = SetAssocCache::new(64 << 20, 1, 64);
        assert_eq!(l3.sets(), 1 << 20);
    }

    #[test]
    fn fresh_cache_misses_on_address_zero() {
        // Tag 0 must never alias a never-filled line.
        for (capacity, ways, line) in [(128, 1, 64), (2, 2, 1), (64 << 20, 1, 64)] {
            let mut c = SetAssocCache::new(capacity, ways, line);
            assert!(!c.probe(0));
            let r = c.access(0, true);
            assert!(!r.hit, "{capacity} B / {ways} ways");
            assert_eq!((r.fill, r.writeback), (Some(0), None));
            assert!(c.access(0, false).hit);
        }
    }

    #[test]
    fn top_of_address_space_is_a_real_tag() {
        // One set of 1 B lines: every u64 is its own tag, u64::MAX included.
        let mut c = SetAssocCache::new(2, 2, 1);
        assert!(!c.probe(u64::MAX));
        assert!(!c.access(u64::MAX, true).hit);
        assert!(c.access(u64::MAX, false).hit);
        assert!(!c.access(0, false).hit);
        let r = c.access(1, false); // evicts the dirty LRU line u64::MAX
        assert_eq!(r.writeback, Some(u64::MAX));
    }

    #[test]
    fn tag_zero_stream_leaves_tag_table_unallocated() {
        // Every address below `sets * line_bytes` (the whole capacity when
        // direct-mapped) has tag 0.
        for ways in [1, 8] {
            let mut c = SetAssocCache::new(1 << 16, ways, 64);
            let span = c.sets() * c.line_bytes();
            for pass in 0..2 {
                for addr in (0..span).step_by(40) {
                    let r = c.access(addr, addr % 3 == 0);
                    assert_eq!(r.hit, pass == 1 || addr % 64 >= 40, "{addr:#x}");
                }
            }
            assert!(c.tags.is_empty(), "{ways} ways");
            assert_eq!(c.stats().writebacks, 0);
        }
        let mut l3 = SetAssocCache::new(64 << 20, 1, 64);
        l3.access((64 << 20) - 1, true);
        assert!(l3.tags.is_empty());
    }

    #[test]
    fn first_nonzero_tag_allocates_the_tag_table() {
        let mut c = SetAssocCache::new(1 << 16, 8, 64);
        c.access(0x40, true);
        assert!(c.tags.is_empty());
        c.access(1 << 16, false); // tag 1
        assert_eq!(c.tags.len(), (1 << 16) / 64);
        assert!(c.probe(0x40), "a tag-0 line filled before stays resident");
        assert!(c.access(0x40, false).hit);
        assert!(c.access(1 << 16, false).hit);
    }

    #[test]
    fn dirty_tag_zero_line_is_written_back_by_a_nonzero_alias() {
        // Direct-mapped: the alias one capacity up takes the only way.
        let mut c = SetAssocCache::new(1 << 16, 1, 64);
        c.access(0x1234, true);
        let r = c.access(0x1234 + (1 << 16), false);
        assert!(!r.hit);
        assert_eq!(r.writeback, Some(0x1200));
        assert!(!c.tags.is_empty());
        assert!(!c.probe(0x1234));

        // 8-way LRU: the tag-0 line is the LRU way when the eighth alias
        // arrives, and only then is it written back.
        let mut c = SetAssocCache::new(1 << 16, 8, 64);
        let stride = c.sets() * c.line_bytes();
        c.access(0x1234, true);
        for k in 1..=7 {
            let r = c.access(0x1234 + k * stride, false);
            assert_eq!(r.writeback, None, "alias {k}");
        }
        assert!(c.probe(0x1234));
        let r = c.access(0x1234 + 8 * stride, false);
        assert_eq!(r.writeback, Some(0x1200));
        assert!(!c.probe(0x1234));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_line_rejected() {
        SetAssocCache::new(128, 1, 48);
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two, got 3")]
    fn non_pow2_set_count_rejected() {
        SetAssocCache::new(3 * 2 * 64, 2, 64);
    }
}
