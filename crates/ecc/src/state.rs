//! Per-row ECC error state.
//!
//! Simulating every data word of every row would be absurd for a retention
//! study, so each row is represented by a single 72-bit SECDED codeword:
//! the row's *worst* word, the one whose cells decay first. The stored
//! payload is a deterministic hash of the row's flat index (so reads are
//! reproducible without storing data), and faults accumulate as an XOR
//! flip mask over the codeword. Reading a row decodes
//! `encode(data) ^ mask`, which makes the CE/UE classification exactly
//! what SECDED hardware would report for that word.
//!
//! Flip positions are drawn from a seeded [`Rng`] stream so campaigns are
//! reproducible; positions already flipped are skipped, so injecting `n`
//! bits always makes the mask strictly worse (a second fault never
//! silently cancels the first).

use std::collections::BTreeMap;

use smartrefresh_dram::rng::{splitmix64, Rng};

use crate::secded::{decode, encode, Decode, CODE_BITS};

/// Per-row error state: one representative SECDED codeword per row, plus
/// the accumulated bit-flip mask each row has suffered.
#[derive(Debug, Clone)]
pub struct EccMemory {
    /// Flat row index → XOR mask over the row's codeword. Absent = clean.
    flips: BTreeMap<u64, u128>,
    rng: Rng,
}

impl EccMemory {
    /// Creates a clean memory whose flip-position stream is derived from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        EccMemory {
            flips: BTreeMap::new(),
            rng: Rng::seed_from_u64(seed ^ 0xecc0_5ec0_dead_c0de),
        }
    }

    /// The deterministic 64-bit payload stored in `flat_index`'s
    /// representative word.
    pub fn stored_data(flat_index: u64) -> u64 {
        let mut s = flat_index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        splitmix64(&mut s)
    }

    /// Injects `bits` additional distinct flips into the row's codeword.
    ///
    /// Positions are drawn uniformly from the codeword bits not already
    /// flipped, so repeated injections monotonically corrupt the word.
    /// Injecting more than [`CODE_BITS`] total flips saturates silently.
    pub fn inject_flips(&mut self, flat_index: u64, bits: u32) {
        let mask = self.flips.entry(flat_index).or_insert(0);
        for _ in 0..bits {
            if mask.count_ones() >= CODE_BITS {
                break;
            }
            loop {
                let pos = self.rng.gen_range(0u32..CODE_BITS);
                if *mask >> pos & 1 == 0 {
                    *mask |= 1 << pos;
                    break;
                }
            }
        }
        if *mask == 0 {
            self.flips.remove(&flat_index);
        }
    }

    /// Decodes the row's representative word as the controller would see
    /// it on a read or scrub.
    ///
    /// A row with no flip mask skips the codec: a clean codeword always
    /// decodes to `Clean` with its own payload, so
    /// `decode(encode(data))` is known without running it. Only a row
    /// carrying flips pays for `decode(encode(data) ^ mask)`.
    pub fn read(&self, flat_index: u64) -> Decode {
        self.read_flipped(flat_index)
            .unwrap_or_else(|| Decode::Clean {
                data: Self::stored_data(flat_index),
            })
    }

    /// [`read`](Self::read) for a row carrying flips; `None` for a clean
    /// row, which then costs one map lookup and no stored word. For
    /// callers that only act on errors.
    pub fn read_flipped(&self, flat_index: u64) -> Option<Decode> {
        let &mask = self.flips.get(&flat_index)?;
        Some(decode(encode(Self::stored_data(flat_index)) ^ mask))
    }

    /// Clears the row's flip mask — the effect of a corrected write-back
    /// (after a CE) or of new data being written with freshly computed
    /// check bits.
    pub fn clear(&mut self, flat_index: u64) {
        self.flips.remove(&flat_index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of flipped bits currently afflicting the row.
    fn flip_count(mem: &EccMemory, flat_index: u64) -> u32 {
        mem.flips.get(&flat_index).map_or(0, |m| m.count_ones())
    }

    /// The codec-free clean read gives exactly what the codec would: a
    /// seeded sweep of flat indices (both ends of the range included)
    /// against `decode(encode(stored_data))` through the public codec.
    #[test]
    fn clean_rows_read_clean() {
        let mem = EccMemory::new(1);
        let mut rng = Rng::seed_from_u64(0xc1ea_4ead);
        let flats = [0, 17, 1023, 1 << 40, u64::MAX]
            .into_iter()
            .chain((0..10_000).map(|_| rng.next_u64()));
        for flat in flats {
            let data = EccMemory::stored_data(flat);
            assert_eq!(mem.read(flat), Decode::Clean { data }, "row {flat}");
            assert_eq!(mem.read(flat), decode(encode(data)), "row {flat}");
        }
    }

    /// `read_flipped` is `read` on a row with flips and `None` on a clean
    /// one, before any injection and after a clear.
    #[test]
    fn read_flipped_skips_only_clean_rows() {
        let mut mem = EccMemory::new(7);
        assert_eq!(mem.read_flipped(11), None);
        for bits in [1, 2, 3] {
            mem.inject_flips(11, 1);
            assert_eq!(mem.read_flipped(11), Some(mem.read(11)), "{bits} flips");
        }
        mem.clear(11);
        assert_eq!(mem.read_flipped(11), None);
    }

    #[test]
    fn one_flip_is_a_ce_two_is_a_ue() {
        let mut mem = EccMemory::new(2);
        mem.inject_flips(5, 1);
        assert!(matches!(mem.read(5), Decode::Corrected { .. }));
        mem.inject_flips(5, 1);
        assert_eq!(flip_count(&mem, 5), 2);
        assert_eq!(mem.read(5), Decode::Uncorrectable);
    }

    #[test]
    fn corrected_payload_matches_stored_data() {
        let mut mem = EccMemory::new(3);
        mem.inject_flips(99, 1);
        match mem.read(99) {
            Decode::Corrected { data, .. } => assert_eq!(data, EccMemory::stored_data(99)),
            other => panic!("expected CE, got {other:?}"),
        }
    }

    #[test]
    fn clear_restores_clean_reads() {
        let mut mem = EccMemory::new(4);
        mem.inject_flips(7, 2);
        assert_eq!(mem.read(7), Decode::Uncorrectable);
        mem.clear(7);
        assert!(matches!(mem.read(7), Decode::Clean { .. }));
        assert_eq!(mem.flips.len(), 0);
        for bits in [1, 5] {
            mem.inject_flips(7, bits);
            assert!(!matches!(mem.read(7), Decode::Clean { .. }), "{bits} flips");
            mem.clear(7);
            let data = EccMemory::stored_data(7);
            assert_eq!(mem.read(7), Decode::Clean { data }, "{bits} flips");
        }
    }

    #[test]
    fn injections_accumulate_distinct_positions() {
        let mut mem = EccMemory::new(5);
        for _ in 0..10 {
            mem.inject_flips(3, 1);
        }
        assert_eq!(flip_count(&mem, 3), 10);
        assert_eq!(mem.flips.keys().copied().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn saturation_stops_at_code_width() {
        let mut mem = EccMemory::new(6);
        mem.inject_flips(0, 200);
        assert_eq!(flip_count(&mem, 0), CODE_BITS);
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = EccMemory::new(42);
        let mut b = EccMemory::new(42);
        for flat in 0..20 {
            a.inject_flips(flat, 1);
            b.inject_flips(flat, 1);
        }
        for flat in 0..20 {
            assert_eq!(a.read(flat), b.read(flat));
        }
    }
}
