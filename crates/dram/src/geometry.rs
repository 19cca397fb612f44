//! DRAM module geometry and physical-address mapping.
//!
//! A module is organised as `ranks × banks × rows × columns`, with a data bus
//! `data_bits` wide (Table 1 of the paper uses 72 bits: 64 data + 8 ECC; only
//! the 64 data bits contribute to capacity). One *column access* transfers one
//! bus-width worth of data.
//!
//! Smart Refresh tracks state per `(rank, bank, row)` triple — the unit that a
//! single refresh operation restores under the paper's
//! one-channel/one-rank/one-bank refresh command policy. [`RowAddr`] names
//! such a triple and [`Geometry::flatten`] gives it a dense index usable for
//! counter arrays and retention tables.

use std::fmt;

/// Shape of a DRAM module.
///
/// # Examples
///
/// ```
/// use smartrefresh_dram::geometry::Geometry;
///
/// // Table 1: 2 GB DDR2 module.
/// let g = Geometry::new(2, 4, 16384, 2048, 64);
/// assert_eq!(g.capacity_bytes(), 2 * 1024 * 1024 * 1024);
/// assert_eq!(g.total_rows(), 131_072);
/// assert_eq!(g.row_bytes(), 16 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    ranks: u32,
    banks: u32,
    rows: u32,
    columns: u32,
    /// Width of the *data* portion of the bus in bits (excludes ECC).
    data_bits: u32,
    /// Where each field of an address sits, derived from the dimensions
    /// above, so it never changes equality or hashing semantics.
    addr_bits: AddrBits,
}

impl Geometry {
    /// Creates a geometry.
    ///
    /// Every dimension is a power of two, as in every module the paper
    /// evaluates, so each address field is a shift and a mask.
    ///
    /// # Panics
    ///
    /// Panics if `ranks`, `banks`, `rows`, `columns` or the column width
    /// `data_bits / 8` is not a power of two (zero included), if `data_bits`
    /// is not a multiple of 8, or if the capacity does not fit in 63
    /// address bits.
    pub fn new(ranks: u32, banks: u32, rows: u32, columns: u32, data_bits: u32) -> Self {
        assert!(
            data_bits.is_multiple_of(8) && (data_bits / 8).is_power_of_two(),
            "data_bits must be 8 times a power of two, got {data_bits}"
        );
        for (n, what) in [
            (ranks, "ranks"),
            (banks, "banks"),
            (rows, "rows"),
            (columns, "columns"),
        ] {
            assert!(
                n.is_power_of_two(),
                "{what} must be a power of two, got {n}"
            );
        }
        Geometry {
            ranks,
            banks,
            rows,
            columns,
            data_bits,
            addr_bits: AddrBits::of(data_bits / 8, columns, banks, ranks, rows),
        }
    }

    /// Number of ranks in the module.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Number of banks per rank.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Number of rows per bank.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns per row.
    pub fn columns(&self) -> u32 {
        self.columns
    }

    /// Width of the data portion of the bus, in bits.
    pub fn data_bits(&self) -> u32 {
        self.data_bits
    }

    /// Bytes transferred by one column access.
    pub fn column_bytes(&self) -> u64 {
        u64::from(self.data_bits) / 8
    }

    /// Bytes stored in one row (the unit restored by one refresh).
    pub fn row_bytes(&self) -> u64 {
        u64::from(self.columns) * self.column_bytes()
    }

    /// Total data capacity of the module in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.ranks) * u64::from(self.banks) * u64::from(self.rows) * self.row_bytes()
    }

    /// Total number of independently refreshable `(rank, bank, row)` triples.
    ///
    /// This is the count the baseline CBR policy must sweep once per refresh
    /// interval, and the number of time-out counters Smart Refresh maintains.
    pub fn total_rows(&self) -> u64 {
        u64::from(self.ranks) * u64::from(self.banks) * u64::from(self.rows)
    }

    /// Number of banks across all ranks.
    pub fn total_banks(&self) -> u32 {
        self.ranks * self.banks
    }

    /// Maps a physical byte address to its `(rank, bank, row, column)`,
    /// with the row's flat bank index and flat row index alongside.
    ///
    /// The mapping interleaves consecutive column-sized blocks across columns,
    /// then banks, then ranks, then rows — the usual open-page-friendly layout
    /// in which a contiguous `row_bytes()`-sized region covering all banks
    /// maps to one row index in each bank.
    ///
    /// Addresses beyond the capacity wrap (callers model virtual→physical
    /// placement separately).
    ///
    /// Runs once per demand access: a handful of shifts and masks, always
    /// inlined so the result stays in registers.
    #[inline(always)]
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        let b = self.addr_bits;
        // Three independent field extractions, no dependency chain.
        let column = (addr >> b.column_shift) as u32 & b.column_mask;
        let bank_index = (addr >> b.bank_shift) as u32 & b.bank_index_mask;
        let row = (addr >> b.row_shift) as u32 & b.row_mask;
        DecodedAddr {
            row_addr: RowAddr {
                rank: bank_index >> b.banks,
                bank: bank_index & b.bank_mask,
                row,
            },
            column,
            bank_index,
            flat: (u64::from(bank_index) << b.rows) | u64::from(row),
        }
    }

    /// Dense index of a `(rank, bank, row)` triple in `0..total_rows()`.
    ///
    /// # Panics
    ///
    /// Panics if any component is out of range for this geometry.
    #[inline]
    pub fn flatten(&self, row: RowAddr) -> u64 {
        assert!(row.rank < self.ranks, "rank out of range");
        assert!(row.bank < self.banks, "bank out of range");
        assert!(row.row < self.rows, "row out of range");
        (u64::from(row.rank) * u64::from(self.banks) + u64::from(row.bank)) * u64::from(self.rows)
            + u64::from(row.row)
    }

    /// Inverse of [`Geometry::flatten`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= total_rows()`.
    #[inline]
    pub fn unflatten(&self, index: u64) -> RowAddr {
        assert!(index < self.total_rows(), "flat row index out of range");
        let b = self.addr_bits;
        self.row_at((index >> b.rows) as usize, index as u32 & b.row_mask)
    }

    /// The `(rank, bank, row)` of `row` in the bank with flat index
    /// `bank_index` (the inverse of [`bank_index`](Self::bank_index)).
    /// Nothing is range-checked, so it also names an out-of-range command
    /// in an error.
    #[inline]
    pub fn row_at(&self, bank_index: usize, row: u32) -> RowAddr {
        let b = self.addr_bits;
        RowAddr {
            rank: (bank_index >> b.banks) as u32,
            bank: bank_index as u32 & b.bank_mask,
            row,
        }
    }

    /// Dense index of a `(rank, bank)` pair in `0..total_banks()`.
    #[inline]
    pub fn bank_index(&self, rank: u32, bank: u32) -> u32 {
        assert!(rank < self.ranks, "rank out of range");
        assert!(bank < self.banks, "bank out of range");
        rank * self.banks + bank
    }

    /// Iterator over every `(rank, bank, row)` triple in flat-index order.
    pub fn iter_rows(&self) -> impl Iterator<Item = RowAddr> + '_ {
        (0..self.total_rows()).map(move |i| self.unflatten(i))
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ranks x {} banks x {} rows x {} cols x {} bits ({} MB)",
            self.ranks,
            self.banks,
            self.rows,
            self.columns,
            self.data_bits,
            self.capacity_bytes() / (1024 * 1024)
        )
    }
}

/// Where each field of a physical address sits: from the bottom, the byte
/// within a column, the column, the bank, the rank, then the row. Bank and
/// rank are adjacent, so one field holds the flat bank index
/// `rank * banks + bank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AddrBits {
    column_shift: u8,
    bank_shift: u8,
    row_shift: u8,
    /// `log2(banks)`: splits the flat bank index into rank and bank.
    banks: u8,
    /// `log2(rows)`: joins the flat bank index and the row into the flat row.
    rows: u8,
    column_mask: u32,
    bank_index_mask: u32,
    bank_mask: u32,
    row_mask: u32,
}

impl AddrBits {
    /// The layout of an all-power-of-two shape.
    ///
    /// # Panics
    ///
    /// Panics unless the flat bank index fits in 31 bits and every address
    /// bit above the row is a wrap (capacity at most 2^63 bytes).
    fn of(col_bytes: u32, columns: u32, banks: u32, ranks: u32, rows: u32) -> Self {
        let log2 = |n: u32| n.trailing_zeros();
        let column_shift = log2(col_bytes);
        let bank_shift = column_shift + log2(columns);
        let bank_bits = log2(banks) + log2(ranks);
        let row_shift = bank_shift + bank_bits;
        assert!(bank_bits <= 31, "more than 2^31 banks");
        assert!(
            row_shift + log2(rows) <= 63,
            "capacity must fit in 63 address bits"
        );
        let mask = |bits: u32| (1u32 << bits) - 1;
        AddrBits {
            column_shift: column_shift as u8,
            bank_shift: bank_shift as u8,
            row_shift: row_shift as u8,
            banks: log2(banks) as u8,
            rows: log2(rows) as u8,
            column_mask: columns - 1,
            bank_index_mask: mask(bank_bits),
            bank_mask: banks - 1,
            row_mask: rows - 1,
        }
    }
}

/// A `(rank, bank, row)` triple — the granularity of one refresh operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowAddr {
    /// Rank index within the module.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
}

impl fmt::Display for RowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}b{}row{}", self.rank, self.bank, self.row)
    }
}

/// Result of decoding a physical address: the row triple plus the column,
/// and the dense indices the triple resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    /// The `(rank, bank, row)` this address falls in.
    pub row_addr: RowAddr,
    /// Column within the row.
    pub column: u32,
    /// [`Geometry::bank_index`] of the row's `(rank, bank)`.
    pub bank_index: u32,
    /// [`Geometry::flatten`] of the row.
    pub flat: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_2gb() -> Geometry {
        Geometry::new(2, 4, 16384, 2048, 64)
    }

    fn table2_3d() -> Geometry {
        Geometry::new(1, 4, 16384, 128, 64)
    }

    #[test]
    fn capacities_match_paper_tables() {
        assert_eq!(table1_2gb().capacity_bytes(), 2 << 30);
        // Table 1 variant: 4 GB via 8 banks.
        assert_eq!(
            Geometry::new(2, 8, 16384, 2048, 64).capacity_bytes(),
            4 << 30
        );
        assert_eq!(table2_3d().capacity_bytes(), 64 << 20);
    }

    #[test]
    fn total_rows_drive_baseline_refresh_rates() {
        // These counts divided by the refresh interval give the paper's
        // baseline refreshes/sec (2,048,000 for 2 GB @ 64 ms, etc).
        assert_eq!(table1_2gb().total_rows(), 131_072);
        assert_eq!(Geometry::new(2, 8, 16384, 2048, 64).total_rows(), 262_144);
        assert_eq!(table2_3d().total_rows(), 65_536);
    }

    #[test]
    fn decode_roundtrips_within_capacity() {
        let g = table1_2gb();
        let addrs = [0u64, 8, 16 * 1024, 123_456_792, g.capacity_bytes() - 8];
        for &a in &addrs {
            let d = g.decode(a);
            assert!(d.row_addr.rank < g.ranks());
            assert!(d.row_addr.bank < g.banks());
            assert!(d.row_addr.row < g.rows());
            assert!(d.column < g.columns());
        }
    }

    /// `decode` equals the div/mod mapping, kept here as the oracle, wrap
    /// past the capacity included, on the two paper shapes and two small
    /// ones (short rows; four ranks of eight narrow banks); its bank index
    /// and flat row are `bank_index` and `flatten` of that mapping.
    #[test]
    fn decode_matches_the_div_mod_mapping() {
        for g in [
            table1_2gb(),
            table2_3d(),
            Geometry::new(2, 4, 32, 16, 64),
            Geometry::new(4, 8, 16, 8, 64),
        ] {
            let col_unit = g.column_bytes();
            let mut rng = crate::rng::Rng::seed_from_u64(5);
            for _ in 0..5_000 {
                let addr = rng.gen_range(0..4 * g.capacity_bytes());
                let blocks = addr / col_unit;
                let cols = u64::from(g.columns());
                let banks = u64::from(g.banks());
                let ranks = u64::from(g.ranks());
                let row_addr = RowAddr {
                    rank: (blocks / cols / banks % ranks) as u32,
                    bank: (blocks / cols % banks) as u32,
                    row: (blocks / cols / banks / ranks % u64::from(g.rows())) as u32,
                };
                let want = DecodedAddr {
                    row_addr,
                    column: (blocks % cols) as u32,
                    bank_index: g.bank_index(row_addr.rank, row_addr.bank),
                    flat: g.flatten(row_addr),
                };
                assert_eq!(g.decode(addr), want, "{g} at {addr:#x}");
            }
        }
    }

    #[test]
    fn consecutive_blocks_stay_in_row_then_switch_bank() {
        let g = table1_2gb();
        let first = g.decode(0);
        let next_col = g.decode(8);
        assert_eq!(first.row_addr, next_col.row_addr);
        assert_eq!(next_col.column, 1);
        // After a full row worth of columns, the bank advances.
        let next_bank = g.decode(g.row_bytes());
        assert_eq!(next_bank.row_addr.bank, 1);
        assert_eq!(next_bank.row_addr.row, 0);
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        for g in [
            Geometry::new(2, 4, 8, 4, 64),
            Geometry::new(4, 8, 32, 4, 64),
            Geometry::new(2, 2, 16, 4, 64),
            Geometry::new(4, 4, 8, 4, 64),
        ] {
            for i in 0..g.total_rows() {
                let ra = g.unflatten(i);
                assert!(ra.rank < g.ranks() && ra.bank < g.banks() && ra.row < g.rows());
                assert_eq!(g.flatten(ra), i, "{g}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rows must be a power of two, got 37")]
    fn new_rejects_a_dimension_that_is_not_a_power_of_two() {
        Geometry::new(2, 4, 37, 16, 64);
    }

    /// Every dimension, the column width and the 63-bit capacity bound
    /// are checked.
    #[test]
    fn new_rejects_every_shape_off_the_contract() {
        for (ranks, banks, rows, columns, data_bits) in [
            (3, 4, 16, 4, 64),
            (2, 5, 16, 4, 64),
            (2, 4, 16, 6, 64),
            (2, 4, 0, 4, 64),
            (2, 4, 16, 4, 72),
            (2, 4, 16, 4, 4),
            (1 << 16, 1 << 16, 1, 1, 8),
            (1, 1, 1 << 31, 1 << 31, 64),
        ] {
            let built =
                std::panic::catch_unwind(|| Geometry::new(ranks, banks, rows, columns, data_bits));
            assert!(
                built.is_err(),
                "{ranks}x{banks}x{rows}x{columns}x{data_bits}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "flat row index out of range")]
    fn unflatten_rejects_an_index_past_the_end() {
        let g = table1_2gb();
        g.unflatten(g.total_rows());
    }

    #[test]
    fn flatten_is_dense_and_unique() {
        let g = Geometry::new(2, 2, 4, 4, 64);
        let mut seen = vec![false; g.total_rows() as usize];
        for ra in g.iter_rows() {
            let i = g.flatten(ra) as usize;
            assert!(!seen[i], "duplicate flat index");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn flatten_rejects_bad_rank() {
        let g = Geometry::new(1, 1, 1, 1, 64);
        g.flatten(RowAddr {
            rank: 1,
            bank: 0,
            row: 0,
        });
    }

    #[test]
    fn bank_index_dense() {
        let g = Geometry::new(2, 4, 8, 4, 64);
        let mut seen = vec![false; g.total_banks() as usize];
        for rank in 0..2 {
            for bank in 0..4 {
                let i = g.bank_index(rank, bank) as usize;
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn display_mentions_capacity() {
        let s = table2_3d().to_string();
        assert!(s.contains("64 MB"), "display was {s}");
    }
}
