//! (72,64) SECDED Hamming codec.
//!
//! The code is the classic extended Hamming construction: a Hamming(71,64)
//! code laid out over bit positions `1..=71` of a 72-bit word, with check
//! bits at the power-of-two positions (1, 2, 4, 8, 16, 32, 64) and data
//! bits filling the remaining 64 positions in ascending order, plus an
//! overall even-parity bit at position 0. The extended parity bit is what
//! upgrades single-error-correct to double-error-*detect*: a double flip
//! leaves overall parity even but produces a nonzero syndrome, which is
//! distinguishable from every single-flip case.
//!
//! Decode classification (syndrome `s`, overall parity `p` of all 72 bits):
//!
//! | `s`    | `p`  | verdict                                      |
//! |--------|------|----------------------------------------------|
//! | 0      | even | clean                                        |
//! | ≠0     | odd  | single error at position `s` — corrected     |
//! | 0      | odd  | overall-parity bit flipped — corrected       |
//! | ≠0     | even | double error — uncorrectable                 |
//!
//! Three or more flips are beyond the code's guarantee; they may alias to
//! any verdict (as in real SECDED hardware), so the fault injector only
//! emits one- and two-bit flips per word.

/// Total codeword width in bits (64 data + 7 Hamming check + 1 parity).
pub const CODE_BITS: u32 = 72;

/// Payload width in bits.
pub const DATA_BITS: u32 = 64;

/// Mask selecting the 72 codeword bits of a `u128`.
const CODE_MASK: u128 = (1u128 << CODE_BITS) - 1;

/// Outcome of decoding a (possibly corrupted) 72-bit codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// Zero syndrome and even parity: the stored word is intact.
    Clean {
        /// The 64-bit payload.
        data: u64,
    },
    /// Exactly one bit was flipped; the decoder repaired it (a CE).
    Corrected {
        /// The payload after correction.
        data: u64,
        /// Codeword bit position (0..72) that was flipped and repaired.
        bit: u32,
    },
    /// An even number (≥2) of flips: detected but not repairable (a UE).
    Uncorrectable,
}

/// The data bits as contiguous runs between the check positions:
/// `(codeword position, payload bit, length)`. Payload bits fill the
/// non-check positions 3, 5..=7, 9..=15, ... in ascending order.
const DATA_RUNS: [(u32, u32, u32); 6] = [
    (3, 0, 1),
    (5, 1, 3),
    (9, 4, 7),
    (17, 11, 15),
    (33, 26, 31),
    (65, 57, 7),
];

/// `SYNDROME_MASKS[i]` selects the positions in `1..=71` whose index has
/// bit `i` set; the parity of `word & SYNDROME_MASKS[i]` is syndrome bit `i`.
const SYNDROME_MASKS: [u128; 7] = syndrome_masks();

const fn syndrome_masks() -> [u128; 7] {
    let mut masks = [0u128; 7];
    let mut pos = 1;
    while pos < CODE_BITS {
        let mut i = 0;
        while i < 7 {
            if pos >> i & 1 == 1 {
                masks[i] |= 1 << pos;
            }
            i += 1;
        }
        pos += 1;
    }
    masks
}

/// Encodes a 64-bit payload into a 72-bit SECDED codeword.
pub fn encode(data: u64) -> u128 {
    let mut word = scatter(data);
    // Each Hamming check bit makes the XOR over the positions containing
    // its index bit come out even.
    let syn = syndrome(word);
    for i in 0..7 {
        word |= u128::from(syn >> i & 1) << (1u32 << i);
    }
    debug_assert_eq!(syndrome(word), 0);
    // Overall parity bit makes the full 72-bit popcount even.
    word | u128::from(word.count_ones() & 1)
}

/// Places the 64 payload bits at the non-check positions.
fn scatter(data: u64) -> u128 {
    DATA_RUNS.iter().fold(0, |word, &(pos, src, len)| {
        word | u128::from(data >> src & low_bits(len)) << pos
    })
}

/// XOR of the positions (1..=71) of all set bits — zero for a valid word,
/// and equal to the flipped position after any single flip in 1..=71.
fn syndrome(word: u128) -> u32 {
    SYNDROME_MASKS
        .iter()
        .enumerate()
        .fold(0, |syn, (i, m)| syn | ((word & m).count_ones() & 1) << i)
}

/// Gathers the 64 payload bits back out of a codeword.
fn extract(word: u128) -> u64 {
    DATA_RUNS.iter().fold(0, |data, &(pos, dst, len)| {
        data | ((word >> pos) as u64 & low_bits(len)) << dst
    })
}

/// A mask of the low `len` bits (`len < 64`).
const fn low_bits(len: u32) -> u64 {
    (1 << len) - 1
}

/// Decodes a 72-bit codeword, correcting a single flip and detecting a
/// double flip. Bits above position 71 are ignored.
pub fn decode(word: u128) -> Decode {
    let word = word & CODE_MASK;
    let syn = syndrome(word);
    let parity_odd = word.count_ones() % 2 == 1;
    match (syn, parity_odd) {
        (0, false) => Decode::Clean {
            data: extract(word),
        },
        (0, true) => Decode::Corrected {
            data: extract(word),
            bit: 0,
        },
        (s, true) if s < CODE_BITS => Decode::Corrected {
            data: extract(word ^ (1 << s)),
            bit: s,
        },
        // s >= CODE_BITS with odd parity can only arise from ≥3 flips;
        // even parity with nonzero syndrome is the double-flip signature.
        _ => Decode::Uncorrectable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartrefresh_dram::rng::Rng;

    /// True for the check-bit positions of the inner Hamming(71,64) code.
    fn is_check_position(pos: u32) -> bool {
        pos.is_power_of_two()
    }

    /// The bit-at-a-time codec the word-parallel one replaced: the oracle
    /// the constant runs and masks are checked against.
    mod reference {
        use super::is_check_position;
        use crate::secded::{CODE_BITS, DATA_BITS};

        pub fn encode(data: u64) -> u128 {
            let mut word: u128 = 0;
            let mut src = 0;
            for pos in 1..CODE_BITS {
                if is_check_position(pos) {
                    continue;
                }
                if data >> src & 1 == 1 {
                    word |= 1 << pos;
                }
                src += 1;
            }
            assert_eq!(src, DATA_BITS);
            let syn = syndrome(word);
            for i in 0..7 {
                if syn >> i & 1 == 1 {
                    word |= 1 << (1u32 << i);
                }
            }
            if word.count_ones() % 2 == 1 {
                word |= 1;
            }
            word
        }

        pub fn syndrome(word: u128) -> u32 {
            let mut syn = 0;
            for pos in 1..CODE_BITS {
                if word >> pos & 1 == 1 {
                    syn ^= pos;
                }
            }
            syn
        }

        pub fn extract(word: u128) -> u64 {
            let mut data = 0u64;
            let mut dst = 0;
            for pos in 1..CODE_BITS {
                if is_check_position(pos) {
                    continue;
                }
                if word >> pos & 1 == 1 {
                    data |= 1 << dst;
                }
                dst += 1;
            }
            data
        }

        /// `decode` written against the reference helpers.
        pub fn decode(word: u128) -> super::Decode {
            let word = word & super::CODE_MASK;
            let syn = syndrome(word);
            match (syn, word.count_ones() % 2 == 1) {
                (0, false) => super::Decode::Clean {
                    data: extract(word),
                },
                (0, true) => super::Decode::Corrected {
                    data: extract(word),
                    bit: 0,
                },
                (s, true) if s < CODE_BITS => super::Decode::Corrected {
                    data: extract(word ^ (1 << s)),
                    bit: s,
                },
                _ => super::Decode::Uncorrectable,
            }
        }
    }

    /// Asserts the word-parallel codec equals the reference on `data`.
    fn assert_matches_reference(data: u64) {
        let word = encode(data);
        assert_eq!(word, reference::encode(data), "encode({data:#x})");
        assert_eq!(extract(word), data, "extract(encode({data:#x}))");
        // A word carrying arbitrary bits exercises the syndrome and gather
        // on inputs that are not valid codewords.
        let noisy = word ^ u128::from(data.rotate_left(17)) << 3;
        assert_eq!(syndrome(noisy), reference::syndrome(noisy));
        assert_eq!(extract(noisy), reference::extract(noisy));
    }

    #[test]
    fn codec_matches_reference_on_single_bit_payloads() {
        assert_matches_reference(0);
        for bit in 0..DATA_BITS {
            assert_matches_reference(1 << bit);
            assert_matches_reference(!(1 << bit));
        }
    }

    #[test]
    fn codec_matches_reference_on_random_payloads() {
        let mut rng = Rng::seed_from_u64(0x05ec_0ded);
        for _ in 0..10_000 {
            assert_matches_reference(rng.next_u64());
        }
    }

    #[test]
    fn decode_matches_reference_on_every_single_and_double_flip() {
        let mut rng = Rng::seed_from_u64(0xf11b);
        for _ in 0..4 {
            let word = encode(rng.next_u64());
            for a in 0..CODE_BITS {
                let single = word ^ (1 << a);
                assert_eq!(decode(single), reference::decode(single), "flip {a}");
                for b in (a + 1)..CODE_BITS {
                    let double = single ^ (1 << b);
                    assert_eq!(decode(double), reference::decode(double), "flips {a},{b}");
                }
            }
        }
    }

    #[test]
    fn roundtrip_is_clean() {
        for data in [0u64, u64::MAX, 0xA5A5_A5A5_5A5A_5A5A, 1, 1 << 63] {
            assert_eq!(decode(encode(data)), Decode::Clean { data });
        }
    }

    #[test]
    fn every_single_flip_is_corrected() {
        let data = 0x0123_4567_89AB_CDEF;
        let word = encode(data);
        for bit in 0..CODE_BITS {
            match decode(word ^ (1 << bit)) {
                Decode::Corrected { data: d, bit: b } => {
                    assert_eq!(d, data, "payload mangled after flip at {bit}");
                    assert_eq!(b, bit, "wrong position identified");
                }
                other => panic!("flip at {bit} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn every_double_flip_is_flagged() {
        let word = encode(0xFEED_FACE_CAFE_BEEF);
        for a in 0..CODE_BITS {
            for b in (a + 1)..CODE_BITS {
                assert_eq!(
                    decode(word ^ (1 << a) ^ (1 << b)),
                    Decode::Uncorrectable,
                    "double flip at ({a},{b}) not flagged"
                );
            }
        }
    }

    #[test]
    fn check_positions_are_the_powers_of_two() {
        let checks: Vec<u32> = (1..CODE_BITS).filter(|p| is_check_position(*p)).collect();
        assert_eq!(checks, vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(CODE_BITS - 1 - checks.len() as u32, DATA_BITS);
    }

    #[test]
    fn high_bits_are_ignored() {
        let data = 42;
        let word = encode(data) | (1u128 << 100);
        assert_eq!(decode(word), Decode::Clean { data });
    }
}
