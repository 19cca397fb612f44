//! Self-contained seeded pseudo-random number generation.
//!
//! The simulator must build and run hermetically — no network, no crates-io
//! resolution — so it carries its own small PRNG instead of depending on an
//! external crate. The generator is xoshiro256** (Blackman & Vigna), seeded
//! from a single `u64` through splitmix64, the combination the xoshiro
//! authors recommend. Both algorithms are public domain and a dozen lines
//! each; the statistical quality is far beyond what stochastic workload
//! generation and retention-bin sampling need.
//!
//! Every stream is fully determined by its seed, so traces, retention
//! profiles and fault campaigns are reproducible across runs and platforms.

use std::ops::Range;

/// splitmix64 step: advances `state` and returns the next output word.
///
/// Used to expand a single `u64` seed into the xoshiro256** state, and
/// useful on its own for cheap seed derivation (hashing a workload name
/// into a per-stream seed, for example).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded xoshiro256** generator.
///
/// # Examples
///
/// ```
/// use smartrefresh_dram::rng::Rng;
///
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let x = a.gen_range(0u64..10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Builds a generator from a single seed via splitmix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The next raw 64-bit output (xoshiro256** scrambler).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)` (53 bits of precision).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.gen_f64() < p
    }

    /// A uniform value in the half-open range (Lemire rejection for the
    /// integer types, so the distribution is exactly uniform).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range<T: UniformSample>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Unbiased uniform integer in `[0, n)` via Lemire's method.
    ///
    /// The rejection threshold `2^64 mod n` is below `n`, so a draw whose
    /// low word is at least `n` is accepted without computing it; the
    /// divide runs only on the rare `lo < n` draw. The accepted draws, and
    /// so the output stream, are those of the always-divide form.
    fn bounded_u64(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        if (m as u64) < n {
            let threshold = n.wrapping_neg() % n; // 2^64 mod n
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
            }
        }
        (m >> 64) as u64
    }
}

/// Types [`Rng::gen_range`] can sample uniformly from a half-open range.
pub trait UniformSample: Sized {
    /// Draws a uniform sample from `range`.
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self;
}

impl UniformSample for u64 {
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        range.start + rng.bounded_u64(range.end - range.start)
    }
}

impl UniformSample for u32 {
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        range.start + rng.bounded_u64(u64::from(range.end - range.start)) as u32
    }
}

impl UniformSample for usize {
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        range.start + rng.bounded_u64((range.end - range.start) as u64) as usize
    }
}

impl UniformSample for f64 {
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        range.start + rng.gen_f64() * (range.end - range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0, from the reference implementation.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut s), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::seed_from_u64(43);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_stays_in_unit_interval_and_covers_it() {
        let mut r = Rng::seed_from_u64(1);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn gen_range_respects_bounds_for_all_types() {
        let mut r = Rng::seed_from_u64(2);
        for _ in 0..10_000 {
            let a = r.gen_range(5u64..17);
            assert!((5..17).contains(&a));
            let b = r.gen_range(3u32..9);
            assert!((3..9).contains(&b));
            let c = r.gen_range(1usize..4);
            assert!((1..4).contains(&c));
            let d = r.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&d));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(3);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            // Expect 10_000 per bucket; 5% tolerance is ~13 sigma.
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut r = Rng::seed_from_u64(4);
        let hits = (0..50_000).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / 50_000.0;
        assert!((frac - 0.3).abs() < 0.01, "fraction {frac}");
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    /// The always-divide form of Lemire's method that `bounded_u64`
    /// replaces: the threshold is computed before every draw.
    fn bounded_u64_oracle(rng: &mut Rng, n: u64) -> u64 {
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = u128::from(rng.next_u64()) * u128::from(n);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn bounded_u64_matches_the_always_divide_form() {
        let ns = [
            1,
            2,
            3,
            7,
            1 << 20,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for (seed, &n) in ns.iter().enumerate() {
            let mut fast = Rng::seed_from_u64(seed as u64);
            let mut oracle = fast.clone();
            for i in 0..20_000 {
                assert_eq!(
                    fast.bounded_u64(n),
                    bounded_u64_oracle(&mut oracle, n),
                    "n = {n}, draw {i}"
                );
            }
            // Both consumed the same raw words, rejections included.
            assert_eq!(fast, oracle, "n = {n}: streams diverged");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        Rng::seed_from_u64(0).gen_range(3u64..3);
    }
}
