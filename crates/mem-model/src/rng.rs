//! A small, deterministic, dependency-free PRNG for the workspace.
//!
//! The simulator must be reproducible offline — no registry access, no
//! platform entropy — so instead of an external `rand` dependency the
//! workspace carries this module: a [SplitMix64] seed expander feeding a
//! [xoshiro256**] generator (Blackman & Vigna). Both are public-domain
//! algorithms; xoshiro256** passes BigCrush and is more than adequate for
//! workload synthesis and randomized tests.
//!
//! A given seed always produces the same stream on every platform, which is
//! what experiment reproducibility (and `cargo test` determinism) rides on.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//! [xoshiro256**]: https://prng.di.unimi.it/xoshiro256starstar.c
//!
//! # Example
//!
//! ```
//! use mem_model::rng::Rng;
//!
//! let mut a = Rng::seed_from_u64(42);
//! let mut b = Rng::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(a.random_range(0u64..10) < 10);
//! ```

use std::ops::Range;

/// The golden-ratio increment used by SplitMix64.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: advances `state` and returns the next output.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable xoshiro256** generator.
///
/// Not cryptographically secure; use only for simulation and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed, expanding it through
    /// SplitMix64 as the xoshiro authors recommend (this guarantees a
    /// non-zero state for every seed).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The raw generator state, for checkpointing. Restore it with
    /// [`Rng::set_state`] to resume the stream at exactly this position.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Overwrites the generator state with one captured by [`Rng::state`].
    /// An all-zero state (never produced by seeding or stepping) would
    /// wedge xoshiro at zero, so it is replaced by the zero-seed expansion.
    pub fn set_state(&mut self, s: [u64; 4]) {
        if s == [0; 4] {
            *self = Rng::seed_from_u64(0);
        } else {
            self.s = s;
        }
    }

    /// The next raw 64-bit output.
    #[inline]
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

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn random_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An unbiased uniform integer in `[0, n)` via Lemire's widening
    /// multiply with rejection.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    #[expect(
        clippy::panic,
        reason = "documented # Panics argument contract; a zero bound has no defensible fallback"
    )]
    pub fn bounded_u64(&mut self, n: u64) -> u64 {
        if n == 0 {
            panic!("empty range");
        }
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n; // 2^64 mod n
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform value in the half-open `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn random_range<T: RangeSample>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.random_f64() < p
    }
}

/// Integer types [`Rng::random_range`] can sample uniformly.
pub trait RangeSample: Sized {
    /// Draws a uniform value in `range` (half-open).
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            #[inline]
            fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end as u64).wrapping_sub(range.start as u64);
                range.start + rng.bounded_u64(span) as $t
            }
        }
    )*};
}

impl_range_sample!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_fine() {
        // SplitMix64 expansion guarantees a non-zero xoshiro state.
        let mut r = Rng::seed_from_u64(0);
        assert!((0..8).any(|_| r.next_u64() != 0));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.random_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut r = Rng::seed_from_u64(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.random_f64()).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_is_uniform_and_in_bounds() {
        let mut r = Rng::seed_from_u64(5);
        let mut hist = [0u64; 10];
        for _ in 0..100_000 {
            let v = r.random_range(0usize..10);
            hist[v] += 1;
        }
        for (i, &count) in hist.iter().enumerate() {
            let frac = count as f64 / 100_000.0;
            assert!((frac - 0.1).abs() < 0.01, "bucket {i}: {frac}");
        }
    }

    #[test]
    fn range_with_offset() {
        let mut r = Rng::seed_from_u64(6);
        for _ in 0..1000 {
            let v = r.random_range(100u64..108);
            assert!((100..108).contains(&v));
        }
    }

    #[test]
    fn bool_probability_respected() {
        let mut r = Rng::seed_from_u64(8);
        let hits = (0..100_000).filter(|_| r.random_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
        assert!(r.random_bool(1.0));
        assert!(!r.random_bool(0.0));
    }

    #[test]
    fn state_roundtrip_resumes_stream() {
        let mut a = Rng::seed_from_u64(11);
        let _ = a.next_u64();
        let saved = a.state();
        let expect: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let mut b = Rng::seed_from_u64(999);
        b.set_state(saved);
        let got: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(expect, got);
        // The all-zero fixed point is rejected rather than wedging the stream.
        b.set_state([0; 4]);
        assert_eq!(b.state(), Rng::seed_from_u64(0).state());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let mut r = Rng::seed_from_u64(9);
        let _ = r.random_range(5u64..5);
    }
}
