//! An analytical model of the Skinflint DRAM System (SDS), the paper's
//! closest related work, used to reproduce Section 3's coverage comparison:
//! *"our scheme reduces average row activation granularity by 42% whereas
//! SDS can reduce average chip access granularity by only 16%"*.
//!
//! SDS is **inter-chip**: on a write it skips any chip whose bytes are all
//! clean. The paper's data mapping scatters byte `b` of every word to chip
//! `b`, so chip `b` can be skipped only if byte `b` of *all eight words* is
//! clean. PRA is **intra-chip**: it skips MAT-pair groups, i.e. whole clean
//! *words*. The structural consequence this module quantifies: one dirty
//! 8-byte word already touches every byte position — every chip — so SDS
//! saves nothing on it, while PRA still skips the seven clean words'
//! groups. SDS only wins bytes when stores write *sub-word* values.
//!
//! The model extends the workspace's word-granularity dirty masks with a
//! per-store value-width distribution (how many low bytes of each dirty
//! word the store actually writes), which is exactly the information SDS's
//! old/new data comparison would recover.

use mem_model::rng::Rng;
use mem_model::{WordMask, WORDS_PER_LINE};

/// Distribution of written-value widths within a dirty word, in bytes.
/// Probabilities for widths `[1, 2, 4, 8]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueWidthDist {
    /// `p[i]` is the probability of width `[1, 2, 4, 8][i]`.
    pub p: [f64; 4],
}

impl ValueWidthDist {
    /// A pointer/double-heavy mix typical of the paper's benchmarks:
    /// half the stores write full 8-byte words (pointers, doubles,
    /// memcpy-style lines), a third write 4-byte ints, the rest smaller.
    pub const fn typical() -> Self {
        ValueWidthDist {
            p: [0.05, 0.12, 0.33, 0.50],
        }
    }

    /// Checks the distribution sums to one.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are invalid.
    pub fn assert_valid(&self) {
        let sum: f64 = self.p.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "value width distribution sums to {sum}"
        );
        assert!(self.p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let widths = [1usize, 2, 4, 8];
        let mut x: f64 = rng.random_f64();
        for (w, &p) in widths.iter().zip(&self.p) {
            if x < p {
                return *w;
            }
            x -= p;
        }
        8
    }
}

impl Default for ValueWidthDist {
    fn default() -> Self {
        ValueWidthDist::typical()
    }
}

/// Byte-granularity dirtiness of one cache line: bit `8*w + b` covers byte
/// `b` of word `w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ByteMask(pub u64);

impl ByteMask {
    /// Bytes dirty in the given word.
    pub fn word_bytes(&self, word: u8) -> u8 {
        ((self.0 >> (8 * word)) & 0xFF) as u8
    }

    /// Chips (byte positions) that hold at least one dirty byte — the chips
    /// SDS must access.
    pub fn chips_accessed(&self) -> u32 {
        let mut positions = 0u8;
        for w in 0..WORDS_PER_LINE as u8 {
            positions |= self.word_bytes(w);
        }
        positions.count_ones()
    }

    /// Words with at least one dirty byte — the MAT groups PRA activates.
    pub fn words_dirty(&self) -> u32 {
        (0..WORDS_PER_LINE as u8)
            .filter(|&w| self.word_bytes(w) != 0)
            .count() as u32
    }

    /// The word-granularity FGD mask this byte mask collapses to.
    pub fn to_word_mask(&self) -> WordMask {
        WordMask::from_words((0..WORDS_PER_LINE as u8).filter(|&w| self.word_bytes(w) != 0))
    }
}

/// Outcome of the SDS-versus-PRA coverage comparison (Section 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageComparison {
    /// Average fraction of a row PRA activates on writes (1.0 = full).
    pub pra_write_granularity: f64,
    /// Average fraction of chips SDS accesses on writes (1.0 = all 8).
    pub sds_chip_fraction: f64,
    /// PRA's average write-granularity reduction (write accesses only).
    pub pra_reduction: f64,
    /// SDS's average chip-access reduction (write accesses only).
    pub sds_reduction: f64,
}

impl CoverageComparison {
    /// The paper's Section 3 metrics average over *all* accesses — reads
    /// use full rows and all chips in both schemes, diluting the write-side
    /// savings. Given the share of row activations caused by writes
    /// (Table 1: 42 %) and the share of traffic that is writes (36 %),
    /// returns `(pra_overall_reduction, sds_overall_reduction)` — the
    /// quantities the paper quotes as 42 % and 16 %.
    pub fn overall_reductions(
        &self,
        write_activation_share: f64,
        write_traffic_share: f64,
    ) -> (f64, f64) {
        (
            write_activation_share * self.pra_reduction,
            write_traffic_share * self.sds_reduction,
        )
    }
}

/// Synthesises `samples` written-back lines whose dirty words follow
/// `dirty_words_dist` (the Figure 3 knob) and whose per-word written widths
/// follow `widths`, then measures what each scheme can skip.
///
/// # Panics
///
/// Panics if either distribution is invalid or `samples == 0`.
pub fn compare_coverage(
    dirty_words_dist: [f64; WORDS_PER_LINE],
    widths: ValueWidthDist,
    samples: u64,
    seed: u64,
) -> CoverageComparison {
    assert!(samples > 0, "need at least one sample");
    widths.assert_valid();
    let sum: f64 = dirty_words_dist.iter().sum();
    assert!(
        (sum - 1.0).abs() < 1e-9,
        "dirty-word distribution sums to {sum}"
    );

    let mut rng = Rng::seed_from_u64(seed);
    let mut pra_words = 0u64;
    let mut sds_chips = 0u64;
    for _ in 0..samples {
        // Draw the number of dirty words, then a contiguous run position.
        let mut x: f64 = rng.random_f64();
        let mut words = WORDS_PER_LINE;
        for (k, &p) in dirty_words_dist.iter().enumerate() {
            if x < p {
                words = k + 1;
                break;
            }
            x -= p;
        }
        let start = rng.random_range(0..(WORDS_PER_LINE - words + 1)) as u8;
        let mut mask = ByteMask::default();
        for w in start..start + words as u8 {
            let width = widths.sample(&mut rng);
            // The value occupies the low `width` bytes of the word (aligned
            // stores), except full-line writes which dirty whole words.
            let bytes: u8 = if width >= 8 {
                0xFF
            } else {
                ((1u16 << width) - 1) as u8
            };
            mask.0 |= u64::from(bytes) << (8 * w);
        }
        pra_words += u64::from(mask.words_dirty());
        sds_chips += u64::from(mask.chips_accessed());
    }
    let pra_write_granularity = pra_words as f64 / (samples * WORDS_PER_LINE as u64) as f64;
    let sds_chip_fraction = sds_chips as f64 / (samples * 8) as f64;
    CoverageComparison {
        pra_write_granularity,
        sds_chip_fraction,
        pra_reduction: 1.0 - pra_write_granularity,
        sds_reduction: 1.0 - sds_chip_fraction,
    }
}

/// Runs the comparison with the workload suite's average dirty-word
/// distribution and the typical value-width mix — the configuration that
/// reproduces the paper's 42%-vs-16% claim.
pub fn paper_comparison(samples: u64, seed: u64) -> CoverageComparison {
    // Average the suite's calibrated per-benchmark distributions.
    let mut avg = [0.0; WORDS_PER_LINE];
    let suite = workloads::all_benchmarks();
    for b in &suite {
        for (a, d) in avg.iter_mut().zip(&b.dirty_words_dist) {
            *a += d / suite.len() as f64;
        }
    }
    // Normalise residual floating error.
    let sum: f64 = avg.iter().sum();
    for a in &mut avg {
        *a /= sum;
    }
    compare_coverage(avg, ValueWidthDist::typical(), samples, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_mask_accessors() {
        let mut m = ByteMask::default();
        m.0 |= 0x0F; // low 4 bytes of word 0
        m.0 |= 0xFF << 56; // all of word 7
        assert_eq!(m.word_bytes(0), 0x0F);
        assert_eq!(m.word_bytes(7), 0xFF);
        assert_eq!(m.words_dirty(), 2);
        assert_eq!(m.chips_accessed(), 8, "word 7 touches every byte position");
        assert_eq!(m.to_word_mask(), WordMask::from_words([0, 7]));
    }

    #[test]
    fn one_full_word_defeats_sds_but_not_pra() {
        // A single fully-written word: SDS must access all chips, PRA
        // activates one group of sixteen MATs' worth (1/8 of a row).
        let dist = {
            let mut d = [0.0; 8];
            d[0] = 1.0;
            d
        };
        let all_eight_bytes = ValueWidthDist {
            p: [0.0, 0.0, 0.0, 1.0],
        };
        let c = compare_coverage(dist, all_eight_bytes, 10_000, 1);
        assert!((c.pra_write_granularity - 0.125).abs() < 1e-9);
        assert!((c.sds_chip_fraction - 1.0).abs() < 1e-9);
        assert!(
            c.sds_reduction.abs() < 1e-9,
            "SDS saves nothing on whole-word writes"
        );
        assert!((c.pra_reduction - 0.875).abs() < 1e-9);
    }

    #[test]
    fn narrow_values_let_sds_skip_chips() {
        let dist = {
            let mut d = [0.0; 8];
            d[0] = 1.0;
            d
        };
        let all_ints = ValueWidthDist {
            p: [0.0, 0.0, 1.0, 0.0],
        };
        let c = compare_coverage(dist, all_ints, 10_000, 1);
        assert!(
            (c.sds_chip_fraction - 0.5).abs() < 1e-9,
            "4-byte values touch half the chips"
        );
    }

    #[test]
    fn paper_comparison_shape() {
        let c = paper_comparison(50_000, 1);
        // Write-side: PRA must dominate SDS by a wide margin.
        assert!(
            c.pra_reduction > 2.0 * c.sds_reduction,
            "PRA {:.3} vs SDS {:.3}",
            c.pra_reduction,
            c.sds_reduction
        );
        assert!(c.sds_reduction > 0.02);
        assert!(c.pra_reduction > 0.4 && c.pra_reduction < 0.95);
        // Overall (read-diluted), the paper's Table 1 shares give numbers in
        // the neighbourhood of its 42% / 16% claim.
        let (pra, sds) = c.overall_reductions(0.42, 0.36);
        assert!(
            (0.25..=0.45).contains(&pra),
            "overall PRA reduction {pra:.3}"
        );
        assert!(
            (0.03..=0.20).contains(&sds),
            "overall SDS reduction {sds:.3}"
        );
    }

    #[test]
    fn comparison_is_deterministic() {
        let a = paper_comparison(10_000, 7);
        let b = paper_comparison(10_000, 7);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let _ = paper_comparison(0, 1);
    }
}
