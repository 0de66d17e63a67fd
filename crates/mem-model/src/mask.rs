//! Word-granularity masks: the FGD dirty mask and the PRA activation mask.

use core::fmt;
use core::ops::{BitOr, BitOrAssign};

/// Words per cache line (64 B line / 8 B words).
pub const WORDS_PER_LINE: usize = 8;

/// An 8-bit word mask over a 64-byte cache line.
///
/// Bit `i` covers word `i` (bytes `8*i..8*i+8`). The same type serves as
///
/// * the **fine-grained dirty (FGD) mask** a cache line carries (Section
///   4.1.4 of the paper), and
/// * the **PRA mask** delivered to the DRAM chips on a partial activation
///   (Section 4.1.1): bit `i` selects the `i`-th group of two MATs in the
///   addressed sub-array.
///
/// The paper renders masks most-significant-word first with a `b` suffix
/// (e.g. `10000001b` selects the first and eighth groups); [`fmt::Display`]
/// follows that convention, so bit 0 (word 0) is the **leftmost** digit.
///
/// # Example
///
/// ```
/// use mem_model::WordMask;
///
/// let m = WordMask::from_words([0, 7]);
/// assert_eq!(m.to_string(), "10000001b");
/// assert_eq!(m.count_words(), 2);
/// assert!(m.is_subset_of(WordMask::FULL));
/// assert!(!WordMask::FULL.is_subset_of(m));
/// assert_eq!(m | WordMask::from_words([1]), WordMask::from_words([0, 1, 7]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WordMask(u8);

impl WordMask {
    /// The empty mask (no words selected).
    pub const EMPTY: WordMask = WordMask(0);
    /// The full mask (all eight words; a conventional full-row activation).
    pub const FULL: WordMask = WordMask(0xFF);

    /// Creates a mask from raw bits (bit `i` = word `i`).
    pub const fn from_bits(bits: u8) -> Self {
        WordMask(bits)
    }

    /// Raw bits of the mask.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Mask with exactly the given word selected.
    ///
    /// # Panics
    ///
    /// Panics if `word >= 8`.
    pub fn single(word: u8) -> Self {
        assert!(
            (word as usize) < WORDS_PER_LINE,
            "word index {word} out of range"
        );
        WordMask(1 << word)
    }

    /// Mask selecting every word index in the iterator.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= 8`.
    pub fn from_words<I: IntoIterator<Item = u8>>(words: I) -> Self {
        words
            .into_iter()
            .fold(WordMask::EMPTY, |m, w| m | WordMask::single(w))
    }

    /// Mask selecting the first `n` words (`n == 8` gives [`WordMask::FULL`]).
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    pub fn first_n(n: usize) -> Self {
        assert!(
            n <= WORDS_PER_LINE,
            "cannot select {n} of {WORDS_PER_LINE} words"
        );
        if n == WORDS_PER_LINE {
            WordMask::FULL
        } else {
            WordMask(((1u16 << n) - 1) as u8)
        }
    }

    /// Number of selected words, 0..=8.
    pub const fn count_words(self) -> u32 {
        self.0.count_ones()
    }

    /// Activation granularity in eighths of a row: a mask selecting `k`
    /// words activates `k` of the 8 MAT groups, i.e. `k/8` of the row.
    ///
    /// Identical to [`WordMask::count_words`]; the alias exists because call
    /// sites read better in power-model code (`granularity_eighths` indexes
    /// the paper's Table 3 ACT power array).
    pub const fn granularity_eighths(self) -> u32 {
        self.count_words()
    }

    /// `true` if no word is selected.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// `true` if every word is selected (a full-row activation).
    pub const fn is_full(self) -> bool {
        self.0 == 0xFF
    }

    /// `true` if every word selected by `self` is also selected by `other`.
    ///
    /// This is the row-buffer coverage test of Section 5.2.1: a write with
    /// dirty mask `m` hits a partially opened row with mask `open` iff
    /// `m.is_subset_of(open)`.
    pub const fn is_subset_of(self, other: WordMask) -> bool {
        self.0 & !other.0 == 0
    }

    /// `true` if the given word is selected.
    ///
    /// # Panics
    ///
    /// Panics if `word >= 8`.
    pub fn contains(self, word: u8) -> bool {
        assert!(
            (word as usize) < WORDS_PER_LINE,
            "word index {word} out of range"
        );
        self.0 & (1 << word) != 0
    }

    /// Marks a word as selected, returning the new mask.
    ///
    /// # Panics
    ///
    /// Panics if `word >= 8`.
    #[must_use]
    pub fn with_word(self, word: u8) -> Self {
        self | WordMask::single(word)
    }

    /// Iterates over the selected word indices in ascending order.
    pub fn iter_words(self) -> impl Iterator<Item = u8> {
        (0..WORDS_PER_LINE as u8).filter(move |&w| self.0 & (1 << w) != 0)
    }

    /// Fraction (0.0..=1.0) of the line's data this mask covers; the write
    /// I/O energy of a PRA write scales by this factor.
    pub fn fraction(self) -> f64 {
        f64::from(self.count_words()) / WORDS_PER_LINE as f64
    }
}

impl BitOr for WordMask {
    type Output = WordMask;

    fn bitor(self, rhs: WordMask) -> WordMask {
        WordMask(self.0 | rhs.0)
    }
}

impl BitOrAssign for WordMask {
    fn bitor_assign(&mut self, rhs: WordMask) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for WordMask {
    /// Paper convention: word 0 leftmost, trailing `b` (e.g. `10000001b`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for w in 0..WORDS_PER_LINE as u8 {
            write!(f, "{}", if self.0 & (1 << w) != 0 { '1' } else { '0' })?;
        }
        write!(f, "b")
    }
}

impl fmt::Binary for WordMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for WordMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_counting() {
        assert_eq!(WordMask::EMPTY.count_words(), 0);
        assert_eq!(WordMask::FULL.count_words(), 8);
        assert_eq!(WordMask::single(3).count_words(), 1);
        assert_eq!(WordMask::from_words([0, 1, 7]).count_words(), 3);
        assert_eq!(WordMask::first_n(0), WordMask::EMPTY);
        assert_eq!(WordMask::first_n(8), WordMask::FULL);
        assert_eq!(WordMask::first_n(3), WordMask::from_words([0, 1, 2]));
    }

    #[test]
    fn paper_display_convention() {
        // Section 4.1.2: "if a PRA mask is 10000001b, the first and eighth
        // groups of two MATs are selected".
        assert_eq!(WordMask::from_words([0, 7]).to_string(), "10000001b");
        assert_eq!(WordMask::from_words([0, 1]).to_string(), "11000000b");
        assert_eq!(WordMask::FULL.to_string(), "11111111b");
        assert_eq!(WordMask::EMPTY.to_string(), "00000000b");
    }

    #[test]
    fn subset_semantics() {
        let open = WordMask::from_words([0, 1]);
        assert!(WordMask::single(0).is_subset_of(open));
        assert!(WordMask::from_words([0, 1]).is_subset_of(open));
        assert!(!WordMask::single(2).is_subset_of(open));
        assert!(!WordMask::FULL.is_subset_of(open));
        assert!(WordMask::EMPTY.is_subset_of(WordMask::EMPTY));
    }

    #[test]
    fn or_merges_masks() {
        // Section 5.2.1: queued requests to the same row OR their masks.
        let mut m = WordMask::single(0);
        m |= WordMask::single(7);
        assert_eq!(m, WordMask::from_words([0, 7]));
        assert_eq!(m | WordMask::FULL, WordMask::FULL);
    }

    #[test]
    fn iter_words_matches_contains() {
        let m = WordMask::from_words([1, 4, 6]);
        let words: Vec<u8> = m.iter_words().collect();
        assert_eq!(words, vec![1, 4, 6]);
        for w in 0..8 {
            assert_eq!(m.contains(w), words.contains(&w));
        }
    }

    #[test]
    fn fraction_and_granularity() {
        assert_eq!(WordMask::FULL.fraction(), 1.0);
        assert_eq!(WordMask::single(0).fraction(), 0.125);
        assert_eq!(WordMask::from_words([2, 5]).granularity_eighths(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_rejects_out_of_range() {
        let _ = WordMask::single(8);
    }
}
