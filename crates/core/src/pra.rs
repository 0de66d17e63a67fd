//! Chip-level model of the Partial Row Activation hardware (paper
//! Section 4.1): the PRA command pin, per-bank PRA latches, MAT-group
//! selection through wordline gates, and the ECC-chip mode.
//!
//! The cycle-level scheduler in `dram-sim` models PRA *behaviourally*; this
//! module models the *mechanism* — what the added hardware in each chip
//! does on each activation — and is used by tests, examples and
//! documentation to check that the behavioural model and the hardware
//! description agree.

use core::fmt;

use mem_model::{WordMask, WORDS_PER_LINE};
use sim_fault::even_parity;

/// A PRA mask on the address bus: the eight mask bits plus the even-parity
/// bit the controller drives alongside them, so the chip can detect a
/// single-bit upset during the transfer cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskTransfer {
    bits: u8,
    parity: bool,
}

impl MaskTransfer {
    /// Encodes a mask for transfer, computing its even parity.
    pub fn encode(mask: WordMask) -> Self {
        MaskTransfer {
            bits: mask.bits(),
            parity: even_parity(mask),
        }
    }

    /// The transfer after a single-event upset on mask bit `bit` (the
    /// parity bit still describes the original mask).
    ///
    /// # Panics
    ///
    /// Panics if `bit` is not a valid mask bit index.
    #[must_use]
    pub fn with_flipped_bit(self, bit: u8) -> Self {
        assert!((bit as usize) < WORDS_PER_LINE, "bit {bit} out of range");
        MaskTransfer {
            bits: self.bits ^ (1 << bit),
            parity: self.parity,
        }
    }

    /// Chip-side decode: checks parity and rejects the all-zero mask (the
    /// controller never requests an activation that drives no MATs).
    ///
    /// # Errors
    ///
    /// Returns the [`MaskFault`] the chip detected. Note an *even* number
    /// of flips preserves parity and escapes detection — the documented
    /// limit of single-parity protection (see `even_parity_misses_double_flips`).
    pub fn decode(self) -> Result<WordMask, MaskFault> {
        let mask = WordMask::from_bits(self.bits);
        if even_parity(mask) != self.parity {
            return Err(MaskFault::Parity);
        }
        if mask.is_empty() {
            return Err(MaskFault::Empty);
        }
        Ok(mask)
    }
}

/// A fault the chip detected while decoding a PRA mask transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskFault {
    /// The received bits disagree with the parity bit (odd number of
    /// upsets in transit).
    Parity,
    /// The received mask selects no MAT group.
    Empty,
}

impl fmt::Display for MaskFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaskFault::Parity => write!(f, "mask transfer parity mismatch"),
            MaskFault::Empty => write!(f, "mask transfer selected no MAT group"),
        }
    }
}

/// A row activation together with the fault, if any, the chip detected and
/// degraded around. Returned by [`PraChip::activate_checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardedActivation {
    /// The activation actually performed.
    pub activation: ChipActivation,
    /// The detected mask fault, when the activation is a full-row fallback.
    pub fault: Option<MaskFault>,
}

/// The PRA# command pin level accompanying a row-activation command
/// (active-low: pulled down selects partial activation, Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PraPin {
    /// PRA# pulled down: the chip defers activation one cycle and latches a
    /// PRA mask from the address bus.
    PartialActivation,
    /// PRA# pulled up: a conventional full-row activation.
    FullActivation,
}

/// One bank's PRA latch: holds the 8-bit mask delivered over the address
/// bus in the cycle after the ACT command (Section 4.1.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PraLatch {
    mask: Option<WordMask>,
}

impl PraLatch {
    /// An empty latch.
    pub const fn new() -> Self {
        PraLatch { mask: None }
    }

    /// Latches a mask delivered on the address bus.
    pub fn load(&mut self, mask: WordMask) {
        self.mask = Some(mask);
    }

    /// The held mask, if any.
    pub fn mask(&self) -> Option<WordMask> {
        self.mask
    }

    /// Clears the latch (bank precharge).
    pub fn clear(&mut self) {
        self.mask = None;
    }
}

/// Result of a row activation inside one chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipActivation {
    /// Which of the 8 MAT groups drive their local wordlines.
    pub selected_groups: WordMask,
    /// MATs activated in this chip's addressed sub-array (2 per group).
    pub mats: u32,
    /// Extra command cycles before the column command may issue (the mask
    /// transfer of Fig. 7a costs one cycle for partial activations).
    pub extra_cycles: u64,
}

/// The PRA-visible state of one DRAM chip: eight banks' PRA latches plus
/// the ECC-chip strapping option of Section 4.2 (a chip whose PRA# pin is
/// tied to VDD ignores masks and always activates full rows, so x72 ECC
/// DIMMs work unchanged).
#[derive(Debug, Clone)]
pub struct PraChip {
    latches: Vec<PraLatch>,
    ecc_strapped: bool,
}

impl PraChip {
    /// A chip with `banks` banks participating in PRA.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    pub fn new(banks: usize) -> Self {
        assert!(banks > 0, "a chip needs at least one bank");
        PraChip {
            latches: vec![PraLatch::new(); banks],
            ecc_strapped: false,
        }
    }

    /// A chip whose PRA# pin is strapped high (the ECC chip of an x72
    /// DIMM): every activation is a full-row activation and masks on the
    /// address bus are ignored.
    pub fn new_ecc_strapped(banks: usize) -> Self {
        PraChip {
            ecc_strapped: true,
            ..Self::new(banks)
        }
    }

    /// Whether this chip ignores PRA commands.
    pub fn is_ecc_strapped(&self) -> bool {
        self.ecc_strapped
    }

    /// Performs a row activation on `bank`.
    ///
    /// For [`PraPin::PartialActivation`] the mask (delivered over the
    /// address bus one cycle after ACT) selects MAT groups through the
    /// wordline gates; an ECC-strapped chip treats any activation as full.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range, or if a partial activation carries
    /// an empty mask (the memory controller never issues one).
    pub fn activate(&mut self, bank: usize, pin: PraPin, mask: WordMask) -> ChipActivation {
        assert!(bank < self.latches.len(), "bank {bank} out of range");
        let effective = if self.ecc_strapped || pin == PraPin::FullActivation {
            WordMask::FULL
        } else {
            assert!(
                !mask.is_empty(),
                "partial activation requires a non-empty mask"
            );
            mask
        };
        self.latches[bank].load(effective);
        ChipActivation {
            selected_groups: effective,
            mats: effective.granularity_eighths() * 2,
            extra_cycles: if effective.is_full() { 0 } else { 1 },
        }
    }

    /// Performs a row activation on `bank` from a raw mask *transfer*,
    /// decoding it as the chip would: on a detected fault (parity mismatch
    /// or empty mask) the chip degrades to a fail-safe full-row activation
    /// — never a narrower one, which could silently drop write data. The
    /// failed transfer still cost its address-bus cycle, so the fallback
    /// keeps `extra_cycles == 1`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn activate_checked(
        &mut self,
        bank: usize,
        pin: PraPin,
        transfer: MaskTransfer,
    ) -> GuardedActivation {
        if self.ecc_strapped || pin == PraPin::FullActivation {
            return GuardedActivation {
                activation: self.activate(bank, pin, WordMask::FULL),
                fault: None,
            };
        }
        match transfer.decode() {
            Ok(mask) => GuardedActivation {
                activation: self.activate(bank, pin, mask),
                fault: None,
            },
            Err(fault) => {
                let mut activation = self.activate(bank, PraPin::FullActivation, WordMask::FULL);
                activation.extra_cycles = 1;
                GuardedActivation {
                    activation,
                    fault: Some(fault),
                }
            }
        }
    }

    /// Bank precharge: clears the PRA latch.
    pub fn precharge(&mut self, bank: usize) {
        self.latches[bank].clear();
    }

    /// The mask currently held by a bank's latch.
    pub fn latched_mask(&self, bank: usize) -> Option<WordMask> {
        self.latches[bank].mask()
    }

    /// Whether a write burst's word `word` would reach sense amplifiers
    /// (data heading to unselected MATs is "don't care", Section 4.1.3).
    pub fn word_lands(&self, bank: usize, word: u8) -> bool {
        assert!((word as usize) < WORDS_PER_LINE);
        self.latches[bank].mask().is_some_and(|m| m.contains(word))
    }
}

/// The memory-controller side of Section 4.2's partial-row bookkeeping: an
/// 8-bit PRA mask per bank per rank (64 bits per rank in the baseline),
/// tracking which part of each opened row is activated.
#[derive(Debug, Clone)]
pub struct ControllerPraState {
    masks: Vec<Vec<Option<WordMask>>>,
}

impl ControllerPraState {
    /// State for `ranks` ranks of `banks` banks.
    pub fn new(ranks: usize, banks: usize) -> Self {
        ControllerPraState {
            masks: vec![vec![None; banks]; ranks],
        }
    }

    /// Records an activation's mask.
    pub fn on_activate(&mut self, rank: usize, bank: usize, mask: WordMask) {
        self.masks[rank][bank] = Some(mask);
    }

    /// Clears on precharge.
    pub fn on_precharge(&mut self, rank: usize, bank: usize) {
        self.masks[rank][bank] = None;
    }

    /// Whether a request needing `needed` words would be a *false row
    /// buffer hit* (row open, coverage insufficient — Section 5.2.1).
    pub fn is_false_hit(&self, rank: usize, bank: usize, needed: WordMask) -> bool {
        match self.masks[rank][bank] {
            Some(open) => !needed.is_subset_of(open),
            None => false,
        }
    }

    /// Storage cost in bits per rank: 8 bits per bank (the paper's "only 64
    /// bits per rank").
    pub fn bits_per_rank(&self) -> usize {
        self.masks.first().map_or(0, |banks| banks.len() * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_activation_selects_groups() {
        let mut chip = PraChip::new(8);
        let mask = WordMask::from_words([0, 7]); // the paper's 10000001b
        let act = chip.activate(3, PraPin::PartialActivation, mask);
        assert_eq!(act.selected_groups, mask);
        assert_eq!(act.mats, 4, "two groups of two MATs");
        assert_eq!(act.extra_cycles, 1, "mask transfer costs a cycle");
        assert_eq!(chip.latched_mask(3), Some(mask));
        assert!(chip.word_lands(3, 0) && chip.word_lands(3, 7));
        assert!(
            !chip.word_lands(3, 1),
            "unselected MATs treat data as don't-care"
        );
    }

    #[test]
    fn full_pin_activates_everything() {
        let mut chip = PraChip::new(8);
        let act = chip.activate(0, PraPin::FullActivation, WordMask::single(0));
        assert_eq!(act.selected_groups, WordMask::FULL);
        assert_eq!(act.mats, 16);
        assert_eq!(act.extra_cycles, 0);
    }

    #[test]
    fn full_mask_partial_behaves_like_conventional() {
        // Fig. 7b: a full-mask PRA activation has conventional timing.
        let mut chip = PraChip::new(8);
        let act = chip.activate(0, PraPin::PartialActivation, WordMask::FULL);
        assert_eq!(act.extra_cycles, 0);
        assert_eq!(act.mats, 16);
    }

    #[test]
    fn ecc_strapped_chip_ignores_masks() {
        let mut chip = PraChip::new_ecc_strapped(8);
        assert!(chip.is_ecc_strapped());
        let act = chip.activate(1, PraPin::PartialActivation, WordMask::single(2));
        assert_eq!(act.selected_groups, WordMask::FULL, "ECC chip always full");
        assert_eq!(act.extra_cycles, 0);
        assert!(chip.word_lands(1, 5), "every word reaches the ECC chip");
    }

    #[test]
    fn precharge_clears_latch() {
        let mut chip = PraChip::new(8);
        chip.activate(2, PraPin::PartialActivation, WordMask::single(4));
        chip.precharge(2);
        assert_eq!(chip.latched_mask(2), None);
        assert!(!chip.word_lands(2, 4));
    }

    #[test]
    #[should_panic(expected = "non-empty mask")]
    fn empty_partial_mask_rejected() {
        PraChip::new(8).activate(0, PraPin::PartialActivation, WordMask::EMPTY);
    }

    #[test]
    fn mask_transfer_roundtrips() {
        for bits in 0..=u8::MAX {
            let mask = WordMask::from_bits(bits);
            let decoded = MaskTransfer::encode(mask).decode();
            if mask.is_empty() {
                assert_eq!(decoded, Err(MaskFault::Empty));
            } else {
                assert_eq!(decoded, Ok(mask));
            }
        }
    }

    #[test]
    fn single_flip_is_always_detected_and_degrades_to_full_row() {
        let mut chip = PraChip::new(8);
        let mask = WordMask::from_words([0, 7]);
        for bit in 0..WORDS_PER_LINE as u8 {
            let transfer = MaskTransfer::encode(mask).with_flipped_bit(bit);
            assert_eq!(transfer.decode(), Err(MaskFault::Parity));
            let guarded = chip.activate_checked(3, PraPin::PartialActivation, transfer);
            assert_eq!(guarded.fault, Some(MaskFault::Parity));
            assert_eq!(
                guarded.activation.selected_groups,
                WordMask::FULL,
                "degradation is fail-safe: full row, never narrower"
            );
            assert_eq!(guarded.activation.mats, 16);
            assert_eq!(
                guarded.activation.extra_cycles, 1,
                "the failed transfer still cost its cycle"
            );
        }
    }

    #[test]
    fn clean_transfer_activates_partially() {
        let mut chip = PraChip::new(8);
        let mask = WordMask::from_words([2, 5]);
        let guarded =
            chip.activate_checked(0, PraPin::PartialActivation, MaskTransfer::encode(mask));
        assert_eq!(guarded.fault, None);
        assert_eq!(guarded.activation.selected_groups, mask);
        assert_eq!(guarded.activation.mats, 4);
        // Full-pin path never consults the transfer.
        let full = chip.activate_checked(
            1,
            PraPin::FullActivation,
            MaskTransfer::encode(mask).with_flipped_bit(0),
        );
        assert_eq!(full.fault, None);
        assert_eq!(full.activation.selected_groups, WordMask::FULL);
    }

    #[test]
    fn even_parity_misses_double_flips() {
        // The documented limitation: two upsets cancel in the parity sum,
        // so the corrupted mask decodes cleanly. Pinned here so a future
        // stronger code (e.g. two parity bits) shows up as a test change.
        let mask = WordMask::from_words([0, 3]);
        let transfer = MaskTransfer::encode(mask)
            .with_flipped_bit(1)
            .with_flipped_bit(6);
        let decoded = transfer.decode().expect("double flip escapes parity");
        assert_ne!(decoded, mask, "...and yields a wrong mask undetected");
    }

    #[test]
    fn empty_transfer_is_rejected_not_panicking() {
        let mut chip = PraChip::new(8);
        // An upset that zeroes a single-bit mask: decode reports Parity
        // (the parity bit no longer matches), still degrading safely.
        let transfer = MaskTransfer::encode(WordMask::single(4)).with_flipped_bit(4);
        let guarded = chip.activate_checked(0, PraPin::PartialActivation, transfer);
        assert!(guarded.fault.is_some());
        assert_eq!(guarded.activation.selected_groups, WordMask::FULL);
    }

    #[test]
    fn controller_state_tracks_false_hits() {
        let mut st = ControllerPraState::new(2, 8);
        assert_eq!(st.bits_per_rank(), 64, "the paper's 64 bits per rank");
        st.on_activate(0, 3, WordMask::from_words([0, 1]));
        assert!(
            !st.is_false_hit(0, 3, WordMask::single(0)),
            "covered write hits"
        );
        assert!(
            st.is_false_hit(0, 3, WordMask::single(5)),
            "uncovered word is a false hit"
        );
        assert!(
            st.is_false_hit(0, 3, WordMask::FULL),
            "reads need full coverage"
        );
        st.on_precharge(0, 3);
        assert!(
            !st.is_false_hit(0, 3, WordMask::FULL),
            "closed bank cannot false-hit"
        );
    }
}
