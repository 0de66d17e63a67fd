//! Physical byte addresses.

use core::fmt;

use crate::{LINE_BYTES, WORD_BYTES};

/// A physical byte address in the simulated machine.
///
/// The newtype keeps byte addresses, line numbers and DRAM coordinates from
/// being mixed up. Arithmetic helpers are provided for the line/word
/// granularities the rest of the workspace cares about.
///
/// # Example
///
/// ```
/// use mem_model::PhysAddr;
///
/// let addr = PhysAddr::new(0x1047);
/// assert_eq!(addr.line_aligned(), PhysAddr::new(0x1040));
/// assert_eq!(addr.word_in_line(), 0); // 0x1047 is inside word 0 of its line
/// assert_eq!(PhysAddr::new(0x1078).word_in_line(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address rounded down to its cache-line boundary.
    pub const fn line_aligned(self) -> Self {
        PhysAddr(self.0 & !(LINE_BYTES - 1))
    }

    /// Returns the cache-line number (byte address divided by the line size).
    pub const fn line_number(self) -> u64 {
        self.0 / LINE_BYTES
    }

    /// Creates an address from a cache-line number.
    pub const fn from_line_number(line: u64) -> Self {
        PhysAddr(line * LINE_BYTES)
    }

    /// Index (0..8) of the 8-byte word this address falls into within its
    /// cache line.
    pub const fn word_in_line(self) -> u8 {
        ((self.0 % LINE_BYTES) / WORD_BYTES) as u8
    }

    /// Returns `true` if the address is aligned to a cache-line boundary.
    pub const fn is_line_aligned(self) -> bool {
        self.0.is_multiple_of(LINE_BYTES)
    }

    /// Returns the address advanced by `bytes`.
    ///
    /// # Panics
    ///
    /// Panics on overflow of the underlying 64-bit address space, which would
    /// indicate a bug in a workload generator.
    #[expect(
        clippy::expect_used,
        reason = "documented contract — u64 address overflow means a broken workload generator, not a recoverable state"
    )]
    pub fn offset(self, bytes: u64) -> Self {
        PhysAddr(
            self.0
                .checked_add(bytes)
                .expect("physical address overflow"),
        )
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        PhysAddr(raw)
    }
}

impl From<PhysAddr> for u64 {
    fn from(addr: PhysAddr) -> Self {
        addr.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_alignment() {
        let a = PhysAddr::new(0x1234_5678);
        assert_eq!(a.line_aligned().raw(), 0x1234_5640);
        assert!(a.line_aligned().is_line_aligned());
        assert!(!a.is_line_aligned());
    }

    #[test]
    fn line_number_roundtrip() {
        for line in [0u64, 1, 17, 1 << 20, (1 << 33) / 64 - 1] {
            let a = PhysAddr::from_line_number(line);
            assert_eq!(a.line_number(), line);
            assert!(a.is_line_aligned());
        }
    }

    #[test]
    fn word_in_line_covers_all_words() {
        let base = PhysAddr::new(0x40);
        for w in 0..8u8 {
            let a = base.offset(u64::from(w) * 8);
            assert_eq!(a.word_in_line(), w);
            // Every byte within the word reports the same word index.
            assert_eq!(a.offset(7).word_in_line(), w);
        }
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(PhysAddr::new(0x40).to_string(), "0x0000000040");
    }

    #[test]
    fn conversions() {
        let a: PhysAddr = 0x80u64.into();
        let r: u64 = a.into();
        assert_eq!(r, 0x80);
    }
}
