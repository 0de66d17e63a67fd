//! Memory requests as seen by the DRAM controller.

use core::fmt;

use crate::{PhysAddr, WordMask};

/// Monotonic identifier assigned to each request, used to correlate
/// completions with the issuing core.
pub type RequestId = u64;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// A demand fill (LLC read miss). Always transfers a full line.
    Read,
    /// A writeback of an evicted dirty LLC line. Carries the FGD mask of the
    /// words that are actually dirty.
    Write,
}

impl ReqKind {
    /// `true` for [`ReqKind::Read`].
    pub const fn is_read(self) -> bool {
        matches!(self, ReqKind::Read)
    }

    /// `true` for [`ReqKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, ReqKind::Write)
    }
}

impl fmt::Display for ReqKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReqKind::Read => "RD",
            ReqKind::Write => "WR",
        })
    }
}

/// A line-granularity memory request.
///
/// Reads always carry [`WordMask::FULL`] (the full line is fetched; PRA keeps
/// full bandwidth for reads). Writes carry the fine-grained dirty mask the
/// cache hierarchy collected, which the controller may use as a PRA mask.
///
/// # Example
///
/// ```
/// use mem_model::{MemRequest, PhysAddr, ReqKind, WordMask};
///
/// let rd = MemRequest::read(1, PhysAddr::new(0x40));
/// assert!(rd.mask.is_full());
/// let wr = MemRequest::write(2, PhysAddr::new(0x80), WordMask::single(3));
/// assert_eq!(wr.mask.count_words(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRequest {
    /// Unique request identifier.
    pub id: RequestId,
    /// Read or write.
    pub kind: ReqKind,
    /// Line-aligned physical address.
    pub addr: PhysAddr,
    /// Word mask: full for reads, the FGD dirty mask for writes.
    pub mask: WordMask,
    /// Core that generated the request (for per-core accounting); writebacks
    /// inherit the evicting core.
    pub core: usize,
}

impl MemRequest {
    /// Creates a read request for the line containing `addr`.
    pub fn read(id: RequestId, addr: PhysAddr) -> Self {
        MemRequest {
            id,
            kind: ReqKind::Read,
            addr: addr.line_aligned(),
            mask: WordMask::FULL,
            core: 0,
        }
    }

    /// Creates a write(back) request for the line containing `addr` with the
    /// given dirty mask.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is empty: a writeback with no dirty words is a cache
    /// bookkeeping bug, not a valid request.
    pub fn write(id: RequestId, addr: PhysAddr, mask: WordMask) -> Self {
        assert!(
            !mask.is_empty(),
            "write request must carry at least one dirty word"
        );
        MemRequest {
            id,
            kind: ReqKind::Write,
            addr: addr.line_aligned(),
            mask,
            core: 0,
        }
    }

    /// Tags the request with the generating core.
    #[must_use]
    pub fn with_core(mut self, core: usize) -> Self {
        self.core = core;
        self
    }
}

impl fmt::Display for MemRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {} {} mask {}",
            self.id, self.kind, self.addr, self.mask
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_is_full_mask_and_aligned() {
        let r = MemRequest::read(7, PhysAddr::new(0x47));
        assert_eq!(r.addr, PhysAddr::new(0x40));
        assert!(r.mask.is_full());
        assert!(r.kind.is_read());
    }

    #[test]
    fn write_keeps_mask() {
        let m = WordMask::from_words([2, 3]);
        let w = MemRequest::write(8, PhysAddr::new(0x80), m);
        assert_eq!(w.mask, m);
        assert!(w.kind.is_write());
    }

    #[test]
    #[should_panic(expected = "at least one dirty word")]
    fn write_rejects_empty_mask() {
        let _ = MemRequest::write(9, PhysAddr::new(0x0), WordMask::EMPTY);
    }

    #[test]
    fn with_core_tags() {
        let r = MemRequest::read(1, PhysAddr::new(0)).with_core(3);
        assert_eq!(r.core, 3);
    }
}
