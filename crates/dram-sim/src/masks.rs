//! Per-channel bank bitmasks: which banks hold an open row, which of those
//! have an armed auto-precharge, which have queued reads or writes, and
//! which have queued work on their open row.
//! Alongside them, each queue's `(bank, row)` targets packed into one word
//! per entry, so scans and row counts read 8 bytes per entry instead of a
//! whole queue entry.
//!
//! The masks are a cache of the channel's queues and banks, kept so the
//! scheduler can tell in a few word operations whether any bank could take
//! a command this cycle. They are updated only where that state changes
//! (enqueue, column dequeue, activate and every precharge site), rebuilt
//! from the queues and banks on snapshot restore, and never serialized.

use mem_model::Location;

use crate::bank::Bank;
use crate::channel::QueueEntry;

/// Most banks one channel's masks can hold: one bit per bank in a `u64`.
pub(crate) const MAX_CHANNEL_BANKS: usize = 64;

/// Bank bitmasks over one channel, bit `rank * banks_per_rank + bank`, so
/// ascending bit order is (rank, bank) order. Per-queue arrays are indexed
/// `[reads, writes]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BankMasks {
    /// `log2(banks_per_rank)`; the geometry validates a power of two.
    bank_shift: u32,
    /// Each queued entry's target as `bank index << 32 | row`, in queue
    /// order.
    keys: [Vec<u64>; 2],
    /// Queued entries per bank.
    queued: Vec<[u32; 2]>,
    /// Banks with at least one queued entry.
    has_queued: [u64; 2],
    /// Banks holding an open row (including one still activating).
    open: u64,
    /// Open banks with an armed auto-precharge.
    armed: u64,
    /// Each open bank's row; 0 for closed banks.
    open_row: Vec<u32>,
    /// Queued entries per open bank that target its open row.
    hits: Vec<[u32; 2]>,
    /// Open banks with at least one queued entry on their open row.
    has_hits: [u64; 2],
}

impl BankMasks {
    /// Empty masks: no queued work, every bank closed.
    pub fn new(ranks: usize, banks_per_rank: usize) -> Self {
        debug_assert!(banks_per_rank.is_power_of_two());
        debug_assert!(ranks * banks_per_rank <= MAX_CHANNEL_BANKS);
        let banks = ranks * banks_per_rank;
        BankMasks {
            bank_shift: banks_per_rank.trailing_zeros(),
            keys: [Vec::new(), Vec::new()],
            queued: vec![[0; 2]; banks],
            has_queued: [0; 2],
            open: 0,
            armed: 0,
            open_row: vec![0; banks],
            hits: vec![[0; 2]; banks],
            has_hits: [0; 2],
        }
    }

    /// Recomputes the masks from the queues and the channel's flat bank
    /// array (`ranks` ranks) they cache.
    pub fn rebuild(
        ranks: usize,
        banks: &[Bank],
        read_q: &[QueueEntry],
        write_q: &[QueueEntry],
    ) -> Self {
        let mut masks = BankMasks::new(ranks, banks.len() / ranks.max(1));
        for (i, bank) in banks.iter().enumerate() {
            if let Some(open) = bank.open {
                masks.open |= 1 << i;
                masks.open_row[i] = open.row;
            }
            if bank.auto_precharge_at.is_some() {
                masks.armed |= 1 << i;
            }
        }
        for (is_write, queue) in [(false, read_q), (true, write_q)] {
            for e in queue {
                masks.push(is_write, &e.loc);
            }
        }
        masks
    }

    /// The flat index of `bank` of `rank`: its bit in every mask and its
    /// position in the channel's bank array.
    pub fn flat(&self, rank: u32, bank: u32) -> usize {
        ((rank << self.bank_shift) | bank) as usize
    }

    /// Every bank of rank `r`.
    pub fn rank_bits(&self, r: usize) -> u64 {
        ((1u64 << (1u32 << self.bank_shift)) - 1) << (r << self.bank_shift)
    }

    /// `(rank, bank)` of a set bit's index.
    pub fn split(&self, flat: u32) -> (usize, usize) {
        let banks_mask = (1u32 << self.bank_shift) - 1;
        (
            (flat >> self.bank_shift) as usize,
            (flat & banks_mask) as usize,
        )
    }

    /// Rank `r`'s slice of `mask`, bit `b` = bank `b`. Validation caps
    /// banks per rank at 16, so the slice fits a `u16`.
    pub fn rank_field(&self, mask: u64, r: usize) -> u16 {
        ((mask & self.rank_bits(r)) >> (r << self.bank_shift)) as u16
    }

    fn key(i: usize, row: u32) -> u64 {
        (i as u64) << 32 | u64::from(row)
    }

    /// Whether bank `i` holds `row` open.
    fn on_open_row(&self, i: usize, row: u32) -> bool {
        self.open & (1 << i) != 0 && self.open_row[i] == row
    }

    /// Records an entry joining the back of the read or write queue.
    pub fn push(&mut self, is_write: bool, loc: &Location) {
        let (i, q) = (self.flat(loc.rank, loc.bank), usize::from(is_write));
        self.keys[q].push(Self::key(i, loc.row));
        self.queued[i][q] += 1;
        self.has_queued[q] |= 1 << i;
        if self.on_open_row(i, loc.row) {
            self.hits[i][q] += 1;
            self.has_hits[q] |= 1 << i;
        }
    }

    /// Records entry `index` leaving the read or write queue.
    pub fn remove(&mut self, is_write: bool, index: usize) {
        let q = usize::from(is_write);
        let key = self.keys[q].remove(index);
        let (i, row) = ((key >> 32) as usize, key as u32);
        debug_assert!(self.queued[i][q] > 0, "dequeue from an empty bank");
        self.queued[i][q] -= 1;
        if self.queued[i][q] == 0 {
            self.has_queued[q] &= !(1 << i);
        }
        if self.on_open_row(i, row) {
            self.hits[i][q] -= 1;
            if self.hits[i][q] == 0 {
                self.has_hits[q] &= !(1 << i);
            }
        }
    }

    /// Records an activate of `loc`'s row, on which `hits` (see
    /// [`Self::row_hits`]) queued reads and writes become row hits.
    pub fn set_open(&mut self, loc: &Location, hits: [u32; 2]) {
        let i = self.flat(loc.rank, loc.bank);
        self.open |= 1 << i;
        self.armed &= !(1 << i);
        self.open_row[i] = loc.row;
        self.hits[i] = hits;
        for (q, has_hits) in self.has_hits.iter_mut().enumerate() {
            if hits[q] > 0 {
                *has_hits |= 1 << i;
            }
        }
    }

    /// Queued reads and writes that target `loc`'s row.
    pub fn row_hits(&self, loc: &Location) -> [u32; 2] {
        [false, true].map(|is_write| self.entries_on_row(is_write, loc).count() as u32)
    }

    /// Queue positions of the read (`false`) or write (`true`) entries
    /// that target `loc`'s row, oldest first. A queue with nothing queued
    /// on the bank is not scanned.
    pub fn entries_on_row(
        &self,
        is_write: bool,
        loc: &Location,
    ) -> impl Iterator<Item = usize> + '_ {
        let (i, q) = (self.flat(loc.rank, loc.bank), usize::from(is_write));
        let key = Self::key(i, loc.row);
        let keys = if self.queued[i][q] == 0 {
            &[][..]
        } else {
            &self.keys[q][..]
        };
        keys.iter()
            .enumerate()
            .filter(move |&(_, &k)| k == key)
            .map(|(index, _)| index)
    }

    /// The `bank index << 32 | row` target of entry `index` of the read
    /// (`false`) or write (`true`) queue.
    pub fn key_at(&self, is_write: bool, index: usize) -> u64 {
        self.keys[usize::from(is_write)][index]
    }

    /// Queue positions of the read (`false`) or write (`true`) entries
    /// whose bank is in `banks`, oldest first.
    pub fn entries_in(&self, is_write: bool, banks: u64) -> impl Iterator<Item = usize> + '_ {
        self.keys[usize::from(is_write)]
            .iter()
            .enumerate()
            .filter(move |&(_, &k)| banks & (1 << (k >> 32)) != 0)
            .map(|(index, _)| index)
    }

    /// Records a column command arming an auto-precharge (activate and
    /// precharge disarm it).
    pub fn set_armed(&mut self, rank: u32, bank: u32) {
        self.armed |= 1 << self.flat(rank, bank);
    }

    /// Records a precharge.
    pub fn set_closed(&mut self, rank: u32, bank: u32) {
        let i = self.flat(rank, bank);
        self.open &= !(1 << i);
        self.armed &= !(1 << i);
        self.open_row[i] = 0;
        self.hits[i] = [0; 2];
        for has_hits in &mut self.has_hits {
            *has_hits &= !(1 << i);
        }
    }

    /// Banks with queued reads (`false`) or writes (`true`).
    pub fn queued(&self, is_write: bool) -> u64 {
        self.has_queued[usize::from(is_write)]
    }

    /// Banks with any queued entry.
    pub fn any_queued(&self) -> u64 {
        self.has_queued[0] | self.has_queued[1]
    }

    /// Banks holding an open row.
    pub fn open(&self) -> u64 {
        self.open
    }

    /// Open banks with an armed auto-precharge.
    pub fn armed(&self) -> u64 {
        self.armed
    }

    /// Open banks with queued reads (`false`) or writes (`true`) on their
    /// open row.
    pub fn hits(&self, is_write: bool) -> u64 {
        self.has_hits[usize::from(is_write)]
    }

    /// Open banks with any queued entry on their open row.
    pub fn any_hits(&self) -> u64 {
        self.has_hits[0] | self.has_hits[1]
    }
}

/// The indices of `mask`'s set bits, lowest first.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = u32> {
    core::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let i = mask.trailing_zeros();
        mask &= mask - 1;
        Some(i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(rank: u32, bank: u32, row: u32) -> Location {
        Location {
            channel: 0,
            rank,
            bank,
            row,
            column: 0,
        }
    }

    /// Opens `row` of `bank` of `rank` as an activate does.
    fn open(m: &mut BankMasks, rank: u32, bank: u32, row: u32) {
        let l = loc(rank, bank, row);
        m.set_open(&l, m.row_hits(&l));
    }

    #[test]
    fn counts_clear_the_bit_only_when_the_last_entry_leaves() {
        let mut m = BankMasks::new(2, 8);
        m.push(true, &loc(1, 3, 7));
        m.push(true, &loc(1, 3, 9));
        assert_eq!(m.queued(true), 1 << 11);
        assert_eq!(m.queued(false), 0);
        m.remove(true, 0);
        assert_eq!(m.queued(true), 1 << 11);
        m.remove(true, 0);
        assert_eq!(m.queued(true), 0);
    }

    #[test]
    fn row_hits_follow_the_open_row() {
        let mut m = BankMasks::new(2, 8);
        m.push(false, &loc(0, 2, 5));
        assert_eq!(m.hits(false), 0, "closed bank: no row hits");
        open(&mut m, 0, 2, 5);
        assert_eq!(m.hits(false), 1 << 2, "the queued entry becomes a hit");
        m.push(false, &loc(0, 2, 6));
        m.push(false, &loc(1, 0, 5));
        assert_eq!(m.entries_in(false, 1 << 2).collect::<Vec<_>>(), [0, 1]);
        m.remove(false, 0);
        assert_eq!(m.hits(false), 0);
        assert_eq!(m.queued(false), 1 << 2 | 1 << 8);
        m.set_closed(0, 2);
        assert_eq!(m.open(), 0);
    }

    #[test]
    fn rank_slices_and_bit_order() {
        let mut m = BankMasks::new(4, 16);
        open(&mut m, 0, 0, 1);
        open(&mut m, 3, 15, 1);
        open(&mut m, 2, 5, 1);
        assert_eq!(m.rank_field(m.open(), 3), 1 << 15);
        assert_eq!(m.rank_field(m.open(), 2), 1 << 5);
        assert_eq!(m.rank_field(m.open(), 1), 0);
        let order: Vec<_> = bits(m.open()).map(|i| m.split(i)).collect();
        assert_eq!(order, vec![(0, 0), (2, 5), (3, 15)]);
        m.set_closed(3, 15);
        assert_eq!(m.open() & m.rank_bits(3), 0);
    }
}
