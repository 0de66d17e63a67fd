//! A set-associative writeback cache tracking fine-grained dirty bits.

use mem_model::{PhysAddr, WordMask, LINE_BYTES};

/// Static shape of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Access latency in CPU cycles (used by the core model, carried here
    /// for convenience).
    pub latency_cycles: u64,
}

impl CacheConfig {
    /// The paper's 32 KB, 4-way, 2-cycle L1 data cache.
    pub const fn paper_l1() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 4,
            latency_cycles: 2,
        }
    }

    /// The paper's 4 MB, 8-way, 20-cycle shared L2.
    pub const fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 4 * 1024 * 1024,
            ways: 8,
            latency_cycles: 20,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (LINE_BYTES as usize) / self.ways
    }

    /// Checks the shape is usable.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a whole power-of-two number of sets of
    /// whole lines.
    pub fn assert_valid(&self) {
        assert!(self.ways > 0, "cache needs at least one way");
        let lines = self.size_bytes / LINE_BYTES as usize;
        assert!(
            lines * LINE_BYTES as usize == self.size_bytes,
            "capacity must be a whole number of lines"
        );
        let sets = self.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
    }
}

/// One resident line's metadata (the simulator tracks no data payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMeta {
    /// Full line number (tag and index combined; sets re-derive the index).
    pub line: u64,
    /// Fine-grained dirty bits: one per 8 B word, [`WordMask::EMPTY`] when
    /// clean.
    pub dirty: WordMask,
    lru_stamp: u64,
}

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line-aligned address of the victim.
    pub addr: PhysAddr,
    /// Its dirty mask; [`WordMask::EMPTY`] means no writeback needed.
    pub dirty: WordMask,
}

/// A set-associative, true-LRU, writeback cache with FGD dirty bits.
///
/// The cache stores only metadata — tags, valid bits and the 8 fine-grained
/// dirty bits per line that PRA's cache support adds (Section 4.1.4).
///
/// # Example
///
/// ```
/// use cache_sim::{Cache, CacheConfig};
/// use mem_model::{PhysAddr, WordMask};
///
/// let mut c = Cache::new(CacheConfig::paper_l1());
/// let a = PhysAddr::new(0x1000);
/// assert!(!c.contains(a));
/// assert_eq!(c.fill(a), None);
/// c.mark_dirty(a, WordMask::single(2));
/// assert_eq!(c.dirty_mask(a), Some(WordMask::single(2)));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<LineMeta>>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CacheConfig::assert_valid`]).
    pub fn new(config: CacheConfig) -> Self {
        config.assert_valid();
        Cache {
            sets: vec![Vec::with_capacity(config.ways); config.sets()],
            config,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn set_index(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    /// `true` if the line containing `addr` is resident. Does not touch LRU
    /// state or hit/miss counters.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let line = addr.line_number();
        self.sets[self.set_index(line)]
            .iter()
            .any(|l| l.line == line)
    }

    /// Looks the line up as a demand access: updates LRU and hit/miss
    /// counters, returns `true` on hit.
    pub fn access(&mut self, addr: PhysAddr) -> bool {
        let line = addr.line_number();
        self.clock += 1;
        let set = self.set_index(line);
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.line == line) {
            l.lru_stamp = self.clock;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Inserts the line (clean), evicting the LRU line of its set if full.
    /// Returns the victim, if any. No-op returning `None` if already
    /// resident.
    pub fn fill(&mut self, addr: PhysAddr) -> Option<Evicted> {
        let line = addr.line_number();
        self.clock += 1;
        let set_idx = self.set_index(line);
        let ways = self.config.ways;
        let set = &mut self.sets[set_idx];
        if let Some(l) = set.iter_mut().find(|l| l.line == line) {
            l.lru_stamp = self.clock;
            return None;
        }
        let victim = if set.len() == ways {
            // A full set is non-empty (ways >= 1 is config-validated), so the
            // LRU scan always finds a victim; fall back to way 0 regardless.
            let pos = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru_stamp)
                .map_or(0, |(pos, _)| pos);
            let v = set.swap_remove(pos);
            Some(Evicted {
                addr: PhysAddr::from_line_number(v.line),
                dirty: v.dirty,
            })
        } else {
            None
        };
        set.push(LineMeta {
            line,
            dirty: WordMask::EMPTY,
            lru_stamp: self.clock,
        });
        victim
    }

    /// ORs `mask` into the line's dirty bits. Returns `true` if the line was
    /// resident. (L1 stores dirty a single word; L1-to-L2 writebacks OR the
    /// whole evicted mask, per Section 4.1.4.)
    pub fn mark_dirty(&mut self, addr: PhysAddr, mask: WordMask) -> bool {
        let line = addr.line_number();
        let set = self.set_index(line);
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.line == line) {
            l.dirty |= mask;
            true
        } else {
            false
        }
    }

    /// The line's dirty mask, if resident.
    pub fn dirty_mask(&self, addr: PhysAddr) -> Option<WordMask> {
        let line = addr.line_number();
        self.sets[self.set_index(line)]
            .iter()
            .find(|l| l.line == line)
            .map(|l| l.dirty)
    }

    /// Clears the line's dirty bits without evicting it (DBI's proactive
    /// writeback leaves lines valid but clean). Returns the previous mask.
    pub fn clean(&mut self, addr: PhysAddr) -> Option<WordMask> {
        let line = addr.line_number();
        let set = self.set_index(line);
        self.sets[set].iter_mut().find(|l| l.line == line).map(|l| {
            let prev = l.dirty;
            l.dirty = WordMask::EMPTY;
            prev
        })
    }

    /// Removes the line, returning its eviction record if it was resident.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<Evicted> {
        let line = addr.line_number();
        let set = self.set_index(line);
        let pos = self.sets[set].iter().position(|l| l.line == line)?;
        let v = self.sets[set].swap_remove(pos);
        Some(Evicted {
            addr: PhysAddr::from_line_number(v.line),
            dirty: v.dirty,
        })
    }

    /// (hits, misses) counted by [`Cache::access`].
    pub fn hit_miss_counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Resident lines, in no particular order.
    pub fn iter_lines(&self) -> impl Iterator<Item = &LineMeta> {
        self.sets.iter().flatten()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// `true` if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl sim_snap::SnapState for Cache {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.section("cache");
        // Per-set Vec order is load-bearing: `fill`/`invalidate` use
        // `swap_remove`, so a restored cache must replay the exact layout,
        // not just the resident-line set.
        w.seq(self.sets.len());
        for set in &self.sets {
            w.seq(set.len());
            for l in set {
                w.u64(l.line);
                w.u8(l.dirty.bits());
                w.u64(l.lru_stamp);
            }
        }
        w.u64(self.clock);
        w.u64(self.hits);
        w.u64(self.misses);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader<'_>) -> Result<(), sim_snap::SnapError> {
        r.section("cache")?;
        let sets = r.seq()?;
        if sets != self.sets.len() {
            return Err(sim_snap::SnapError::Decode(format!(
                "cache set count mismatch: snapshot has {sets}, config has {}",
                self.sets.len()
            )));
        }
        for set in &mut self.sets {
            set.clear();
            let ways = r.seq()?;
            for _ in 0..ways {
                let line = r.u64()?;
                let dirty = WordMask::from_bits(r.u8()?);
                let lru_stamp = r.u64()?;
                set.push(LineMeta {
                    line,
                    dirty,
                    lru_stamp,
                });
            }
        }
        self.clock = r.u64()?;
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            latency_cycles: 1,
        })
    }

    fn line(set: u64, n: u64) -> PhysAddr {
        PhysAddr::from_line_number(set + n * 4)
    }

    #[test]
    fn fill_then_hit() {
        let mut c = tiny();
        let a = line(0, 0);
        assert!(!c.access(a));
        c.fill(a);
        assert!(c.access(a));
        assert_eq!(c.hit_miss_counts(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        let (a, b, d) = (line(1, 0), line(1, 1), line(1, 2));
        c.fill(a);
        c.fill(b);
        c.access(a); // a most recent
        let victim = c.fill(d).expect("set full");
        assert_eq!(victim.addr, b, "b was least recently used");
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
    }

    #[test]
    fn eviction_carries_dirty_mask() {
        let mut c = tiny();
        let (a, b, d) = (line(2, 0), line(2, 1), line(2, 2));
        c.fill(a);
        c.mark_dirty(a, WordMask::from_words([0, 3]));
        c.fill(b);
        c.access(b);
        let victim = c.fill(d).expect("evicts a");
        assert_eq!(victim.addr, a);
        assert_eq!(victim.dirty, WordMask::from_words([0, 3]));
    }

    #[test]
    fn dirty_bits_accumulate() {
        let mut c = tiny();
        let a = line(0, 1);
        c.fill(a);
        c.mark_dirty(a, WordMask::single(1));
        c.mark_dirty(a, WordMask::single(6));
        assert_eq!(c.dirty_mask(a), Some(WordMask::from_words([1, 6])));
    }

    #[test]
    fn clean_keeps_line_resident() {
        let mut c = tiny();
        let a = line(3, 0);
        c.fill(a);
        c.mark_dirty(a, WordMask::FULL);
        assert_eq!(c.clean(a), Some(WordMask::FULL));
        assert!(c.contains(a));
        assert_eq!(c.dirty_mask(a), Some(WordMask::EMPTY));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        let a = line(0, 2);
        c.fill(a);
        c.mark_dirty(a, WordMask::single(0));
        let v = c.invalidate(a).unwrap();
        assert_eq!(v.dirty, WordMask::single(0));
        assert!(!c.contains(a));
        assert_eq!(c.invalidate(a), None);
    }

    #[test]
    fn refill_of_resident_line_is_noop() {
        let mut c = tiny();
        let a = line(1, 0);
        c.fill(a);
        c.mark_dirty(a, WordMask::single(4));
        assert_eq!(c.fill(a), None);
        assert_eq!(
            c.dirty_mask(a),
            Some(WordMask::single(4)),
            "dirty bits survive"
        );
    }

    #[test]
    fn paper_configs_validate() {
        Cache::new(CacheConfig::paper_l1());
        Cache::new(CacheConfig::paper_l2());
        assert_eq!(CacheConfig::paper_l1().sets(), 128);
        assert_eq!(CacheConfig::paper_l2().sets(), 8192);
    }

    #[test]
    fn snapshot_roundtrip_preserves_layout_and_lru() {
        use sim_snap::SnapState;
        let mut c = tiny();
        // Build non-trivial state: evictions exercise swap_remove, so the
        // per-set order differs from insertion order.
        for n in 0..12u64 {
            c.fill(line(n % 4, n));
            if n % 3 == 0 {
                c.mark_dirty(line(n % 4, n), WordMask::single((n % 8) as u8));
            }
            c.access(line(n % 4, n / 2));
        }
        let mut w = sim_snap::SnapWriter::new();
        c.snap_save(&mut w);
        let bytes = w.into_bytes();

        let mut restored = tiny();
        let mut r = sim_snap::SnapReader::new(&bytes);
        restored.snap_load(&mut r).unwrap();
        r.finish().unwrap();

        // Continue both identically: LRU decisions and counters must match.
        for n in 12..24u64 {
            assert_eq!(c.fill(line(n % 4, n)), restored.fill(line(n % 4, n)));
            assert_eq!(
                c.access(line(n % 4, n / 2)),
                restored.access(line(n % 4, n / 2))
            );
        }
        assert_eq!(c.hit_miss_counts(), restored.hit_miss_counts());
    }

    #[test]
    fn snapshot_geometry_mismatch_is_an_error() {
        use sim_snap::SnapState;
        let c = tiny();
        let mut w = sim_snap::SnapWriter::new();
        c.snap_save(&mut w);
        let bytes = w.into_bytes();
        // An 8-set cache cannot absorb a 4-set snapshot.
        let mut other = Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 2,
            latency_cycles: 1,
        });
        let mut r = sim_snap::SnapReader::new(&bytes);
        assert!(other.snap_load(&mut r).is_err());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_set_count_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 3 * 64,
            ways: 1,
            latency_cycles: 1,
        });
    }
}
