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
    /// whole lines, or the associativity is outside `1..=255` (a set's fill
    /// count is a `u8`).
    pub fn assert_valid(&self) {
        assert!(self.ways > 0, "cache needs at least one way");
        assert!(
            self.ways <= usize::from(u8::MAX),
            "associativity {} exceeds the 255-way limit",
            self.ways
        );
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
/// Storage is flat: way `w` of set `s` lives at slot `s * ways + w` of the
/// line, LRU-stamp and dirty arrays, and a set's resident lines occupy its
/// first `filled[s]` slots. Removing a line moves the set's last line into
/// the hole, so the per-set order — and with it victims, iteration order
/// and snapshot bytes — follows the access stream exactly.
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
    /// `sets - 1`: the set index is the line number's low bits.
    set_mask: u64,
    lines: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<WordMask>,
    /// Resident lines per set.
    filled: Vec<u8>,
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
        let (sets, slots) = (config.sets(), config.sets() * config.ways);
        Cache {
            set_mask: sets as u64 - 1,
            lines: vec![0; slots],
            stamps: vec![0; slots],
            dirty: vec![WordMask::EMPTY; slots],
            filled: vec![0; sets],
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
        (line & self.set_mask) as usize
    }

    /// The slots of `set`'s resident lines.
    fn slots(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.config.ways;
        base..base + usize::from(self.filled[set])
    }

    /// The slot holding `line`, if resident.
    fn find(&self, line: u64) -> Option<usize> {
        let slots = self.slots(self.set_index(line));
        let base = slots.start;
        self.lines[slots]
            .iter()
            .position(|&l| l == line)
            .map(|w| base + w)
    }

    /// Removes the line in `slot` of `set`, moving the set's last line into
    /// the hole.
    fn remove(&mut self, set: usize, slot: usize) -> Evicted {
        let evicted = Evicted {
            addr: PhysAddr::from_line_number(self.lines[slot]),
            dirty: self.dirty[slot],
        };
        self.filled[set] -= 1;
        let last = self.slots(set).end;
        self.lines[slot] = self.lines[last];
        self.stamps[slot] = self.stamps[last];
        self.dirty[slot] = self.dirty[last];
        evicted
    }

    /// `true` if the line containing `addr` is resident. Does not touch LRU
    /// state or hit/miss counters.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        self.find(addr.line_number()).is_some()
    }

    /// Looks the line up as a demand access: updates LRU and hit/miss
    /// counters, returns `true` on hit.
    pub fn access(&mut self, addr: PhysAddr) -> bool {
        self.clock += 1;
        if let Some(slot) = self.find(addr.line_number()) {
            self.stamps[slot] = self.clock;
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
        match self.find(addr.line_number()) {
            Some(slot) => {
                self.clock += 1;
                self.stamps[slot] = self.clock;
                None
            }
            None => self.fill_absent(addr),
        }
    }

    /// [`fill`](Self::fill) of a line the caller knows is not resident
    /// (its lookup just missed), without looking it up again.
    pub fn fill_absent(&mut self, addr: PhysAddr) -> Option<Evicted> {
        let line = addr.line_number();
        debug_assert!(self.find(line).is_none(), "fill_absent of a resident line");
        self.clock += 1;
        let set = self.set_index(line);
        let slots = self.slots(set);
        let victim = if slots.len() == self.config.ways {
            // A full set is non-empty (ways >= 1 is config-validated), so the
            // LRU scan always finds a victim; fall back to way 0 regardless.
            let base = slots.start;
            let w = self.stamps[slots]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .map_or(0, |(w, _)| w);
            Some(self.remove(set, base + w))
        } else {
            None
        };
        let slot = self.slots(set).end;
        self.lines[slot] = line;
        self.stamps[slot] = self.clock;
        self.dirty[slot] = WordMask::EMPTY;
        self.filled[set] += 1;
        victim
    }

    /// ORs `mask` into the line's dirty bits. Returns `true` if the line was
    /// resident. (L1 stores dirty a single word; L1-to-L2 writebacks OR the
    /// whole evicted mask, per Section 4.1.4.)
    pub fn mark_dirty(&mut self, addr: PhysAddr, mask: WordMask) -> bool {
        match self.find(addr.line_number()) {
            Some(slot) => {
                self.dirty[slot] |= mask;
                true
            }
            None => false,
        }
    }

    /// The line's dirty mask, if resident.
    pub fn dirty_mask(&self, addr: PhysAddr) -> Option<WordMask> {
        self.find(addr.line_number()).map(|slot| self.dirty[slot])
    }

    /// Clears the line's dirty bits without evicting it (DBI's proactive
    /// writeback leaves lines valid but clean). Returns the previous mask.
    pub fn clean(&mut self, addr: PhysAddr) -> Option<WordMask> {
        let slot = self.find(addr.line_number())?;
        Some(std::mem::replace(&mut self.dirty[slot], WordMask::EMPTY))
    }

    /// Removes the line, returning its eviction record if it was resident.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<Evicted> {
        let line = addr.line_number();
        let slot = self.find(line)?;
        Some(self.remove(self.set_index(line), slot))
    }

    /// (hits, misses) counted by [`Cache::access`].
    pub fn hit_miss_counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Resident lines, set by set, each set in its storage order.
    pub fn iter_lines(&self) -> impl Iterator<Item = LineMeta> + '_ {
        self.set_slots().flat_map(move |slots| {
            slots.map(move |slot| LineMeta {
                line: self.lines[slot],
                dirty: self.dirty[slot],
            })
        })
    }

    /// Each set's resident slots, in set order.
    fn set_slots(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        (0..self.filled.len()).map(|set| self.slots(set))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.filled.iter().map(|&n| usize::from(n)).sum()
    }

    /// `true` if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl sim_snap::SnapState for Cache {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.section("cache");
        // Per-set order is load-bearing: `fill`/`invalidate` move a set's
        // last line into the hole, so a restored cache must replay the
        // exact layout, not just the resident-line set.
        w.seq(self.filled.len());
        for slots in self.set_slots() {
            w.seq(slots.len());
            for slot in slots {
                w.u64(self.lines[slot]);
                w.u8(self.dirty[slot].bits());
                w.u64(self.stamps[slot]);
            }
        }
        w.u64(self.clock);
        w.u64(self.hits);
        w.u64(self.misses);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader<'_>) -> Result<(), sim_snap::SnapError> {
        r.section("cache")?;
        let sets = r.seq()?;
        if sets != self.filled.len() {
            return Err(sim_snap::SnapError::Decode(format!(
                "cache set count mismatch: snapshot has {sets}, config has {}",
                self.filled.len()
            )));
        }
        let ways = self.config.ways;
        for set in 0..sets {
            let n = r.seq()?;
            if n > ways {
                return Err(sim_snap::SnapError::Decode(format!(
                    "cache set {set} holds {n} lines, config has {ways} ways"
                )));
            }
            // `n <= ways`, which `assert_valid` bounds by `u8::MAX`.
            self.filled[set] = n as u8;
            for slot in self.slots(set) {
                self.lines[slot] = r.u64()?;
                self.dirty[slot] = WordMask::from_bits(r.u8()?);
                self.stamps[slot] = r.u64()?;
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
        // Nor can a 1-way cache of as many sets absorb a full 2-way set.
        let mut c = tiny();
        c.fill(line(0, 0));
        c.fill(line(0, 1));
        let mut w = sim_snap::SnapWriter::new();
        c.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut narrow = Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 1,
            latency_cycles: 1,
        });
        let mut r = sim_snap::SnapReader::new(&bytes);
        assert!(narrow.snap_load(&mut r).is_err());
    }

    /// Plays a seeded random fill/access/mark_dirty/clean/invalidate
    /// sequence and returns the FNV-1a of the snapshot bytes and of the
    /// victims plus the `iter_lines()` sequence.
    fn layout_fingerprint(config: CacheConfig, ops: u64, span: u64) -> (u64, u64) {
        use sim_snap::SnapState;
        let mut c = Cache::new(config);
        let mut rng = mem_model::rng::Rng::seed_from_u64(0x5EED);
        let mut trail = Vec::new();
        for _ in 0..ops {
            let a = PhysAddr::from_line_number(rng.bounded_u64(span));
            match rng.bounded_u64(8) {
                0..=2 => {
                    if let Some(v) = c.fill(a) {
                        trail.extend(v.addr.line_number().to_le_bytes());
                        trail.push(v.dirty.bits());
                    }
                }
                3 | 4 => trail.push(u8::from(c.access(a))),
                5 => trail.push(u8::from(
                    c.mark_dirty(a, WordMask::single(rng.bounded_u64(8) as u8)),
                )),
                6 => trail.push(c.clean(a).map_or(0xFF, WordMask::bits)),
                _ => trail.push(c.invalidate(a).map_or(0xFF, |v| v.dirty.bits())),
            }
        }
        for l in c.iter_lines() {
            trail.extend(l.line.to_le_bytes());
            trail.push(l.dirty.bits());
        }
        let mut w = sim_snap::SnapWriter::new();
        c.snap_save(&mut w);
        (
            sim_snap::codec::fnv1a_64(&w.into_bytes()),
            sim_snap::codec::fnv1a_64(&trail),
        )
    }

    #[test]
    fn layout_is_pinned() {
        // Victims, `iter_lines()` order and snapshot bytes of the per-set
        // layout, pinned so a storage change cannot reorder lines silently.
        let small = CacheConfig {
            size_bytes: 2048,
            ways: 4,
            latency_cycles: 1,
        };
        assert_eq!(
            layout_fingerprint(small, 4_000, 96),
            (14_718_296_855_899_338_866, 7_330_561_754_090_606_918)
        );
        assert_eq!(
            layout_fingerprint(CacheConfig::paper_l2(), 300_000, 200_000),
            (3_476_571_043_139_373_648, 8_455_390_661_629_429_126)
        );
    }

    #[test]
    #[should_panic(expected = "255-way limit")]
    fn associativity_beyond_a_byte_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 256 * 64,
            ways: 256,
            latency_cycles: 1,
        });
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
