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

    /// One past the highest byte address the cache can hold. A slot stores
    /// its line's tag (the line number above the set-index bits) as a
    /// `u32`, so the limit is 2^32 times the bytes one way spans: 2^45 for
    /// the paper's L1, 2^51 for its L2. Addresses at or past it must be
    /// rejected where they enter a simulation (see
    /// [`HierarchyConfig::check_addr_span`](crate::HierarchyConfig::check_addr_span)).
    pub fn addr_limit(&self) -> u64 {
        (self.sets() as u64 * LINE_BYTES).saturating_mul(1 << 32)
    }
}

/// An address span past the limit of a cache's `u32` tags (see
/// [`CacheConfig::addr_limit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrSpanError {
    /// The rejected span: one past the highest byte address.
    pub span: u64,
    /// The largest span the caches accept.
    pub limit: u64,
}

impl std::fmt::Display for AddrSpanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "addresses span {} bytes, past the {}-byte limit of the cache tags",
            self.span, self.limit
        )
    }
}

impl std::error::Error for AddrSpanError {}

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
/// tag, LRU-stamp and dirty arrays, and a set's resident lines occupy its
/// first `filled[s]` slots. Removing a line moves the set's last line into
/// the hole, so the per-set order — and with it victims, iteration order
/// and snapshot bytes — follows the access stream exactly.
///
/// A slot is 9 bytes: a `u32` tag (the line number without its set-index
/// bits, so addresses must stay below [`CacheConfig::addr_limit`]), a
/// `u32` LRU stamp and the dirty mask. Before the stamp clock would wrap,
/// every set's stamps are renumbered in recency order; victims only
/// compare stamps within a set, so they stay the ones an unbounded clock
/// picks.
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
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `sets - 1`: the set index is the line number's low bits.
    set_mask: u64,
    /// `log2(sets)`: a tag is the line number shifted right by this.
    set_bits: u32,
    tags: Vec<u32>,
    stamps: Vec<u32>,
    dirty: Vec<WordMask>,
    /// Resident lines per set.
    filled: Vec<u8>,
    clock: u32,
    hits: u64,
    misses: u64,
}

impl Clone for Cache {
    fn clone(&self) -> Self {
        Cache {
            config: self.config,
            set_mask: self.set_mask,
            set_bits: self.set_bits,
            tags: self.tags.clone(),
            stamps: self.stamps.clone(),
            dirty: self.dirty.clone(),
            filled: self.filled.clone(),
            clock: self.clock,
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Copies `source` into this cache's buffers, allocating only when the
    /// shapes differ.
    fn clone_from(&mut self, source: &Self) {
        self.config = source.config;
        self.set_mask = source.set_mask;
        self.set_bits = source.set_bits;
        self.tags.clone_from(&source.tags);
        self.stamps.clone_from(&source.stamps);
        self.dirty.clone_from(&source.dirty);
        self.filled.clone_from(&source.filled);
        self.clock = source.clock;
        self.hits = source.hits;
        self.misses = source.misses;
    }
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
            set_bits: sets.trailing_zeros(),
            tags: vec![0; slots],
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

    /// `line`'s tag. Callers keep addresses below
    /// [`CacheConfig::addr_limit`], so it fits.
    fn tag(&self, line: u64) -> u32 {
        debug_assert!(
            line >> self.set_bits <= u64::from(u32::MAX),
            "line {line:#x} is past the cache's address limit"
        );
        (line >> self.set_bits) as u32
    }

    /// The line number held in `slot` of `set`.
    fn line_at(&self, set: usize, slot: usize) -> u64 {
        u64::from(self.tags[slot]) << self.set_bits | set as u64
    }

    /// Advances the LRU clock and returns the new stamp, renumbering every
    /// set first when the clock would wrap.
    fn tick(&mut self) -> u32 {
        if self.clock == u32::MAX {
            self.renumber();
        }
        self.clock += 1;
        self.clock
    }

    /// Replaces each set's stamps by their recency ranks and restarts the
    /// clock above every rank. A set keeps its order, so it keeps its
    /// victims.
    fn renumber(&mut self) {
        let mut stamps = Vec::with_capacity(self.config.ways);
        for set in 0..self.filled.len() {
            let slots = self.slots(set);
            stamps.clear();
            stamps.extend_from_slice(&self.stamps[slots.clone()]);
            rank_stamps(&stamps, &mut self.stamps[slots]);
        }
        // `ways <= u8::MAX` (`assert_valid`).
        self.clock = self.config.ways as u32;
    }

    /// The slots of `set`'s resident lines.
    fn slots(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.config.ways;
        base..base + usize::from(self.filled[set])
    }

    /// The slot holding `line`, if resident.
    fn find(&self, line: u64) -> Option<usize> {
        let slots = self.slots(self.set_index(line));
        let (base, tag) = (slots.start, self.tag(line));
        self.tags[slots]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Removes the line in `slot` of `set`, moving the set's last line into
    /// the hole.
    fn remove(&mut self, set: usize, slot: usize) -> Evicted {
        let evicted = Evicted {
            addr: PhysAddr::from_line_number(self.line_at(set, slot)),
            dirty: self.dirty[slot],
        };
        self.filled[set] -= 1;
        let last = self.slots(set).end;
        self.tags[slot] = self.tags[last];
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
        let stamp = self.tick();
        if let Some(slot) = self.find(addr.line_number()) {
            self.stamps[slot] = stamp;
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
                self.stamps[slot] = self.tick();
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
        let stamp = self.tick();
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
        self.tags[slot] = self.tag(line);
        self.stamps[slot] = stamp;
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
        (0..self.filled.len()).flat_map(move |set| {
            self.slots(set).map(move |slot| LineMeta {
                line: self.line_at(set, slot),
                dirty: self.dirty[slot],
            })
        })
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
        // Tags, stamps and the clock are written as the `u64` line numbers
        // and stamps of an unbounded clock, so the bytes do not depend on
        // the packed layout.
        w.seq(self.filled.len());
        for set in 0..self.filled.len() {
            let slots = self.slots(set);
            w.seq(slots.len());
            for slot in slots {
                w.u64(self.line_at(set, slot));
                w.u8(self.dirty[slot].bits());
                w.u64(u64::from(self.stamps[slot]));
            }
        }
        w.u64(u64::from(self.clock));
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
        let mut wide = Vec::with_capacity(ways);
        let mut renumber = false;
        for set in 0..sets {
            let n = r.seq()?;
            if n > ways {
                return Err(sim_snap::SnapError::Decode(format!(
                    "cache set {set} holds {n} lines, config has {ways} ways"
                )));
            }
            // `n <= ways`, which `assert_valid` bounds by `u8::MAX`.
            self.filled[set] = n as u8;
            wide.clear();
            for slot in self.slots(set) {
                let line = r.u64()?;
                if line & self.set_mask != set as u64 || line >> self.set_bits > u64::from(u32::MAX)
                {
                    return Err(sim_snap::SnapError::Decode(format!(
                        "cache line {line:#x} cannot sit in set {set} of this cache"
                    )));
                }
                self.tags[slot] = (line >> self.set_bits) as u32;
                self.dirty[slot] = WordMask::from_bits(r.u8()?);
                wide.push(r.u64()?);
            }
            let slots = self.slots(set);
            if wide.iter().any(|&stamp| stamp > u64::from(u32::MAX)) {
                rank_stamps(&wide, &mut self.stamps[slots]);
                renumber = true;
            } else {
                for (narrow, &stamp) in self.stamps[slots].iter_mut().zip(&wide) {
                    *narrow = stamp as u32;
                }
            }
        }
        let clock = r.u64()?;
        // Stamps or a clock past `u32::MAX` renumber as a wrap would.
        match u32::try_from(clock) {
            Ok(clock) if !renumber => self.clock = clock,
            _ => self.renumber(),
        }
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        Ok(())
    }
}

/// Writes each stamp's recency rank into `ranks`, 1 for the least recent;
/// equal stamps rank in slot order, as the victim scan's first minimum
/// picks them.
fn rank_stamps<T: Copy + Ord>(stamps: &[T], ranks: &mut [u32]) {
    for (i, (rank, &stamp)) in ranks.iter_mut().zip(stamps).enumerate() {
        let earlier = stamps
            .iter()
            .enumerate()
            .filter(|&(j, &other)| (other, j) < (stamp, i))
            .count();
        *rank = earlier as u32 + 1;
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

    /// The cache as per-set lists with `u64` stamps from an unbounded
    /// clock: the model the packed layout must match victim for victim.
    struct Reference {
        /// Per set: `(line, stamp, dirty bits)`, in no particular order.
        sets: Vec<Vec<(u64, u64, u8)>>,
        clock: u64,
        ways: usize,
    }

    impl Reference {
        /// A model of `cache`'s contents with every stamp and the clock
        /// raised by `offset`.
        fn of(cache: &Cache, offset: u64) -> Self {
            let mut sets = vec![Vec::new(); cache.filled.len()];
            for (set, lines) in sets.iter_mut().enumerate() {
                for slot in cache.slots(set) {
                    let stamp = u64::from(cache.stamps[slot]) + offset;
                    lines.push((cache.line_at(set, slot), stamp, cache.dirty[slot].bits()));
                }
            }
            Reference {
                sets,
                clock: u64::from(cache.clock) + offset,
                ways: cache.config.ways,
            }
        }

        fn set(&mut self, line: u64) -> &mut Vec<(u64, u64, u8)> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line % n) as usize]
        }

        fn access(&mut self, line: u64) -> bool {
            self.clock += 1;
            let clock = self.clock;
            let entry = self.set(line).iter_mut().find(|e| e.0 == line);
            entry.map(|e| e.1 = clock).is_some()
        }

        fn fill(&mut self, line: u64) -> Option<(u64, u8)> {
            self.clock += 1;
            let (clock, ways) = (self.clock, self.ways);
            let set = self.set(line);
            if let Some(e) = set.iter_mut().find(|e| e.0 == line) {
                e.1 = clock;
                return None;
            }
            let victim = (set.len() == ways).then(|| {
                let lru = (0..set.len()).min_by_key(|&i| set[i].1).unwrap();
                let (line, _, dirty) = set.swap_remove(lru);
                (line, dirty)
            });
            set.push((line, clock, 0));
            victim
        }

        fn mark_dirty(&mut self, line: u64, mask: u8) -> bool {
            let entry = self.set(line).iter_mut().find(|e| e.0 == line);
            entry.map(|e| e.2 |= mask).is_some()
        }

        fn invalidate(&mut self, line: u64) -> Option<u8> {
            let set = self.set(line);
            let i = set.iter().position(|e| e.0 == line)?;
            Some(set.swap_remove(i).2)
        }
    }

    /// Plays `ops` seeded random accesses, fills, dirtyings and
    /// invalidations through both, asserting identical outcomes.
    fn play_against_reference(c: &mut Cache, model: &mut Reference, seed: u64, ops: u64) {
        let mut rng = mem_model::rng::Rng::seed_from_u64(seed);
        for n in 0..ops {
            let line = rng.bounded_u64(48);
            let a = PhysAddr::from_line_number(line);
            match rng.bounded_u64(8) {
                0..=2 => {
                    let victim = c.fill(a).map(|v| (v.addr.line_number(), v.dirty.bits()));
                    assert_eq!(victim, model.fill(line), "fill #{n} of line {line}");
                }
                3 | 4 => assert_eq!(c.access(a), model.access(line), "access #{n}"),
                5 => {
                    let mask = WordMask::single(rng.bounded_u64(8) as u8);
                    assert_eq!(c.mark_dirty(a, mask), model.mark_dirty(line, mask.bits()));
                }
                _ => assert_eq!(
                    c.invalidate(a).map(|v| v.dirty.bits()),
                    model.invalidate(line),
                    "invalidate #{n}"
                ),
            }
        }
    }

    #[test]
    fn the_stamp_clock_wraps_without_changing_a_victim() {
        // 4 sets x 4 ways over 48 lines: every set overflows constantly.
        let config = CacheConfig {
            size_bytes: 1024,
            ways: 4,
            latency_cycles: 1,
        };
        let mut c = Cache::new(config);
        c.clock = u32::MAX - 3_000;
        let mut model = Reference::of(&c, 0);
        play_against_reference(&mut c, &mut model, 7, 20_000);
        assert!(c.clock < 20_000, "the clock wrapped and was renumbered");

        // A snapshot whose stamps and clock lie past `u32::MAX` (as one
        // taken after 2^32 accesses would) loads renumbered, keeping the
        // victims of the `u64` clock.
        use sim_snap::SnapState;
        let offset = 1 << 33;
        let mut w = sim_snap::SnapWriter::new();
        w.section("cache");
        w.seq(c.filled.len());
        for set in 0..c.filled.len() {
            w.seq(c.slots(set).len());
            for slot in c.slots(set) {
                w.u64(c.line_at(set, slot));
                w.u8(c.dirty[slot].bits());
                w.u64(u64::from(c.stamps[slot]) + offset);
            }
        }
        w.u64(u64::from(c.clock) + offset);
        w.u64(0);
        w.u64(0);
        let bytes = w.into_bytes();
        let mut loaded = Cache::new(config);
        let mut r = sim_snap::SnapReader::new(&bytes);
        loaded.snap_load(&mut r).unwrap();
        r.finish().unwrap();
        assert!(loaded.clock <= 4, "loading renumbered every set");
        let mut model = Reference::of(&c, offset);
        play_against_reference(&mut loaded, &mut model, 8, 20_000);
    }

    #[test]
    fn a_snapshot_reloads_to_the_same_bytes() {
        use sim_snap::SnapState;
        let mut c = Cache::new(CacheConfig::paper_l1());
        let mut rng = mem_model::rng::Rng::seed_from_u64(3);
        for _ in 0..20_000 {
            let a = PhysAddr::from_line_number(rng.bounded_u64(4_000) << 20);
            if c.fill(a).is_none() && rng.bounded_u64(2) == 0 {
                c.mark_dirty(a, WordMask::single(rng.bounded_u64(8) as u8));
            }
            c.access(PhysAddr::from_line_number(rng.bounded_u64(4_000) << 20));
        }
        let save = |c: &Cache| {
            let mut w = sim_snap::SnapWriter::new();
            c.snap_save(&mut w);
            w.into_bytes()
        };
        let bytes = save(&c);
        let mut restored = Cache::new(CacheConfig::paper_l1());
        let mut r = sim_snap::SnapReader::new(&bytes);
        restored.snap_load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(save(&restored), bytes);
    }

    #[test]
    fn tags_cover_the_address_limit_exactly() {
        use crate::HierarchyConfig;
        let config = HierarchyConfig::paper(4);
        assert_eq!(CacheConfig::paper_l1().addr_limit(), 1 << 45);
        assert_eq!(CacheConfig::paper_l2().addr_limit(), 1 << 51);
        assert_eq!(config.check_addr_span(1 << 45), Ok(()));
        let e = config.check_addr_span((1 << 45) + 1).unwrap_err();
        assert_eq!((e.span, e.limit), ((1 << 45) + 1, 1 << 45));
        assert!(e.to_string().contains("limit of the cache tags"), "{e}");
        // The highest line below the limit keeps its full line number.
        let mut c = Cache::new(CacheConfig::paper_l1());
        let top = PhysAddr::new((1 << 45) - LINE_BYTES);
        let low = PhysAddr::new(top.raw() & ((1 << 32) - 1));
        c.fill(top);
        assert!(c.contains(top) && !c.contains(low));
        assert_eq!(c.iter_lines().next().unwrap().line, top.line_number());
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
