//! Two-level cache hierarchy with fine-grained dirty bits and optional DBI.

use mem_model::{AddressMapping, DramGeometry, PhysAddr, WordMask, WORDS_PER_LINE};
use sim_fault::{FaultCounts, FaultInjector};
use sim_obs::{SinkHandle, TraceEvent, TraceSink};

use crate::cache::{AddrSpanError, Cache, CacheConfig, Evicted};
use crate::dbi::Dbi;

/// Shape of the hierarchy: per-core L1s over a shared L2.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// Per-core L1 data cache.
    pub l1: CacheConfig,
    /// Shared L2 (the LLC).
    pub l2: CacheConfig,
    /// Number of cores (each gets a private L1).
    pub cores: usize,
    /// Enables the Dirty-Block Index proactive writeback.
    pub dbi: bool,
    /// Enables a next-line prefetcher: each demand L2 miss also allocates
    /// and fetches the following line (sequential prefetching; an extension
    /// beyond the paper's configuration, off by default).
    pub prefetch_next_line: bool,
}

impl HierarchyConfig {
    /// The paper's hierarchy (Table 3): 32 KB L1s, one shared 4 MB L2.
    pub const fn paper(cores: usize) -> Self {
        HierarchyConfig {
            l1: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
            cores,
            dbi: false,
            prefetch_next_line: false,
        }
    }

    /// Same hierarchy with DBI enabled.
    pub const fn paper_with_dbi(cores: usize) -> Self {
        HierarchyConfig {
            dbi: true,
            ..Self::paper(cores)
        }
    }

    /// Checks that addresses below `span` (one past the highest byte
    /// address a simulation uses) fit every cache's tags.
    ///
    /// # Errors
    ///
    /// [`AddrSpanError`] when `span` exceeds the smaller of the L1's and
    /// the L2's [`CacheConfig::addr_limit`].
    pub fn check_addr_span(&self, span: u64) -> Result<(), AddrSpanError> {
        let limit = self.l1.addr_limit().min(self.l2.addr_limit());
        if span > limit {
            return Err(AddrSpanError { span, limit });
        }
        Ok(())
    }
}

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// L1 hit.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Miss in both levels; DRAM must be read.
    Memory,
}

/// The writebacks one access sends to DRAM: `(line address, FGD dirty
/// mask)`.
pub type Writeback = (PhysAddr, WordMask);

/// Where one access was served and the DRAM reads it needs; its
/// writebacks went to the caller's buffer (see
/// [`CacheHierarchy::access_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// Serving level.
    pub level: HitLevel,
    /// Demand line to fetch from DRAM (present iff `level == Memory`).
    pub fill_read: Option<PhysAddr>,
    /// Prefetched line to fetch from DRAM (next-line prefetcher; the line
    /// is already allocated in the L2, the fetch is non-blocking).
    pub prefetch_read: Option<PhysAddr>,
}

/// Result of one access: where it hit and the DRAM traffic it generated.
#[derive(Debug, Clone)]
pub struct Access {
    /// Serving level.
    pub level: HitLevel,
    /// Demand line to fetch from DRAM (present iff `level == Memory`).
    pub fill_read: Option<PhysAddr>,
    /// Prefetched line to fetch from DRAM (next-line prefetcher; the line
    /// is already allocated in the L2, the fetch is non-blocking).
    pub prefetch_read: Option<PhysAddr>,
    /// Writebacks to send to DRAM: `(line address, FGD dirty mask)`.
    pub writebacks: Vec<Writeback>,
}

/// Counters the hierarchy collects.
#[derive(Debug, Clone, Default)]
pub struct HierarchyStats {
    /// L1 hits across all cores.
    pub l1_hits: u64,
    /// L1 misses across all cores.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Dirty LLC evictions by dirty-word count: `hist[k]` counts evictions
    /// with `k+1` dirty words (the paper's Figure 3 distribution).
    pub evict_dirty_hist: [u64; WORDS_PER_LINE],
    /// Demand writebacks issued (dirty LLC evictions).
    pub writebacks: u64,
    /// Additional proactive writebacks issued by DBI.
    pub dbi_writebacks: u64,
    /// Next-line prefetches issued.
    pub prefetches: u64,
}

impl HierarchyStats {
    /// Mirrors every counter into `reg` under canonical `cache.*` names so
    /// epoch snapshots cover the hierarchy alongside the DRAM metrics.
    /// Registration is idempotent; call whenever the registry should be
    /// brought up to date.
    pub fn publish_to(&self, reg: &mut sim_obs::MetricsRegistry) {
        let mut set = |name: &str, value: u64| {
            let id = reg.counter(name);
            reg.set_counter(id, value);
        };
        set("cache.l1.hits", self.l1_hits);
        set("cache.l1.misses", self.l1_misses);
        set("cache.l2.hits", self.l2_hits);
        set("cache.l2.misses", self.l2_misses);
        set("cache.writebacks", self.writebacks);
        set("cache.writebacks.dbi", self.dbi_writebacks);
        set("cache.prefetches", self.prefetches);
        set("cache.evictions.dirty", self.evict_dirty_hist.iter().sum());
    }

    /// Figure 3: proportion of evicted dirty lines with `k+1` dirty words.
    pub fn dirty_word_proportions(&self) -> [f64; WORDS_PER_LINE] {
        let total: u64 = self.evict_dirty_hist.iter().sum();
        let mut out = [0.0; WORDS_PER_LINE];
        if total == 0 {
            return out;
        }
        for (o, &c) in out.iter_mut().zip(self.evict_dirty_hist.iter()) {
            *o = c as f64 / total as f64;
        }
        out
    }

    /// Mean dirty words per dirty LLC eviction.
    pub fn avg_dirty_words(&self) -> f64 {
        let total: u64 = self.evict_dirty_hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .evict_dirty_hist
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        weighted as f64 / total as f64
    }
}

/// Per-core L1 data caches over a shared, inclusive L2, maintaining PRA's
/// fine-grained dirty bits end to end (Section 4.1.4): stores set per-word
/// dirty bits in L1; L1 evictions OR their bits into L2; L2 evictions hand
/// the accumulated mask to the memory controller as the PRA mask.
///
/// # Example
///
/// ```
/// use cache_sim::{CacheHierarchy, HierarchyConfig, HitLevel};
/// use mem_model::{PhysAddr, WordMask};
///
/// let mut h = CacheHierarchy::new(HierarchyConfig::paper(1));
/// let a = PhysAddr::new(0x4000);
/// let first = h.access(0, a, Some(WordMask::single(0)));
/// assert_eq!(first.level, HitLevel::Memory); // cold store misses, allocates
/// let again = h.access(0, a, None);
/// assert_eq!(again.level, HitLevel::L1);
/// ```
#[derive(Debug)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1s: Vec<Cache>,
    l2: Cache,
    dbi: Option<Dbi>,
    geometry: DramGeometry,
    mapping: AddressMapping,
    stats: HierarchyStats,
    sink: SinkHandle,
    /// CPU cycle stamped onto emitted trace events; the driving system
    /// keeps it current via [`CacheHierarchy::set_now`].
    now: u64,
    /// Optional FGD dirty-bit fault source (see [`sim_fault`]); `None`
    /// leaves eviction masks untouched.
    faults: Option<FaultInjector>,
}

impl CacheHierarchy {
    /// Builds the hierarchy with the baseline DRAM geometry/mapping for DBI
    /// row grouping.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores == 0` or a cache shape is invalid.
    pub fn new(config: HierarchyConfig) -> Self {
        Self::with_dram_view(
            config,
            DramGeometry::baseline_ddr3(),
            AddressMapping::RowInterleaved,
        )
    }

    /// Builds the hierarchy with an explicit DRAM view (geometry + mapping),
    /// which DBI uses to group lines into rows.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores == 0` or a cache shape is invalid.
    pub fn with_dram_view(
        config: HierarchyConfig,
        geometry: DramGeometry,
        mapping: AddressMapping,
    ) -> Self {
        assert!(config.cores > 0, "need at least one core");
        CacheHierarchy {
            l1s: (0..config.cores).map(|_| Cache::new(config.l1)).collect(),
            l2: Cache::new(config.l2),
            dbi: config.dbi.then(Dbi::new),
            geometry,
            mapping,
            stats: HierarchyStats::default(),
            sink: SinkHandle::disabled(),
            now: 0,
            faults: None,
            config,
        }
    }

    /// A copy of the simulated state — cache contents, DBI index,
    /// statistics and any fault injector — with no trace sink attached: a
    /// sink observes one run, it is not state. Lets several runs start
    /// from one functionally warmed hierarchy.
    pub fn fork(&self) -> Self {
        CacheHierarchy {
            config: self.config,
            l1s: self.l1s.clone(),
            l2: self.l2.clone(),
            dbi: self.dbi.clone(),
            geometry: self.geometry,
            mapping: self.mapping,
            stats: self.stats.clone(),
            sink: SinkHandle::disabled(),
            now: self.now,
            faults: self.faults.clone(),
        }
    }

    /// [`fork`](Self::fork) into `into`, reusing its buffers where the
    /// shapes match.
    pub fn fork_into(&self, into: &mut CacheHierarchy) {
        into.config = self.config;
        into.l1s.clone_from(&self.l1s);
        into.l2.clone_from(&self.l2);
        into.dbi.clone_from(&self.dbi);
        into.geometry = self.geometry;
        into.mapping = self.mapping;
        into.stats.clone_from(&self.stats);
        into.sink = SinkHandle::disabled();
        into.now = self.now;
        into.faults.clone_from(&self.faults);
    }

    /// Attaches a fault injector that can set spurious FGD dirty bits on L2
    /// evictions (fail-safe direction only: a flipped bit widens the
    /// writeback mask, it never drops dirty data). Without one, eviction
    /// masks are exactly the merged L1/L2 dirty bits.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Fault-event counters accumulated by the attached injector (zero when
    /// no injector is attached).
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults
            .as_ref()
            .map(FaultInjector::counts)
            .unwrap_or_default()
    }

    /// Publishes cache counters and (when an injector is attached) fault
    /// counters into `reg`. Outer layers should call this instead of
    /// `stats().publish_to` so fault metrics reach epoch snapshots too.
    pub fn publish_metrics(&self, reg: &mut sim_obs::MetricsRegistry) {
        self.stats.publish_to(reg);
        if let Some(f) = &self.faults {
            f.publish_to(reg, "fault.cache");
        }
    }

    /// Attaches a trace sink; subsequent fills and writebacks are emitted
    /// as [`TraceEvent`]s stamped with the cycle set via
    /// [`CacheHierarchy::set_now`].
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = SinkHandle::new(sink);
    }

    /// Updates the CPU cycle stamped onto trace events.
    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    /// The hierarchy's configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Collected statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Zeroes the statistics, keeping cache contents. Called after a
    /// functional warmup phase so measurements reflect steady state only.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
    }

    /// L1/L2 access latencies in CPU cycles, for the core model.
    pub fn latencies(&self) -> (u64, u64) {
        (self.config.l1.latency_cycles, self.config.l2.latency_cycles)
    }

    /// Performs one load (`store == None`) or store (`store == Some(mask)`)
    /// by core `core` at `addr`. Cache state updates immediately; the caller
    /// handles the timing of any returned DRAM traffic. Allocates the
    /// writeback list; [`access_into`](Self::access_into) appends to the
    /// caller's buffer instead.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or a store mask is empty.
    pub fn access(&mut self, core: usize, addr: PhysAddr, store: Option<WordMask>) -> Access {
        let mut writebacks = Vec::new();
        let served = self.access_into(core, addr, store, &mut writebacks);
        Access {
            level: served.level,
            fill_read: served.fill_read,
            prefetch_read: served.prefetch_read,
            writebacks,
        }
    }

    /// [`access`](Self::access) that appends the access's writebacks, in
    /// order, to `writebacks`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or a store mask is empty.
    pub fn access_into(
        &mut self,
        core: usize,
        addr: PhysAddr,
        store: Option<WordMask>,
        writebacks: &mut impl Extend<Writeback>,
    ) -> Served {
        let a = addr.line_aligned();
        if let Some(mask) = store {
            assert!(!mask.is_empty(), "a store must dirty at least one word");
        }

        // L1.
        if self.l1s[core].access(a) {
            self.stats.l1_hits += 1;
            if let Some(mask) = store {
                self.l1s[core].mark_dirty(a, mask);
            }
            return Served {
                level: HitLevel::L1,
                fill_read: None,
                prefetch_read: None,
            };
        }
        self.stats.l1_misses += 1;

        // L2.
        let l2_hit = self.l2.access(a);
        let mut prefetch_read = None;
        let level = if l2_hit {
            self.stats.l2_hits += 1;
            HitLevel::L2
        } else {
            self.stats.l2_misses += 1;
            if let Some(victim) = self.l2.fill_absent(a) {
                self.handle_l2_eviction(victim, writebacks);
            }
            if self.config.prefetch_next_line {
                let next = a.offset(mem_model::LINE_BYTES);
                if !self.l2.contains(next) {
                    if let Some(victim) = self.l2.fill_absent(next) {
                        self.handle_l2_eviction(victim, writebacks);
                    }
                    self.stats.prefetches += 1;
                    prefetch_read = Some(next);
                }
            }
            HitLevel::Memory
        };

        // Fill L1 (write-allocate) and apply the store's dirty bits.
        // The L1 lookup missed, and back-invalidations only remove lines.
        if let Some(victim) = self.l1s[core].fill_absent(a) {
            self.handle_l1_eviction(victim, writebacks);
        }
        if let Some(mask) = store {
            self.l1s[core].mark_dirty(a, mask);
        }

        let (now, from_memory) = (self.now, level == HitLevel::Memory);
        self.sink.emit(|| TraceEvent::CacheFill {
            cycle: now,
            core: core as u8,
            line: a.line_number(),
            from_memory,
        });

        Served {
            level,
            fill_read: (level == HitLevel::Memory).then_some(a),
            prefetch_read,
        }
    }

    /// An L1 victim writes its FGD bits back into L2 (ORed, Section 4.1.4).
    fn handle_l1_eviction(&mut self, victim: Evicted, writebacks: &mut impl Extend<Writeback>) {
        if victim.dirty.is_empty() {
            return;
        }
        if !self.l2.mark_dirty(victim.addr, victim.dirty) {
            // Inclusion slipped (the L2 victimised this line earlier this
            // very access); allocate and dirty it.
            if let Some(l2_victim) = self.l2.fill_absent(victim.addr) {
                self.handle_l2_eviction(l2_victim, writebacks);
            }
            self.l2.mark_dirty(victim.addr, victim.dirty);
        }
        if let Some(dbi) = self.dbi.as_mut() {
            dbi.mark_dirty(
                self.mapping
                    .decode(victim.addr, &self.geometry)
                    .row_key(&self.geometry),
                victim.addr,
            );
        }
    }

    /// An L2 victim: back-invalidate L1 copies (inclusive hierarchy), merge
    /// their dirty bits, emit the writeback, and let DBI proactively clean
    /// the victim's row siblings.
    fn handle_l2_eviction(&mut self, victim: Evicted, writebacks: &mut impl Extend<Writeback>) {
        let mut mask = victim.dirty;
        for l1 in &mut self.l1s {
            if let Some(copy) = l1.invalidate(victim.addr) {
                mask |= copy.dirty;
            }
        }
        // Injected FGD upset: a spurious dirty bit widens the mask (a clean
        // eviction can become a one-word spurious writeback). Bits are only
        // ever set — clearing one would silently lose data.
        if let Some(inj) = self.faults.as_mut() {
            if let Some(widened) = inj.flip_dirty_bit(mask) {
                mask = widened;
            }
        }
        if mask.is_empty() {
            return;
        }
        self.stats.evict_dirty_hist[(mask.count_words() - 1) as usize] += 1;
        self.stats.writebacks += 1;
        writebacks.extend([(victim.addr, mask)]);
        let now = self.now;
        self.sink.emit(|| TraceEvent::CacheWriteback {
            cycle: now,
            line: victim.addr.line_number(),
            mask: mask.bits(),
            dbi: false,
        });

        if let Some(dbi) = self.dbi.as_mut() {
            let row = self
                .mapping
                .decode(victim.addr, &self.geometry)
                .row_key(&self.geometry);
            dbi.mark_clean(row, victim.addr);
            for sibling in dbi.take_row_siblings(row, victim.addr) {
                if let Some(sib_mask) = self.l2.clean(sibling) {
                    if !sib_mask.is_empty() {
                        self.stats.dbi_writebacks += 1;
                        writebacks.extend([(sibling, sib_mask)]);
                        self.sink.emit(|| TraceEvent::CacheWriteback {
                            cycle: now,
                            line: sibling.line_number(),
                            mask: sib_mask.bits(),
                            dbi: true,
                        });
                    }
                }
            }
        }
    }

    /// Flushes every dirty line out of the hierarchy (end-of-run drain),
    /// returning the writebacks. Leaves the caches empty.
    pub fn flush(&mut self) -> Vec<(PhysAddr, WordMask)> {
        let mut writebacks = Vec::new();
        // L1s first so their bits merge into L2.
        for core in 0..self.l1s.len() {
            let lines: Vec<PhysAddr> = self.l1s[core]
                .iter_lines()
                .map(|l| PhysAddr::from_line_number(l.line))
                .collect();
            for a in lines {
                if let Some(v) = self.l1s[core].invalidate(a) {
                    self.handle_l1_eviction(v, &mut writebacks);
                }
            }
        }
        let lines: Vec<PhysAddr> = self
            .l2
            .iter_lines()
            .map(|l| PhysAddr::from_line_number(l.line))
            .collect();
        for a in lines {
            if let Some(v) = self.l2.invalidate(a) {
                self.handle_l2_eviction(v, &mut writebacks);
            }
        }
        writebacks
    }
}

impl sim_snap::SnapState for HierarchyStats {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.u64(self.l1_hits);
        w.u64(self.l1_misses);
        w.u64(self.l2_hits);
        w.u64(self.l2_misses);
        for &c in &self.evict_dirty_hist {
            w.u64(c);
        }
        w.u64(self.writebacks);
        w.u64(self.dbi_writebacks);
        w.u64(self.prefetches);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader<'_>) -> Result<(), sim_snap::SnapError> {
        self.l1_hits = r.u64()?;
        self.l1_misses = r.u64()?;
        self.l2_hits = r.u64()?;
        self.l2_misses = r.u64()?;
        for c in &mut self.evict_dirty_hist {
            *c = r.u64()?;
        }
        self.writebacks = r.u64()?;
        self.dbi_writebacks = r.u64()?;
        self.prefetches = r.u64()?;
        Ok(())
    }
}

impl sim_snap::SnapState for CacheHierarchy {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.section("cache-hierarchy");
        // config/geometry/mapping are rebuilt from the run configuration and
        // covered by the snapshot header's config digest; the trace sink is
        // deliberately not snapshotted (output restarts at the restore
        // point).
        w.seq(self.l1s.len());
        for l1 in &self.l1s {
            l1.snap_save(w);
        }
        self.l2.snap_save(w);
        w.bool(self.dbi.is_some());
        if let Some(dbi) = &self.dbi {
            dbi.snap_save(w);
        }
        self.stats.snap_save(w);
        w.u64(self.now);
        w.bool(self.faults.is_some());
        if let Some(f) = &self.faults {
            f.snap_save(w);
        }
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader<'_>) -> Result<(), sim_snap::SnapError> {
        r.section("cache-hierarchy")?;
        let cores = r.seq()?;
        if cores != self.l1s.len() {
            return Err(sim_snap::SnapError::Decode(format!(
                "core count mismatch: snapshot has {cores}, config has {}",
                self.l1s.len()
            )));
        }
        for l1 in &mut self.l1s {
            l1.snap_load(r)?;
        }
        self.l2.snap_load(r)?;
        let has_dbi = r.bool()?;
        if has_dbi != self.dbi.is_some() {
            return Err(sim_snap::SnapError::Decode(format!(
                "DBI mismatch: snapshot {}, config {}",
                has_dbi,
                self.dbi.is_some()
            )));
        }
        if let Some(dbi) = self.dbi.as_mut() {
            dbi.snap_load(r)?;
        }
        self.stats.snap_load(r)?;
        self.now = r.u64()?;
        let has_faults = r.bool()?;
        if has_faults != self.faults.is_some() {
            return Err(sim_snap::SnapError::Decode(format!(
                "fault injector mismatch: snapshot {}, config {}",
                has_faults,
                self.faults.is_some()
            )));
        }
        if let Some(f) = self.faults.as_mut() {
            f.snap_load(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(cores: usize, dbi: bool) -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 512,
                ways: 2,
                latency_cycles: 2,
            },
            l2: CacheConfig {
                size_bytes: 2048,
                ways: 2,
                latency_cycles: 20,
            },
            cores,
            dbi,
            prefetch_next_line: false,
        }
    }

    fn h(cores: usize, dbi: bool) -> CacheHierarchy {
        CacheHierarchy::new(tiny_config(cores, dbi))
    }

    #[test]
    fn miss_then_l1_hit_then_l2_hit() {
        let mut h = h(1, false);
        let a = PhysAddr::new(0x1000);
        assert_eq!(h.access(0, a, None).level, HitLevel::Memory);
        assert_eq!(h.access(0, a, None).level, HitLevel::L1);
        // Thrash L1 set (2 ways) with two conflicting lines; L1 sets = 4,
        // lines conflicting with 0x1000 are 0x1000 + k*4*64.
        let b = PhysAddr::new(0x1000 + 4 * 64);
        let c = PhysAddr::new(0x1000 + 8 * 64);
        h.access(0, b, None);
        h.access(0, c, None);
        assert_eq!(
            h.access(0, a, None).level,
            HitLevel::L2,
            "evicted from L1, still in L2"
        );
    }

    #[test]
    fn store_sets_word_dirty_and_mask_propagates_to_writeback() {
        let mut h = h(1, false);
        let a = PhysAddr::new(0x2000);
        h.access(0, a, Some(WordMask::single(3)));
        h.access(0, a.offset(8 * 5), Some(WordMask::single(5)));
        let wbs = h.flush();
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].0, a);
        assert_eq!(wbs[0].1, WordMask::from_words([3, 5]));
        assert_eq!(h.stats().evict_dirty_hist[1], 1, "two dirty words");
    }

    #[test]
    fn l1_eviction_ors_bits_into_l2() {
        let mut h = h(1, false);
        let a = PhysAddr::new(0x1000);
        h.access(0, a, Some(WordMask::single(0)));
        // Force a out of L1 (same L1 set: stride 4 lines).
        h.access(0, PhysAddr::new(0x1000 + 4 * 64), Some(WordMask::single(1)));
        h.access(0, PhysAddr::new(0x1000 + 8 * 64), Some(WordMask::single(2)));
        // a still lives in L2 and must carry word 0's dirty bit.
        let wbs = h.flush();
        let entry = wbs
            .iter()
            .find(|(addr, _)| *addr == a)
            .expect("a written back");
        assert_eq!(entry.1, WordMask::single(0));
    }

    #[test]
    fn clean_evictions_are_silent() {
        let mut h = h(1, false);
        // Read-only traffic: no writebacks ever.
        for i in 0..64u64 {
            h.access(0, PhysAddr::new(i * 64 * 37), None);
        }
        assert_eq!(h.stats().writebacks, 0);
        assert!(h.flush().is_empty());
    }

    #[test]
    fn back_invalidation_merges_l1_bits() {
        let mut h = h(1, false);
        let a = PhysAddr::new(0x0);
        h.access(0, a, Some(WordMask::single(7)));
        // Evict a from L2 (L2: 16 sets, 2 ways; conflict stride 16*64).
        let mut wbs = Vec::new();
        for k in 1..=2u64 {
            wbs.extend(h.access(0, PhysAddr::new(k * 16 * 64), None).writebacks);
        }
        let entry = wbs
            .iter()
            .find(|(addr, _)| *addr == a)
            .expect("back-invalidated writeback");
        assert_eq!(
            entry.1,
            WordMask::single(7),
            "dirty bits came from the L1 copy"
        );
    }

    #[test]
    fn dbi_proactively_writes_back_row_siblings() {
        // Tiny caches: L1 has 4 sets (line % 4), L2 has 16 sets (line % 16).
        // Row-interleaved mapping keeps consecutive lines in one 128-line
        // DRAM row, so lines 1024..=1027 share a row.
        let mut h = h(1, true);
        let line = |n: u64| PhysAddr::from_line_number(n);
        // Dirty four same-row lines (L1 sets 0..=3, L2 sets 0..=3).
        for i in 0..4u64 {
            h.access(0, line(1024 + i), Some(WordMask::single(0)));
        }
        // Evict them from L1 into L2 via lines that share their L1 sets but
        // use L2 sets 4..=7 (no L2 pressure on the dirty lines).
        for i in 0..4u64 {
            h.access(0, line(1024 + i + 4), None);
            h.access(0, line(1024 + i + 4 + 16), None);
        }
        assert_eq!(h.stats().writebacks, 0, "nothing left the LLC yet");
        // Evict line 1024 from L2 set 0 using different-row lines ≡ 0 mod 16.
        let mut wbs = Vec::new();
        wbs.extend(h.access(0, line(1024 + 160), None).writebacks);
        wbs.extend(h.access(0, line(1024 + 320), None).writebacks);
        let trigger = wbs
            .iter()
            .find(|(a, _)| *a == line(1024))
            .expect("trigger eviction");
        assert_eq!(trigger.1, WordMask::single(0));
        assert_eq!(
            h.stats().dbi_writebacks,
            3,
            "DBI cleans the three dirty row siblings: {wbs:?}"
        );
        assert_eq!(wbs.len(), 4, "trigger plus three proactive writebacks");
        // The siblings stay resident but clean.
        for i in 1..4u64 {
            assert_eq!(h.l2.dirty_mask(line(1024 + i)), Some(WordMask::EMPTY));
        }
    }

    #[test]
    fn access_into_appends_what_access_returns() {
        // DBI on, so one access can send several writebacks.
        let (mut owned, mut into) = (h(1, true), h(1, true));
        let sentinel = (PhysAddr::new(0), WordMask::FULL);
        let mut appended = std::collections::VecDeque::from([sentinel]);
        let mut returned = vec![sentinel];
        for n in 0..4_000u64 {
            let line = PhysAddr::from_line_number(1024 + (n * 37) % 700);
            let store = (n % 3 == 0).then(|| WordMask::single((n % 8) as u8));
            let a = owned.access(0, line, store);
            let served = into.access_into(0, line, store, &mut appended);
            assert_eq!(
                (served.level, served.fill_read, served.prefetch_read),
                (a.level, a.fill_read, a.prefetch_read)
            );
            returned.extend(a.writebacks);
        }
        assert!(owned.stats().dbi_writebacks > 0);
        assert!(appended.iter().eq(&returned));
    }

    #[test]
    fn next_line_prefetcher_fetches_ahead() {
        let mut config = tiny_config(1, false);
        config.prefetch_next_line = true;
        let mut h = CacheHierarchy::new(config);
        let a = PhysAddr::new(0x8000);
        let first = h.access(0, a, None);
        assert_eq!(first.level, HitLevel::Memory);
        assert_eq!(first.prefetch_read, Some(a.offset(64)));
        assert_eq!(h.stats().prefetches, 1);
        // The prefetched line is resident: the next sequential access hits.
        let second = h.access(0, a.offset(64), None);
        assert_eq!(
            second.level,
            HitLevel::L2,
            "prefetch turned the miss into an L2 hit"
        );
        assert_eq!(second.prefetch_read, None, "L2 hits do not prefetch");
        // A re-miss on an already-prefetched line does not double-issue.
        let third = h.access(0, a, None);
        assert_eq!(third.level, HitLevel::L1);
    }

    #[test]
    fn prefetcher_off_by_default() {
        let mut h = h(1, false);
        let first = h.access(0, PhysAddr::new(0x8000), None);
        assert_eq!(first.prefetch_read, None);
        assert_eq!(h.stats().prefetches, 0);
    }

    #[test]
    fn multicore_l1s_are_private() {
        let mut h = h(2, false);
        let a = PhysAddr::new(0x3000);
        h.access(0, a, None);
        assert_eq!(
            h.access(1, a, None).level,
            HitLevel::L2,
            "core 1's L1 is cold"
        );
        assert_eq!(h.access(0, a, None).level, HitLevel::L1);
    }

    #[test]
    fn figure3_proportions_sum_to_one() {
        let mut h = h(1, false);
        for i in 0..256u64 {
            let words = WordMask::first_n(((i % 8) + 1) as usize);
            h.access(0, PhysAddr::new(i * 64 * 17), Some(words));
        }
        h.flush();
        let p = h.stats().dirty_word_proportions();
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(h.stats().avg_dirty_words() >= 1.0);
    }

    #[test]
    fn hierarchy_snapshot_roundtrip_resumes_identically() {
        use sim_fault::{Domain, FaultPlan};
        use sim_snap::SnapState;
        let flippy = |seed: u64| {
            let mut plan = FaultPlan::disabled();
            plan.seed = seed;
            plan.dirty_flip_rate = 0.2;
            plan.injector(Domain::Cache)
        };
        let mut live = h(2, true);
        live.set_fault_injector(flippy(0xC0FFEE));
        // Mixed multi-core traffic with DBI and fault-widened masks.
        for i in 0..400u64 {
            let core = (i % 2) as usize;
            let addr = PhysAddr::from_line_number((i * 7) % 96);
            let store = (i % 3 == 0).then(|| WordMask::single((i % 8) as u8));
            live.access(core, addr, store);
        }
        let mut w = sim_snap::SnapWriter::new();
        live.snap_save(&mut w);
        let bytes = w.into_bytes();

        let mut restored = h(2, true);
        // Overlay replaces the RNG stream position, so the seed here is moot.
        restored.set_fault_injector(flippy(0xBAD5EED));
        let mut r = sim_snap::SnapReader::new(&bytes);
        restored.snap_load(&mut r).unwrap();
        r.finish().unwrap();

        // Both must now produce identical traffic, including fault-injected
        // mask widenings (the injector RNG stream was restored too).
        for i in 400..800u64 {
            let core = (i % 2) as usize;
            let addr = PhysAddr::from_line_number((i * 7) % 96);
            let store = (i % 3 == 0).then(|| WordMask::single((i % 8) as u8));
            let a = live.access(core, addr, store);
            let b = restored.access(core, addr, store);
            assert_eq!(a.level, b.level, "access {i}");
            assert_eq!(a.writebacks, b.writebacks, "access {i}");
        }
        assert_eq!(live.stats().writebacks, restored.stats().writebacks);
        assert_eq!(live.stats().dbi_writebacks, restored.stats().dbi_writebacks);
        assert_eq!(live.fault_counts(), restored.fault_counts());
        // Drains agree too: resident lines and dirty masks match exactly.
        assert_eq!(live.flush(), restored.flush());
    }

    #[test]
    fn fork_resumes_identically() {
        let traffic = |h: &mut CacheHierarchy, range: std::ops::Range<u64>| {
            range
                .map(|i| {
                    let addr = PhysAddr::from_line_number((i * 7) % 96);
                    let store = (i % 3 == 0).then(|| WordMask::single((i % 8) as u8));
                    h.access((i % 2) as usize, addr, store).writebacks
                })
                .collect::<Vec<_>>()
        };
        let mut live = h(2, true);
        traffic(&mut live, 0..400);
        let mut fork = live.fork();
        assert_eq!(traffic(&mut live, 400..800), traffic(&mut fork, 400..800));
        assert_eq!(live.stats().dbi_writebacks, fork.stats().dbi_writebacks);
        assert_eq!(live.flush(), fork.flush());
    }

    #[test]
    fn hierarchy_snapshot_shape_mismatch_rejected() {
        use sim_snap::SnapState;
        let live = h(2, true);
        let mut w = sim_snap::SnapWriter::new();
        live.snap_save(&mut w);
        let bytes = w.into_bytes();
        // Wrong core count.
        let mut r = sim_snap::SnapReader::new(&bytes);
        assert!(h(1, true).snap_load(&mut r).is_err());
        // Wrong DBI setting.
        let mut r = sim_snap::SnapReader::new(&bytes);
        assert!(h(2, false).snap_load(&mut r).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn empty_store_mask_rejected() {
        h(1, false).access(0, PhysAddr::new(0), Some(WordMask::EMPTY));
    }
}
