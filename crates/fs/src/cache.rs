//! The buffer cache, with asynchronous-completion modelling.
//!
//! Each cached block carries a `ready_at` timestamp. Synchronous reads
//! are ready immediately (the caller already paid the disk latency);
//! prefetched blocks become ready when the simulated disk arm gets to
//! them, on a separate *disk-busy* timeline that overlaps the caller's
//! computation. A later reader that arrives after `ready_at` hits for
//! free — the entire benefit case of the §4.1 read-ahead analysis — and
//! one that arrives early waits only for the remainder.

use std::collections::HashMap;

use std::rc::Rc;
use vino_dev::disk::{BlockAddr, Disk};
use vino_sim::{Cycles, VirtualClock};

/// Cost of a buffer-cache lookup hit (hash probe plus LRU bump).
pub const CACHE_HIT_COST: Cycles = Cycles(60);

/// Outcome of a prefetch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// An I/O was issued on the disk-busy timeline.
    Issued,
    /// The block is already cached; nothing to do.
    AlreadyCached,
    /// The read-ahead quota is exhausted; the caller should keep the
    /// request queued and retry later (§4.1.2's "as memory becomes
    /// available").
    NoRoom,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a ready block.
    pub hits: u64,
    /// Lookups that found a block still in flight (partial wait).
    pub late_hits: u64,
    /// Lookups that went to disk synchronously.
    pub misses: u64,
    /// Prefetch I/Os issued.
    pub prefetches: u64,
    /// Prefetched blocks that were evicted unread (wasted I/O).
    pub prefetch_waste: u64,
}

#[derive(Debug)]
struct Entry {
    data: [u8; 4096],
    ready_at: Cycles,
    /// For waste accounting: true until first read after prefetch.
    prefetched_unread: bool,
    /// LRU stamp.
    stamp: u64,
}

/// A fixed-capacity LRU buffer cache over the simulated disk.
#[derive(Debug)]
pub struct BufferCache {
    clock: Rc<VirtualClock>,
    capacity: usize,
    /// Maximum buffers that may hold prefetched-but-unread blocks at
    /// once. This is the mechanism that stops a 100 MB `compute-ra`
    /// request from stealing all of memory (§4.1.2): read-ahead may
    /// recycle LRU buffers, but only up to this footprint.
    prefetch_quota: usize,
    entries: HashMap<BlockAddr, Entry>,
    tick: u64,
    /// When the disk arm becomes free for background work.
    disk_busy_until: Cycles,
    stats: CacheStats,
}

impl BufferCache {
    /// Creates a cache holding at most `capacity` blocks.
    pub fn new(clock: Rc<VirtualClock>, capacity: usize) -> BufferCache {
        assert!(capacity > 0, "cache needs at least one buffer");
        BufferCache {
            clock,
            capacity,
            prefetch_quota: (capacity / 4).max(1),
            entries: HashMap::new(),
            tick: 0,
            disk_busy_until: Cycles::ZERO,
            stats: CacheStats::default(),
        }
    }

    /// Buffers currently holding prefetched-but-unread blocks.
    pub fn prefetched_unread(&self) -> usize {
        self.entries.values().filter(|e| e.prefetched_unread).count()
    }

    /// The read-ahead footprint bound.
    pub fn prefetch_quota(&self) -> usize {
        self.prefetch_quota
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Free buffer slots — the "memory available for read-ahead" that
    /// gates prefetch-queue draining (§4.1.2).
    pub fn free_slots(&self) -> usize {
        self.capacity - self.entries.len().min(self.capacity)
    }

    /// Drops every cached block and rewinds the LRU clock and the
    /// disk-busy timeline to their fresh-boot values. Part of the
    /// checkpoint quiesce: a restored kernel starts with a cold cache,
    /// so the capture side must go cold at the same instant for the two
    /// runs to stay byte-identical. Stats are left in place (they are
    /// monotone diagnostics, not replayed state).
    pub fn invalidate_all(&mut self) {
        self.entries.clear();
        self.tick = 0;
        self.disk_busy_until = Cycles::ZERO;
    }

    /// Reads `addr` through the cache, charging the caller's clock for
    /// hit cost, residual prefetch wait, or a full synchronous I/O.
    pub fn read(&mut self, disk: &mut Disk, addr: BlockAddr) -> [u8; 4096] {
        self.tick += 1;
        let tick = self.tick;
        let now = self.clock.now();
        if let Some(e) = self.entries.get_mut(&addr) {
            e.stamp = tick;
            e.prefetched_unread = false;
            if e.ready_at <= now {
                self.stats.hits += 1;
                self.clock.charge(CACHE_HIT_COST);
            } else {
                // In flight: wait out the remainder — the prefetch
                // started early, so the wait is shorter than a full I/O.
                self.stats.late_hits += 1;
                let ready = e.ready_at;
                self.clock.advance_to(ready);
                self.clock.charge(CACHE_HIT_COST);
            }
            return self.entries[&addr].data;
        }
        // Miss: synchronous disk read, full mechanical latency. The arm
        // is shared with background prefetch: wait for it if busy.
        self.stats.misses += 1;
        if self.disk_busy_until > now {
            self.clock.advance_to(self.disk_busy_until);
        }
        let data = disk.read(addr);
        self.disk_busy_until = self.clock.now();
        self.insert(addr, data, self.clock.now(), false);
        data
    }

    /// Issues a background prefetch of `addr` unless the block is
    /// already cached or the read-ahead quota is exhausted. Prefetch
    /// may recycle LRU buffers, but at most [`Self::prefetch_quota`]
    /// buffers hold unread prefetched data at any moment — the §4.1.2
    /// bound. The caller's clock is *not* charged — the I/O runs on the
    /// disk-busy timeline.
    pub fn prefetch(&mut self, disk: &mut Disk, addr: BlockAddr) -> PrefetchOutcome {
        if self.entries.contains_key(&addr) {
            return PrefetchOutcome::AlreadyCached;
        }
        if self.prefetched_unread() >= self.prefetch_quota {
            return PrefetchOutcome::NoRoom;
        }
        let (data, cost) = disk.read_with_cost(addr);
        let start = self.disk_busy_until.max(self.clock.now());
        let ready = start + cost;
        self.disk_busy_until = ready;
        self.insert(addr, data, ready, true);
        self.stats.prefetches += 1;
        PrefetchOutcome::Issued
    }

    /// Writes `addr` through the cache to disk (write-through).
    pub fn write(&mut self, disk: &mut Disk, addr: BlockAddr, data: &[u8; 4096]) {
        self.tick += 1;
        disk.write(addr, data);
        let stamp = self.tick;
        match self.entries.get_mut(&addr) {
            Some(e) => {
                e.data = *data;
                e.ready_at = self.clock.now();
                e.stamp = stamp;
                e.prefetched_unread = false;
            }
            None => self.insert(addr, *data, self.clock.now(), false),
        }
    }

    /// Drops a block from the cache (used by tests and invalidation).
    pub fn invalidate(&mut self, addr: BlockAddr) {
        if let Some(e) = self.entries.remove(&addr) {
            if e.prefetched_unread {
                self.stats.prefetch_waste += 1;
            }
        }
    }

    fn insert(&mut self, addr: BlockAddr, data: [u8; 4096], ready_at: Cycles, prefetched: bool) {
        while self.entries.len() >= self.capacity {
            // Evict the LRU entry.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(a, _)| *a)
                .expect("nonempty");
            self.invalidate(victim);
        }
        self.tick += 1;
        self.entries.insert(
            addr,
            Entry { data, ready_at, prefetched_unread: prefetched, stamp: self.tick },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(cap: usize) -> (BufferCache, Disk, Rc<VirtualClock>) {
        let clock = VirtualClock::new();
        let cache = BufferCache::new(Rc::clone(&clock), cap);
        let disk = Disk::new(vino_sim::Observer::new(Rc::clone(&clock)));
        (cache, disk, clock)
    }

    #[test]
    fn miss_then_hit() {
        let (mut c, mut d, clock) = setup(4);
        let mut data = [0u8; 4096];
        data[0] = 7;
        d.write(BlockAddr(3), &data);
        let t0 = clock.now();
        let r1 = c.read(&mut d, BlockAddr(3));
        let miss_cost = clock.since(t0);
        assert_eq!(r1[0], 7);
        let t1 = clock.now();
        let r2 = c.read(&mut d, BlockAddr(3));
        let hit_cost = clock.since(t1);
        assert_eq!(r2[0], 7);
        assert_eq!(hit_cost, CACHE_HIT_COST);
        assert!(miss_cost.get() > hit_cost.get() * 100, "miss {miss_cost} vs hit {hit_cost}");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn prefetch_overlaps_computation() {
        // The §4.1.1 benefit model: prefetch block B, compute for longer
        // than the I/O takes, then read B for (almost) free.
        let (mut c, mut d, clock) = setup(8);
        c.prefetch(&mut d, BlockAddr(1000));
        assert_eq!(c.stats().prefetches, 1);
        // "Compute" for 100 ms — far longer than one I/O.
        clock.charge(Cycles::from_ms(100));
        let t0 = clock.now();
        c.read(&mut d, BlockAddr(1000));
        assert_eq!(clock.since(t0), CACHE_HIT_COST, "fully overlapped prefetch is a free hit");
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn early_read_waits_only_remainder() {
        let (mut c, mut d, clock) = setup(8);
        c.prefetch(&mut d, BlockAddr(1000));
        // Compute only 1 ms; the I/O (several ms) is still in flight.
        clock.charge(Cycles::from_ms(1));
        let t0 = clock.now();
        c.read(&mut d, BlockAddr(1000));
        let wait = clock.since(t0);
        // Strictly less than a cold random I/O would have been, and
        // nonzero because we arrived early.
        assert!(wait.get() > CACHE_HIT_COST.get());
        assert!(wait.as_ms() < 25.0);
        assert_eq!(c.stats().late_hits, 1);
    }

    #[test]
    fn prefetch_respects_quota() {
        let (mut c, mut d, _) = setup(8); // Quota: 2.
        assert_eq!(c.prefetch(&mut d, BlockAddr(1)), PrefetchOutcome::Issued);
        assert_eq!(c.prefetch(&mut d, BlockAddr(2)), PrefetchOutcome::Issued);
        // Quota full: request refused, queue stays with the caller.
        assert_eq!(c.prefetch(&mut d, BlockAddr(3)), PrefetchOutcome::NoRoom);
        assert_eq!(c.stats().prefetches, 2);
        // Consuming a prefetched block frees quota.
        c.read(&mut d, BlockAddr(1));
        assert_eq!(c.prefetch(&mut d, BlockAddr(3)), PrefetchOutcome::Issued);
    }

    #[test]
    fn prefetch_dedupes() {
        let (mut c, mut d, _) = setup(4);
        assert_eq!(c.prefetch(&mut d, BlockAddr(1)), PrefetchOutcome::Issued);
        assert_eq!(c.prefetch(&mut d, BlockAddr(1)), PrefetchOutcome::AlreadyCached);
    }

    #[test]
    fn lru_eviction_and_waste_accounting() {
        let (mut c, mut d, _) = setup(2);
        c.prefetch(&mut d, BlockAddr(1)); // Never read: waste when evicted.
        c.read(&mut d, BlockAddr(2));
        c.read(&mut d, BlockAddr(3)); // Evicts LRU = block 1.
        assert_eq!(c.stats().prefetch_waste, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.prefetched_unread(), 0);
    }

    #[test]
    fn write_through_updates_cache_and_disk() {
        let (mut c, mut d, _) = setup(4);
        let mut data = [0u8; 4096];
        data[10] = 42;
        c.write(&mut d, BlockAddr(5), &data);
        // Cache hit returns new data.
        assert_eq!(c.read(&mut d, BlockAddr(5))[10], 42);
        // Disk has it too.
        assert_eq!(d.read(BlockAddr(5))[10], 42);
    }

    #[test]
    fn sync_read_waits_for_busy_arm() {
        let (mut c, mut d, clock) = setup(8);
        // Queue a prefetch to a far block: the arm is busy for a while.
        c.prefetch(&mut d, BlockAddr(60_000));
        let busy_until = c.disk_busy_until;
        assert!(busy_until > clock.now());
        // A synchronous miss must wait for the arm first.
        let t0 = clock.now();
        c.read(&mut d, BlockAddr(500));
        assert!(clock.now() >= busy_until, "sync read waited for the arm");
        assert!(clock.since(t0) > Cycles::ZERO);
    }
}
