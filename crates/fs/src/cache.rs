//! The buffer cache, with asynchronous-completion modelling.
//!
//! Each cached block carries a `ready_at` timestamp. Synchronous reads
//! are ready immediately (the caller already paid the disk latency);
//! prefetched blocks become ready when the simulated disk arm gets to
//! them, on a separate *disk-busy* timeline that overlaps the caller's
//! computation. A later reader that arrives after `ready_at` hits for
//! free — the entire benefit case of the §4.1 read-ahead analysis — and
//! one that arrives early waits only for the remainder.
//!
//! Every operation costs the host O(1), independent of capacity:
//!
//! - **LRU order** is an intrusive doubly linked list threaded through
//!   the slot table. A touch moves the slot to the most-recent end, so
//!   the least-recent end is always the eviction victim.
//! - **The read-ahead footprint** (buffers holding prefetched but
//!   unread blocks) is a running count, not a scan.
//! - **Block bytes** live in out-of-line 4 KB frames, allocated the
//!   first time a slot is needed (never preallocated) and reused by the
//!   next insert once their block is evicted or invalidated. The disk
//!   reads straight into a frame ([`Disk::read_into`]) and
//!   [`BufferCache::read`] lends the frame out, so a miss or prefetch
//!   copies a block once.

use std::collections::HashMap;

use std::rc::Rc;
use vino_dev::disk::{BlockAddr, Disk};
use vino_sim::{Cycles, VirtualClock};

use crate::layout::BLOCK_SIZE;

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

/// End-of-list marker for the LRU links.
const NIL: u32 = u32::MAX;

/// One buffer: a cached block's metadata, its place in LRU order, and
/// the frame holding its bytes. A slot on the free list keeps its
/// frame for the next insert.
#[derive(Debug)]
struct Slot {
    addr: BlockAddr,
    ready_at: Cycles,
    /// For waste accounting: true until first read after prefetch.
    prefetched_unread: bool,
    /// Neighbour towards the least recently used end.
    older: u32,
    /// Neighbour towards the most recently used end.
    newer: u32,
    frame: Box<[u8; BLOCK_SIZE]>,
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
    /// Cached block → its slot.
    index: HashMap<BlockAddr, u32>,
    /// Every slot ever allocated, cached or free; at most `capacity`.
    slots: Vec<Slot>,
    /// Slots holding no block, whose frames the next inserts reuse.
    free: Vec<u32>,
    /// Least recently used cached slot: the next eviction victim.
    lru: u32,
    /// Most recently used cached slot.
    mru: u32,
    /// Cached slots with `prefetched_unread` set.
    unread: usize,
    /// When the disk arm becomes free for background work.
    disk_busy_until: Cycles,
    stats: CacheStats,
}

impl BufferCache {
    /// Creates a cache holding at most `capacity` blocks.
    pub fn new(clock: Rc<VirtualClock>, capacity: usize) -> BufferCache {
        assert!(capacity > 0, "cache needs at least one buffer");
        assert!(capacity < NIL as usize, "cache capacity overflows the slot index");
        BufferCache {
            clock,
            capacity,
            prefetch_quota: (capacity / 4).max(1),
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            lru: NIL,
            mru: NIL,
            unread: 0,
            disk_busy_until: Cycles::ZERO,
            stats: CacheStats::default(),
        }
    }

    /// Buffers currently holding prefetched-but-unread blocks.
    pub fn prefetched_unread(&self) -> usize {
        self.unread
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
        self.index.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Free buffer slots — the "memory available for read-ahead" that
    /// gates prefetch-queue draining (§4.1.2).
    pub fn free_slots(&self) -> usize {
        self.capacity - self.index.len().min(self.capacity)
    }

    /// Drops every cached block and rewinds the LRU order and the
    /// disk-busy timeline to their fresh-boot values. Part of the
    /// checkpoint quiesce: a restored kernel starts with a cold cache,
    /// so the capture side must go cold at the same instant for the two
    /// runs to stay byte-identical. Stats are left in place (they are
    /// monotone diagnostics, not replayed state). Frames stay allocated
    /// for reuse.
    pub fn invalidate_all(&mut self) {
        self.index.clear();
        self.free.clear();
        self.free.extend(0..self.slots.len() as u32);
        self.lru = NIL;
        self.mru = NIL;
        self.unread = 0;
        self.disk_busy_until = Cycles::ZERO;
    }

    /// Reads `addr` through the cache, charging the caller's clock for
    /// hit cost, residual prefetch wait, or a full synchronous I/O, and
    /// lends out the cached frame.
    pub fn read(&mut self, disk: &mut Disk, addr: BlockAddr) -> &[u8; BLOCK_SIZE] {
        let now = self.clock.now();
        if let Some(&i) = self.index.get(&addr) {
            self.touch(i);
            let ready = self.slots[i as usize].ready_at;
            if ready <= now {
                self.stats.hits += 1;
            } else {
                // In flight: wait out the remainder — the prefetch
                // started early, so the wait is shorter than a full I/O.
                self.stats.late_hits += 1;
                self.clock.advance_to(ready);
            }
            self.clock.charge(CACHE_HIT_COST);
            return &self.slots[i as usize].frame;
        }
        // Miss: synchronous disk read, full mechanical latency. The arm
        // is shared with background prefetch: wait for it if busy.
        self.stats.misses += 1;
        if self.disk_busy_until > now {
            self.clock.advance_to(self.disk_busy_until);
        }
        let i = self.insert(addr);
        let slot = &mut self.slots[i as usize];
        let cost = disk.read_into(addr, &mut slot.frame);
        self.clock.charge(cost);
        self.disk_busy_until = self.clock.now();
        slot.ready_at = self.disk_busy_until;
        &slot.frame
    }

    /// Issues a background prefetch of `addr` unless the block is
    /// already cached or the read-ahead quota is exhausted. Prefetch
    /// may recycle LRU buffers, but at most [`Self::prefetch_quota`]
    /// buffers hold unread prefetched data at any moment — the §4.1.2
    /// bound. The caller's clock is *not* charged — the I/O runs on the
    /// disk-busy timeline.
    pub fn prefetch(&mut self, disk: &mut Disk, addr: BlockAddr) -> PrefetchOutcome {
        if self.index.contains_key(&addr) {
            return PrefetchOutcome::AlreadyCached;
        }
        if self.unread >= self.prefetch_quota {
            return PrefetchOutcome::NoRoom;
        }
        let i = self.insert(addr);
        let slot = &mut self.slots[i as usize];
        let cost = disk.read_into(addr, &mut slot.frame);
        let ready = self.disk_busy_until.max(self.clock.now()) + cost;
        self.disk_busy_until = ready;
        slot.ready_at = ready;
        slot.prefetched_unread = true;
        self.unread += 1;
        self.stats.prefetches += 1;
        PrefetchOutcome::Issued
    }

    /// Writes `addr` through the cache to disk (write-through).
    pub fn write(&mut self, disk: &mut Disk, addr: BlockAddr, data: &[u8; BLOCK_SIZE]) {
        disk.write(addr, data);
        let i = match self.index.get(&addr) {
            Some(&i) => {
                self.touch(i);
                i
            }
            None => self.insert(addr),
        };
        let slot = &mut self.slots[i as usize];
        *slot.frame = *data;
        slot.ready_at = self.clock.now();
    }

    /// Drops a block from the cache (used by tests and invalidation).
    pub fn invalidate(&mut self, addr: BlockAddr) {
        if let Some(i) = self.index.remove(&addr) {
            self.unlink(i);
            if self.slots[i as usize].prefetched_unread {
                self.stats.prefetch_waste += 1;
                self.unread -= 1;
            }
            self.free.push(i);
        }
    }

    /// Claims a slot for uncached `addr` at the most recently used end,
    /// evicting the LRU block if the cache is full. The slot's frame
    /// is reused from an evicted or invalidated block when one is free
    /// and allocated otherwise; the caller fills it and sets
    /// `ready_at`.
    fn insert(&mut self, addr: BlockAddr) -> u32 {
        if self.index.len() >= self.capacity {
            let victim = self.slots[self.lru as usize].addr;
            self.invalidate(victim);
        }
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    addr,
                    ready_at: Cycles::ZERO,
                    prefetched_unread: false,
                    older: NIL,
                    newer: NIL,
                    frame: Box::new([0; BLOCK_SIZE]),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[i as usize];
        slot.addr = addr;
        slot.prefetched_unread = false;
        self.index.insert(addr, i);
        self.link_mru(i);
        i
    }

    /// Marks cached slot `i` used: moves it to the most recently used
    /// end and clears its prefetched-unread mark.
    fn touch(&mut self, i: u32) {
        if self.mru != i {
            self.unlink(i);
            self.link_mru(i);
        }
        let slot = &mut self.slots[i as usize];
        if slot.prefetched_unread {
            slot.prefetched_unread = false;
            self.unread -= 1;
        }
    }

    fn link_mru(&mut self, i: u32) {
        let old_mru = self.mru;
        let slot = &mut self.slots[i as usize];
        slot.older = old_mru;
        slot.newer = NIL;
        match old_mru {
            NIL => self.lru = i,
            m => self.slots[m as usize].newer = i,
        }
        self.mru = i;
    }

    fn unlink(&mut self, i: u32) {
        let Slot { older, newer, .. } = self.slots[i as usize];
        match older {
            NIL => self.lru = newer,
            o => self.slots[o as usize].newer = newer,
        }
        match newer {
            NIL => self.mru = older,
            n => self.slots[n as usize].older = older,
        }
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

    /// The scan-based LRU this cache replaced, kept as the reference
    /// model: entries hold their bytes inline, eviction scans for the
    /// smallest stamp, and the read-ahead footprint is a count over
    /// every entry.
    struct ScanCache {
        clock: Rc<VirtualClock>,
        capacity: usize,
        prefetch_quota: usize,
        entries: HashMap<BlockAddr, ScanEntry>,
        tick: u64,
        disk_busy_until: Cycles,
        stats: CacheStats,
    }

    struct ScanEntry {
        data: [u8; 4096],
        ready_at: Cycles,
        prefetched_unread: bool,
        stamp: u64,
    }

    impl ScanCache {
        fn new(clock: Rc<VirtualClock>, capacity: usize) -> ScanCache {
            ScanCache {
                clock,
                capacity,
                prefetch_quota: (capacity / 4).max(1),
                entries: HashMap::new(),
                tick: 0,
                disk_busy_until: Cycles::ZERO,
                stats: CacheStats::default(),
            }
        }

        fn prefetched_unread(&self) -> usize {
            self.entries.values().filter(|e| e.prefetched_unread).count()
        }

        fn invalidate_all(&mut self) {
            self.entries.clear();
            self.tick = 0;
            self.disk_busy_until = Cycles::ZERO;
        }

        fn read(&mut self, disk: &mut Disk, addr: BlockAddr) -> [u8; 4096] {
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
                    self.stats.late_hits += 1;
                    let ready = e.ready_at;
                    self.clock.advance_to(ready);
                    self.clock.charge(CACHE_HIT_COST);
                }
                return self.entries[&addr].data;
            }
            self.stats.misses += 1;
            if self.disk_busy_until > now {
                self.clock.advance_to(self.disk_busy_until);
            }
            let data = disk.read(addr);
            self.disk_busy_until = self.clock.now();
            self.insert(addr, data, self.clock.now(), false);
            data
        }

        fn prefetch(&mut self, disk: &mut Disk, addr: BlockAddr) -> PrefetchOutcome {
            if self.entries.contains_key(&addr) {
                return PrefetchOutcome::AlreadyCached;
            }
            if self.prefetched_unread() >= self.prefetch_quota {
                return PrefetchOutcome::NoRoom;
            }
            let mut data = [0; 4096];
            let cost = disk.read_into(addr, &mut data);
            let start = self.disk_busy_until.max(self.clock.now());
            let ready = start + cost;
            self.disk_busy_until = ready;
            self.insert(addr, data, ready, true);
            self.stats.prefetches += 1;
            PrefetchOutcome::Issued
        }

        fn write(&mut self, disk: &mut Disk, addr: BlockAddr, data: &[u8; 4096]) {
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

        fn invalidate(&mut self, addr: BlockAddr) {
            if let Some(e) = self.entries.remove(&addr) {
                if e.prefetched_unread {
                    self.stats.prefetch_waste += 1;
                }
            }
        }

        fn insert(
            &mut self,
            addr: BlockAddr,
            data: [u8; 4096],
            ready_at: Cycles,
            prefetched: bool,
        ) {
            while self.entries.len() >= self.capacity {
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
                ScanEntry { data, ready_at, prefetched_unread: prefetched, stamp: self.tick },
            );
        }
    }

    /// Seeded random sequences of every operation, with clock charges
    /// between them, must leave the O(1) cache and the scan-based
    /// reference indistinguishable after every step: same bytes, same
    /// clock, same counters, same occupancy, same prefetch outcomes.
    #[test]
    fn matches_scan_based_reference() {
        let mut seen = CacheStats::default();
        for cap in 1..=8usize {
            for seed in 0..24u64 {
                let mut rng = vino_sim::SplitMix64::new(seed << 8 | cap as u64);
                let (mut c, mut d, clock) = setup(cap);
                let ref_clock = VirtualClock::new();
                let mut r = ScanCache::new(Rc::clone(&ref_clock), cap);
                let mut rd = Disk::new(vino_sim::Observer::new(Rc::clone(&ref_clock)));
                // A few more blocks than buffers, spread across the
                // platter so access costs vary.
                let span = 2 * cap as u64 + 3;
                for step in 0..400u64 {
                    let addr = BlockAddr(rng.below(span) * 4099 % d.block_count());
                    let ctx = format!("cap {cap} seed {seed} step {step} {addr:?}");
                    match rng.below(100) {
                        0..=34 => assert_eq!(c.read(&mut d, addr), &r.read(&mut rd, addr), "{ctx}"),
                        35..=64 => {
                            assert_eq!(c.prefetch(&mut d, addr), r.prefetch(&mut rd, addr), "{ctx}")
                        }
                        65..=79 => {
                            let mut data = [0u8; 4096];
                            data[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                            data[4088..].copy_from_slice(&step.to_le_bytes());
                            c.write(&mut d, addr, &data);
                            r.write(&mut rd, addr, &data);
                        }
                        80..=89 => {
                            c.invalidate(addr);
                            r.invalidate(addr);
                        }
                        90..=91 => {
                            c.invalidate_all();
                            r.invalidate_all();
                        }
                        _ => {}
                    }
                    let think = Cycles::from_us(rng.below(20_000));
                    clock.charge(think);
                    ref_clock.charge(think);
                    assert_eq!(clock.now(), ref_clock.now(), "{ctx}");
                    assert_eq!(c.stats(), r.stats, "{ctx}");
                    assert_eq!(c.len(), r.entries.len(), "{ctx}");
                    assert_eq!(c.prefetched_unread(), r.prefetched_unread(), "{ctx}");
                    assert_eq!(d.stats(), rd.stats(), "{ctx}");
                }
                let s = c.stats();
                seen.hits += s.hits;
                seen.late_hits += s.late_hits;
                seen.misses += s.misses;
                seen.prefetches += s.prefetches;
                seen.prefetch_waste += s.prefetch_waste;
            }
        }
        // Every path was exercised, so agreement means something.
        assert!(seen.hits > 0 && seen.late_hits > 0 && seen.misses > 0, "{seen:?}");
        assert!(seen.prefetches > 0 && seen.prefetch_waste > 0, "{seen:?}");
    }
}
