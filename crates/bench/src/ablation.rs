//! Design-choice ablations beyond the paper's tables.
//!
//! - **Global eviction policy** (A1): §4.2 notes traditional kernels
//!   use "some variant of the clock algorithm"; VINO's level-1 policy
//!   is itself a choice. This ablation drives both implementations with
//!   the same workload mix and compares fault counts.
//! - **Lock time-out sweep** (A2): §4.5 — "We currently schedule
//!   time-outs on system-clock boundaries, which occur every 10 ms.
//!   [...] This is obviously too coarse grain for some resources, and
//!   we expect to experimentally determine a more appropriate timing as
//!   the system matures." The sweep measures, for a hoarding lock
//!   holder, how long a waiter stalls as a function of the configured
//!   class time-out — exposing the 10 ms quantisation floor.

use std::rc::Rc;

use vino_mem::{GlobalPolicy, MemorySystem};
use vino_sim::{SplitMix64, ThreadId, VirtualClock};
use vino_txn::locks::LockClass;
use vino_txn::manager::TxnManager;

use crate::render::{PathTable, Row};

/// Faults incurred by a hot-set + scan workload under `policy`. The
/// workload is fixed (8 hot pages, a 768-page cold universe) so fault
/// counts are comparable across capacities.
pub fn eviction_faults(policy: GlobalPolicy, capacity: usize, rounds: usize) -> u64 {
    let mut m = MemorySystem::with_policy(VirtualClock::new(), capacity, policy);
    let vas = m.create_vas();
    let mut rng = SplitMix64::new(0xA11A);
    for _ in 0..rounds {
        // Hot set, touched every round.
        for hot in 0..8u64 {
            m.touch(vas, hot);
        }
        // Cold random traffic over a fixed universe.
        for _ in 0..64 {
            m.touch(vas, 1000 + rng.below(768));
        }
    }
    m.stats().faults
}

/// The A1 ablation table.
pub fn eviction_policy() -> PathTable {
    let mut rows = Vec::new();
    for cap in [16usize, 64, 256] {
        let lru = eviction_faults(GlobalPolicy::Lru, cap, 20);
        let clock = eviction_faults(GlobalPolicy::Clock, cap, 20);
        rows.push(Row::value(format!("LRU faults,   {cap} frames"), lru as f64));
        rows.push(Row::value(format!("Clock faults, {cap} frames"), clock as f64));
    }
    PathTable {
        id: "A1",
        title: "Ablation: global eviction policy (LRU vs clock)".to_string(),
        rows,
        notes: vec!["same hot-set + scan workload; the two level-1 policies the level-2 \
             graft hook composes with (§4.2)"
            .into()],
    }
}

/// For a hoarding holder and a waiter, the waiter's stall time (µs)
/// until it acquires a lock of the given time-out class.
pub fn waiter_stall_us(timeout_us: u32) -> f64 {
    let clock = VirtualClock::new();
    let mut m = TxnManager::new(vino_sim::Observer::new(Rc::clone(&clock)));
    let lock = m.create_lock(LockClass::Custom(timeout_us));
    let hoarder = ThreadId(1);
    let waiter = ThreadId(2);
    m.begin(hoarder);
    m.lock(lock, hoarder);
    let t0 = clock.now();
    let (ok, _) = m.lock_blocking(lock, waiter, 5);
    assert!(ok, "waiter must eventually acquire");
    clock.since(t0).as_us()
}

/// The A2 sweep table.
pub fn lock_timeout_sweep() -> PathTable {
    let mut rows = Vec::new();
    for timeout_us in [100u32, 1_000, 5_000, 10_000, 50_000, 200_000] {
        let stall = waiter_stall_us(timeout_us);
        rows.push(Row::value(format!("timeout {:>6} us -> waiter stall (us)", timeout_us), stall));
    }
    PathTable {
        id: "A2",
        title: "Ablation: lock time-out vs waiter stall (§4.5)".to_string(),
        rows,
        notes: vec!["time-outs quantise to 10 ms clock ticks: sub-tick time-outs all stall \
             ~one tick; past the tick the stall tracks the configured value + up to \
             one tick (the paper's 10-20 ms observation)"
            .into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_policies_complete_the_workload() {
        let lru = eviction_faults(GlobalPolicy::Lru, 32, 10);
        let clock = eviction_faults(GlobalPolicy::Clock, 32, 10);
        assert!(lru > 0 && clock > 0);
        // More memory ⇒ fewer faults, under both policies.
        assert!(eviction_faults(GlobalPolicy::Lru, 256, 10) < lru);
        assert!(eviction_faults(GlobalPolicy::Clock, 256, 10) < clock);
    }

    #[test]
    fn sub_tick_timeouts_floor_at_one_tick() {
        // 100 us and 5 ms time-outs both stall ~10 ms: the paper's
        // quantisation complaint, measured.
        let t100us = waiter_stall_us(100);
        let t5ms = waiter_stall_us(5_000);
        assert!((9_000.0..=21_000.0).contains(&t100us), "stall {t100us}");
        assert!((9_000.0..=21_000.0).contains(&t5ms), "stall {t5ms}");
    }

    #[test]
    fn long_timeouts_track_configured_value() {
        let t200ms = waiter_stall_us(200_000);
        assert!(
            (200_000.0..=215_000.0).contains(&t200ms),
            "stall {t200ms} should be ~200ms + <=1 tick"
        );
        // Monotone in the configured time-out.
        assert!(waiter_stall_us(50_000) < t200ms);
    }
}
