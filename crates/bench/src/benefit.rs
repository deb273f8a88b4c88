//! Cost-benefit figures (§4.1.1 and §4.2.2).
//!
//! - **Read-ahead crossover**: "the application will win if the cost of
//!   the read-ahead graft is less than the time the application spends
//!   between read requests" — the paper's threshold is the 107 µs safe
//!   path (and it notes summing a 4 KB array takes 137 µs). This figure
//!   sweeps the compute time between reads and reports the net win per
//!   read of the grafted random-access application over the ungrafted
//!   one, using the full stack (disk model, buffer cache, prefetch
//!   queue, transactional graft).
//! - **Eviction break-even**: "the cost of adding the graft is 316 us,
//!   while the benefit of avoiding a page fault is approximately 18 ms
//!   [...] The graft can disagree with the victim selection
//!   approximately 57 times for each I/O that we save."

use std::rc::Rc;

use vino_core::adapters::{share, RaGraftAdapter};
use vino_dev::Disk;
use vino_fs::{Fd, FileSystem};
use vino_sim::{Cycles, SplitMix64, VirtualClock};

use crate::render::{PathTable, Row};
use crate::world::{build, Variant};
use crate::{table3, table4};

/// Blocks in the 12 MB test file (§4.1.3).
const FILE_BLOCKS: usize = 3072;
/// Reads per sweep point (the paper uses 3000; 200 keeps the full sweep
/// fast while the trimmed mean stays stable).
const READS: usize = 200;

struct RaWorld {
    fs: FileSystem,
    fd: Fd,
    clock: Rc<VirtualClock>,
    graft: Option<vino_core::adapters::SharedGraft>,
}

fn make_ra_world(grafted: bool) -> RaWorld {
    // The graft world supplies engine + instance on a fresh clock; the
    // file system shares that clock.
    let w = build(table3::RA_GRAFT_SRC, 32 * 1024, Variant::Safe, 1);
    let clock = Rc::clone(&w.clock);
    let disk = Disk::new(vino_sim::Observer::new(Rc::clone(&clock)));
    let mut fs = FileSystem::format(disk, 64, 8);
    fs.create("db", (FILE_BLOCKS * 4096) as u64).expect("fits");
    let fd = fs.open("db").expect("exists");
    let graft = if grafted {
        let shared = share(w.graft);
        fs.set_ra_delegate(fd, Box::new(RaGraftAdapter::new(Rc::clone(&shared))))
            .expect("fd valid");
        Some(shared)
    } else {
        None
    };
    RaWorld { fs, fd, clock, graft }
}

/// Mean elapsed µs per (read + compute) iteration over a random access
/// sequence, with the application posting its next access in the shared
/// buffer before each read (§4.1.3's methodology).
fn elapsed_per_read(grafted: bool, compute_us: u64) -> f64 {
    let mut w = make_ra_world(grafted);
    let mut rng = SplitMix64::new(0xBEEF);
    let seq: Vec<u64> = rng
        .permutation(FILE_BLOCKS)
        .into_iter()
        .take(READS + 1)
        .map(|b| (b * 4096) as u64)
        .collect();
    let t0 = w.clock.now();
    for i in 0..READS {
        let cur = seq[i];
        let next = seq[i + 1];
        if let Some(g) = &w.graft {
            // The application places "the location and size of its
            // subsequent read in the shared buffer".
            let mut inst = g.borrow_mut();
            let mem = inst.mem();
            mem.graft_write_u32(1024, 2);
            mem.graft_write_u32(1028, cur as u32);
            mem.graft_write_u32(1032, next as u32);
        }
        w.fs.read(w.fd, cur, 4096).expect("in bounds");
        // Compute between reads.
        w.clock.charge(Cycles::from_us(compute_us));
    }
    w.clock.since(t0).as_us() / READS as f64
}

/// The read-ahead crossover figure: net win per read vs compute time.
pub fn readahead_crossover() -> PathTable {
    let mut rows = Vec::new();
    let mut crossover = None;
    for compute_us in (0..=250).step_by(25) {
        let plain = elapsed_per_read(false, compute_us);
        let grafted = elapsed_per_read(true, compute_us);
        let win = plain - grafted;
        if crossover.is_none() && win > 0.0 {
            crossover = Some(compute_us);
        }
        rows.push(Row::value(format!("compute {compute_us:>3} us: net win per read (us)"), win));
    }
    let note = match crossover {
        Some(c) => format!(
            "crossover between {} and {} us of compute (paper threshold: 107 us; \
             summing a 4KB array = 137 us)",
            c.saturating_sub(25),
            c
        ),
        None => "no crossover in sweep range".to_string(),
    };
    PathTable {
        id: "E3",
        title: "§4.1.1 Read-ahead cost-benefit crossover".to_string(),
        rows,
        notes: vec![note],
    }
}

/// The eviction break-even figure.
pub fn eviction_break_even(reps: usize) -> PathTable {
    let t4 = table4::run(reps);
    let path = |label: &str| {
        t4.rows.iter().find(|r| r.label == label).and_then(|r| r.elapsed_us).expect("row")
    };
    let disagreement_cost = path("Safe path") - path("Base path");
    let fault = vino_sim::costs::PAGE_FAULT_COST.as_us();
    let ratio = fault / disagreement_cost;
    PathTable {
        id: "E4",
        title: "§4.2.2 Eviction graft break-even".to_string(),
        rows: vec![
            Row::value("Cost of a graft disagreement (us)", disagreement_cost),
            Row::value("Benefit of an avoided page fault (us)", fault),
            Row::value("Disagreements per saved I/O", ratio),
        ],
        notes: vec!["paper: 316 us per disagreement, 18 ms per fault, ratio ~57".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grafted_random_reads_beat_default_when_compute_is_ample() {
        // With 250 us of compute per read the graft wins clearly.
        let plain = elapsed_per_read(false, 250);
        let grafted = elapsed_per_read(true, 250);
        assert!(grafted < plain, "grafted {grafted:.1} us/read must beat plain {plain:.1}");
    }

    #[test]
    fn default_policy_never_prefetches_random_reads() {
        let mut w = make_ra_world(false);
        let mut rng = SplitMix64::new(1);
        for _ in 0..20 {
            let b = rng.below(FILE_BLOCKS as u64) * 4096;
            w.fs.read(w.fd, b, 4096).unwrap();
        }
        assert_eq!(w.fs.stats().prefetches_issued, 0);
    }

    #[test]
    fn grafted_policy_prefetches_each_posted_block() {
        let w = elapsed_per_read(true, 100);
        let _ = w;
        // Covered by the crossover test below via win > 0; here just
        // confirm the world wires up: a single read issues a prefetch.
        let mut world = make_ra_world(true);
        let g = world.graft.clone().unwrap();
        {
            let mut inst = g.borrow_mut();
            let mem = inst.mem();
            mem.graft_write_u32(1024, 2);
            mem.graft_write_u32(1028, 0);
            mem.graft_write_u32(1032, 8 * 4096);
        }
        world.fs.read(world.fd, 0, 4096).unwrap();
        assert_eq!(world.fs.stats().prefetches_issued, 1);
    }

    #[test]
    fn crossover_near_the_paper_threshold() {
        // Net win at 0 us compute is negative (pure overhead); at
        // 250 us it is positive. The crossover sits near the safe-path
        // cost (paper: 107 us).
        let lo = elapsed_per_read(false, 0) - elapsed_per_read(true, 0);
        let hi = elapsed_per_read(false, 250) - elapsed_per_read(true, 250);
        assert!(lo < 0.0, "win at 0 compute = {lo}");
        assert!(hi > 0.0, "win at 250 compute = {hi}");
    }

    #[test]
    fn eviction_break_even_near_57() {
        let t = eviction_break_even(5);
        let ratio = t
            .rows
            .iter()
            .find(|r| r.label == "Disagreements per saved I/O")
            .and_then(|r| r.overhead_us)
            .unwrap();
        assert!((30.0..=110.0).contains(&ratio), "ratio {ratio} (paper 57)");
    }
}
