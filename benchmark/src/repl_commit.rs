//! `repl-commit`: journaled writes on a primary, shipped to a replica
//! over a lossy wire.
//!
//! A `ReplHarness` runs with frame drop, reorder and ack loss at fixed
//! rates and every crash site off. Each op is one write through
//! `primary().fs` (one journal commit) followed by one `ship_round()`,
//! the two calls timed apart. An op's latency runs from its write call
//! to the cumulative ack that covers its journal record. At the end the
//! wire is drained to zero lag and the two nodes' committed states must
//! match.

use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use vino_fs::BLOCK_SIZE;
use vino_repl::{committed_state_fingerprint, ReplConfig, ReplHarness};
use vino_sim::metrics::Counter;
use vino_sim::{FaultSite, SplitMix64};

use crate::episode::{quantile_sorted, ratio, us, Episode};
use crate::spans::{span, Tracer};

/// Committed writes per episode.
pub const WRITES: usize = 6_000;
/// Blocks in the written file.
const FILE_BLOCKS: u64 = 64;
/// Distinct payloads per seed.
const PAYLOADS: usize = 16;
/// Wire fault rates, one in this many frames.
const DROP_ONE_IN: u64 = 40;
const REORDER_ONE_IN: u64 = 40;
const ACK_LOSS_ONE_IN: u64 = 40;
/// Drain rounds after which a wire that has not converged is a failure.
const MAX_DRAIN_ROUNDS: u64 = 10_000;

/// The seeded input: (block, payload index) per write, the payloads,
/// and the fault-plane seed.
pub struct Inputs {
    writes: Vec<(u32, u8)>,
    payloads: Vec<Vec<u8>>,
    wire_seed: u64,
}

/// Generates the inputs for `seed`.
pub fn generate(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0x2E_C0DE);
    let writes = (0..WRITES)
        .map(|_| (rng.below(FILE_BLOCKS) as u32, rng.below(PAYLOADS as u64) as u8))
        .collect();
    let payloads =
        (0..PAYLOADS).map(|_| (0..BLOCK_SIZE).map(|_| rng.next_u64() as u8).collect()).collect();
    Inputs { writes, payloads, wire_seed: rng.next_u64() }
}

/// Runs one episode over `inp`.
pub fn episode(inp: &Inputs, traced: bool) -> Episode {
    let mut ep = Episode::default();
    let t_setup = Instant::now();
    let mut h = ReplHarness::new(inp.wire_seed, ReplConfig::default());
    let fp = Rc::clone(h.fault_plane());
    fp.set_rate(FaultSite::ReplShipDrop, 1, DROP_ONE_IN);
    fp.set_rate(FaultSite::ReplShipReorder, 1, REORDER_ONE_IN);
    fp.set_rate(FaultSite::ReplAckLoss, 1, ACK_LOSS_ONE_IN);
    let fd = {
        let mut fs = h.primary().fs.borrow_mut();
        fs.create("bench.dat", FILE_BLOCKS * BLOCK_SIZE as u64).expect("file fits the volume");
        fs.open("bench.dat").expect("just created")
    };
    ep.setup_s = t_setup.elapsed().as_secs_f64();

    // ---- Timed phase. ----
    let clock = Rc::clone(h.clock());
    let mp = Rc::clone(h.metrics_plane());
    let mut tr = traced.then(|| Tracer::new(Rc::clone(&clock), vec![Rc::clone(&mp)]));
    let ledger0 = tr.as_ref().map(|t| t.ledger_totals());
    if let Some(t) = tr.as_mut() {
        t.open_root("repl-commit");
    }
    let disk0 = h.primary().fs.borrow().disk_stats();
    let commits0 = mp.get(Counter::FsJournalCommits);
    let n = inp.writes.len();
    let mut pending: VecDeque<(u64, u64)> = VecDeque::new(); // (journal seq, write start)
    let mut lat = Vec::with_capacity(n);
    let mut lag = Vec::with_capacity(n);
    let (mut shipped, mut retransmits, mut applied, mut dropped, mut write_errors) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut deaths = 0u64;
    let t0 = clock.now().get();
    let wall = Instant::now();
    let mut round = |h: &mut ReplHarness, tr: &mut Option<Tracer>, name: &'static str| {
        let r = span(tr, name, || h.ship_round());
        shipped += r.shipped;
        retransmits += r.retransmits;
        applied += r.applied;
        dropped += r.dropped;
        deaths += (r.death != vino_repl::NodeDeath::None) as u64;
    };
    let complete = |h: &ReplHarness, pending: &mut VecDeque<(u64, u64)>, lat: &mut Vec<u64>| {
        let now = clock.now().get();
        while pending.front().is_some_and(|&(seq, _)| seq <= h.acked()) {
            let (_, start) = pending.pop_front().expect("front checked");
            lat.push(now - start);
        }
    };
    for &(blk, p) in &inp.writes {
        let v0 = clock.now().get();
        let data = &inp.payloads[p as usize];
        let r = span(&mut tr, "fs.write", || {
            h.primary().fs.borrow_mut().write(fd, blk as u64 * BLOCK_SIZE as u64, data)
        });
        if r.is_err() {
            write_errors += 1;
        } else {
            pending.push_back((h.primary_committed(), v0));
        }
        round(&mut h, &mut tr, "repl.ship_round");
        lag.push(h.lag());
        complete(&h, &mut pending, &mut lat);
    }
    let mut drain_rounds = 0u64;
    while h.lag() > 0 && drain_rounds < MAX_DRAIN_ROUNDS {
        round(&mut h, &mut tr, "repl.drain_round");
        drain_rounds += 1;
        complete(&h, &mut pending, &mut lat);
    }
    ep.timed_s = wall.elapsed().as_secs_f64();
    let t1 = clock.now().get();
    if let Some(t) = tr.as_mut() {
        t.close_root();
    }

    ep.attempted = n as u64;
    ep.failed = write_errors + pending.len() as u64;
    ep.busy = t1 - t0;
    ep.elapsed = t1 - t0;
    ep.check("every write committed", write_errors == 0);
    ep.check("the wire drained to zero lag", h.lag() == 0 && pending.is_empty());
    ep.check("no node died", deaths == 0);
    ep.check("replica applied every committed record", h.applied() == h.primary_committed());
    let p_fp = committed_state_fingerprint(&h.primary().fs.borrow().disk_image());
    let r_fp = committed_state_fingerprint(&h.replica().fs.borrow().disk_image());
    ep.check("committed-state fingerprints match after the drain", p_fp == r_fp);
    let d = h.primary().fs.borrow().disk_stats();
    ep.layer.insert("repl.retransmit_share".into(), ratio(retransmits as f64, shipped as f64));
    ep.layer.insert("repl.useful_ratio".into(), ratio(applied as f64, shipped as f64));
    lag.sort_unstable();
    ep.layer.insert("repl.lag_p99".into(), quantile_sorted(&lag, 0.99) as f64);
    ep.layer.insert(
        "fs.journal.commits_per_op".into(),
        (mp.get(Counter::FsJournalCommits) - commits0) as f64 / n as f64,
    );
    ep.layer.insert(
        "dev.disk.busy_share".into(),
        ratio((d.busy.get() - disk0.busy.get()) as f64, ep.elapsed as f64),
    );
    ep.layer.insert("dev.disk.seeks_per_op".into(), (d.seeks - disk0.seeks) as f64 / n as f64);
    ep.layer.insert("dev.disk.writes_per_op".into(), (d.writes - disk0.writes) as f64 / n as f64);
    ep.notes.push(format!(
        "{n} writes: frames shipped {shipped} (retransmits {retransmits}, dropped {dropped}), \
         records applied {applied}, drain rounds {drain_rounds}, fingerprint {p_fp:016x}"
    ));
    ep.lat = lat;
    if let Some(t) = &tr {
        let aggs = t.aggregate();
        let w = &aggs["fs.write"];
        let s = &aggs["repl.ship_round"];
        ep.layer.insert("fs.write.host_ns".into(), w.host_mean_ns());
        ep.layer.insert("fs.write.vus".into(), us(w.vcycles) / w.calls as f64);
        ep.layer.insert("repl.ship_round.host_us".into(), s.host_mean_ns() / 1e3);
        ep.layer.insert("repl.ship_round.vus".into(), us(s.vcycles) / s.calls as f64);
        if let Err(e) = t.reconcile(t0, t1, ledger0.expect("traced")) {
            crate::diverged("repl-commit", &e);
        }
    }
    ep.tracer = tr;
    ep.seal();
    ep
}
