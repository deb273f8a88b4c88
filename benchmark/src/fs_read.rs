//! `fs-read`: the Table 3 scenario end to end.
//!
//! A 12 MB file (3072 blocks, twelve times the 256-block buffer cache)
//! is pre-filled with a per-block stamp. Before each read the
//! application posts its current and next offsets in the read-ahead
//! graft's shared buffer, and the graft prefetches the next one. A
//! seeded share of reads goes to a hot subset that fits in the cache.
//! 137 µs of virtual application compute separates reads; an op's
//! latency is its `FileSystem::read` alone.

use std::rc::Rc;
use std::time::Instant;

use vino_bench::table3;
use vino_core::adapters::APP_BUF;
use vino_core::{InstallOpts, Kernel};
use vino_fs::BLOCK_SIZE;
use vino_rm::{Limits, ResourceKind};
use vino_sim::metrics::MetricsPlane;
use vino_sim::trace::TracePlane;
use vino_sim::{Cycles, SplitMix64};
use vino_txn::locks::LockClass;

use crate::episode::{ratio, us, Episode};
use crate::spans::{span, Tracer};

/// Reads per episode.
pub const READS: usize = 30_000;
/// File size in blocks.
const FILE_BLOCKS: u64 = 3072;
/// Hot-subset size in blocks (the cache holds 256).
const HOT_BLOCKS: u64 = 128;
/// Per-mille of reads that go to the hot subset.
const HOT_PER_MILLE: u64 = 350;
/// Application compute between reads, virtual µs (§4.1.3).
const COMPUTE_US: u64 = 137;
/// Blocks per pre-fill write.
const FILL_CHUNK: u64 = 16;

/// The seeded input: block numbers in read order, plus the stamp key.
pub struct Inputs {
    blocks: Vec<u32>,
    key: u64,
}

/// Generates the inputs for `seed`.
pub fn generate(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0xF5_4EAD);
    let perm = rng.permutation(FILE_BLOCKS as usize);
    let hot = &perm[..HOT_BLOCKS as usize];
    let blocks = (0..READS)
        .map(|_| {
            if rng.below(1000) < HOT_PER_MILLE {
                hot[rng.below(HOT_BLOCKS) as usize] as u32
            } else {
                rng.below(FILE_BLOCKS) as u32
            }
        })
        .collect();
    Inputs { blocks, key: rng.next_u64() }
}

/// The stamp every byte-range check compares against.
fn stamp(key: u64, lbn: u64) -> u64 {
    let mut r = SplitMix64::new(key ^ lbn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next_u64()
}

/// Runs one episode over `inp`.
pub fn episode(inp: &Inputs, traced: bool) -> Episode {
    let mut ep = Episode::default();
    let t_setup = Instant::now();
    let kernel = Kernel::boot();
    let mut planes = Vec::new();
    if traced {
        let tp = TracePlane::with_capacity(Rc::clone(&kernel.clock), 1 << 14);
        kernel.attach_trace_plane(tp).expect("fresh kernel");
        let mp = MetricsPlane::new(Rc::clone(&kernel.clock));
        kernel.attach_metrics_plane(Rc::clone(&mp)).expect("fresh kernel");
        planes.push(mp);
    }
    let app = kernel.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let thread = kernel.spawn_thread("reader");
    kernel.engine.register_lock(LockClass::SharedBuffer);
    let fd = {
        let mut fs = kernel.fs.borrow_mut();
        fs.create("db", FILE_BLOCKS * BLOCK_SIZE as u64).expect("12 MB file fits the volume");
        let fd = fs.open("db").expect("just created");
        let mut buf = vec![0u8; (FILL_CHUNK as usize) * BLOCK_SIZE];
        for chunk in 0..FILE_BLOCKS / FILL_CHUNK {
            for b in 0..FILL_CHUNK {
                let lbn = chunk * FILL_CHUNK + b;
                let s = stamp(inp.key, lbn).to_le_bytes();
                let blk = &mut buf[b as usize * BLOCK_SIZE..(b as usize + 1) * BLOCK_SIZE];
                blk[..8].copy_from_slice(&s);
                blk[BLOCK_SIZE - 8..].copy_from_slice(&s);
            }
            fs.write(fd, chunk * FILL_CHUNK * BLOCK_SIZE as u64, &buf).expect("pre-fill write");
        }
        fd
    };
    let t = Instant::now();
    let image =
        kernel.compile_graft("ra-graft", table3::RA_GRAFT_SRC).expect("read-ahead graft compiles");
    ep.compile_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    let t = Instant::now();
    let opts = InstallOpts { seg_size: 8192, ..InstallOpts::default() };
    let ra =
        kernel.install_ra_graft(fd, &image, app, thread, &opts).expect("read-ahead graft installs");
    ep.install_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    // The shared pattern buffer holds two entries: this read, the next.
    ra.borrow_mut().mem().graft_write_u32(APP_BUF, 2);
    ep.setup_s = t_setup.elapsed().as_secs_f64();

    // ---- Timed phase. ----
    let clock = Rc::clone(&kernel.clock);
    let mut tr = traced.then(|| Tracer::new(Rc::clone(&clock), planes.clone()));
    let ledger0 = tr.as_ref().map(|t| t.ledger_totals());
    if let Some(t) = tr.as_mut() {
        t.open_root("fs-read");
    }
    let cache0 = kernel.fs.borrow().cache_stats();
    let disk0 = kernel.fs.borrow().disk_stats();
    let n = inp.blocks.len();
    let mut lat = Vec::with_capacity(n);
    let (mut busy, mut compute, mut bad) = (0u64, 0u64, 0u64);
    let t0 = clock.now().get();
    let wall = Instant::now();
    for (i, &lbn) in inp.blocks.iter().enumerate() {
        let off = lbn as u64 * BLOCK_SIZE as u64;
        let next = inp.blocks.get(i + 1).map_or(off, |&b| b as u64 * BLOCK_SIZE as u64);
        {
            let mut g = ra.borrow_mut();
            let mem = g.mem();
            mem.graft_write_u32(APP_BUF + 4, off as u32);
            mem.graft_write_u32(APP_BUF + 8, next as u32);
        }
        let v0 = clock.now().get();
        let data =
            span(&mut tr, "fs.read", || kernel.fs.borrow_mut().read(fd, off, BLOCK_SIZE as u64));
        let v1 = clock.now().get();
        lat.push(v1 - v0);
        busy += v1 - v0;
        let s = stamp(inp.key, lbn as u64).to_le_bytes();
        let ok =
            data.is_ok_and(|d| d.len() == BLOCK_SIZE && d[..8] == s && d[BLOCK_SIZE - 8..] == s);
        if !ok {
            bad += 1;
        }
        clock.charge(Cycles::from_us(COMPUTE_US));
        compute += Cycles::from_us(COMPUTE_US).get();
        if let Some(t) = tr.as_mut() {
            t.mark("app.compute", v1, clock.now().get());
        }
    }
    ep.timed_s = wall.elapsed().as_secs_f64();
    let t1 = clock.now().get();
    if let Some(t) = tr.as_mut() {
        t.close_root();
    }

    ep.attempted = n as u64;
    ep.failed = bad;
    ep.busy = busy;
    ep.compute = compute;
    ep.elapsed = t1 - t0;
    ep.lat = lat;
    ep.check("every read returned its block's stamp", bad == 0);
    ep.check("read-ahead graft alive at the end", !ra.borrow().is_dead());
    let c = kernel.fs.borrow().cache_stats();
    let d = kernel.fs.borrow().disk_stats();
    let (hits, late, misses) =
        (c.hits - cache0.hits, c.late_hits - cache0.late_hits, c.misses - cache0.misses);
    let lookups = (hits + late + misses) as f64;
    let prefetches = c.prefetches - cache0.prefetches;
    let waste = c.prefetch_waste - cache0.prefetch_waste;
    ep.layer.insert("fs.cache.hit_ratio".into(), ratio(hits as f64, lookups));
    ep.layer.insert("fs.cache.late_hit_ratio".into(), ratio(late as f64, lookups));
    ep.layer
        .insert("fs.prefetch.useful_ratio".into(), 1.0 - ratio(waste as f64, prefetches as f64));
    ep.layer.insert(
        "dev.disk.busy_share".into(),
        ratio((d.busy.get() - disk0.busy.get()) as f64, ep.elapsed as f64),
    );
    ep.layer.insert("dev.disk.seeks_per_op".into(), (d.seeks - disk0.seeks) as f64 / n as f64);
    ep.layer.insert("dev.disk.writes_per_op".into(), (d.writes - disk0.writes) as f64 / n as f64);
    ep.notes.push(format!(
        "{n} reads of one block: cache hits {hits}, late hits {late}, misses {misses}; \
         prefetches {prefetches}, wasted {waste}; disk seeks {}",
        d.seeks - disk0.seeks
    ));
    if let Some(t) = &tr {
        let aggs = t.aggregate();
        let read = &aggs["fs.read"];
        ep.layer.insert("fs.read.host_ns".into(), read.host_mean_ns());
        ep.layer.insert("fs.read.own_vus".into(), us(read.own_cycles()) / n as f64);
        if let Err(e) = t.reconcile(t0, t1, ledger0.expect("traced")) {
            crate::diverged("fs-read", &e);
        }
    }
    ep.tracer = tr;
    ep.seal();
    ep
}
