//! `graft-mix`: the paper's four grafts (Tables 3–6) installed on the
//! safe (MiSFIT) path in one kernel and invoked back to back, one caller,
//! in a seeded order.
//!
//! Each op is one request down a graft's path, modelled as the paper's
//! tables model its safe path: the surrounding kernel work
//! (`kernel.path`: the eviction machinery, the context-switch pair, the
//! L1 misses of the encryption buffer), then the graft dispatch
//! (`core.invoke.*`: indirection, the transactional invocation and the
//! kernel's result check). A seeded share of benign invocations runs
//! `CommitMode::AbortAtEnd`, and an uninstrumented wild-store graft is
//! revived after each kill, so the abort, undo and trap paths run beside
//! commits.

use std::rc::Rc;
use std::time::Instant;

use vino_bench::{table3, table4, table5, table6};
use vino_core::adapters::{SharedGraft, STREAM_IN, STREAM_OUT};
use vino_core::engine::{AbortedWhy, CommitMode, InvokeOutcome};
use vino_core::kernel::point_names;
use vino_core::{InstallOpts, Kernel};
use vino_rm::{Limits, ResourceKind};
use vino_sim::metrics::{Component, MetricsPlane};
use vino_sim::trace::TracePlane;
use vino_sim::{costs, Cycles, SplitMix64};
use vino_txn::locks::LockClass;

use crate::episode::{quantile_sorted, ratio, us, Episode};
use crate::spans::{span, Tracer};

/// Invocations per episode.
pub const OPS: usize = 8_000;
/// Per-mille weights of the four grafts and the wild store, in
/// [`Kind`] order. Chosen so that neither the interpreted encryption
/// loop nor the envelope-bound small grafts dominate host time (the
/// traced report prints each one's share).
const WEIGHTS: [u64; 5] = [420, 120, 370, 70, 20];
/// One benign invocation in this many runs `CommitMode::AbortAtEnd`.
const ABORT_ONE_IN: u64 = 16;
/// Inclusive range of the scheduler's process-list length (Table 5: 64).
const SCHED_LIST: (u64, u64) = (40, 88);
/// Inclusive range of encrypted bytes (Table 6: 8192).
const ENCRYPT_LEN: (u64, u64) = (4096, 8192);
/// Encryption input buffers generated per seed.
const BUFFERS: usize = 4;
/// The paper's Safe column (µs), Tables 3–6.
pub const PAPER_SAFE_US: [f64; 4] = [107.0, 355.0, 208.0, 546.0];
/// Table 3's matched pattern index.
const RA_PAPER_INDEX: u32 = 8;

/// The graft an op dispatches to.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table 3 read-ahead.
    Ra,
    /// Table 4 page eviction.
    Evict,
    /// Table 5 schedule delegate.
    Sched,
    /// Table 6 encryption.
    Encrypt,
    /// An uninstrumented wild store (traps under SFI every time).
    Wild,
}

/// Short names, in [`Kind`] order.
pub const KIND_NAMES: [&str; 5] = ["ra", "evict", "sched", "encrypt", "wild"];
const SPAN_NAMES: [&str; 5] = [
    "core.invoke.ra",
    "core.invoke.evict",
    "core.invoke.sched",
    "core.invoke.encrypt",
    "core.invoke.wild",
];

/// One generated op.
#[derive(Clone, Copy)]
pub struct Call {
    kind: Kind,
    abort: bool,
    /// Read-ahead: pattern index matched; eviction: pinned victim index;
    /// scheduling: process-list length; encryption: bytes to encrypt.
    arg: u32,
    /// Encryption input buffer, and the scheduler's chosen thread.
    buffer: u8,
}

impl Call {
    /// The call that runs `kind`'s scenario exactly as its paper table
    /// measures it.
    fn paper(kind: Kind) -> Call {
        let arg = match kind {
            Kind::Ra => RA_PAPER_INDEX,
            Kind::Evict | Kind::Wild => 0,
            Kind::Sched => table5::PROC_LIST as u32,
            Kind::Encrypt => table6::PAYLOAD as u32,
        };
        Call { kind, abort: false, arg, buffer: 0 }
    }
}

/// The seeded input: the op sequence plus the encryption buffers.
pub struct Inputs {
    calls: Vec<Call>,
    buffers: Vec<Vec<u8>>,
}

/// Generates the inputs for `seed`.
pub fn generate(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0x6_4AF7);
    let total: u64 = WEIGHTS.iter().sum();
    let kinds = [Kind::Ra, Kind::Evict, Kind::Sched, Kind::Encrypt, Kind::Wild];
    let calls = (0..OPS)
        .map(|_| {
            let mut r = rng.below(total);
            let mut k = 0;
            while r >= WEIGHTS[k] {
                r -= WEIGHTS[k];
                k += 1;
            }
            let kind = kinds[k];
            let abort = kind != Kind::Wild && rng.below(ABORT_ONE_IN) == 0;
            let arg = match kind {
                Kind::Ra => rng.below(PATTERN_LEN as u64 - 1) as u32,
                Kind::Evict => rng.below(table4::PINNED as u64) as u32,
                Kind::Sched => rng.range(SCHED_LIST.0, SCHED_LIST.1) as u32,
                Kind::Encrypt => 4 * rng.range(ENCRYPT_LEN.0 / 4, ENCRYPT_LEN.1 / 4) as u32,
                Kind::Wild => 0,
            };
            Call { kind, abort, arg, buffer: rng.below(BUFFERS as u64) as u8 }
        })
        .collect();
    let buffers = (0..BUFFERS)
        .map(|_| (0..table6::PAYLOAD).map(|_| rng.next_u64() as u8).collect())
        .collect();
    Inputs { calls, buffers }
}

const PINNED_PAGES: [u32; 4] = [100, 150, 200, 250];
const PATTERN_LEN: u32 = 16;

/// How an op went wrong, if it did.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    WrongResult,
    WrongCiphertext,
    UnaskedAbort,
}

/// One kernel with the five grafts installed.
struct Mix {
    kernel: Rc<Kernel>,
    mp: Option<Rc<MetricsPlane>>,
    grafts: [SharedGraft; 5],
}

impl Mix {
    /// A kernel charge on a graft path; dispatch and result checks also
    /// land in the attribution ledger when a plane is attached.
    fn charge(&self, c: Option<Component>, cost: Cycles) {
        self.kernel.clock.charge(cost);
        if let (Some(c), Some(mp)) = (c, self.mp.as_ref()) {
            mp.charge(c, cost);
        }
    }

    fn indirection(&self) {
        self.charge(Some(Component::Indirection), Cycles(costs::INDIRECTION_CYCLES));
    }

    /// Runs one op: the kernel path around the graft, then the graft
    /// dispatch with its result check.
    fn run(&self, tr: &mut Option<Tracer>, call: &Call, buffers: &[Vec<u8>]) -> Outcome {
        let mode = if call.abort { CommitMode::AbortAtEnd } else { CommitMode::Commit };
        let name = SPAN_NAMES[call.kind as usize];
        let mut g = self.grafts[call.kind as usize].borrow_mut();
        let expected: Result<u64, ()>;
        let out = match call.kind {
            Kind::Ra => {
                let at = call.arg * 4096;
                expected = Ok(at as u64 + 4096);
                span(tr, name, || {
                    self.indirection();
                    g.mem().graft_write_u32(0, at);
                    let out = g.invoke_mode([at as u64, 4096, 0, 1 << 24], mode);
                    revive_after(&mut g, &out);
                    out
                })
            }
            Kind::Evict => {
                span(tr, "kernel.path", || {
                    self.charge(None, costs::EVICT_MACHINERY);
                    self.charge(None, Cycles(costs::INSTR_CYCLES * 40));
                });
                let victim = PINNED_PAGES[call.arg as usize];
                // The first clean page that is not pinned.
                expected = Ok(100 + table4::FIRST_CLEAN as u64);
                span(tr, name, || {
                    self.indirection();
                    g.mem().graft_write_u32(0, victim);
                    let out =
                        g.invoke_mode([victim as u64, table4::FOOTPRINT_PAGES as u64, 0, 0], mode);
                    revive_after(&mut g, &out);
                    // Verification, plus the LRU-slot swap when the
                    // graft overruled the kernel's victim.
                    self.charge(Some(Component::ResultCheck), costs::RESULT_CHECK);
                    if !call.abort {
                        self.charge(Some(Component::ResultCheck), costs::RESULT_CHECK);
                    }
                    out
                })
            }
            Kind::Sched => {
                span(tr, "kernel.path", || {
                    self.charge(None, costs::CONTEXT_SWITCH);
                    self.charge(None, costs::CONTEXT_SWITCH);
                });
                let (chosen, list) = (1 + call.buffer as u32, call.arg);
                expected = Ok(chosen as u64);
                span(tr, name, || {
                    self.indirection();
                    g.mem().graft_write_u32(0, chosen);
                    g.mem().graft_write_u32(4, list);
                    let out = g.invoke_mode([chosen as u64, list as u64, 0, 0], mode);
                    revive_after(&mut g, &out);
                    // The valid-thread hash probe on the returned id.
                    self.charge(Some(Component::ResultCheck), Cycles(costs::HASH_PROBE_CYCLES));
                    out
                })
            }
            Kind::Encrypt => {
                let input = &buffers[call.buffer as usize][..call.arg as usize];
                expected = Err(());
                let (out, output) = span(tr, name, || {
                    self.indirection();
                    let (src, dst) = {
                        let mem = g.mem();
                        mem.graft_bytes_mut(STREAM_IN, input.len())
                            .expect("segment sized")
                            .copy_from_slice(input);
                        (mem.seg_base() + STREAM_IN as u64, mem.seg_base() + STREAM_OUT as u64)
                    };
                    let out = g.invoke_mode([src, dst, input.len() as u64, 0], mode);
                    revive_after(&mut g, &out);
                    let output = g.mem().graft_bytes(STREAM_OUT, input.len()).map(|b| b.to_vec());
                    (out, output)
                });
                span(tr, "kernel.path", || {
                    self.charge(None, Cycles(costs::L1_MISS_CYCLES * (input.len() / 32) as u64));
                });
                if matches!(out, InvokeOutcome::Ok { .. })
                    && !output.is_some_and(|o| o.iter().zip(input).all(|(c, p)| *c == *p ^ 0x5A))
                {
                    return Outcome::WrongCiphertext;
                }
                out
            }
            Kind::Wild => {
                let out = span(tr, name, || {
                    self.indirection();
                    let out = g.invoke([0; 4]);
                    g.revive();
                    out
                });
                return if matches!(out, InvokeOutcome::Aborted { why: AbortedWhy::Trap(_), .. }) {
                    Outcome::Ok
                } else {
                    Outcome::WrongResult
                };
            }
        };
        match out {
            InvokeOutcome::Ok { .. } if call.abort => Outcome::WrongResult,
            InvokeOutcome::Ok { result, extents, .. } => {
                let got =
                    if call.kind == Kind::Ra { extents.first().map(|e| e.0) } else { Some(result) };
                match expected {
                    Ok(want) if got != Some(want) => Outcome::WrongResult,
                    _ => Outcome::Ok,
                }
            }
            InvokeOutcome::Aborted { why: AbortedWhy::Requested, .. } if call.abort => Outcome::Ok,
            _ => Outcome::UnaskedAbort,
        }
    }
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
    let thread = kernel.spawn_thread("mix");
    // Lock handle 0: the shared buffer every locking graft takes.
    kernel.engine.register_lock(LockClass::SharedBuffer);
    let mut install = |point: &str, name: &str, src: &str, seg: usize, sandboxed: bool| {
        let t = Instant::now();
        let image = if sandboxed {
            kernel.compile_graft(name, src)
        } else {
            kernel.compile_graft_unsafe(name, src)
        }
        .expect("paper graft compiles");
        ep.compile_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        let opts = InstallOpts { seg_size: seg, ..InstallOpts::default() };
        let g = if point == point_names::STREAM_TRANSFORM && sandboxed {
            kernel.install_stream_graft(&image, app, thread, &opts).map(|a| a.instance)
        } else {
            kernel.install_function_graft(point, &image, app, thread, &opts)
        }
        .expect("paper graft installs");
        ep.install_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        g
    };
    let grafts = [
        install(point_names::COMPUTE_RA, "ra-graft", table3::RA_GRAFT_SRC, 8192, true),
        install(point_names::PICK_VICTIM, "evict-graft", table4::EVICT_GRAFT_SRC, 8192, true),
        install(point_names::SCHEDULE_DELEGATE, "sched-graft", table5::SCHED_GRAFT_SRC, 4096, true),
        install(
            point_names::STREAM_TRANSFORM,
            "encrypt-graft",
            table6::ENCRYPT_GRAFT_SRC,
            32 * 1024,
            true,
        ),
        install(
            point_names::STREAM_TRANSFORM,
            "wild-store",
            "const r1, 0xC0000000\nconst r2, 0x41414141\nstorew r2, [r1+0]\nhalt r0",
            4096,
            false,
        ),
    ];
    let mix = Mix { kernel: Rc::clone(&kernel), mp: planes.first().cloned(), grafts };
    fill_shared(&mix.grafts);
    ep.setup_s = t_setup.elapsed().as_secs_f64();

    // Model accuracy: one call per graft in its paper scenario, before
    // the timed phase, on the same kernel and path code.
    let clock = Rc::clone(&kernel.clock);
    for (i, kind) in [Kind::Ra, Kind::Evict, Kind::Sched, Kind::Encrypt].into_iter().enumerate() {
        let v0 = clock.now().get();
        let outcome = mix.run(&mut None, &Call::paper(kind), &inp.buffers);
        let safe = us(clock.now().get() - v0);
        let err = 100.0 * (safe - PAPER_SAFE_US[i]) / PAPER_SAFE_US[i];
        ep.check(
            format!("{} paper-scenario call committed its expected result", KIND_NAMES[i]),
            outcome == Outcome::Ok,
        );
        ep.layer.insert(format!("model.err_pct.{}", KIND_NAMES[i]), err.abs());
        ep.notes.push(format!(
            "model: {:<8} safe path {safe:>8.2} us vs paper Safe {:>5.0} us, error {err:+.1} %",
            KIND_NAMES[i], PAPER_SAFE_US[i]
        ));
    }

    // ---- Timed phase. ----
    let mut tr = traced.then(|| Tracer::new(Rc::clone(&clock), planes.clone()));
    let ledger0 = tr.as_ref().map(|t| t.ledger_totals());
    if let Some(t) = tr.as_mut() {
        t.open_root("graft-mix");
    }
    let mut lat = Vec::with_capacity(inp.calls.len());
    let mut wrong = [0u64; 4];
    let t0 = clock.now().get();
    let wall = Instant::now();
    for call in &inp.calls {
        let v0 = clock.now().get();
        let outcome = mix.run(&mut tr, call, &inp.buffers);
        lat.push(clock.now().get() - v0);
        wrong[outcome as usize] += 1;
    }
    ep.timed_s = wall.elapsed().as_secs_f64();
    let t1 = clock.now().get();
    if let Some(t) = tr.as_mut() {
        t.close_root();
    }

    ep.attempted = inp.calls.len() as u64;
    ep.failed = wrong[1] + wrong[2] + wrong[3];
    ep.busy = t1 - t0;
    ep.elapsed = t1 - t0;
    ep.lat = lat;
    ep.check("every graft returned its expected result", wrong[Outcome::WrongResult as usize] == 0);
    ep.check(
        "encryption output equals a host-side XOR of its input",
        wrong[Outcome::WrongCiphertext as usize] == 0,
    );
    ep.check(
        "no benign invocation aborted unless asked to",
        wrong[Outcome::UnaskedAbort as usize] == 0,
    );
    for (i, g) in mix.grafts.iter().take(4).enumerate() {
        ep.check(format!("{} graft alive at the end", KIND_NAMES[i]), !g.borrow().is_dead());
    }
    let asked = inp.calls.iter().filter(|c| c.abort).count();
    let wild = inp.calls.iter().filter(|c| c.kind == Kind::Wild).count();
    ep.notes.push(format!(
        "requested aborts {asked} of {} calls; wild-store traps (each revived) {wild}",
        ep.attempted
    ));

    if let Some(t) = &tr {
        let aggs = t.aggregate();
        let mut inv_host: Vec<u64> = Vec::new();
        let mut host_by_kind = [0u64; 5];
        for (k, name) in SPAN_NAMES.iter().enumerate() {
            if let Some(a) = aggs.get(name) {
                host_by_kind[k] = a.host_ns.iter().sum();
                inv_host.extend_from_slice(&a.host_ns);
            }
        }
        let total_host: u64 = host_by_kind.iter().sum();
        for (k, h) in host_by_kind.iter().enumerate() {
            ep.notes.push(format!(
                "host share of invoke time: {:<8} {:>5.1} %",
                KIND_NAMES[k],
                100.0 * ratio(*h as f64, total_host as f64)
            ));
        }
        inv_host.sort_unstable();
        ep.layer.insert("core.invoke.host_ns_p50".into(), quantile_sorted(&inv_host, 0.5) as f64);
        ep.layer.insert("core.invoke.host_ns_p99".into(), quantile_sorted(&inv_host, 0.99) as f64);
        ep.layer.insert(
            "vm.host_ns_per_instr".into(),
            ratio(total_host as f64, t.counter_delta(0) as f64),
        );
        if let Err(e) = t.reconcile(t0, t1, ledger0.expect("traced")) {
            crate::diverged("graft-mix", &e);
        }
    }
    ep.tracer = tr;
    ep.seal();
    ep
}

/// Reinstates a graft after an abort-path run, as the paper's abort-path
/// measurements do.
fn revive_after(g: &mut vino_core::GraftInstance, out: &InvokeOutcome) {
    if matches!(out, InvokeOutcome::Aborted { .. }) {
        g.revive();
    }
}

/// The application side of each shared buffer, as in Tables 3–5.
fn fill_shared(grafts: &[SharedGraft; 5]) {
    let [ra, evict, sched, ..] = grafts;
    let mut g = ra.borrow_mut();
    let mem = g.mem();
    mem.graft_write_u32(1024, PATTERN_LEN);
    for i in 0..PATTERN_LEN as usize {
        mem.graft_write_u32(1028 + 4 * i, (i as u32) * 4096);
    }
    drop(g);
    let mut g = evict.borrow_mut();
    let mem = g.mem();
    mem.graft_write_u32(4, table4::FOOTPRINT_PAGES as u32);
    for i in 0..table4::FOOTPRINT_PAGES {
        mem.graft_write_u32(8 + 4 * i, 100 + i as u32);
    }
    mem.graft_write_u32(4096, table4::PINNED as u32);
    for (i, page) in PINNED_PAGES.iter().enumerate() {
        mem.graft_write_u32(4100 + 4 * i, *page);
    }
    for i in 0..table4::FOOTPRINT_PAGES {
        mem.graft_write_u32(5120 + 4 * i, (i >= table4::FIRST_CLEAN) as u32);
    }
    drop(g);
    let mut g = sched.borrow_mut();
    let mem = g.mem();
    for i in 0..SCHED_LIST.1 as usize {
        mem.graft_write_u32(8 + 4 * i, 1 + i as u32);
    }
}
