//! The batched, pre-decoded loop against the per-instruction
//! [`reference`](super::reference) model.
//!
//! Both interpreters run the same seeded scenario in worlds built the
//! same way, and must leave the same exits, registers, pc, call stack,
//! [`RunStats`], memory (both regions and the corruption meter), clock,
//! ledger, counters, trace records, per-PC profile and fault-plane
//! visits. The programs are every graft source the repository ships
//! (harvested from the string literals of its examples, tests, benches
//! and Table 3–6 sources), each raw and MiSFIT-rewritten, and seeded
//! random programs. The test kernel's host functions charge the clock,
//! emit an event, touch graft memory and fold the clock into their
//! result, and `call_graft` runs a nested graft inside its own
//! attribution frame, so cycles retired but not yet charged at a host
//! call show up as a difference.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use vino_sim::fault::{FaultPlane, FaultSite};
use vino_sim::metrics::{Attribution, Component, MetricsPlane};
use vino_sim::obs::{GraftTags, Observer};
use vino_sim::profile::ProfilePlane;
use vino_sim::trace::{TraceEvent, TracePlane, TraceRecord};
use vino_sim::{Cycles, SplitMix64, VirtualClock};

use super::{Code, Exit, KernelApi, RunStats, Trap, Vm};
use crate::asm::{assemble, SymbolTable};
use crate::isa::{AluOp, Cond, HostFnId, Instr, Program, Reg};
use crate::mem::{AddressSpace, Protection, GUARD_BYTES};

const SEG: usize = 4096;
const KERNEL: usize = 256;
/// The kernel's `call_graft` id (`vino_core::hostfn::CALL_GRAFT`).
const CALL_GRAFT: u32 = 10;
/// MiSFIT's reserved sandbox register.
const SANDBOX: Reg = Reg(14);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Interp {
    Batched,
    Reference,
}

/// The planes attached before the grafts install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Planes {
    /// `Vm::new`: no observer at all.
    Unobserved,
    /// An observer with no plane.
    Bare,
    /// Metrics only: the batched ledger and the counter twins added at
    /// flush time.
    Metrics,
    /// Trace only: a flush before every `vm.sfi`.
    Trace,
    /// Trace, metrics, profile and fault: per-PC billing and a
    /// `VmTrap` visit on every instruction.
    All,
}

const EVERY_PLANES: [Planes; 5] =
    [Planes::Unobserved, Planes::Bare, Planes::Metrics, Planes::Trace, Planes::All];

/// One run to compare.
#[derive(Debug, Clone, Copy)]
struct Scenario<'a> {
    prog: &'a Program,
    callee: &'a Program,
    planes: Planes,
    protection: Protection,
    seed: u64,
    /// Fuel per window.
    fuel: u64,
    /// Stop resuming once this many instructions have retired.
    budget: u64,
    /// Arm `VmTrap` at this visit ([`Planes::All`] only).
    trap_at: Option<u64>,
}

impl<'a> Scenario<'a> {
    fn new(prog: &'a Program, callee: &'a Program, planes: Planes, seed: u64) -> Scenario<'a> {
        Scenario {
            prog,
            callee,
            planes,
            protection: Protection::Unprotected,
            seed,
            fuel: 4000,
            budget: 4000,
            trap_at: None,
        }
    }
}

/// Everything either interpreter can change.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Each window's exit and the fuel it left.
    windows: Vec<(Exit, u64)>,
    regs: [u64; 16],
    pc: usize,
    call_stack: Vec<usize>,
    stats: RunStats,
    graft: Vec<u8>,
    kernel: Vec<u8>,
    kernel_writes: u64,
    /// The nested graft's registers, counters and memory.
    callee: ([u64; 16], RunStats, Vec<u8>),
    /// Every host call: its id, its arguments and the clock it saw.
    host_calls: Vec<(u32, [u64; 4], u64)>,
    clock: u64,
    trace: Vec<TraceRecord>,
    metrics: Option<String>,
    /// The caller's and the callee's exact ledgers, and the kernel's.
    ledgers: Vec<Option<Attribution>>,
    kernel_ledger: Option<[u64; Component::COUNT]>,
    profile: Option<String>,
    per_pc: Vec<Vec<(usize, u64, u64, u64)>>,
    vm_trap: Option<(u64, u64)>,
}

/// The nested graft `call_graft` runs.
struct Callee {
    vm: Vm,
    prog: Program,
    code: Code,
    tags: GraftTags,
}

/// A kernel whose host functions make every flush point observable.
struct TestKernel<'a> {
    interp: Interp,
    clock: &'a Rc<VirtualClock>,
    obs: Option<&'a Rc<Observer>>,
    callee: Option<&'a mut Callee>,
    log: &'a mut Vec<(u32, [u64; 4], u64)>,
}

impl KernelApi for TestKernel<'_> {
    fn host_call(
        &mut self,
        id: HostFnId,
        args: [u64; 4],
        mem: &mut AddressSpace,
    ) -> Result<u64, Trap> {
        let now = self.clock.now().get();
        self.log.push((id.0, args, now));
        if id.0 == CALL_GRAFT {
            if let Some(callee) = self.callee.take() {
                let result = self.call_graft(&mut *callee, args);
                self.callee = Some(callee);
                return Ok(result);
            }
        }
        let cost = Cycles(3 + u64::from(id.0 % 13) * 7);
        match self.obs {
            Some(obs) => {
                obs.charge(Component::Lock, cost);
                obs.emit(TraceEvent::FsRead { fd: u64::from(id.0), len: args[0] });
            }
            None => self.clock.charge(cost),
        }
        if let Some(b) = mem.graft_bytes_mut(args[1] as usize % SEG, 1) {
            b[0] = now as u8;
        }
        if id.0 % 11 == 7 {
            return Err(Trap::HostError { code: now });
        }
        Ok(now.rotate_left(17) ^ args[0].wrapping_mul(0x9E37_79B9) ^ u64::from(id.0))
    }

    fn is_callable(&self, id: HostFnId) -> bool {
        id.0 % 4 != 3
    }
}

impl TestKernel<'_> {
    /// Runs the nested graft in its own invocation bracket, as the
    /// engine's `call_graft` does.
    fn call_graft(&mut self, callee: &mut Callee, args: [u64; 4]) -> u64 {
        let start = self.clock.now();
        if let Some(obs) = self.obs {
            obs.begin_invocation(&callee.tags);
        }
        callee.vm.reset();
        callee.vm.regs[1..4].copy_from_slice(&args[1..]);
        let mut inner = TestKernel {
            interp: self.interp,
            clock: self.clock,
            obs: self.obs,
            callee: None,
            log: &mut *self.log,
        };
        let mut exit = Exit::Preempted;
        for _ in 0..8 {
            let mut fuel = 32;
            exit = run_one(
                self.interp,
                &mut callee.vm,
                &callee.prog,
                &callee.code,
                &mut inner,
                self.clock,
                &mut fuel,
            );
            if exit != Exit::Preempted {
                break;
            }
        }
        if let Some(obs) = self.obs {
            obs.end_invocation(
                &callee.tags,
                matches!(exit, Exit::Halted(_)),
                self.clock.since(start),
            );
        }
        match exit {
            Exit::Halted(v) => v,
            _ => u64::MAX,
        }
    }
}

fn run_one(
    interp: Interp,
    vm: &mut Vm,
    prog: &Program,
    code: &Code,
    env: &mut dyn KernelApi,
    clock: &Rc<VirtualClock>,
    fuel: &mut u64,
) -> Exit {
    match interp {
        Interp::Batched => vm.run(code, env, clock, fuel),
        Interp::Reference => vm.run_reference(prog, env, clock, fuel),
    }
}

/// A register value: mostly graft-segment addresses, some small
/// numbers, a few kernel-region addresses.
fn arg(rng: &mut SplitMix64, mem: &AddressSpace) -> u64 {
    match rng.below(10) {
        0..=5 => mem.seg_base() + rng.below(SEG as u64),
        6..=8 => rng.below(256),
        _ => mem.kernel_base() + rng.below(KERNEL as u64),
    }
}

fn seeded_space(rng: &mut SplitMix64, protection: Protection) -> AddressSpace {
    let mut mem = AddressSpace::new(SEG, KERNEL, protection);
    for b in mem.graft_bytes_mut(0, SEG + GUARD_BYTES).unwrap() {
        *b = rng.next_u64() as u8;
    }
    for b in mem.kernel_bytes_mut(0, KERNEL).unwrap() {
        *b = rng.next_u64() as u8;
    }
    mem
}

fn play(s: &Scenario, interp: Interp) -> Outcome {
    let clock = VirtualClock::new();
    let obs = Observer::new(Rc::clone(&clock));
    let mut trace = None;
    let mut metrics = None;
    let mut profile = None;
    let mut faults = None;
    if matches!(s.planes, Planes::Trace | Planes::All) {
        let tp = TracePlane::with_capacity(Rc::clone(&clock), 1 << 12);
        obs.attach_trace(Rc::clone(&tp)).unwrap();
        trace = Some(tp);
    }
    if matches!(s.planes, Planes::Metrics | Planes::All) {
        let mp = MetricsPlane::new(Rc::clone(&clock));
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        metrics = Some(mp);
    }
    if s.planes == Planes::All {
        let pp = ProfilePlane::new(metrics.as_ref().unwrap());
        obs.attach_profile(Rc::clone(&pp)).unwrap();
        profile = Some(pp);
        let fp = FaultPlane::seeded(s.seed);
        if let Some(k) = s.trap_at {
            fp.arm(FaultSite::VmTrap, k);
        }
        obs.attach_fault(Rc::clone(&fp)).unwrap();
        faults = Some(fp);
    }
    let observed = s.planes != Planes::Unobserved;
    let mut rng = SplitMix64::new(s.seed);
    let tags = obs.install(&s.prog.name, s.prog.instrs.len(), 1);
    let callee_tags = obs.install("callee", s.callee.instrs.len(), 2);
    let vm_for = |mem: AddressSpace, tags: GraftTags| {
        if observed {
            Vm::observed(mem, Rc::clone(&obs), tags)
        } else {
            Vm::new(mem)
        }
    };
    let mem = seeded_space(&mut rng, s.protection);
    let mut vm = vm_for(mem, tags);
    for r in 1..5 {
        vm.regs[r] = arg(&mut rng, &vm.mem);
    }
    let mut callee = Callee {
        vm: vm_for(seeded_space(&mut rng, Protection::Sfi), callee_tags),
        prog: s.callee.clone(),
        code: Code::new(s.callee).unwrap(),
        tags: callee_tags,
    };
    let code = Code::new(s.prog).unwrap();
    let mut log = Vec::new();
    if observed {
        obs.begin_invocation(&tags);
    }
    let start = clock.now();
    let mut windows = Vec::new();
    loop {
        let mut kernel = TestKernel {
            interp,
            clock: &clock,
            obs: observed.then_some(&obs),
            callee: Some(&mut callee),
            log: &mut log,
        };
        let mut fuel = s.fuel;
        let exit = run_one(interp, &mut vm, s.prog, &code, &mut kernel, &clock, &mut fuel);
        let preempted = exit == Exit::Preempted;
        windows.push((exit, fuel));
        // A window that retires nothing would loop forever here.
        if !preempted || vm.stats.instrs >= s.budget || windows.len() as u64 > s.budget {
            break;
        }
    }
    if observed {
        let halted = matches!(windows.last(), Some((Exit::Halted(_), _)));
        obs.end_invocation(&tags, halted, clock.since(start));
    }
    let per_pc = match &profile {
        Some(pp) => {
            [tags, callee_tags].iter().map(|t| pp.pc_buckets(t.metrics.unwrap(), 1)).collect()
        }
        None => Vec::new(),
    };
    Outcome {
        windows,
        regs: vm.regs,
        pc: vm.pc,
        call_stack: vm.call_stack.clone(),
        stats: vm.stats,
        graft: vm.mem.graft_bytes(0, SEG + GUARD_BYTES).unwrap().to_vec(),
        kernel: vm.mem.kernel_bytes(0, KERNEL).unwrap().to_vec(),
        kernel_writes: vm.mem.kernel_write_count(),
        callee: (
            callee.vm.regs,
            callee.vm.stats,
            callee.vm.mem.graft_bytes(0, SEG + GUARD_BYTES).unwrap().to_vec(),
        ),
        host_calls: log,
        clock: clock.now().get(),
        trace: trace.map(|tp| tp.records()).unwrap_or_default(),
        metrics: metrics.as_ref().map(|mp| mp.snapshot()),
        ledgers: match &metrics {
            Some(mp) => {
                [tags, callee_tags].iter().map(|t| mp.attribution(t.metrics.unwrap())).collect()
            }
            None => Vec::new(),
        },
        kernel_ledger: metrics.as_ref().map(|mp| mp.kernel_attribution()),
        profile: profile.map(|pp| pp.snapshot()),
        per_pc,
        vm_trap: faults.map(|fp| (fp.visits(FaultSite::VmTrap), fp.injected(FaultSite::VmTrap))),
    }
}

/// Runs `s` under both interpreters and fails on the first difference.
fn check(s: &Scenario) -> Outcome {
    let batched = play(s, Interp::Batched);
    let reference = play(s, Interp::Reference);
    if batched != reference {
        let (b, r) = (format!("{batched:#?}"), format!("{reference:#?}"));
        let (line, (bl, rl)) = b
            .lines()
            .zip(r.lines())
            .enumerate()
            .find(|(_, (x, y))| x != y)
            .unwrap_or((0, ("(longer)", "(longer)")));
        panic!(
            "`{}` under {:?} (seed {}, fuel {}, trap at {:?}): interpreters differ at \
             outcome line {line}\n  batched:   {bl}\n  reference: {rl}",
            s.prog.name, s.planes, s.seed, s.fuel, s.trap_at
        );
    }
    batched
}

// -- the programs -----------------------------------------------------------

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The kernel's host-function names and ids, read from the kernel's
/// own table so harvested sources assemble exactly as they do there.
fn host_symbols() -> SymbolTable {
    let src = std::fs::read_to_string(repo_root().join("crates/core/src/hostfn.rs")).unwrap();
    let mut ids = Vec::new();
    for line in src.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("pub const ") {
            if let Some((name, tail)) = rest.split_once(": HostFnId = HostFnId(") {
                let id: u32 = tail.trim_end_matches(");").parse().unwrap();
                ids.push((name.to_string(), id));
            }
        }
    }
    let mut syms = SymbolTable::new();
    for line in src.lines() {
        let line = line.trim();
        let Some(pair) = line.strip_prefix('(').and_then(|l| l.strip_suffix("),")) else {
            continue;
        };
        let Some((konst, name)) = pair.split_once(", ") else { continue };
        if let Some((_, id)) = ids.iter().find(|(k, _)| k == konst) {
            syms.define(name.trim_matches('"'), HostFnId(*id));
        }
    }
    assert!(syms.lookup("call_graft") == Some(HostFnId(CALL_GRAFT)), "hostfn.rs changed shape");
    syms
}

/// Unescapes the body of a (non-raw) Rust string literal.
fn unescape(body: &str) -> Option<String> {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'r' => out.push('\r'),
            '0' => out.push('\0'),
            '\\' => out.push('\\'),
            '"' => out.push('"'),
            '\'' => out.push('\''),
            '\n' => while chars.next_if(|c| c.is_whitespace()).is_some() {},
            _ => return None,
        }
    }
    Some(out)
}

/// Every string literal in Rust source `src` the extractor can
/// unescape.
fn string_literals(src: &str) -> Vec<String> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let ident_before = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'\'' => {
                // A char literal (skip it, it may be '"') or a lifetime.
                if b.get(i + 1) == Some(&b'\\') {
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else if b.get(i + 2) == Some(&b'\'') {
                    i += 3;
                } else {
                    i += 1;
                }
            }
            b'r' if !ident_before && matches!(b.get(i + 1), Some(b'"' | b'#')) => {
                let mut j = i + 1;
                while b.get(j) == Some(&b'#') {
                    j += 1;
                }
                if b.get(j) != Some(&b'"') {
                    i += 1;
                    continue;
                }
                let close = format!("\"{}", "#".repeat(j - i - 1));
                match src[j + 1..].find(&close) {
                    Some(end) => {
                        out.push(src[j + 1..j + 1 + end].to_string());
                        i = j + 1 + end + close.len();
                    }
                    None => break,
                }
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                if let Some(s) = src.get(i + 1..j).and_then(unescape) {
                    out.push(s);
                }
                i = j + 1;
            }
            _ => i += 1,
        }
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Every graft source the repository ships, with the file it is in:
/// each string literal in the examples, the integration tests, the
/// bench crate (Tables 3–7, benches), the kernel crates and the
/// benchmark that assembles with the kernel's symbols.
fn harvest() -> Vec<(String, Program)> {
    let root = repo_root();
    let syms = host_symbols();
    let mut files = Vec::new();
    for dir in [
        "examples",
        "tests",
        "crates/bench/src",
        "crates/bench/benches",
        "crates/core/src",
        "crates/core/tests",
        "crates/net/src",
        "benchmark/src",
    ] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut out = Vec::new();
    for file in files {
        let src = std::fs::read_to_string(&file).unwrap();
        let short = file.strip_prefix(&root).unwrap_or(&file).display().to_string();
        for (n, lit) in string_literals(&src).into_iter().enumerate() {
            if let Ok(prog) = assemble(&format!("{short}#{n}"), &lit, &syms) {
                out.push((short.clone(), prog));
            }
        }
    }
    out
}

/// The harvest's distinct programs of two or more instructions.
fn shipped_grafts() -> Vec<Program> {
    let mut progs: Vec<Program> = Vec::new();
    for (_, prog) in harvest() {
        if prog.instrs.len() >= 2 && !progs.iter().any(|p| p.instrs == prog.instrs) {
            progs.push(prog);
        }
    }
    progs
}

/// The MiSFIT rewrite as `vino-misfit` performs it: a prologue
/// `clamp r14`; every access through `mov r14, rA; [addi r14, r14,
/// off;] clamp r14; access [r14+0]`; a `checkcall` before every
/// indirect call; branch targets relocated.
fn sandbox(prog: &Program) -> Program {
    let grow = |i: &Instr| match *i {
        Instr::LoadW { off, .. }
        | Instr::StoreW { off, .. }
        | Instr::LoadB { off, .. }
        | Instr::StoreB { off, .. } => 3 + u32::from(off != 0),
        Instr::CallI { .. } => 2,
        _ => 1,
    };
    let mut at = Vec::with_capacity(prog.instrs.len());
    let mut next = 1;
    for i in &prog.instrs {
        at.push(next);
        next += grow(i);
    }
    let mut out = vec![Instr::Clamp { r: SANDBOX }];
    for &i in &prog.instrs {
        if let Some(addr) = i.mem_addr_reg() {
            let off = match i {
                Instr::LoadW { off, .. }
                | Instr::StoreW { off, .. }
                | Instr::LoadB { off, .. }
                | Instr::StoreB { off, .. } => off,
                _ => unreachable!(),
            };
            out.push(Instr::Mov { d: SANDBOX, s: addr });
            if off != 0 {
                let imm = i64::from(off);
                out.push(Instr::AluI { op: AluOp::Add, d: SANDBOX, a: SANDBOX, imm });
            }
            out.push(Instr::Clamp { r: SANDBOX });
            out.push(match i {
                Instr::LoadW { d, .. } => Instr::LoadW { d, addr: SANDBOX, off: 0 },
                Instr::StoreW { s, .. } => Instr::StoreW { s, addr: SANDBOX, off: 0 },
                Instr::LoadB { d, .. } => Instr::LoadB { d, addr: SANDBOX, off: 0 },
                Instr::StoreB { s, .. } => Instr::StoreB { s, addr: SANDBOX, off: 0 },
                _ => unreachable!(),
            });
        } else if let Instr::CallI { target } = i {
            out.push(Instr::CheckCall { r: target });
            out.push(i);
        } else {
            out.push(i.branch_target().map_or(i, |t| i.with_branch_target(at[t as usize])));
        }
    }
    Program::new(format!("{} (misfit)", prog.name), out)
}

const ALU_OPS: [AluOp; 10] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::Xor,
    AluOp::And,
    AluOp::Or,
    AluOp::Shl,
    AluOp::Shr,
];
const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::LtU, Cond::GeU, Cond::LtS, Cond::GeS];

/// A seeded random program over the whole instruction set: wild and
/// in-segment addresses, loops, local calls, host and nested-graft
/// calls, sandbox ops and traps.
fn random_program(rng: &mut SplitMix64, name: String) -> Program {
    let space = AddressSpace::new(SEG, KERNEL, Protection::Sfi);
    let len = 4 + rng.below(36) as u32;
    let reg = |rng: &mut SplitMix64| Reg(rng.below(16) as u8);
    let mut instrs = Vec::new();
    for _ in 0..len {
        let d = reg(rng);
        let a = reg(rng);
        let b = reg(rng);
        let target = rng.below(u64::from(len)) as u32;
        let off = rng.below(24) as i32 - 8;
        let op = ALU_OPS[rng.below(10) as usize];
        instrs.push(match rng.below(21) {
            0 => {
                let imm = match rng.below(4) {
                    0 => space.seg_base() + rng.below(SEG as u64 + 16),
                    1 => space.kernel_base() + rng.below(KERNEL as u64 + 8),
                    2 => rng.below(64),
                    _ => rng.next_u64(),
                };
                Instr::Const { d, imm: imm as i64 }
            }
            1 => Instr::Mov { d, s: a },
            2 | 3 => Instr::Alu { op, d, a, b },
            4 | 5 => Instr::AluI { op, d, a, imm: rng.below(16) as i64 - 4 },
            6 => Instr::LoadW { d, addr: a, off },
            7 => Instr::StoreW { s: d, addr: a, off },
            8 => Instr::LoadB { d, addr: a, off },
            9 => Instr::StoreB { s: d, addr: a, off },
            10 => Instr::Jmp { target },
            11 | 12 => Instr::Br { cond: CONDS[rng.below(6) as usize], a, b, target },
            13 => Instr::Call { func: HostFnId([1, 3, 7, 9, 10, 10, 101][rng.below(7) as usize]) },
            14 => Instr::CallI { target: a },
            15 => Instr::CheckCall { r: a },
            16 | 17 => Instr::Clamp { r: a },
            18 => Instr::CallLocal { target },
            19 => Instr::Ret,
            _ => match rng.below(3) {
                0 => Instr::Halt { result: a },
                _ => Instr::Nop,
            },
        });
    }
    if rng.below(2) == 0 {
        instrs.push(Instr::Halt { result: Reg(0) });
    }
    Program::new(name, instrs)
}

/// The nested graft: loops, touches memory, calls the kernel, halts.
fn callee() -> Program {
    let src = "
        clamp r14
        const r5, 3
    again:
        mov r14, r1
        clamp r14
        loadw r6, [r14+0]
        add r7, r7, r6
        call $log
        subi r5, r5, 1
        bne r5, r0, again
        halt r7
    ";
    assemble("callee", src, &host_symbols()).unwrap()
}

/// Instructions the reference retires in one unbounded window (capped
/// at `cap`).
fn retired(prog: &Program, callee: &Program, planes: Planes, seed: u64, cap: u64) -> u64 {
    let s = Scenario { budget: cap, fuel: cap, ..Scenario::new(prog, callee, planes, seed) };
    play(&s, Interp::Reference).stats.instrs
}

fn random_programs(n: u64) -> Vec<Program> {
    let mut rng = SplitMix64::new(0xD1FF);
    (0..n).map(|i| random_program(&mut rng, format!("random#{i}"))).collect()
}

// -- the tests --------------------------------------------------------------

#[test]
fn the_harvest_finds_the_shipped_grafts() {
    let progs = shipped_grafts();
    assert!(progs.len() >= 60, "only {} distinct graft sources harvested", progs.len());
    let harvest = harvest();
    for file in [
        "crates/bench/src/table3.rs",
        "crates/bench/src/table4.rs",
        "crates/bench/src/table5.rs",
        "crates/bench/src/table6.rs",
        "examples/misbehaving_grafts.rs",
        "tests/survival.rs",
        "crates/core/tests/nested_grafts.rs",
    ] {
        assert!(harvest.iter().any(|(f, _)| f == file), "no graft harvested from {file}");
    }
}

#[test]
fn shipped_grafts_agree_under_every_plane_set() {
    let callee = callee();
    for prog in shipped_grafts() {
        let sfi = sandbox(&prog);
        for planes in EVERY_PLANES {
            for seed in 0..3 {
                check(&Scenario::new(&prog, &callee, planes, seed));
                let s = Scenario {
                    protection: Protection::Sfi,
                    ..Scenario::new(&sfi, &callee, planes, seed)
                };
                check(&s);
            }
        }
    }
}

#[test]
fn random_programs_agree_under_every_plane_set() {
    let callee = callee();
    for (i, prog) in random_programs(400).iter().enumerate() {
        let protection = if i % 2 == 0 { Protection::Sfi } else { Protection::Unprotected };
        for planes in EVERY_PLANES {
            let s = Scenario {
                protection,
                fuel: 600,
                budget: 600,
                ..Scenario::new(prog, &callee, planes, i as u64)
            };
            check(&s);
        }
    }
}

/// Fuel 1, 2, …, N+1 for a run of N instructions: a preemption lands at
/// every instruction boundary.
fn sweep_fuel(prog: &Program, callee: &Program, protection: Protection, seed: u64) {
    for planes in [Planes::Metrics, Planes::All] {
        let n = retired(prog, callee, planes, seed, 120);
        for fuel in 1..=n + 1 {
            let s = Scenario {
                protection,
                fuel,
                budget: 130,
                ..Scenario::new(prog, callee, planes, seed)
            };
            check(&s);
        }
    }
}

/// `VmTrap` armed at visit 1, 2, …, N+1.
fn sweep_traps(prog: &Program, callee: &Program, protection: Protection, seed: u64) {
    let n = retired(prog, callee, Planes::All, seed, 150);
    for k in 1..=n + 1 {
        let s = Scenario {
            protection,
            budget: 150,
            trap_at: Some(k),
            ..Scenario::new(prog, callee, Planes::All, seed)
        };
        check(&s);
    }
}

#[test]
fn a_preemption_at_every_boundary_agrees() {
    let callee = callee();
    for prog in shipped_grafts() {
        sweep_fuel(&prog, &callee, Protection::Unprotected, 1);
        sweep_fuel(&sandbox(&prog), &callee, Protection::Sfi, 1);
    }
    for (i, prog) in random_programs(60).iter().enumerate() {
        sweep_fuel(prog, &callee, Protection::Sfi, i as u64);
    }
}

#[test]
fn an_injected_trap_at_every_visit_agrees() {
    let callee = callee();
    for prog in shipped_grafts() {
        sweep_traps(&prog, &callee, Protection::Unprotected, 2);
        sweep_traps(&sandbox(&prog), &callee, Protection::Sfi, 2);
    }
    for (i, prog) in random_programs(60).iter().enumerate() {
        sweep_traps(prog, &callee, Protection::Unprotected, i as u64);
    }
}

#[test]
fn a_nested_call_graft_lands_in_its_own_frame() {
    let src = "
        clamp r14
        const r2, 4
        const r9, 1
    loop:
        mov r14, r1
        clamp r14
        storew r2, [r14+0]
        call $call_graft
        add r3, r3, r0
        sub r2, r2, r9
        bne r2, r8, loop
        halt r3
    ";
    let prog = assemble("nester", src, &host_symbols()).unwrap();
    let callee = callee();
    for planes in EVERY_PLANES {
        for seed in 0..4 {
            let out = check(&Scenario::new(&prog, &callee, planes, seed));
            assert!(matches!(out.windows.last(), Some((Exit::Halted(_), _))), "{out:?}");
            assert!(out.callee.1.instrs > 0, "the nested graft ran");
            let nested = out.host_calls.iter().filter(|c| c.0 == CALL_GRAFT).count();
            assert_eq!(nested, 4, "four nested invocations");
        }
    }
    sweep_fuel(&prog, &callee, Protection::Sfi, 5);
    sweep_traps(&prog, &callee, Protection::Sfi, 5);
}
