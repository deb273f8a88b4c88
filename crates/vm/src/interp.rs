//! The GraftVM interpreter.
//!
//! Executes a pre-decoded [`Code`] against an [`AddressSpace`], charging
//! calibrated cycle costs for every instruction. [`Code::new`] checks a
//! [`Program`]'s registers and branch targets once, at install, so the
//! dispatch loop checks neither. The loop keeps the cycles it retires
//! in locals and charges them to the simulation clock, and to the
//! metrics ledger when one is attached, at the flush points: before a
//! host call, before an event, and at the end of the window. Nothing
//! can read the clock between two flush points, so every reading
//! matches per-instruction charging. A profiled graft is still billed
//! per PC on every instruction, and a graft tagged for the fault plane
//! still visits [`FaultSite::VmTrap`] on every instruction.
//!
//! Execution is **fuel-bounded**: the kernel gives each invocation a
//! timeslice worth of instructions, and when fuel runs out the
//! interpreter returns [`Exit::Preempted`] with all state preserved, so
//! the scheduler can resume or the transaction manager can abort. This
//! is how Rule 1 of Table 1 ("Grafts must be preemptible") is
//! implemented: a graft with `while (1);` gets exactly its timeslice and
//! no more (§2.2).

use std::rc::Rc;

use vino_sim::costs;
use vino_sim::fault::FaultSite;
use vino_sim::metrics::{Component, Counter, MetricTag};
use vino_sim::obs::{GraftTags, Observer, Retired};
use vino_sim::profile::ProfilePlane;
use vino_sim::trace::{SfiKind, TraceEvent, VmExitKind};
use vino_sim::{Cycles, VirtualClock};

use crate::isa::{AluOp, Cond, HostFnId, Instr, Program, Reg};
use crate::mem::{AddressSpace, MemError};

/// Why a graft stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// A memory access faulted (unmapped / SFI violation / straddle).
    Mem(MemError),
    /// A `CheckCall` probe missed: the indirect-call target is not in the
    /// graft-callable table. §3.3: "If the target function is not on the
    /// list, the graft's transaction is aborted."
    ForbiddenCall { id: HostFnId },
    /// An *unchecked* indirect call named an unknown id — the moral
    /// equivalent of un-instrumented code jumping to a wild address.
    WildJump { id: HostFnId },
    /// A direct call named an id the kernel has no binding for (cannot
    /// happen for linker-audited grafts).
    UnknownFunction { id: HostFnId },
    /// Program counter left the instruction stream without `Halt`.
    PcOutOfRange { pc: usize },
    /// Intra-graft call nesting exceeded the configured bound.
    CallDepthExceeded,
    /// `Ret` executed with an empty call stack.
    RetWithoutCall,
    /// Division or remainder by zero.
    DivByZero,
    /// A kernel (host) function failed; the code identifies the error and
    /// is interpreted by the grafting layer (e.g. resource-limit denial).
    HostError { code: u64 },
    /// An injected fault ([`FaultSite::VmTrap`]) fired at this
    /// instruction — the simulated equivalent of a hardware fault or
    /// latent graft bug surfacing mid-execution.
    Injected { pc: usize },
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::Mem(e) => write!(f, "memory fault: {e}"),
            Trap::ForbiddenCall { id } => write!(f, "forbidden indirect call to {id}"),
            Trap::WildJump { id } => write!(f, "wild indirect jump to {id}"),
            Trap::UnknownFunction { id } => write!(f, "unknown function {id}"),
            Trap::PcOutOfRange { pc } => write!(f, "pc out of range: {pc}"),
            Trap::CallDepthExceeded => write!(f, "call depth exceeded"),
            Trap::RetWithoutCall => write!(f, "ret without call"),
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::HostError { code } => write!(f, "host error code {code}"),
            Trap::Injected { pc } => write!(f, "injected fault at pc {pc}"),
        }
    }
}

/// How an interpreter run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exit {
    /// The graft executed `Halt`; payload is the graft's return value.
    Halted(u64),
    /// Fuel exhausted; state is preserved and the run may be resumed.
    Preempted,
    /// The graft trapped; the grafting layer aborts its transaction.
    Trapped(Trap),
}

/// The interface the kernel exposes to executing grafts.
///
/// Implementations wrap the graft-callable function table (§3.3). The
/// interpreter never calls a host function the implementation does not
/// resolve, and the MiSFIT `CheckCall` op consults [`KernelApi::is_callable`].
pub trait KernelApi {
    /// Invokes kernel function `id` with `args` (from `r1..=r4`). The
    /// graft's memory is passed so kernel functions can exchange buffers
    /// with the graft. Returns the value for `r0`.
    fn host_call(
        &mut self,
        id: HostFnId,
        args: [u64; 4],
        mem: &mut AddressSpace,
    ) -> Result<u64, Trap>;

    /// True if `id` is in the graft-callable table. Used by `CheckCall`
    /// and by unchecked indirect calls.
    fn is_callable(&self, id: HostFnId) -> bool;
}

/// A kernel that exposes no functions at all; any call traps.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullKernel;

impl KernelApi for NullKernel {
    fn host_call(
        &mut self,
        id: HostFnId,
        _args: [u64; 4],
        _mem: &mut AddressSpace,
    ) -> Result<u64, Trap> {
        Err(Trap::UnknownFunction { id })
    }

    fn is_callable(&self, _id: HostFnId) -> bool {
        false
    }
}

/// Interpreter configuration.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Maximum intra-graft call nesting before trapping.
    pub max_call_depth: usize,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig { max_call_depth: 64 }
    }
}

/// Counters describing one run; the MiSFIT micro-overhead experiment (E2)
/// and the instrumentation tests read these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions retired.
    pub instrs: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// SFI `Clamp` ops executed.
    pub clamps: u64,
    /// SFI `CheckCall` probes executed.
    pub checkcalls: u64,
    /// Kernel (host) calls performed.
    pub host_calls: u64,
}

/// Why a [`Program`] cannot be pre-decoded into [`Code`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeError {
    /// Instruction `pc` names register `reg`, which is not one of
    /// `r0..=r15`.
    BadReg { pc: usize, reg: u8 },
    /// Instruction `pc` branches, jumps or calls to `target`, which is
    /// past the end of the program.
    BadTarget { pc: usize, target: u32 },
}

impl std::fmt::Display for CodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeError::BadReg { pc, reg } => write!(f, "instr {pc}: no register r{reg}"),
            CodeError::BadTarget { pc, target } => {
                write!(f, "instr {pc}: branch target {target} out of range")
            }
        }
    }
}

impl std::error::Error for CodeError {}

/// A register index that [`Code::new`] checked is below 16.
#[derive(Debug, Clone, Copy)]
struct R(u8);

impl R {
    /// The register-file index. The mask is the identity on a checked
    /// index; it lets the compiler drop the bounds check.
    #[inline(always)]
    fn i(self) -> usize {
        usize::from(self.0 & 15)
    }
}

/// One pre-decoded instruction: an [`Instr`] with its registers
/// checked, its immediates and offsets widened to 64 bits, its branch
/// target inside the program, and its ALU operation or branch condition
/// folded into the opcode, so the loop dispatches once.
#[derive(Debug, Clone, Copy)]
enum Op {
    Const { d: R, imm: u64 },
    Mov { d: R, s: R },
    Add { d: R, a: R, b: R },
    Sub { d: R, a: R, b: R },
    Mul { d: R, a: R, b: R },
    Div { d: R, a: R, b: R },
    Rem { d: R, a: R, b: R },
    Xor { d: R, a: R, b: R },
    And { d: R, a: R, b: R },
    Or { d: R, a: R, b: R },
    Shl { d: R, a: R, b: R },
    Shr { d: R, a: R, b: R },
    AddI { d: R, a: R, imm: u64 },
    SubI { d: R, a: R, imm: u64 },
    MulI { d: R, a: R, imm: u64 },
    DivI { d: R, a: R, imm: u64 },
    RemI { d: R, a: R, imm: u64 },
    XorI { d: R, a: R, imm: u64 },
    AndI { d: R, a: R, imm: u64 },
    OrI { d: R, a: R, imm: u64 },
    ShlI { d: R, a: R, imm: u64 },
    ShrI { d: R, a: R, imm: u64 },
    LoadW { d: R, addr: R, off: u64 },
    StoreW { s: R, addr: R, off: u64 },
    LoadB { d: R, addr: R, off: u64 },
    StoreB { s: R, addr: R, off: u64 },
    Jmp { target: u32 },
    Beq { a: R, b: R, target: u32 },
    Bne { a: R, b: R, target: u32 },
    BltU { a: R, b: R, target: u32 },
    BgeU { a: R, b: R, target: u32 },
    BltS { a: R, b: R, target: u32 },
    BgeS { a: R, b: R, target: u32 },
    Call { func: HostFnId },
    CallI { target: R },
    CallLocal { target: u32 },
    Ret,
    Halt { result: R },
    Clamp { r: R },
    CheckCall { r: R },
    Nop,
}

impl Op {
    fn decode(pc: usize, instr: Instr, len: usize) -> Result<Op, CodeError> {
        let r =
            |r: Reg| if r.0 < 16 { Ok(R(r.0)) } else { Err(CodeError::BadReg { pc, reg: r.0 }) };
        let t = |target: u32| {
            if (target as usize) < len {
                Ok(target)
            } else {
                Err(CodeError::BadTarget { pc, target })
            }
        };
        let off = |off: i32| off as i64 as u64;
        Ok(match instr {
            Instr::Const { d, imm } => Op::Const { d: r(d)?, imm: imm as u64 },
            Instr::Mov { d, s } => Op::Mov { d: r(d)?, s: r(s)? },
            Instr::Alu { op, d, a, b } => {
                let (d, a, b) = (r(d)?, r(a)?, r(b)?);
                match op {
                    AluOp::Add => Op::Add { d, a, b },
                    AluOp::Sub => Op::Sub { d, a, b },
                    AluOp::Mul => Op::Mul { d, a, b },
                    AluOp::Div => Op::Div { d, a, b },
                    AluOp::Rem => Op::Rem { d, a, b },
                    AluOp::Xor => Op::Xor { d, a, b },
                    AluOp::And => Op::And { d, a, b },
                    AluOp::Or => Op::Or { d, a, b },
                    AluOp::Shl => Op::Shl { d, a, b },
                    AluOp::Shr => Op::Shr { d, a, b },
                }
            }
            Instr::AluI { op, d, a, imm } => {
                let (d, a, imm) = (r(d)?, r(a)?, imm as u64);
                match op {
                    AluOp::Add => Op::AddI { d, a, imm },
                    AluOp::Sub => Op::SubI { d, a, imm },
                    AluOp::Mul => Op::MulI { d, a, imm },
                    AluOp::Div => Op::DivI { d, a, imm },
                    AluOp::Rem => Op::RemI { d, a, imm },
                    AluOp::Xor => Op::XorI { d, a, imm },
                    AluOp::And => Op::AndI { d, a, imm },
                    AluOp::Or => Op::OrI { d, a, imm },
                    AluOp::Shl => Op::ShlI { d, a, imm },
                    AluOp::Shr => Op::ShrI { d, a, imm },
                }
            }
            Instr::LoadW { d, addr, off: o } => Op::LoadW { d: r(d)?, addr: r(addr)?, off: off(o) },
            Instr::StoreW { s, addr, off: o } => {
                Op::StoreW { s: r(s)?, addr: r(addr)?, off: off(o) }
            }
            Instr::LoadB { d, addr, off: o } => Op::LoadB { d: r(d)?, addr: r(addr)?, off: off(o) },
            Instr::StoreB { s, addr, off: o } => {
                Op::StoreB { s: r(s)?, addr: r(addr)?, off: off(o) }
            }
            Instr::Jmp { target } => Op::Jmp { target: t(target)? },
            Instr::Br { cond, a, b, target } => {
                let (a, b, target) = (r(a)?, r(b)?, t(target)?);
                match cond {
                    Cond::Eq => Op::Beq { a, b, target },
                    Cond::Ne => Op::Bne { a, b, target },
                    Cond::LtU => Op::BltU { a, b, target },
                    Cond::GeU => Op::BgeU { a, b, target },
                    Cond::LtS => Op::BltS { a, b, target },
                    Cond::GeS => Op::BgeS { a, b, target },
                }
            }
            Instr::Call { func } => Op::Call { func },
            Instr::CallI { target } => Op::CallI { target: r(target)? },
            Instr::CallLocal { target } => Op::CallLocal { target: t(target)? },
            Instr::Ret => Op::Ret,
            Instr::Halt { result } => Op::Halt { result: r(result)? },
            Instr::Clamp { r: x } => Op::Clamp { r: r(x)? },
            Instr::CheckCall { r: x } => Op::CheckCall { r: r(x)? },
            Instr::Nop => Op::Nop,
        })
    }
}

/// A [`Program`] checked and pre-decoded for [`Vm::run`]: every register
/// index is below 16 and every branch, jump and local-call target is
/// inside the program, so the interpreter checks neither. The kernel
/// builds it once, at install; decoding is linear in the program's
/// length.
#[derive(Debug, Clone)]
pub struct Code {
    ops: Box<[Op]>,
}

impl Code {
    /// Checks and decodes `prog`. A program may fall off its end: that
    /// traps at run time with [`Trap::PcOutOfRange`].
    pub fn new(prog: &Program) -> Result<Code, CodeError> {
        let len = prog.instrs.len();
        let mut ops = Vec::with_capacity(len);
        for (pc, &instr) in prog.instrs.iter().enumerate() {
            ops.push(Op::decode(pc, instr, len)?);
        }
        Ok(Code { ops: ops.into_boxed_slice() })
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for the empty program.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A graft execution context: registers, pc, local call stack and memory.
#[derive(Debug)]
pub struct Vm {
    /// The register file, `r0..=r15`.
    pub regs: [u64; 16],
    /// Next instruction index.
    pub pc: usize,
    /// Intra-graft return addresses.
    pub call_stack: Vec<usize>,
    /// The graft's address space.
    pub mem: AddressSpace,
    /// Per-run counters.
    pub stats: RunStats,
    cfg: VmConfig,
    /// The kernel's observer and the graft's install-time tags, which
    /// decide the planes this VM feeds.
    obs: Option<(Rc<Observer>, GraftTags)>,
}

impl Vm {
    /// Creates an unobserved context over `mem` with default
    /// configuration: it charges the clock passed to [`run`](Self::run)
    /// and feeds no plane.
    pub fn new(mem: AddressSpace) -> Vm {
        Vm::with_config(mem, VmConfig::default())
    }

    /// Creates an unobserved context with an explicit configuration.
    pub fn with_config(mem: AddressSpace, cfg: VmConfig) -> Vm {
        Vm {
            regs: [0; 16],
            pc: 0,
            call_stack: Vec::new(),
            mem,
            stats: RunStats::default(),
            cfg,
            obs: None,
        }
    }

    /// Creates a context that reports to `obs` as the graft `tags` were
    /// interned for at install. Retired cycles are charged through the
    /// observer and attributed to an overhead component
    /// ([`Component::Sfi`] for sandbox ops, [`Component::GraftFn`] for
    /// everything else; host functions attribute their own interior
    /// costs). For the planes `tags` names, each run window emits
    /// `vm.window`, each sandbox check `vm.sfi`, each instruction visits
    /// [`FaultSite::VmTrap`] and bills its (graft, function, pc) key.
    pub fn observed(mem: AddressSpace, obs: Rc<Observer>, tags: GraftTags) -> Vm {
        Vm { obs: Some((obs, tags)), ..Vm::new(mem) }
    }

    /// The profile plane and this graft's metrics tag, if it bills one.
    fn profiled(&self) -> Option<(&ProfilePlane, MetricTag)> {
        let (obs, tags) = self.obs.as_ref()?;
        profiled(obs, tags)
    }

    /// Resets pc/registers/stats for a fresh invocation, keeping memory.
    pub fn reset(&mut self) {
        self.regs = [0; 16];
        self.pc = 0;
        self.call_stack.clear();
        self.stats = RunStats::default();
        if let Some((pp, tag)) = self.profiled() {
            pp.reset_stack(tag);
        }
    }

    /// Runs `code` until halt, trap, or fuel exhaustion.
    ///
    /// `fuel` is decremented once per retired instruction; when it hits
    /// zero the run returns [`Exit::Preempted`] and may be resumed by
    /// calling `run` again with fresh fuel. Cycle costs accrue in the
    /// window and are charged to `clock` (through the observer, for an
    /// observed VM) at the flush points: before every host call, before
    /// every event the VM emits, and when the window ends. Nothing can
    /// read the clock between flush points, so every reading is what
    /// charging each instruction as it retired would give.
    pub fn run(
        &mut self,
        code: &Code,
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
        fuel: &mut u64,
    ) -> Exit {
        let window_start = self.stats.instrs;
        let exit = if self.obs.as_ref().is_some_and(|(obs, tags)| per_instr(obs, tags)) {
            self.run_window::<true>(code, env, clock, fuel)
        } else {
            self.run_window::<false>(code, env, clock, fuel)
        };
        if let Some((obs, tags)) = &self.obs {
            let instrs = self.stats.instrs - window_start;
            let kind = match &exit {
                Exit::Halted(_) => VmExitKind::Halt,
                Exit::Preempted => VmExitKind::Preempt,
                Exit::Trapped(_) => VmExitKind::Trap,
            };
            obs.emit_as(tags, TraceEvent::VmWindow { instrs, exit: kind });
            obs.add_as(tags, Counter::VmInstrs, instrs);
        }
        exit
    }

    /// The interpreter loop. The pc, the fuel, the counters and the
    /// cycles not yet charged live in locals and are written back when
    /// the window ends. `PER_INSTR` is true for a graft the profile or
    /// the fault plane visits on every instruction; the compiler drops
    /// those visits from the other instantiation.
    fn run_window<const PER_INSTR: bool>(
        &mut self,
        code: &Code,
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
        fuel: &mut u64,
    ) -> Exit {
        let Vm { regs, pc: pc_out, call_stack, mem, stats, cfg, obs } = self;
        let sink = Sink::new(obs.as_ref(), clock);
        let mut due = Retired::default();
        let mut pc = *pc_out;
        let mut left = *fuel;
        let mut st = *stats;
        let exit = loop {
            if left == 0 {
                break Exit::Preempted;
            }
            let Some(&op) = code.ops.get(pc) else {
                break Exit::Trapped(Trap::PcOutOfRange { pc });
            };
            if PER_INSTR && sink.obs.is_some_and(|(obs, tags)| obs.fire_as(tags, FaultSite::VmTrap))
            {
                break Exit::Trapped(Trap::Injected { pc });
            }
            left -= 1;
            let at = pc;
            pc += 1;
            // Add the retiring instruction's cost to `due`, and bill its
            // PC on a profiled graft.
            macro_rules! bill_fn {
                ($cost:expr) => {
                    sink.bill::<PER_INSTR>(&mut due, at, Component::GraftFn, $cost)
                };
            }
            macro_rules! bill_sfi {
                ($cost:expr) => {
                    sink.bill::<PER_INSTR>(&mut due, at, Component::Sfi, $cost)
                };
            }
            // A one-cycle instruction that writes `$v` to register `$d`.
            macro_rules! set {
                ($d:expr, $v:expr) => {{
                    bill_fn!(costs::INSTR_CYCLES);
                    regs[$d.i()] = $v;
                }};
            }
            // A one-cycle division that traps on a zero divisor.
            macro_rules! divide {
                ($d:expr, $v:expr) => {{
                    bill_fn!(costs::INSTR_CYCLES);
                    let Some(v) = $v else { break Exit::Trapped(Trap::DivByZero) };
                    regs[$d.i()] = v;
                }};
            }
            // A conditional branch to `$target`.
            macro_rules! branch {
                ($taken:expr, $target:expr) => {{
                    bill_fn!(costs::BRANCH_CYCLES);
                    if $taken {
                        pc = $target as usize;
                    }
                }};
            }
            let r = |x: R| regs[x.i()];
            match op {
                Op::Const { d, imm } => set!(d, imm),
                Op::Mov { d, s } => set!(d, r(s)),
                Op::Add { d, a, b } => set!(d, r(a).wrapping_add(r(b))),
                Op::Sub { d, a, b } => set!(d, r(a).wrapping_sub(r(b))),
                Op::Mul { d, a, b } => set!(d, r(a).wrapping_mul(r(b))),
                Op::Div { d, a, b } => divide!(d, r(a).checked_div(r(b))),
                Op::Rem { d, a, b } => divide!(d, r(a).checked_rem(r(b))),
                Op::Xor { d, a, b } => set!(d, r(a) ^ r(b)),
                Op::And { d, a, b } => set!(d, r(a) & r(b)),
                Op::Or { d, a, b } => set!(d, r(a) | r(b)),
                Op::Shl { d, a, b } => set!(d, r(a) << (r(b) & 63)),
                Op::Shr { d, a, b } => set!(d, r(a) >> (r(b) & 63)),
                Op::AddI { d, a, imm } => set!(d, r(a).wrapping_add(imm)),
                Op::SubI { d, a, imm } => set!(d, r(a).wrapping_sub(imm)),
                Op::MulI { d, a, imm } => set!(d, r(a).wrapping_mul(imm)),
                Op::DivI { d, a, imm } => divide!(d, r(a).checked_div(imm)),
                Op::RemI { d, a, imm } => divide!(d, r(a).checked_rem(imm)),
                Op::XorI { d, a, imm } => set!(d, r(a) ^ imm),
                Op::AndI { d, a, imm } => set!(d, r(a) & imm),
                Op::OrI { d, a, imm } => set!(d, r(a) | imm),
                Op::ShlI { d, a, imm } => set!(d, r(a) << (imm & 63)),
                Op::ShrI { d, a, imm } => set!(d, r(a) >> (imm & 63)),
                Op::LoadW { d, addr, off } => {
                    bill_fn!(costs::LOAD_CYCLES);
                    st.loads += 1;
                    match mem.read(r(addr).wrapping_add(off), 4) {
                        Ok(v) => regs[d.i()] = v,
                        Err(e) => break Exit::Trapped(Trap::Mem(e)),
                    }
                }
                Op::StoreW { s, addr, off } => {
                    bill_fn!(costs::STORE_CYCLES);
                    st.stores += 1;
                    if let Err(e) = mem.write(r(addr).wrapping_add(off), r(s), 4) {
                        break Exit::Trapped(Trap::Mem(e));
                    }
                }
                Op::LoadB { d, addr, off } => {
                    bill_fn!(costs::LOAD_CYCLES);
                    st.loads += 1;
                    match mem.read(r(addr).wrapping_add(off), 1) {
                        Ok(v) => regs[d.i()] = v,
                        Err(e) => break Exit::Trapped(Trap::Mem(e)),
                    }
                }
                Op::StoreB { s, addr, off } => {
                    bill_fn!(costs::STORE_CYCLES);
                    st.stores += 1;
                    if let Err(e) = mem.write(r(addr).wrapping_add(off), r(s), 1) {
                        break Exit::Trapped(Trap::Mem(e));
                    }
                }
                Op::Jmp { target } => branch!(true, target),
                Op::Beq { a, b, target } => branch!(r(a) == r(b), target),
                Op::Bne { a, b, target } => branch!(r(a) != r(b), target),
                Op::BltU { a, b, target } => branch!(r(a) < r(b), target),
                Op::BgeU { a, b, target } => branch!(r(a) >= r(b), target),
                Op::BltS { a, b, target } => branch!((r(a) as i64) < (r(b) as i64), target),
                Op::BgeS { a, b, target } => branch!((r(a) as i64) >= (r(b) as i64), target),
                Op::Call { func } => {
                    bill_fn!(costs::CALL_CYCLES);
                    st.host_calls += 1;
                    // The callee may read the clock or open a nested
                    // attribution frame (`call_graft`).
                    sink.flush(&mut due);
                    match env.host_call(func, [regs[1], regs[2], regs[3], regs[4]], mem) {
                        Ok(v) => regs[0] = v,
                        Err(t) => break Exit::Trapped(t),
                    }
                }
                Op::CallI { target } => {
                    bill_fn!(costs::CALL_CYCLES);
                    let id = HostFnId(r(target) as u32);
                    if !env.is_callable(id) {
                        // Un-instrumented code jumping through a wild pointer;
                        // MiSFIT-processed code traps earlier, in CheckCall.
                        break Exit::Trapped(Trap::WildJump { id });
                    }
                    st.host_calls += 1;
                    sink.flush(&mut due);
                    match env.host_call(id, [regs[1], regs[2], regs[3], regs[4]], mem) {
                        Ok(v) => regs[0] = v,
                        Err(t) => break Exit::Trapped(t),
                    }
                }
                Op::CallLocal { target } => {
                    bill_fn!(costs::CALL_CYCLES);
                    if call_stack.len() >= cfg.max_call_depth {
                        break Exit::Trapped(Trap::CallDepthExceeded);
                    }
                    call_stack.push(pc);
                    pc = target as usize;
                    if let Some((pp, tag)) = sink.profile {
                        pp.enter_fn(tag, target);
                    }
                }
                Op::Ret => {
                    bill_fn!(costs::RET_CYCLES);
                    let Some(ret) = call_stack.pop() else {
                        break Exit::Trapped(Trap::RetWithoutCall);
                    };
                    pc = ret;
                    if let Some((pp, tag)) = sink.profile {
                        pp.exit_fn(tag);
                    }
                }
                Op::Halt { result } => {
                    bill_fn!(costs::INSTR_CYCLES);
                    break Exit::Halted(r(result));
                }
                Op::Clamp { r: x } => {
                    bill_sfi!(costs::SFI_CLAMP_CYCLES);
                    st.clamps += 1;
                    sink.sfi_check(&mut due, SfiKind::Clamp, at);
                    regs[x.i()] = mem.clamp(r(x));
                }
                Op::CheckCall { r: x } => {
                    bill_sfi!(costs::SFI_CALLCHECK_CYCLES);
                    st.checkcalls += 1;
                    sink.sfi_check(&mut due, SfiKind::CheckCall, at);
                    let id = HostFnId(r(x) as u32);
                    if !env.is_callable(id) {
                        break Exit::Trapped(Trap::ForbiddenCall { id });
                    }
                }
                Op::Nop => bill_fn!(costs::INSTR_CYCLES),
            }
        };
        sink.flush(&mut due);
        // Every retired instruction burned exactly one unit of fuel.
        st.instrs += *fuel - left;
        *pc_out = pc;
        *fuel = left;
        *stats = st;
        exit
    }
}

/// The profile plane and metrics tag `tags`' graft bills per PC, if any.
fn profiled<'a>(obs: &'a Observer, tags: &GraftTags) -> Option<(&'a ProfilePlane, MetricTag)> {
    Some((obs.profile().filter(|_| tags.profile)?, tags.metrics?))
}

/// True when the profile or the fault plane visits every instruction
/// `tags`' graft retires.
fn per_instr(obs: &Observer, tags: &GraftTags) -> bool {
    profiled(obs, tags).is_some() || (tags.fault && obs.fault().is_some())
}

/// Where one run window sends what it retires, resolved when the window
/// starts.
struct Sink<'a> {
    clock: &'a VirtualClock,
    obs: Option<(&'a Observer, &'a GraftTags)>,
    /// The profile plane and metrics tag to bill per PC.
    profile: Option<(&'a ProfilePlane, MetricTag)>,
}

impl<'a> Sink<'a> {
    fn new(obs: Option<&'a (Rc<Observer>, GraftTags)>, clock: &'a VirtualClock) -> Sink<'a> {
        let obs = obs.map(|(o, tags)| (&**o, tags));
        let profile = obs.and_then(|(o, tags)| profiled(o, tags));
        Sink { clock, obs, profile }
    }

    /// Adds the `cost` of the instruction at `pc` to `due`, and bills
    /// it per PC on a profiled graft.
    #[inline(always)]
    fn bill<const PER_INSTR: bool>(&self, due: &mut Retired, pc: usize, c: Component, cost: u64) {
        match c {
            Component::Sfi => due.sfi += cost,
            _ => due.graft_fn += cost,
        }
        if !PER_INSTR {
            return;
        }
        if let Some((pp, tag)) = self.profile {
            pp.record_pc(tag, pc, c, Cycles(cost));
        }
    }

    /// A sandbox check at `pc`. A graft with a trace tag flushes and
    /// emits `vm.sfi`, which brings its counter twin; otherwise only the
    /// twin is kept, and it is added at the next flush.
    #[inline]
    fn sfi_check(&self, due: &mut Retired, kind: SfiKind, pc: usize) {
        match self.obs {
            Some((obs, tags)) if tags.trace.is_some() => {
                self.flush(due);
                obs.emit_as(tags, TraceEvent::SfiCheck { kind, pc: pc as u64 });
            }
            _ => match kind {
                SfiKind::Clamp => due.clamps += 1,
                SfiKind::CheckCall => due.checkcalls += 1,
            },
        }
    }

    /// Charges what is due and starts a new batch.
    #[inline]
    fn flush(&self, due: &mut Retired) {
        match self.obs {
            Some((obs, tags)) => obs.retire(tags, *due),
            None => self.clock.charge(Cycles(due.graft_fn + due.sfi)),
        }
        *due = Retired::default();
    }
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Reg;
    use crate::mem::Protection;

    fn ctx() -> (Vm, Rc<VirtualClock>) {
        let mem = AddressSpace::new(4096, 1024, Protection::Sfi);
        (Vm::new(mem), VirtualClock::new())
    }

    fn run_prog(instrs: Vec<Instr>) -> (Exit, Vm, Rc<VirtualClock>) {
        let (mut vm, clock) = ctx();
        let prog = Program::new("t", instrs);
        let mut fuel = 1_000_000;
        let exit = vm.run(&Code::new(&prog).unwrap(), &mut NullKernel, &clock, &mut fuel);
        (exit, vm, clock)
    }

    #[test]
    fn const_mov_alu_halt() {
        let (exit, _, _) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: 40 },
            Instr::Const { d: Reg(2), imm: 2 },
            Instr::Alu { op: AluOp::Add, d: Reg(0), a: Reg(1), b: Reg(2) },
            Instr::Halt { result: Reg(0) },
        ]);
        assert_eq!(exit, Exit::Halted(42));
    }

    #[test]
    fn alu_immediate_forms() {
        let (exit, _, _) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: 10 },
            Instr::AluI { op: AluOp::Mul, d: Reg(1), a: Reg(1), imm: 5 },
            Instr::AluI { op: AluOp::Sub, d: Reg(0), a: Reg(1), imm: 8 },
            Instr::Halt { result: Reg(0) },
        ]);
        assert_eq!(exit, Exit::Halted(42));
    }

    #[test]
    fn div_by_zero_traps() {
        let (exit, _, _) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: 1 },
            Instr::Const { d: Reg(2), imm: 0 },
            Instr::Alu { op: AluOp::Div, d: Reg(0), a: Reg(1), b: Reg(2) },
        ]);
        assert_eq!(exit, Exit::Trapped(Trap::DivByZero));
    }

    #[test]
    fn loop_with_branch() {
        // Sum 1..=10 using a backward branch.
        let (exit, _, _) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: 0 },  // i
            Instr::Const { d: Reg(2), imm: 0 },  // acc
            Instr::Const { d: Reg(3), imm: 10 }, // bound
            Instr::AluI { op: AluOp::Add, d: Reg(1), a: Reg(1), imm: 1 },
            Instr::Alu { op: AluOp::Add, d: Reg(2), a: Reg(2), b: Reg(1) },
            Instr::Br { cond: Cond::LtU, a: Reg(1), b: Reg(3), target: 3 },
            Instr::Halt { result: Reg(2) },
        ]);
        assert_eq!(exit, Exit::Halted(55));
    }

    #[test]
    fn memory_round_trip_and_stats() {
        let (mut vm, clock) = ctx();
        let base = vm.mem.seg_base() as i64;
        let prog = Program::new(
            "t",
            vec![
                Instr::Const { d: Reg(1), imm: base + 32 },
                Instr::Const { d: Reg(2), imm: 0x1234 },
                Instr::StoreW { s: Reg(2), addr: Reg(1), off: 0 },
                Instr::LoadW { d: Reg(0), addr: Reg(1), off: 0 },
                Instr::Halt { result: Reg(0) },
            ],
        );
        let mut fuel = 100;
        let exit = vm.run(&Code::new(&prog).unwrap(), &mut NullKernel, &clock, &mut fuel);
        assert_eq!(exit, Exit::Halted(0x1234));
        assert_eq!(vm.stats.loads, 1);
        assert_eq!(vm.stats.stores, 1);
        assert_eq!(vm.stats.instrs, 5);
    }

    #[test]
    fn fuel_exhaustion_preempts_and_resumes() {
        // An infinite loop — the §2.2 malicious fragment. It must be
        // preemptible (Rule 1) and resumable.
        let (mut vm, clock) = ctx();
        let prog = Program::new("spin", vec![Instr::Jmp { target: 0 }]);
        let mut fuel = 100;
        assert_eq!(
            vm.run(&Code::new(&prog).unwrap(), &mut NullKernel, &clock, &mut fuel),
            Exit::Preempted
        );
        assert_eq!(fuel, 0);
        let mut fuel = 50;
        assert_eq!(
            vm.run(&Code::new(&prog).unwrap(), &mut NullKernel, &clock, &mut fuel),
            Exit::Preempted
        );
        assert_eq!(vm.stats.instrs, 150);
    }

    #[test]
    fn cycles_charged_per_instruction() {
        let (exit, vm, clock) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: 1 }, // 1 cycle
            Instr::Nop,                         // 1 cycle
            Instr::Halt { result: Reg(1) },     // 1 cycle
        ]);
        assert_eq!(exit, Exit::Halted(1));
        assert_eq!(clock.now().get(), 3 * costs::INSTR_CYCLES);
        assert_eq!(vm.stats.instrs, 3);
    }

    #[test]
    fn sfi_clamp_confines_wild_store() {
        let (mut vm, clock) = ctx();
        let kernel_addr = vm.mem.kernel_base() as i64;
        let prog = Program::new(
            "wild",
            vec![
                Instr::Const { d: Reg(1), imm: kernel_addr },
                Instr::Const { d: Reg(2), imm: 0x41 },
                Instr::Clamp { r: Reg(1) },
                Instr::StoreW { s: Reg(2), addr: Reg(1), off: 0 },
                Instr::Halt { result: Reg(0) },
            ],
        );
        let mut fuel = 100;
        let exit = vm.run(&Code::new(&prog).unwrap(), &mut NullKernel, &clock, &mut fuel);
        assert_eq!(exit, Exit::Halted(0));
        assert_eq!(vm.mem.kernel_write_count(), 0, "clamped store must stay in segment");
        assert_eq!(vm.stats.clamps, 1);
    }

    #[test]
    fn unchecked_wild_store_faults_under_sfi_space() {
        let (mut vm, clock) = ctx();
        let kernel_addr = vm.mem.kernel_base() as i64;
        let prog = Program::new(
            "wild",
            vec![
                Instr::Const { d: Reg(1), imm: kernel_addr },
                Instr::StoreW { s: Reg(1), addr: Reg(1), off: 0 },
            ],
        );
        let mut fuel = 100;
        let exit = vm.run(&Code::new(&prog).unwrap(), &mut NullKernel, &clock, &mut fuel);
        assert!(matches!(exit, Exit::Trapped(Trap::Mem(MemError::KernelRegion { .. }))));
    }

    #[test]
    fn checkcall_traps_forbidden_target() {
        let (mut vm, clock) = ctx();
        let prog = Program::new(
            "evil",
            vec![
                Instr::Const { d: Reg(5), imm: 1234 },
                Instr::CheckCall { r: Reg(5) },
                Instr::CallI { target: Reg(5) },
            ],
        );
        let mut fuel = 100;
        let exit = vm.run(&Code::new(&prog).unwrap(), &mut NullKernel, &clock, &mut fuel);
        assert_eq!(exit, Exit::Trapped(Trap::ForbiddenCall { id: HostFnId(1234) }));
        assert_eq!(vm.stats.checkcalls, 1);
        assert_eq!(vm.stats.host_calls, 0);
    }

    #[test]
    fn unchecked_indirect_call_is_wild_jump() {
        let (exit, _, _) =
            run_prog(vec![Instr::Const { d: Reg(5), imm: 77 }, Instr::CallI { target: Reg(5) }]);
        assert_eq!(exit, Exit::Trapped(Trap::WildJump { id: HostFnId(77) }));
    }

    #[test]
    fn host_call_convention() {
        /// Test kernel exposing one function: fn#7 returns a1+a2+a3+a4.
        struct Adder;
        impl KernelApi for Adder {
            fn host_call(
                &mut self,
                id: HostFnId,
                args: [u64; 4],
                _mem: &mut AddressSpace,
            ) -> Result<u64, Trap> {
                if id == HostFnId(7) {
                    Ok(args.iter().sum())
                } else {
                    Err(Trap::UnknownFunction { id })
                }
            }
            fn is_callable(&self, id: HostFnId) -> bool {
                id == HostFnId(7)
            }
        }
        let (mut vm, clock) = ctx();
        let prog = Program::new(
            "t",
            vec![
                Instr::Const { d: Reg(1), imm: 1 },
                Instr::Const { d: Reg(2), imm: 2 },
                Instr::Const { d: Reg(3), imm: 3 },
                Instr::Const { d: Reg(4), imm: 4 },
                Instr::Call { func: HostFnId(7) },
                Instr::Halt { result: Reg(0) },
            ],
        );
        let mut fuel = 100;
        assert_eq!(
            vm.run(&Code::new(&prog).unwrap(), &mut Adder, &clock, &mut fuel),
            Exit::Halted(10)
        );
        assert_eq!(vm.stats.host_calls, 1);
    }

    #[test]
    fn local_call_and_ret() {
        let (exit, _, _) = run_prog(vec![
            Instr::CallLocal { target: 3 },
            Instr::AluI { op: AluOp::Add, d: Reg(0), a: Reg(0), imm: 1 },
            Instr::Halt { result: Reg(0) },
            // Subroutine: r0 = 41.
            Instr::Const { d: Reg(0), imm: 41 },
            Instr::Ret,
        ]);
        assert_eq!(exit, Exit::Halted(42));
    }

    #[test]
    fn call_depth_bounded() {
        // Recursion without a base case must trap, not overflow.
        let (exit, _, _) = run_prog(vec![Instr::CallLocal { target: 0 }]);
        assert_eq!(exit, Exit::Trapped(Trap::CallDepthExceeded));
    }

    #[test]
    fn ret_without_call_traps() {
        let (exit, _, _) = run_prog(vec![Instr::Ret]);
        assert_eq!(exit, Exit::Trapped(Trap::RetWithoutCall));
    }

    #[test]
    fn falling_off_the_end_traps() {
        let (exit, _, _) = run_prog(vec![Instr::Nop]);
        assert_eq!(exit, Exit::Trapped(Trap::PcOutOfRange { pc: 1 }));
        let (exit, _, _) = run_prog(vec![]);
        assert_eq!(exit, Exit::Trapped(Trap::PcOutOfRange { pc: 0 }));
    }

    #[test]
    fn decoding_rejects_a_register_past_r15() {
        // Hand-built programs skip the bytecode decoder's register check;
        // they used to panic mid-run with an index out of bounds.
        let bad = [
            Instr::Mov { d: Reg(0), s: Reg(16) },
            Instr::Const { d: Reg(200), imm: 1 },
            Instr::LoadW { d: Reg(1), addr: Reg(255), off: 0 },
            Instr::Br { cond: Cond::Eq, a: Reg(0), b: Reg(17), target: 0 },
            Instr::CallI { target: Reg(16) },
            Instr::Halt { result: Reg(99) },
        ];
        for instr in bad {
            let reg = match instr {
                Instr::Mov { s, .. } => s.0,
                Instr::Const { d, .. } => d.0,
                Instr::LoadW { addr, .. } => addr.0,
                Instr::Br { b, .. } => b.0,
                Instr::CallI { target } => target.0,
                Instr::Halt { result } => result.0,
                _ => unreachable!(),
            };
            let prog = Program::new("bad", vec![Instr::Nop, instr]);
            assert_eq!(
                Code::new(&prog).unwrap_err(),
                CodeError::BadReg { pc: 1, reg },
                "{instr:?}"
            );
        }
    }

    #[test]
    fn decoding_rejects_a_wild_branch_target() {
        for instr in [
            Instr::Jmp { target: 2 },
            Instr::Br { cond: Cond::Ne, a: Reg(0), b: Reg(1), target: 9 },
            Instr::CallLocal { target: u32::MAX },
        ] {
            let prog = Program::new("bad", vec![instr, Instr::Halt { result: Reg(0) }]);
            let target = instr.branch_target().unwrap();
            assert_eq!(Code::new(&prog).unwrap_err(), CodeError::BadTarget { pc: 0, target });
        }
        let ok = Program::new("ok", vec![Instr::Nop, Instr::Jmp { target: 1 }]);
        assert_eq!(Code::new(&ok).map(|c| c.len()), Ok(2));
    }

    #[test]
    fn reset_preserves_memory() {
        let (mut vm, clock) = ctx();
        let base = vm.mem.seg_base() as i64;
        let prog = Program::new(
            "t",
            vec![
                Instr::Const { d: Reg(1), imm: base },
                Instr::Const { d: Reg(2), imm: 99 },
                Instr::StoreW { s: Reg(2), addr: Reg(1), off: 0 },
                Instr::Halt { result: Reg(2) },
            ],
        );
        let mut fuel = 100;
        vm.run(&Code::new(&prog).unwrap(), &mut NullKernel, &clock, &mut fuel);
        vm.reset();
        assert_eq!(vm.pc, 0);
        assert_eq!(vm.regs, [0; 16]);
        assert_eq!(vm.mem.graft_read_u32(0), Some(99), "memory survives reset");
    }

    /// A VM reporting to an observer with only a fault plane attached.
    fn faulted(plane: Rc<vino_sim::fault::FaultPlane>) -> (Vm, Rc<VirtualClock>) {
        let clock = VirtualClock::new();
        let obs = Observer::new(Rc::clone(&clock));
        obs.attach_fault(plane).unwrap();
        let mem = AddressSpace::new(4096, 1024, Protection::Sfi);
        (Vm::observed(mem, obs, GraftTags { fault: true, ..GraftTags::default() }), clock)
    }

    #[test]
    fn injected_trap_fires_at_nth_instruction() {
        use vino_sim::fault::{FaultPlane, FaultSite};
        let plane = FaultPlane::seeded(0);
        plane.arm(FaultSite::VmTrap, 3);
        let (mut vm, clock) = faulted(plane);
        let prog = Program::new("spin", vec![Instr::Jmp { target: 0 }]);
        let mut fuel = 100;
        let exit = vm.run(&Code::new(&prog).unwrap(), &mut NullKernel, &clock, &mut fuel);
        assert_eq!(exit, Exit::Trapped(Trap::Injected { pc: 0 }));
        assert_eq!(vm.stats.instrs, 2, "the third instruction never retires");
        assert_eq!(fuel, 98, "the trapped instruction consumes no fuel");
    }

    #[test]
    fn injected_trap_counts_across_resumes() {
        use vino_sim::fault::{FaultPlane, FaultSite};
        let plane = FaultPlane::seeded(0);
        plane.arm(FaultSite::VmTrap, 5);
        let (mut vm, clock) = faulted(plane);
        let prog = Program::new("spin", vec![Instr::Jmp { target: 0 }]);
        let mut fuel = 3;
        assert_eq!(
            vm.run(&Code::new(&prog).unwrap(), &mut NullKernel, &clock, &mut fuel),
            Exit::Preempted
        );
        let mut fuel = 100;
        let exit = vm.run(&Code::new(&prog).unwrap(), &mut NullKernel, &clock, &mut fuel);
        assert_eq!(exit, Exit::Trapped(Trap::Injected { pc: 0 }));
        assert_eq!(vm.stats.instrs, 4, "trap lands on the fifth visit overall");
    }

    #[test]
    fn trace_plane_sees_windows_and_sfi_checks() {
        use vino_sim::trace::{GraftTag, SfiKind, TraceEvent, TracePlane, VmExitKind};
        let clock = VirtualClock::new();
        let obs = Observer::new(Rc::clone(&clock));
        let plane = TracePlane::new(Rc::clone(&clock));
        obs.attach_trace(Rc::clone(&plane)).unwrap();
        let mem = AddressSpace::new(4096, 1024, Protection::Sfi);
        let tags = GraftTags { trace: Some(GraftTag(0)), ..GraftTags::default() };
        let mut vm = Vm::observed(mem, obs, tags);
        let prog = Program::new(
            "t",
            vec![
                Instr::Const { d: Reg(1), imm: 64 },
                Instr::Clamp { r: Reg(1) },
                Instr::Halt { result: Reg(1) },
            ],
        );
        let mut fuel = 2;
        assert_eq!(
            vm.run(&Code::new(&prog).unwrap(), &mut NullKernel, &clock, &mut fuel),
            Exit::Preempted
        );
        let mut fuel = 100;
        assert!(matches!(
            vm.run(&Code::new(&prog).unwrap(), &mut NullKernel, &clock, &mut fuel),
            Exit::Halted(_)
        ));
        let evs: Vec<TraceEvent> = plane.records().iter().map(|r| r.event).collect();
        assert_eq!(
            evs,
            vec![
                TraceEvent::SfiCheck { kind: SfiKind::Clamp, pc: 1 },
                TraceEvent::VmWindow { instrs: 2, exit: VmExitKind::Preempt },
                TraceEvent::VmWindow { instrs: 1, exit: VmExitKind::Halt },
            ]
        );
    }

    #[test]
    fn shift_amounts_masked() {
        let (exit, _, _) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: 1 },
            Instr::AluI { op: AluOp::Shl, d: Reg(0), a: Reg(1), imm: 65 }, // 65 & 63 == 1
            Instr::Halt { result: Reg(0) },
        ]);
        assert_eq!(exit, Exit::Halted(2));
    }

    #[test]
    fn signed_vs_unsigned_branches() {
        // -1 is huge unsigned but less than 0 signed.
        let (exit, _, _) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: -1 },
            Instr::Const { d: Reg(2), imm: 0 },
            Instr::Br { cond: Cond::LtS, a: Reg(1), b: Reg(2), target: 4 },
            Instr::Halt { result: Reg(2) }, // not taken => 0
            Instr::Br { cond: Cond::LtU, a: Reg(1), b: Reg(2), target: 6 },
            Instr::Halt { result: Reg(1) }, // LtU not taken => -1
            Instr::Halt { result: Reg(2) },
        ]);
        assert_eq!(exit, Exit::Halted(u64::MAX));
    }
}
