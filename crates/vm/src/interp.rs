//! The GraftVM interpreter.
//!
//! Executes a [`Program`] against an [`AddressSpace`], charging calibrated
//! cycle costs to the simulation clock for every instruction. Execution
//! is **fuel-bounded**: the kernel gives each invocation a timeslice worth
//! of instructions, and when fuel runs out the interpreter returns
//! [`Exit::Preempted`] with all state preserved, so the scheduler can
//! resume or the transaction manager can abort. This is how Rule 1 of
//! Table 1 ("Grafts must be preemptible") is implemented: a graft with
//! `while (1);` gets exactly its timeslice and no more (§2.2).

use std::rc::Rc;

use vino_sim::costs;
use vino_sim::fault::FaultSite;
use vino_sim::metrics::{Component, Counter};
use vino_sim::obs::{GraftTags, Observer};
use vino_sim::trace::{SfiKind, TraceEvent, VmExitKind};
use vino_sim::{Cycles, VirtualClock};

use crate::isa::{AluOp, Cond, HostFnId, Instr, Program};
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
    /// interned for at install. Every instruction is charged through
    /// the observer and attributed to an overhead component
    /// ([`Component::Sfi`] for sandbox ops, [`Component::GraftFn`] for
    /// everything else; host functions attribute their own interior
    /// costs). For the planes `tags` names, each run window emits
    /// `vm.window`, each sandbox check `vm.sfi`, each instruction visits
    /// [`FaultSite::VmTrap`] and bills its (graft, function, pc) key.
    pub fn observed(mem: AddressSpace, obs: Rc<Observer>, tags: GraftTags) -> Vm {
        Vm { obs: Some((obs, tags)), ..Vm::new(mem) }
    }

    /// Charges `cost` and attributes it to `comp`.
    ///
    /// Called as the first action of every [`step`](Self::step) arm,
    /// while `self.pc` still holds the post-increment value — so the
    /// retiring instruction is at `self.pc - 1` and the profile plane
    /// can bill per-PC before any control transfer rewrites `pc`.
    fn bill(&self, clock: &Rc<VirtualClock>, comp: Component, cost: Cycles) {
        match &self.obs {
            Some((obs, tags)) => obs.retire(tags, self.pc.wrapping_sub(1), comp, cost),
            None => clock.charge(cost),
        }
    }

    /// The profile plane and this graft's metrics tag, if it bills one.
    fn profiled(&self) -> Option<(&Rc<vino_sim::ProfilePlane>, vino_sim::MetricTag)> {
        let (obs, tags) = self.obs.as_ref()?;
        Some((obs.profile().filter(|_| tags.profile)?, tags.metrics?))
    }

    fn emit(&self, ev: TraceEvent) {
        if let Some((obs, tags)) = &self.obs {
            obs.emit_as(tags, ev);
        }
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

    /// Runs until halt, trap, or fuel exhaustion.
    ///
    /// `fuel` is decremented once per retired instruction; when it hits
    /// zero the run returns [`Exit::Preempted`] and may be resumed by
    /// calling `run` again with fresh fuel. All cycle costs are charged
    /// to `clock` as they accrue.
    pub fn run(
        &mut self,
        prog: &Program,
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
        fuel: &mut u64,
    ) -> Exit {
        let window_start = self.stats.instrs;
        let exit = self.run_window(prog, env, clock, fuel);
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

    fn run_window(
        &mut self,
        prog: &Program,
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
        fuel: &mut u64,
    ) -> Exit {
        loop {
            if *fuel == 0 {
                return Exit::Preempted;
            }
            let Some(&instr) = prog.instrs.get(self.pc) else {
                return Exit::Trapped(Trap::PcOutOfRange { pc: self.pc });
            };
            if let Some((obs, tags)) = &self.obs {
                if obs.fire_as(tags, FaultSite::VmTrap) {
                    return Exit::Trapped(Trap::Injected { pc: self.pc });
                }
            }
            *fuel -= 1;
            self.stats.instrs += 1;
            self.pc += 1;
            match self.step(instr, env, clock) {
                Ok(Flow::Continue) => {}
                Ok(Flow::Halt(v)) => return Exit::Halted(v),
                Err(t) => return Exit::Trapped(t),
            }
        }
    }

    fn step(
        &mut self,
        instr: Instr,
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
    ) -> Result<Flow, Trap> {
        match instr {
            Instr::Const { d, imm } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::INSTR_CYCLES));
                self.regs[d.idx()] = imm as u64;
            }
            Instr::Mov { d, s } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::INSTR_CYCLES));
                self.regs[d.idx()] = self.regs[s.idx()];
            }
            Instr::Alu { op, d, a, b } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::INSTR_CYCLES));
                let r = alu(op, self.regs[a.idx()], self.regs[b.idx()])?;
                self.regs[d.idx()] = r;
            }
            Instr::AluI { op, d, a, imm } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::INSTR_CYCLES));
                let r = alu(op, self.regs[a.idx()], imm as u64)?;
                self.regs[d.idx()] = r;
            }
            Instr::LoadW { d, addr, off } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::LOAD_CYCLES));
                self.stats.loads += 1;
                let a = self.regs[addr.idx()].wrapping_add(off as i64 as u64);
                self.regs[d.idx()] = self.mem.read(a, 4).map_err(Trap::Mem)?;
            }
            Instr::StoreW { s, addr, off } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::STORE_CYCLES));
                self.stats.stores += 1;
                let a = self.regs[addr.idx()].wrapping_add(off as i64 as u64);
                self.mem.write(a, self.regs[s.idx()], 4).map_err(Trap::Mem)?;
            }
            Instr::LoadB { d, addr, off } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::LOAD_CYCLES));
                self.stats.loads += 1;
                let a = self.regs[addr.idx()].wrapping_add(off as i64 as u64);
                self.regs[d.idx()] = self.mem.read(a, 1).map_err(Trap::Mem)?;
            }
            Instr::StoreB { s, addr, off } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::STORE_CYCLES));
                self.stats.stores += 1;
                let a = self.regs[addr.idx()].wrapping_add(off as i64 as u64);
                self.mem.write(a, self.regs[s.idx()], 1).map_err(Trap::Mem)?;
            }
            Instr::Jmp { target } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::BRANCH_CYCLES));
                self.pc = target as usize;
            }
            Instr::Br { cond, a, b, target } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::BRANCH_CYCLES));
                if eval_cond(cond, self.regs[a.idx()], self.regs[b.idx()]) {
                    self.pc = target as usize;
                }
            }
            Instr::Call { func } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::CALL_CYCLES));
                self.stats.host_calls += 1;
                let args = [self.regs[1], self.regs[2], self.regs[3], self.regs[4]];
                self.regs[0] = env.host_call(func, args, &mut self.mem)?;
            }
            Instr::CallI { target } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::CALL_CYCLES));
                let id = HostFnId(self.regs[target.idx()] as u32);
                if !env.is_callable(id) {
                    // Un-instrumented code jumping through a wild pointer;
                    // MiSFIT-processed code traps earlier, in CheckCall.
                    return Err(Trap::WildJump { id });
                }
                self.stats.host_calls += 1;
                let args = [self.regs[1], self.regs[2], self.regs[3], self.regs[4]];
                self.regs[0] = env.host_call(id, args, &mut self.mem)?;
            }
            Instr::CallLocal { target } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::CALL_CYCLES));
                if self.call_stack.len() >= self.cfg.max_call_depth {
                    return Err(Trap::CallDepthExceeded);
                }
                self.call_stack.push(self.pc);
                self.pc = target as usize;
                if let Some((pp, tag)) = self.profiled() {
                    pp.enter_fn(tag, target);
                }
            }
            Instr::Ret => {
                self.bill(clock, Component::GraftFn, Cycles(costs::RET_CYCLES));
                self.pc = self.call_stack.pop().ok_or(Trap::RetWithoutCall)?;
                if let Some((pp, tag)) = self.profiled() {
                    pp.exit_fn(tag);
                }
            }
            Instr::Halt { result } => {
                self.bill(clock, Component::GraftFn, Cycles(costs::INSTR_CYCLES));
                return Ok(Flow::Halt(self.regs[result.idx()]));
            }
            Instr::Clamp { r } => {
                self.bill(clock, Component::Sfi, Cycles(costs::SFI_CLAMP_CYCLES));
                self.stats.clamps += 1;
                self.emit(TraceEvent::SfiCheck { kind: SfiKind::Clamp, pc: (self.pc - 1) as u64 });
                self.regs[r.idx()] = self.mem.clamp(self.regs[r.idx()]);
            }
            Instr::CheckCall { r } => {
                self.bill(clock, Component::Sfi, Cycles(costs::SFI_CALLCHECK_CYCLES));
                self.stats.checkcalls += 1;
                self.emit(TraceEvent::SfiCheck {
                    kind: SfiKind::CheckCall,
                    pc: (self.pc - 1) as u64,
                });
                let id = HostFnId(self.regs[r.idx()] as u32);
                if !env.is_callable(id) {
                    return Err(Trap::ForbiddenCall { id });
                }
            }
            Instr::Nop => {
                self.bill(clock, Component::GraftFn, Cycles(costs::INSTR_CYCLES));
            }
        }
        Ok(Flow::Continue)
    }
}

enum Flow {
    Continue,
    Halt(u64),
}

fn alu(op: AluOp, a: u64, b: u64) -> Result<u64, Trap> {
    Ok(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => a.checked_div(b).ok_or(Trap::DivByZero)?,
        AluOp::Rem => a.checked_rem(b).ok_or(Trap::DivByZero)?,
        AluOp::Xor => a ^ b,
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Shl => a << (b & 63),
        AluOp::Shr => a >> (b & 63),
    })
}

fn eval_cond(c: Cond, a: u64, b: u64) -> bool {
    match c {
        Cond::Eq => a == b,
        Cond::Ne => a != b,
        Cond::LtU => a < b,
        Cond::GeU => a >= b,
        Cond::LtS => (a as i64) < (b as i64),
        Cond::GeS => (a as i64) >= (b as i64),
    }
}

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
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
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
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
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
        assert_eq!(vm.run(&prog, &mut NullKernel, &clock, &mut fuel), Exit::Preempted);
        assert_eq!(fuel, 0);
        let mut fuel = 50;
        assert_eq!(vm.run(&prog, &mut NullKernel, &clock, &mut fuel), Exit::Preempted);
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
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
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
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
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
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
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
        assert_eq!(vm.run(&prog, &mut Adder, &clock, &mut fuel), Exit::Halted(10));
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
        vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
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
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
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
        assert_eq!(vm.run(&prog, &mut NullKernel, &clock, &mut fuel), Exit::Preempted);
        let mut fuel = 100;
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
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
        assert_eq!(vm.run(&prog, &mut NullKernel, &clock, &mut fuel), Exit::Preempted);
        let mut fuel = 100;
        assert!(matches!(vm.run(&prog, &mut NullKernel, &clock, &mut fuel), Exit::Halted(_)));
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
