//! The per-instruction interpreter [`Vm::run`] replaced, kept as the
//! reference the differential test holds the batched loop to. It runs
//! the undecoded [`Program`], charges every instruction as it retires
//! and emits every sandbox check, through the observer primitives that
//! predate batching.

use std::rc::Rc;

use vino_sim::costs;
use vino_sim::fault::FaultSite;
use vino_sim::metrics::{Component, Counter};
use vino_sim::trace::{SfiKind, TraceEvent, VmExitKind};
use vino_sim::{Cycles, VirtualClock};

use super::{Exit, KernelApi, Trap, Vm};
use crate::isa::{AluOp, Cond, HostFnId, Instr, Program};

enum Flow {
    Continue,
    Halt(u64),
}

impl Vm {
    /// [`Vm::run`] as it was: one observer charge per instruction.
    pub(super) fn run_reference(
        &mut self,
        prog: &Program,
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
        fuel: &mut u64,
    ) -> Exit {
        let window_start = self.stats.instrs;
        let exit = self.run_window_reference(prog, env, clock, fuel);
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

    /// Charges `cost` and attributes it to `comp`, as the observer's old
    /// per-instruction `retire` did: clock, ledger, then the per-PC
    /// profile. Called first in every [`step`](Self::step) arm, while
    /// `self.pc` still holds the post-increment value.
    fn bill(&self, clock: &Rc<VirtualClock>, comp: Component, cost: Cycles) {
        let Some((obs, tags)) = &self.obs else {
            clock.charge(cost);
            return;
        };
        obs.clock().charge(cost);
        if let (Some(tag), Some(mp)) = (tags.metrics, obs.metrics()) {
            mp.charge(comp, cost);
            if let Some(pp) = obs.profile().filter(|_| tags.profile) {
                pp.record_pc(tag, self.pc.wrapping_sub(1), comp, cost);
            }
        }
    }

    fn emit(&self, ev: TraceEvent) {
        if let Some((obs, tags)) = &self.obs {
            obs.emit_as(tags, ev);
        }
    }

    fn run_window_reference(
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
