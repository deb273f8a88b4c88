//! Edge-case coverage for the graft engine: unlock semantics, repeated
//! invocation state, kfree, stats accumulation, and wrapper cost
//! accounting under preemption.

use std::rc::Rc;

use vino_core::engine::{GraftEngine, GraftInstance, InvokeOutcome};
use vino_core::hostfn;
use vino_rm::{Limits, ResourceKind};
use vino_sim::{costs, ThreadId, VirtualClock};
use vino_txn::locks::LockClass;
use vino_vm::asm::assemble;
use vino_vm::mem::{AddressSpace, Protection};

const T: ThreadId = ThreadId(3);

fn engine() -> Rc<GraftEngine> {
    GraftEngine::new(vino_sim::Observer::new(VirtualClock::new()))
}

fn instance(e: &Rc<GraftEngine>, src: &str) -> GraftInstance {
    let prog = assemble("edge", src, &hostfn::symbols()).unwrap();
    let principal = e.rm.borrow_mut().create_graft_principal();
    let mem = AddressSpace::new(4096, 256, Protection::Sfi);
    GraftInstance::new(Rc::clone(e), prog, mem, T, principal).unwrap()
}

#[test]
fn unlock_of_unknown_handle_traps() {
    let e = engine();
    let mut g = instance(&e, "const r1, 77\ncall $unlock\nhalt r0");
    assert!(matches!(g.invoke([0; 4]), InvokeOutcome::Aborted { .. }));
}

#[test]
fn lock_unlock_pair_within_transaction_defers() {
    let e = engine();
    let (_, lock_id) = e.register_lock(LockClass::Buffer);
    let mut g = instance(
        &e,
        "
        const r1, 0
        call $lock
        const r1, 0
        call $unlock      ; deferred by two-phase locking
        call $kv_get      ; r1 = 0: read something while 'unlocked'
        halt r0
        ",
    );
    // During the run the lock must remain held until commit; after the
    // commit it is free. Verify the end state.
    assert!(matches!(g.invoke([0; 4]), InvokeOutcome::Ok { .. }));
    assert_eq!(e.txn.borrow().lock_table().holder(lock_id), None);
}

#[test]
fn repeated_invocations_accumulate_stats_and_share_memory() {
    let e = engine();
    // Graft: increment a counter it keeps in its own segment at off 64.
    let mut g = instance(
        &e,
        "
        call $shared_base
        mov r5, r0
        loadw r6, [r5+64]
        addi r6, r6, 1
        storew r6, [r5+64]
        halt r6
        ",
    );
    for i in 1..=5u64 {
        match g.invoke([0; 4]) {
            InvokeOutcome::Ok { result, .. } => assert_eq!(result, i, "graft memory persists"),
            other => panic!("{other:?}"),
        }
    }
    let s = g.stats();
    assert_eq!(s.invocations, 5);
    assert_eq!(s.commits, 5);
    assert_eq!(s.aborts, 0);
}

#[test]
fn kfree_returns_headroom_for_later_allocations() {
    let e = engine();
    let installer =
        e.rm.borrow_mut().create_principal(Limits::of(&[(ResourceKind::KernelHeap, 1000)]));
    let mut g = instance(
        &e,
        "
        const r1, 1000
        call $kalloc
        const r1, 1000
        call $kfree
        const r1, 1000
        call $kalloc     ; only fits because kfree returned the headroom
        halt r0
        ",
    );
    e.rm.borrow_mut().transfer(installer, g.principal, ResourceKind::KernelHeap, 1000).unwrap();
    assert!(matches!(g.invoke([0; 4]), InvokeOutcome::Ok { .. }));
}

#[test]
fn preemption_charges_context_switches() {
    let e = engine();
    // ~2.4M instructions (two timeslices) of spinning, then halt.
    let mut g = instance(
        &e,
        "
        const r1, 0
        const r2, 1500000
        loop:
        addi r1, r1, 1
        bltu r1, r2, loop
        halt r1
        ",
    );
    let t0 = e.clock.now();
    match g.invoke([0; 4]) {
        InvokeOutcome::Ok { .. } => {}
        other => panic!("{other:?}"),
    }
    let elapsed = e.clock.since(t0);
    let s = g.stats();
    assert!(s.preemptions >= 1, "long graft must be preempted at least once");
    // Each preemption costs a context-switch pair on top of the work.
    let min_switch_cost = s.preemptions * 2 * costs::CONTEXT_SWITCH.get();
    assert!(elapsed.get() > min_switch_cost);
}

#[test]
fn dead_graft_reports_dead_without_txn_traffic() {
    let e = engine();
    let mut g = instance(&e, "const r1, 0\ndiv r0, r1, r1\nhalt r0");
    assert!(matches!(g.invoke([0; 4]), InvokeOutcome::Aborted { .. }));
    let begins_before = e.txn.borrow().stats().begins;
    assert!(matches!(g.invoke([0; 4]), InvokeOutcome::Dead));
    assert_eq!(
        e.txn.borrow().stats().begins,
        begins_before,
        "dead grafts must not open transactions"
    );
}

#[test]
fn log_and_extents_reset_between_invocations() {
    let e = engine();
    let mut g = instance(
        &e,
        "
        mov r1, r1
        call $log
        const r1, 64
        const r2, 32
        call $ra_submit
        halt r0
        ",
    );
    match g.invoke([5, 0, 0, 0]) {
        InvokeOutcome::Ok { log, extents, .. } => {
            assert_eq!(log, vec![5]);
            assert_eq!(extents, vec![(64, 32)]);
        }
        other => panic!("{other:?}"),
    }
    match g.invoke([9, 0, 0, 0]) {
        InvokeOutcome::Ok { log, extents, .. } => {
            assert_eq!(log, vec![9], "fresh log per invocation");
            assert_eq!(extents, vec![(64, 32)]);
        }
        other => panic!("{other:?}"),
    }
}
