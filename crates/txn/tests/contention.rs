//! Multi-thread contention scenarios for the transaction manager:
//! hand-off chains, waiter cancellation, commit-time hand-offs, and the
//! §2.2 "graft holds a lock acquired before it was invoked" note.

use std::cell::RefCell;
use std::rc::Rc;

use vino_sim::{Observer, ThreadId, VirtualClock};
use vino_txn::locks::LockClass;
use vino_txn::manager::{AbortReason, LockOutcome, TimeoutEvent, TxnManager};

const T1: ThreadId = ThreadId(1);
const T2: ThreadId = ThreadId(2);
const T3: ThreadId = ThreadId(3);

fn mgr() -> (TxnManager, Rc<VirtualClock>) {
    let clock = VirtualClock::new();
    (TxnManager::new(Observer::new(Rc::clone(&clock))), clock)
}

#[test]
fn commit_hands_off_to_first_waiter() {
    let (mut m, _) = mgr();
    let l = m.create_lock(LockClass::Buffer);
    m.begin(T1);
    m.lock(l, T1);
    // T2 and T3 queue up.
    assert!(matches!(m.lock(l, T2), LockOutcome::Blocked { .. }));
    assert!(matches!(m.lock(l, T3), LockOutcome::Blocked { .. }));
    let report = m.commit(T1).unwrap();
    assert_eq!(report.locks_released, 1);
    assert_eq!(report.handoffs, vec![(l, T2)], "FIFO hand-off to the first waiter");
    assert!(matches!(m.lock(l, T2), LockOutcome::Granted));
}

#[test]
fn chained_timeouts_drain_a_convoy() {
    // T1 (in txn) hoards; T2 and T3 wait. T2's time-out aborts T1 and
    // T2 wins; then T2 (not in a txn) holds while T3 waits — T3's
    // time-out reports HolderNotInTxn, and once T2 releases, T3 runs.
    let (mut m, clock) = mgr();
    let l = m.create_lock(LockClass::Buffer);
    m.begin(T1);
    m.lock(l, T1);
    let LockOutcome::Blocked { .. } = m.lock(l, T2) else { panic!() };
    let LockOutcome::Blocked { .. } = m.lock(l, T3) else { panic!() };
    // First deadline: abort T1.
    let dl = m.next_timeout().unwrap();
    clock.advance_to(dl);
    let events = m.fire_due_timeouts();
    assert!(events
        .iter()
        .any(|e| matches!(e, TimeoutEvent::HolderAborted { holder, .. } if *holder == T1)));
    // T2 takes it as a plain mutex (no txn).
    assert!(matches!(m.lock(l, T2), LockOutcome::Granted));
    // T3 re-requests, blocks, times out: holder not in txn → policy up
    // to the caller; T2 then releases and T3 proceeds.
    let LockOutcome::Blocked { deadline, .. } = m.lock(l, T3) else { panic!() };
    clock.advance_to(deadline);
    let events = m.fire_due_timeouts();
    assert!(events
        .iter()
        .any(|e| matches!(e, TimeoutEvent::HolderNotInTxn { holder, .. } if *holder == T2)));
    m.unlock(l, T2);
    assert!(matches!(m.lock(l, T3), LockOutcome::Granted));
}

#[test]
fn pre_invocation_lock_released_by_graft_abort() {
    // §3.2: "we abort the transaction even if the lock was acquired
    // before the graft was invoked" — model: T1 takes the lock outside
    // any txn, then begins a txn (the graft wrapper) and RE-ACQUIRES it
    // re-entrantly inside; the timeout aborts the txn, which releases
    // every hold the thread has, and the invoking code's presumption of
    // a timely release is satisfied by the waiter making progress.
    let (mut m, clock) = mgr();
    let l = m.create_lock(LockClass::Buffer);
    m.lock(l, T1); // Pre-graft acquisition (plain).
    m.begin(T1); // The graft wrapper's transaction.
    m.lock(l, T1); // Re-entrant acquisition inside the graft.
    let LockOutcome::Blocked { deadline, .. } = m.lock(l, T2) else { panic!() };
    clock.advance_to(deadline);
    let events = m.fire_due_timeouts();
    assert!(matches!(events[0], TimeoutEvent::HolderAborted { .. }));
    assert_eq!(m.lock_table().holder(l), None, "all holds force-released on abort");
    assert!(matches!(m.lock(l, T2), LockOutcome::Granted));
}

#[test]
fn undo_ordering_across_many_accessors() {
    // 100 interleaved accessor updates across three "objects": abort
    // must restore all of them regardless of interleaving.
    let (mut m, _) = mgr();
    let state: Rc<RefCell<[u64; 3]>> = Rc::new(RefCell::new([10, 20, 30]));
    m.begin(T1);
    for i in 0..100u64 {
        let obj = (i % 3) as usize;
        let old = state.borrow()[obj];
        state.borrow_mut()[obj] = old + i;
        let s = Rc::clone(&state);
        m.log_undo(T1, "set", vino_sim::Cycles(10), move || s.borrow_mut()[obj] = old).unwrap();
    }
    assert_ne!(*state.borrow(), [10, 20, 30]);
    let rep = m.abort(T1, AbortReason::Explicit).unwrap();
    assert_eq!(rep.undo_ops, 100);
    assert_eq!(*state.borrow(), [10, 20, 30]);
}

#[test]
fn three_level_nesting_merges_transitively() {
    let (mut m, _) = mgr();
    let state: Rc<RefCell<Vec<u32>>> = Rc::default();
    for level in 0..3u32 {
        m.begin(T1);
        state.borrow_mut().push(level);
        let s = Rc::clone(&state);
        m.log_undo(T1, "pop", vino_sim::Cycles(5), move || {
            s.borrow_mut().pop();
        })
        .unwrap();
    }
    assert_eq!(m.depth(T1), 3);
    // Commit the two inner levels: merges, nothing undone.
    m.commit(T1).unwrap();
    m.commit(T1).unwrap();
    assert_eq!(m.depth(T1), 1);
    assert_eq!(*state.borrow(), vec![0, 1, 2]);
    // Abort the outermost: everything unwinds, innermost first.
    let rep = m.abort(T1, AbortReason::Explicit).unwrap();
    assert_eq!(rep.undo_ops, 3);
    assert!(state.borrow().is_empty());
}

#[test]
fn stats_track_timeout_aborts_separately() {
    let (mut m, clock) = mgr();
    let l = m.create_lock(LockClass::Buffer);
    m.begin(T1);
    m.lock(l, T1);
    let LockOutcome::Blocked { deadline, .. } = m.lock(l, T2) else { panic!() };
    clock.advance_to(deadline);
    m.fire_due_timeouts();
    // Plus one explicit abort elsewhere.
    m.begin(T3);
    m.abort(T3, AbortReason::Explicit).unwrap();
    let s = m.stats();
    assert_eq!(s.aborts, 2);
    assert_eq!(s.timeout_aborts, 1);
}
