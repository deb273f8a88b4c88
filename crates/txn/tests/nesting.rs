//! The abort protocol under nesting, and the regression suite for the
//! nested-transaction lock double-release (the audit item of this PR).
//!
//! §3.1: "because graft functions may indirectly invoke other grafts,
//! we found it necessary to include support for nested transactions" —
//! and the composition laws that makes safe: a callee abort spares the
//! caller; a caller abort after a callee commit undoes merged entries
//! in LIFO order; locks release exactly when the *owning* transaction
//! finishes, never earlier.

use std::cell::RefCell;
use std::rc::Rc;

use vino_sim::{Cycles, Observer, ThreadId, VirtualClock};
use vino_txn::locks::LockClass;
use vino_txn::manager::{AbortReason, LockOutcome, TimeoutEvent, TxnManager};

const T1: ThreadId = ThreadId(1);
const T2: ThreadId = ThreadId(2);

fn mgr() -> TxnManager {
    TxnManager::new(Observer::new(VirtualClock::new()))
}

/// REGRESSION (double-release audit): an inner transaction re-acquiring
/// a lock its outer transaction already holds must NOT release that
/// lock when the inner transaction aborts. Before the fix, the inner
/// frame re-recorded the lock and its abort called `release_all_holds`,
/// handing the outer transaction's lock to a competing thread mid-txn —
/// a two-phase-locking violation.
#[test]
fn inner_abort_does_not_release_outer_lock() {
    let mut m = mgr();
    let l = m.create_lock(LockClass::Buffer);
    m.begin(T1);
    assert_eq!(m.lock(l, T1), LockOutcome::Granted);

    m.begin(T1); // Nested.
    assert_eq!(m.lock(l, T1), LockOutcome::Granted, "re-entrant for the same thread");
    let rep = m.abort(T1, AbortReason::Explicit).unwrap();
    assert_eq!(rep.locks_released, 0, "inner abort must not release the outer's lock");

    // The outer transaction still holds the lock against other threads.
    assert_eq!(m.lock_table().holder(l), Some(T1));
    assert!(matches!(m.lock(l, T2), LockOutcome::Blocked { .. }), "2PL: lock still pinned");

    let rep = m.abort(T1, AbortReason::Explicit).unwrap();
    assert_eq!(rep.locks_released, 1, "owner abort releases it exactly once");
    assert_eq!(m.lock_table().holder(l), None);
}

/// REGRESSION companion: same shape but the inner transaction commits.
/// The merge must not duplicate the lock in the outer frame (a
/// duplicate would double-count `locks_released` and double-charge the
/// 10 µs-per-lock abort term).
#[test]
fn inner_commit_does_not_duplicate_outer_lock() {
    let mut m = mgr();
    let l = m.create_lock(LockClass::Buffer);
    m.begin(T1);
    m.lock(l, T1);
    m.begin(T1);
    m.lock(l, T1);
    m.commit(T1).unwrap();
    let rep = m.abort(T1, AbortReason::Explicit).unwrap();
    assert_eq!(rep.locks_released, 1);
    assert_eq!(m.lock_table().holder(l), None);
}

/// REGRESSION (the `fire_due_timeouts` interaction from the audit): a
/// fired time-out aborts the holder's *innermost* transaction. When the
/// contended lock is owned by an outer frame, that abort must not
/// release it — the waiter keeps waiting and a later time-out peels the
/// outer frame. Forward progress (Rule 9) without breaking isolation.
#[test]
fn timeout_abort_peels_nesting_without_double_release() {
    let mut m = mgr();
    let l = m.create_lock(LockClass::Buffer);
    m.begin(T1);
    m.lock(l, T1);
    m.begin(T1); // Inner txn; does not own `l`.

    let LockOutcome::Blocked { deadline, .. } = m.lock(l, T2) else {
        panic!("expected contention");
    };
    m.clock().advance_to(deadline);
    let events = m.fire_due_timeouts();
    assert!(
        matches!(events[0], TimeoutEvent::HolderAborted { holder: T1, .. }),
        "innermost aborted"
    );
    // Inner did not own the lock, so T1 still holds it and T2 is still out.
    assert_eq!(m.lock_table().holder(l), Some(T1));
    assert_eq!(m.depth(T1), 1, "only the innermost frame was aborted");

    // The waiter re-arms; the next time-out aborts the owning frame.
    let LockOutcome::Blocked { deadline, .. } = m.lock(l, T2) else {
        panic!("still contended");
    };
    m.clock().advance_to(deadline);
    let events = m.fire_due_timeouts();
    assert!(matches!(events[0], TimeoutEvent::HolderAborted { holder: T1, .. }));
    assert_eq!(m.lock_table().holder(l), None, "owning frame released exactly once");
    assert_eq!(m.depth(T1), 0);
    assert_eq!(m.lock(l, T2), LockOutcome::Granted, "Rule 9: waiter proceeds");
}

/// A callee abort spares the caller: the caller's undo log, locks, and
/// ability to commit are untouched.
#[test]
fn callee_abort_spares_caller() {
    let state = Rc::new(RefCell::new(Vec::<&'static str>::new()));
    let mut m = mgr();
    let l_outer = m.create_lock(LockClass::Buffer);
    m.begin(T1);
    m.lock(l_outer, T1);
    state.borrow_mut().push("outer-op");
    let s = Rc::clone(&state);
    m.log_undo(T1, "outer", Cycles(10), move || {
        s.borrow_mut().retain(|x| *x != "outer-op");
    })
    .unwrap();

    // Callee (nested) does work, then aborts.
    m.begin(T1);
    state.borrow_mut().push("inner-op");
    let s = Rc::clone(&state);
    m.log_undo(T1, "inner", Cycles(10), move || {
        s.borrow_mut().retain(|x| *x != "inner-op");
    })
    .unwrap();
    let rep = m.abort(T1, AbortReason::Explicit).unwrap();
    assert_eq!(rep.undo_ops, 1, "only the callee's op reversed");

    // Caller unaffected: still in txn, lock held, state has outer-op.
    assert!(m.in_txn(T1));
    assert_eq!(m.lock_table().holder(l_outer), Some(T1));
    assert_eq!(*state.borrow(), vec!["outer-op"]);
    assert_eq!(m.pending_undo(T1), 1, "caller's undo log intact");

    let rep = m.commit(T1).unwrap();
    assert_eq!(rep.locks_released, 1);
    assert_eq!(*state.borrow(), vec!["outer-op"], "commit preserves the caller's work");
}

/// Caller abort after callee commit: the merged entries run in LIFO
/// order across the merge boundary — callee's undos first (newest), then
/// the caller's — and the undo-stack depth returns to zero.
#[test]
fn caller_abort_after_callee_commit_undoes_lifo() {
    let order = Rc::new(RefCell::new(Vec::<&'static str>::new()));
    let mut m = mgr();
    m.begin(T1);
    for label in ["caller-1", "caller-2"] {
        let o = Rc::clone(&order);
        m.log_undo(T1, label, Cycles(10), move || o.borrow_mut().push(label)).unwrap();
    }

    m.begin(T1);
    for label in ["callee-1", "callee-2"] {
        let o = Rc::clone(&order);
        m.log_undo(T1, label, Cycles(10), move || o.borrow_mut().push(label)).unwrap();
    }
    assert_eq!(m.pending_undo(T1), 2, "callee's own log");
    m.commit(T1).unwrap(); // Merge into caller.
    assert_eq!(m.pending_undo(T1), 4, "caller's log absorbed the callee's");

    let rep = m.abort(T1, AbortReason::Explicit).unwrap();
    assert_eq!(rep.undo_ops, 4);
    assert_eq!(
        *order.borrow(),
        vec!["callee-2", "callee-1", "caller-2", "caller-1"],
        "strict LIFO across the merge boundary"
    );
    assert_eq!(m.pending_undo(T1), 0, "undo-stack depth back to zero");
    assert!(!m.in_txn(T1));
    assert_eq!(m.active_txns(), 0);
}

/// Depth bookkeeping through a three-level nest with mixed outcomes.
#[test]
fn undo_depth_returns_to_zero_through_mixed_nesting() {
    let mut m = mgr();
    m.begin(T1);
    m.log_undo(T1, "a", Cycles(1), || {}).unwrap();
    m.begin(T1);
    m.log_undo(T1, "b", Cycles(1), || {}).unwrap();
    m.begin(T1);
    m.log_undo(T1, "c", Cycles(1), || {}).unwrap();
    assert_eq!(m.depth(T1), 3);

    m.abort(T1, AbortReason::Explicit).unwrap(); // c reversed.
    assert_eq!(m.depth(T1), 2);
    assert_eq!(m.pending_undo(T1), 1, "level-2 log untouched");
    m.commit(T1).unwrap(); // b merges into a's frame.
    assert_eq!(m.depth(T1), 1);
    assert_eq!(m.pending_undo(T1), 2);
    let rep = m.abort(T1, AbortReason::Explicit).unwrap();
    assert_eq!(rep.undo_ops, 2);
    assert_eq!(m.depth(T1), 0);
    assert_eq!(m.pending_undo(T1), 0);
    assert_eq!(m.active_txns(), 0);
    assert_eq!(m.lock_table().held_count(), 0);
}

/// Locks acquired at different nesting levels release with their own
/// frame: the inner's lock at inner abort, the outer's at outer commit.
#[test]
fn locks_release_with_their_owning_frame() {
    let mut m = mgr();
    let l_outer = m.create_lock(LockClass::Buffer);
    let l_inner = m.create_lock(LockClass::Buffer);
    m.begin(T1);
    m.lock(l_outer, T1);
    m.begin(T1);
    m.lock(l_inner, T1);

    let rep = m.abort(T1, AbortReason::Explicit).unwrap();
    assert_eq!(rep.locks_released, 1, "inner frame owned only l_inner");
    assert_eq!(m.lock_table().holder(l_inner), None);
    assert_eq!(m.lock_table().holder(l_outer), Some(T1), "outer's lock survives");

    let rep = m.commit(T1).unwrap();
    assert_eq!(rep.locks_released, 1);
    assert_eq!(m.lock_table().held_count(), 0);
}
