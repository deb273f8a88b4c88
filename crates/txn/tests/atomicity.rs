//! Randomised tests for transaction atomicity and nesting laws, driven
//! by a seeded deterministic generator (formerly proptest).
//!
//! The contract of §3.1: for *any* sequence of kernel-state mutations a
//! graft performs through accessor functions, abort restores exactly the
//! pre-transaction state, while commit preserves exactly the post-state.
//! Nested transactions compose: inner aborts reverse only inner work,
//! inner commits fold into the parent.

use std::cell::RefCell;
use std::rc::Rc;

use vino_sim::{Cycles, Observer, SplitMix64, ThreadId, VirtualClock};
use vino_txn::manager::{AbortReason, TxnManager};

const T: ThreadId = ThreadId(1);

/// A model kernel object store: register-file-like array of i64 cells.
type Store = Rc<RefCell<[i64; 8]>>;

/// One accessor call a graft might make.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `cell += delta` (undo: subtract).
    Add { cell: usize, delta: i32 },
    /// `cell = value` (undo: restore old).
    Set { cell: usize, value: i32 },
    /// Swap two cells (undo: swap back).
    Swap { a: usize, b: usize },
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    match rng.below(3) {
        0 => Op::Add { cell: rng.below(8) as usize, delta: rng.next_u64() as i32 },
        1 => Op::Set { cell: rng.below(8) as usize, value: rng.next_u64() as i32 },
        _ => Op::Swap { a: rng.below(8) as usize, b: rng.below(8) as usize },
    }
}

fn gen_ops(rng: &mut SplitMix64, max: u64) -> Vec<Op> {
    let n = rng.below(max) as usize;
    (0..n).map(|_| gen_op(rng)).collect()
}

/// Applies `o` through the "accessor function" protocol: mutate state,
/// then log the reversal with the transaction manager.
fn apply(m: &mut TxnManager, store: &Store, o: Op) {
    match o {
        Op::Add { cell, delta } => {
            let old = store.borrow()[cell];
            store.borrow_mut()[cell] = old.wrapping_add(delta as i64);
            let s = Rc::clone(store);
            m.log_undo(T, "add", Cycles(30), move || {
                let cur = s.borrow()[cell];
                s.borrow_mut()[cell] = cur.wrapping_sub(delta as i64);
            })
            .unwrap();
        }
        Op::Set { cell, value } => {
            let old = store.borrow()[cell];
            store.borrow_mut()[cell] = value as i64;
            let s = Rc::clone(store);
            m.log_undo(T, "set", Cycles(30), move || {
                s.borrow_mut()[cell] = old;
            })
            .unwrap();
        }
        Op::Swap { a, b } => {
            store.borrow_mut().swap(a, b);
            let s = Rc::clone(store);
            m.log_undo(T, "swap", Cycles(30), move || {
                s.borrow_mut().swap(a, b);
            })
            .unwrap();
        }
    }
}

/// Abort restores the exact pre-transaction state for any op mix.
#[test]
fn abort_is_exact_inverse() {
    let mut rng = SplitMix64::new(0xAB_0127);
    for _case in 0..256 {
        let ops = gen_ops(&mut rng, 40);
        let store: Store = Rc::new(RefCell::new([3, 1, 4, 1, 5, 9, 2, 6]));
        let before = *store.borrow();
        let mut m = TxnManager::new(Observer::new(VirtualClock::new()));
        m.begin(T);
        for o in &ops {
            apply(&mut m, &store, *o);
        }
        let rep = m.abort(T, AbortReason::Explicit).unwrap();
        assert_eq!(rep.undo_ops, ops.len());
        assert_eq!(*store.borrow(), before);
    }
}

/// Commit preserves the exact post-state (undo never runs).
#[test]
fn commit_preserves_mutations() {
    let mut rng = SplitMix64::new(0xC0_3317);
    for _case in 0..256 {
        let ops = gen_ops(&mut rng, 40);
        let store: Store = Rc::new(RefCell::new([0; 8]));
        let mut m = TxnManager::new(Observer::new(VirtualClock::new()));
        m.begin(T);
        for o in &ops {
            apply(&mut m, &store, *o);
        }
        let after = *store.borrow();
        m.commit(T).unwrap();
        assert_eq!(*store.borrow(), after);
    }
}

/// Nesting law: outer(A); inner(B) aborted; outer aborted — final
/// state is pristine. And: inner committed then outer aborted —
/// also pristine (inner merges into outer).
#[test]
fn nested_composition() {
    let mut rng = SplitMix64::new(0x4E_57ED);
    for _case in 0..256 {
        let outer_ops = gen_ops(&mut rng, 15);
        let inner_ops = gen_ops(&mut rng, 15);
        let inner_commits = rng.chance(1, 2);
        let store: Store = Rc::new(RefCell::new([7; 8]));
        let before = *store.borrow();
        let mut m = TxnManager::new(Observer::new(VirtualClock::new()));
        m.begin(T);
        for o in &outer_ops {
            apply(&mut m, &store, *o);
        }
        let mid = *store.borrow();
        m.begin(T);
        for o in &inner_ops {
            apply(&mut m, &store, *o);
        }
        if inner_commits {
            m.commit(T).unwrap();
        } else {
            m.abort(T, AbortReason::Explicit).unwrap();
            // Inner abort alone restores the mid-state.
            assert_eq!(*store.borrow(), mid);
        }
        m.abort(T, AbortReason::Explicit).unwrap();
        assert_eq!(*store.borrow(), before);
    }
}

/// The abort charge always satisfies the §4.5 equation with the exact
/// undo costs logged.
#[test]
fn abort_cost_equation_holds() {
    use vino_sim::costs;
    use vino_txn::locks::LockClass;
    let mut rng = SplitMix64::new(0xE0_0A71);
    for _case in 0..256 {
        let n_ops = rng.below(30) as usize;
        let n_locks = rng.below(6) as usize;
        let mut m = TxnManager::new(Observer::new(VirtualClock::new()));
        let locks: Vec<_> = (0..n_locks).map(|_| m.create_lock(LockClass::Buffer)).collect();
        m.begin(T);
        for l in &locks {
            m.lock(*l, T);
        }
        let per_op = Cycles(50);
        for _ in 0..n_ops {
            m.log_undo(T, "op", per_op, || {}).unwrap();
        }
        let rep = m.abort(T, AbortReason::Explicit).unwrap();
        let expect = costs::TXN_ABORT_OVERHEAD
            + Cycles(costs::ABORT_UNLOCK.0 * n_locks as u64)
            + Cycles(per_op.0 * n_ops as u64);
        assert_eq!(rep.cost, expect);
    }
}
