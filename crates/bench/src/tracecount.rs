//! Trace-plane event census: per-subsystem [`vino_sim::trace::TraceStats`]
//! for a canonical traced workload, printed alongside the paper tables.
//!
//! Not a paper artifact — an observability check. The workload is a
//! fixed mix of one committing and one trapping graft, so the counters
//! double as a coarse regression tripwire: if a subsystem's event count
//! moves, someone changed what that subsystem does per invocation (or
//! stopped/started tracing it). The fine-grained version of the same
//! tripwire is the golden-trace battery (`tests/trace_golden.rs`).

use std::rc::Rc;

use vino_core::engine::InvokeOutcome;
use vino_sim::trace::TracePlane;

use crate::render::{PathTable, Row};
use crate::world::{build, Variant};

/// Invocations of each graft in the census workload.
const INVOKES: usize = 16;

/// Runs the census workload and renders the counters.
pub fn run() -> PathTable {
    let committer = build("mov r0, r1\nhalt r0", 4096, Variant::Safe, 0);
    let tp = TracePlane::with_capacity(Rc::clone(&committer.clock), 4096);
    committer.engine.obs.attach_trace(Rc::clone(&tp)).expect("fresh engine");
    // Instances bind the plane at install time, so build them after the
    // attach; the committer above pre-dates it and goes untraced at the
    // VM layer — rebuild a traced pair on the shared engine instead.
    let mk = |src: &str| {
        let prog = vino_vm::asm::assemble("census", src, &vino_core::hostfn::symbols()).unwrap();
        crate::world::instance_from(&committer.engine, prog, 4096, Variant::Safe)
    };
    let mut good = mk("mov r0, r1\nhalt r0");
    let mut bad = mk("const r1, 0\ndiv r0, r1, r1\nhalt r0");

    for i in 0..INVOKES {
        assert!(matches!(good.invoke([i as u64, 0, 0, 0]), InvokeOutcome::Ok { .. }));
        bad.revive();
        assert!(matches!(bad.invoke([0; 4]), InvokeOutcome::Aborted { .. }));
    }

    let s = tp.stats();
    PathTable {
        id: "TR",
        title: format!("Trace-plane event census ({INVOKES} commits + {INVOKES} aborts)"),
        rows: vec![
            Row::value("vm events", s.vm as f64),
            Row::value("txn events", s.txn as f64),
            Row::value("rm events", s.rm as f64),
            Row::value("fs events", s.fs as f64),
            Row::value("graft events", s.graft as f64),
            Row::value("total emitted", s.total as f64),
            Row::value("dropped (ring wrap)", s.dropped as f64),
        ],
        notes: vec!["counts are event totals, not µs; see docs/TRACING.md".to_string()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_counts_are_consistent_and_deterministic() {
        let a = run();
        let b = run();
        assert_eq!(a.render(), b.render(), "census must be deterministic");
        let total = a.rows.iter().find(|r| r.label == "total emitted").unwrap();
        let sum: f64 = a
            .rows
            .iter()
            .filter(|r| r.label.ends_with("events"))
            .filter_map(|r| r.overhead_us)
            .sum();
        assert_eq!(sum, total.overhead_us.unwrap(), "subsystem counts sum to total");
        assert!(total.overhead_us.unwrap() > 0.0, "workload emitted events");
    }
}
