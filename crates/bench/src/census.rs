//! The machine-readable bench census: `vino-bench census [--json]`.
//!
//! Two sweeps, each also emitted as a `BENCH_<name>.json` file when
//! `--json` is passed (hand-rolled serialization — the census has no
//! dependency beyond `std`):
//!
//! - `netfilter` — µs/packet for the batched safe filter path across
//!   the amortization sweep ([`netfilter::BATCH_SWEEP`]), extracted
//!   from the same [`crate::render::PathTable`] the paper-table run
//!   renders.
//! - `repl_window` — the replication window sweep: shipped frames,
//!   retransmissions, drops, and drain rounds to convergence at each
//!   window size over a lossy wire, all in deterministic virtual time.
//!
//! Host-time costs of the observability hot paths are measured by the
//! benchmark (`benchmark/`, the `sim.*` rows), with warm-up, black-boxed
//! results and a median over repeated runs.

use std::rc::Rc;

use vino_repl::{ReplConfig, ReplHarness};
use vino_sim::fault::FaultSite;

use crate::netfilter;

/// One emitted census: a table for stdout and a JSON document.
#[derive(Debug, Clone)]
pub struct Census {
    /// Short name — the JSON lands in `BENCH_<name>.json`.
    pub name: &'static str,
    /// Human-readable rendering.
    pub text: String,
    /// The JSON document.
    pub json: String,
}

impl Census {
    /// The file name the `--json` flag writes.
    pub fn json_file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// A minimal JSON writer: objects of string/number pairs inside one
/// `rows` array. Numbers are emitted as-is; strings are quoted with
/// the only escapes our labels can need.
fn json_doc(name: &str, unit: &str, rows: &[Vec<(&str, String)>]) -> String {
    let mut out = format!("{{\n  \"name\": \"{name}\",\n  \"unit\": \"{unit}\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        for (j, (k, v)) in row.iter().enumerate() {
            out.push_str(&format!("\"{k}\": {v}"));
            if j + 1 < row.len() {
                out.push_str(", ");
            }
        }
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// The µs/packet batch-amortization census, from the same measurement
/// run that renders the packet-filter paper table.
pub fn netfilter_census(reps: usize) -> Census {
    let table = netfilter::run(reps);
    let mut rows = Vec::new();
    let mut text = String::from(
        "batch | us/packet (safe filter path)\n------+------------------------------\n",
    );
    for r in &table.rows {
        let Some(rest) = r.label.strip_prefix("Batched safe path (n=") else { continue };
        let Some(n) = rest.split(',').next().and_then(|n| n.parse::<usize>().ok()) else {
            continue;
        };
        let us = r.elapsed_us.expect("batch rows are path rows");
        text.push_str(&format!("{n:>5} | {us:.3}\n"));
        rows.push(vec![("batch", n.to_string()), ("us_per_packet", format!("{us:.3}"))]);
    }
    assert_eq!(rows.len(), netfilter::BATCH_SWEEP.len(), "sweep rows missing from the table");
    Census { name: "netfilter", text, json: json_doc("netfilter", "us_per_packet", &rows) }
}

/// One window-sweep row over a lossy wire, drained to convergence in
/// deterministic virtual time.
fn repl_window_row(seed: u64, steps: usize, window: u64) -> (u64, u64, u64, u64, u64) {
    let mut h = ReplHarness::new(seed, ReplConfig { window, ..Default::default() });
    let plane = Rc::clone(h.fault_plane());
    plane.set_rate(FaultSite::ReplShipDrop, 1, 5);
    plane.set_rate(FaultSite::ReplAckLoss, 1, 5);
    let report = h.run(steps);
    plane.set_rate(FaultSite::ReplShipDrop, 0, 1);
    plane.set_rate(FaultSite::ReplAckLoss, 0, 1);
    let mut drain_rounds = 0u64;
    while h.lag() > 0 {
        h.ship_round();
        drain_rounds += 1;
        assert!(drain_rounds <= 1024, "a healed wire must drain");
    }
    (report.shipped, report.retransmits, report.dropped, drain_rounds, h.acked())
}

/// The replication window sweep census.
pub fn repl_window_census(seed: u64, steps: usize) -> Census {
    let mut text = String::from(
        "window | shipped | retransmits | dropped | drain rounds | acked\n-------+---------+-------------+---------+--------------+------\n",
    );
    let mut rows = Vec::new();
    for window in [1u64, 2, 4, 8, 16] {
        let (shipped, retransmits, dropped, drain, acked) = repl_window_row(seed, steps, window);
        text.push_str(&format!(
            "{window:>6} | {shipped:>7} | {retransmits:>11} | {dropped:>7} | {drain:>12} | {acked:>5}\n"
        ));
        rows.push(vec![
            ("window", window.to_string()),
            ("shipped", shipped.to_string()),
            ("retransmits", retransmits.to_string()),
            ("dropped", dropped.to_string()),
            ("drain_rounds", drain.to_string()),
            ("acked", acked.to_string()),
        ]);
    }
    Census { name: "repl_window", text, json: json_doc("repl_window", "records", &rows) }
}

/// Runs both censuses.
pub fn run_all(reps: usize, seed: u64, steps: usize) -> Vec<Census> {
    vec![netfilter_census(reps), repl_window_census(seed, steps)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netfilter_census_has_one_row_per_sweep_point() {
        let c = netfilter_census(3);
        assert_eq!(c.name, "netfilter");
        for n in netfilter::BATCH_SWEEP {
            assert!(c.json.contains(&format!("\"batch\": {n}")), "missing n={n}:\n{}", c.json);
        }
        assert!(c.json_file() == "BENCH_netfilter.json");
    }

    #[test]
    fn repl_window_census_is_deterministic() {
        let a = repl_window_census(0xBE9C, 6);
        let b = repl_window_census(0xBE9C, 6);
        assert_eq!(a.json, b.json, "virtual-time census must replay byte-identically");
        assert!(a.json.contains("\"window\": 16"));
    }

    #[test]
    fn json_doc_shape_is_valid_enough() {
        let doc = json_doc("x", "u", &[vec![("a", "1".into())], vec![("a", "2".into())]]);
        assert!(doc.starts_with('{') && doc.trim_end().ends_with('}'));
        assert_eq!(doc.matches("{\"a\"").count(), 2);
        assert_eq!(doc.matches("},").count(), 1);
    }
}
