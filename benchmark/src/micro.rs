//! Host cost of the observability planes' hot paths.
//!
//! Each row is the host time of one call, measured in batches: a few
//! warm-up rounds first, every input and result passed through
//! `black_box`, the four operations interleaved round by round (with a
//! rotating start) so none of them always runs first, and the median
//! over rounds reported with its interquartile spread.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use vino_sim::metrics::{Counter, MetricsPlane};
use vino_sim::trace::{SpanId, TraceEvent, TracePlane};
use vino_sim::VirtualClock;

use crate::episode::{iqr_share, median};

/// Calls per timed batch.
const BATCH: u64 = 20_000;
/// Timed rounds (after warm-up).
const ROUNDS: usize = 31;
/// Untimed warm-up rounds.
const WARMUP: usize = 3;

/// One micro-row.
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// Median host ns per call.
    pub median_ns: f64,
    /// Interquartile range over rounds, as a share of the median.
    pub spread: f64,
    /// Rounds measured.
    pub rounds: usize,
}

/// Runs the four micro-rows.
pub fn run() -> Vec<Row> {
    let clock = VirtualClock::new();
    let tp = TracePlane::with_capacity(Rc::clone(&clock), 1 << 14);
    let mp = MetricsPlane::new(Rc::clone(&clock));
    let ctx = tp.mint_span(SpanId::NONE);
    let names = [
        "sim.trace_emit.host_ns",
        "sim.trace_emit_ctx.host_ns",
        "sim.mint_span.host_ns",
        "sim.metrics_inc.host_ns",
    ];
    let batch = |k: usize| -> f64 {
        let t = Instant::now();
        match k {
            0 => {
                for i in 0..BATCH {
                    black_box(&*tp).emit(TraceEvent::FsRead { fd: black_box(i), len: 4096 });
                }
            }
            1 => {
                for i in 0..BATCH {
                    black_box(&*tp).emit_with_ctx(
                        TraceEvent::FsRead { fd: black_box(i), len: 4096 },
                        black_box(ctx),
                    );
                }
            }
            2 => {
                for _ in 0..BATCH {
                    black_box(black_box(&*tp).mint_span(black_box(ctx.span)));
                }
            }
            _ => {
                for _ in 0..BATCH {
                    black_box(&*mp).inc(black_box(Counter::FsReads));
                }
            }
        }
        t.elapsed().as_nanos() as f64 / BATCH as f64
    };
    let mut samples = vec![Vec::with_capacity(ROUNDS); names.len()];
    for round in 0..WARMUP + ROUNDS {
        for j in 0..names.len() {
            let k = (round + j) % names.len();
            let ns = batch(k);
            if round >= WARMUP {
                samples[k].push(ns);
            }
        }
    }
    // The work happened: every emit landed in the ring and every bump in
    // the counter.
    let calls = ((WARMUP + ROUNDS) as u64) * BATCH;
    assert_eq!(tp.stats().total, 2 * calls, "every emit recorded");
    assert_eq!(mp.get(Counter::FsReads), calls, "every increment recorded");
    names
        .iter()
        .zip(samples)
        .map(|(name, s)| Row {
            name,
            median_ns: median(&s),
            spread: iqr_share(&s),
            rounds: s.len(),
        })
        .collect()
}
