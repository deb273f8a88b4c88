//! Simulation substrate for the VINO reproduction.
//!
//! The paper's evaluation ran on a 120 MHz Pentium and reported every
//! measurement in microseconds derived from the CPU cycle counter
//! (8.33 ns/cycle). This crate provides the equivalent for a simulated
//! kernel: a [`clock::VirtualClock`] that subsystems charge cycles to, a
//! calibrated [`costs`] table holding every constant the paper states
//! directly, trimmed-mean [`stats`] matching the paper's methodology
//! (drop top and bottom 10 % of samples), a deterministic [`rng`], and a
//! timer [`event`] queue used for lock time-outs and scheduling.
//!
//! It also hosts the five observability planes ([`plane`] describes
//! the attach contract) and the per-kernel [`obs::Observer`] that every
//! subsystem charges cycles and emits events through.

pub mod clock;
pub mod costs;
pub mod debug;
pub mod event;
pub mod fault;
pub mod ids;
pub mod metrics;
pub mod obs;
pub mod plane;
pub mod profile;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod watch;

pub use clock::{Cycles, VirtualClock};
pub use debug::{render_merged_timeline, render_timeline, TimelineOpts};
pub use event::{EventQueue, TimerId};
pub use fault::{FaultPlane, FaultPlaneState, FaultSite};
pub use ids::ThreadId;
pub use metrics::{
    Attribution, Component, Counter, CycleHistogram, MetricTag, MetricsPlane, MetricsState,
};
pub use obs::{GraftTags, Observer, Reading, Retired};
pub use plane::AttachError;
pub use profile::{HotFn, ProfilePlane, SpanKind};
pub use rng::{SplitMix64, XorShift64};
pub use trace::{
    AbortKind, CauseCtx, GraftTag, MergedRecord, MergedTrace, NodeId, PostMortem, SfiKind, SpanId,
    TraceEvent, TracePlane, TraceRecord, TraceState, TraceStats, VmExitKind,
};
pub use watch::{
    default_rules, AlertEdge, AlertRecord, Signal, SloRule, WatchPlane, WatchState, WatchStats,
};
