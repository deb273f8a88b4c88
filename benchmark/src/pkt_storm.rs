//! `pkt-storm`: an open-loop packet storm against one kernel and one
//! `PacketPlane`.
//!
//! Bulk traffic goes to default-path ports, 12 % to the well-behaved
//! drop-odd filter, and 4 % to the hostile zoo (a spinner, a wild
//! store, a steering cycle and a heap hoarder), which all die early and
//! leave their ports on the accept-all fallback.
//!
//! The loop is open in *virtual* time: every packet has a due time on a
//! seeded on/off schedule. The generator idles the clock up to each due
//! time (or admits the packet late, if a pump overran it), and `pump`
//! runs on a fixed virtual tick. A packet's latency runs from its due
//! time to the end of the pump that delivered it; generator lateness is
//! the virtual time between a packet's due time and its `rx` call.

use std::rc::Rc;
use std::time::Instant;

use vino_core::{InstallOpts, Kernel};
use vino_dev::Port;
use vino_net::{verdict_code, Admit, Packet, PacketPlane, PumpSummary};
use vino_rm::{Limits, ResourceKind};
use vino_sim::clock::CYCLES_PER_US;
use vino_sim::metrics::{Counter, MetricsPlane};
use vino_sim::trace::TracePlane;
use vino_sim::SplitMix64;

use crate::episode::{quantile_sorted, ratio, us, Episode};
use crate::spans::{span, Tracer};

/// Packets offered per episode.
pub const PACKETS: usize = 600_000;
/// Virtual pump tick, cycles.
const TICK: u64 = 200 * CYCLES_PER_US;
/// Ring capacity of every port (high watermark at 3/4).
const RING_CAP: usize = 128;
/// Offered load inside a burst and between bursts, packets per virtual ms.
const RATE_ON: u64 = 1_600;
const RATE_OFF: u64 = 300;
/// Steer-hop budget and loop-cut tolerance of the plane.
const HOP_BUDGET: u32 = 4;
const LOOP_CUT_TOLERANCE: u32 = 4;
/// Burst and gap lengths, virtual µs (uniform in `[lo, hi]`).
const ON_US: (u64, u64) = (800, 1_200);
const OFF_US: (u64, u64) = (2_400, 3_600);

const WELL: Port = Port(10);
const SPIN: Port = Port(20);
const WILD: Port = Port(30);
const CYCLE: Port = Port(40);
const HOARD: Port = Port(50);
const BULK0: u16 = 60;
const ZOO: [Port; 4] = [SPIN, WILD, CYCLE, HOARD];

/// One generated packet: due time (cycles after the timed phase
/// starts), port, protocol, addresses and payload length.
#[derive(Clone, Copy)]
pub struct Offer {
    due: u64,
    port: u16,
    udp: bool,
    src: u32,
    dst: u32,
    len: u8,
}

/// The seeded input: every packet with its due time.
pub fn generate(seed: u64) -> Vec<Offer> {
    let mut rng = SplitMix64::new(seed ^ 0x7057_5702);
    let mut out = Vec::with_capacity(PACKETS);
    let mut t = 0u64;
    let mut on = true;
    while out.len() < PACKETS {
        let (lo, hi, rate) =
            if on { (ON_US.0, ON_US.1, RATE_ON) } else { (OFF_US.0, OFF_US.1, RATE_OFF) };
        let end = t + rng.range(lo, hi) * CYCLES_PER_US;
        // Mean gap in cycles at `rate` packets per ms; gaps are uniform
        // in [0, 2 * mean).
        let mean_gap = 1_000 * CYCLES_PER_US / rate;
        loop {
            t += rng.below(2 * mean_gap + 1);
            if t >= end || out.len() == PACKETS {
                break;
            }
            let r = rng.below(100);
            let port = match r {
                0..=83 => BULK0 + rng.below(8) as u16,
                84..=95 => WELL.0,
                96 => SPIN.0,
                97 => WILD.0,
                98 => CYCLE.0,
                _ => HOARD.0,
            };
            out.push(Offer {
                due: t,
                port,
                udp: rng.below(2) == 0,
                src: rng.next_u64() as u32,
                dst: rng.next_u64() as u32,
                len: rng.below(32) as u8,
            });
        }
        t = t.max(end);
        on = !on;
    }
    out
}

fn ports() -> Vec<Port> {
    let mut v = vec![WELL, SPIN, WILD, CYCLE, HOARD];
    v.extend((0..8).map(|p| Port(BULK0 + p)));
    v
}

/// Runs one episode over `offers`.
pub fn episode(offers: &[Offer], traced: bool) -> Episode {
    let mut ep = Episode::default();
    let t_setup = Instant::now();
    let kernel = Kernel::boot();
    let mut planes = Vec::new();
    if traced {
        let tp = TracePlane::with_capacity(Rc::clone(&kernel.clock), 1 << 14);
        kernel.attach_trace_plane(tp).expect("fresh kernel");
        let mp = MetricsPlane::new(Rc::clone(&kernel.clock));
        kernel.attach_metrics_plane(Rc::clone(&mp)).expect("fresh kernel");
        planes.push(mp);
    }
    let app = kernel.create_app(Limits::of(&[
        (ResourceKind::KernelHeap, 1 << 20),
        (ResourceKind::Memory, 1 << 24),
    ]));
    let thread = kernel.spawn_thread("storm");
    let plane = PacketPlane::new(Rc::clone(&kernel));
    plane.set_hop_budget(HOP_BUDGET);
    plane.set_loop_cut_tolerance(LOOP_CUT_TOLERANCE);
    let ports = ports();
    for &p in &ports {
        plane.open_port(p, RING_CAP);
    }
    let opts = InstallOpts::default();
    let mut install = |port: Port, name: &str, src: &str, sandboxed: bool| {
        let t = Instant::now();
        let image = if sandboxed {
            kernel.compile_graft(name, src)
        } else {
            kernel.compile_graft_unsafe(name, src)
        }
        .expect("zoo graft compiles");
        ep.compile_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        let g = plane.install_filter(port, &image, app, thread, &opts).expect("zoo graft installs");
        ep.install_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        g
    };
    let well = install(
        WELL,
        "well-drop-odd",
        "andi r5, r3, 1\nbne r5, r0, t\nhalt r0\nt: const r5, 1\nhalt r5",
        true,
    );
    let spin = install(SPIN, "spin-filter", "spin: jmp spin", true);
    spin.borrow_mut().max_slices = 1;
    let wild = install(
        WILD,
        "wild-filter",
        "const r1, 0xC0000000\nconst r2, 0x41414141\nstorew r2, [r1+0]\nhalt r0",
        false,
    );
    let steer = format!("const r5, {}\nhalt r5", verdict_code::steer_to(CYCLE.0));
    let cycle = install(CYCLE, "cycle-filter", &steer, true);
    let hoard = install(HOARD, "hoard-filter", "const r1, 65536\nlp: call $kalloc\njmp lp", true);
    ep.setup_s = t_setup.elapsed().as_secs_f64();

    // ---- Timed phase. ----
    let clock = Rc::clone(&kernel.clock);
    let tr = traced.then(|| Tracer::new(Rc::clone(&clock), planes.clone()));
    let ledger0 = tr.as_ref().map(|t| t.ledger_totals());
    let n = offers.len();
    let mut st = Storm {
        plane: &plane,
        ports: &ports,
        clock: &clock,
        tr,
        sum: PumpSummary::default(),
        busy: 0,
        idle: 0,
        lat: Vec::with_capacity(n),
        delivered: 0,
        twice: 0,
        seen: vec![false; n + 1],
        due_of: vec![0; n + 1],
        depth: Vec::new(),
    };
    if let Some(t) = st.tr.as_mut() {
        t.open_root("pkt-storm");
    }
    let mut late = Vec::with_capacity(n);
    let (mut admitted, mut refused) = (0u64, 0u64);
    let t0 = clock.now().get();
    let wall = Instant::now();
    let mut next_pump = t0 + TICK;
    for (i, o) in offers.iter().enumerate() {
        let due = t0 + o.due;
        while next_pump <= due {
            st.idle_to(next_pump);
            st.pump_and_drain();
            // The next tick strictly after the pump ended: a pump that
            // overran skips the ticks it covered.
            next_pump = t0 + ((clock.now().get() - t0) / TICK + 1) * TICK;
        }
        st.idle_to(due);
        let now = clock.now().get();
        late.push(now - due);
        st.due_of[i + 1] = due;
        let payload = vec![0xA5u8; o.len as usize];
        let pkt = if o.udp {
            Packet::udp(o.src, o.dst, Port(o.port), payload)
        } else {
            Packet::tcp(o.src, o.dst, Port(o.port), payload)
        };
        match span(&mut st.tr, "net.rx", || plane.rx(pkt)) {
            Admit::Admitted => admitted += 1,
            Admit::ShedWatermark | Admit::DropOverflow => refused += 1,
        }
        st.busy += clock.now().get() - now;
    }
    // The tail: one last tick drains every ring.
    st.idle_to(next_pump);
    st.pump_and_drain();
    ep.timed_s = wall.elapsed().as_secs_f64();
    let t1 = clock.now().get();
    if let Some(t) = st.tr.as_mut() {
        t.close_root();
    }
    let Storm { sum, busy, idle, lat, delivered, twice, mut depth, tr, .. } = st;

    // ---- Checks. ----
    ep.attempted = n as u64;
    ep.refused = refused;
    ep.busy = busy;
    ep.idle = idle;
    ep.elapsed = t1 - t0;
    ep.lat = lat;
    let stats: Vec<_> = ports.iter().map(|&p| plane.port_stats(p).expect("open port")).collect();
    let ring_in: u64 = stats.iter().map(|s| s.admitted + s.shed + s.overflowed).sum();
    let ring_admitted: u64 = stats.iter().map(|s| s.admitted).sum();
    let ring_refused: u64 = stats.iter().map(|s| s.shed + s.overflowed).sum();
    let hops = sum.steered - sum.loop_cuts;
    ep.check("no packet delivered twice", twice == 0);
    ep.check("every delivery was an accept verdict", sum.accepted == delivered);
    ep.check("ring admissions = fresh offers + steer re-entries", ring_in == n as u64 + hops);
    ep.check(
        "every admitted packet got one verdict",
        ring_admitted == sum.accepted + sum.dropped + sum.steered,
    );
    // Rings refuse fresh offers and steered re-entries; only the latter
    // are invisible to the generator.
    ep.check(
        "refusals seen by the generator and the rings agree",
        ring_refused >= refused && ring_refused - refused <= hops,
    );
    ep.check("fresh admissions + refusals = offers", admitted + refused == n as u64);
    ep.check("every ring drained", stats.iter().all(|s| s.depth == 0));
    ep.check("spinner died", spin.borrow().is_dead());
    ep.check("wild store died", wild.borrow().is_dead());
    ep.check("steer cycle died", cycle.borrow().is_dead());
    ep.check("heap hoarder died", hoard.borrow().is_dead());
    ep.check("drop-odd filter alive", !well.borrow().is_dead());
    ep.check("zoo ports on fallback", ZOO.iter().all(|&p| plane.fallback_active(p)));
    // Every offered packet ends refused by a ring (fresh or on a steered
    // re-entry), delivered, dropped by a verdict, or cut by the hop budget.
    let accounted = ring_refused + delivered + sum.dropped + sum.loop_cuts;
    ep.failed = twice + (n as u64).saturating_sub(accounted);
    ep.check("every offered packet accounted for", accounted == n as u64);

    let mut late_sorted = late;
    late_sorted.sort_unstable();
    let late_p99 = quantile_sorted(&late_sorted, 0.99);
    let offered = n as f64;
    ep.layer.insert("net.gen_late.vus_p99".into(), us(late_p99));
    ep.layer.insert("net.ring.shed_share".into(), refused as f64 / offered);
    ep.layer.insert(
        "net.filtered_share".into(),
        ratio(sum.filtered as f64, (sum.filtered + sum.defaulted) as f64),
    );
    ep.layer.insert(
        "net.batch.pkts_per_dispatch".into(),
        ratio(sum.filtered as f64, sum.batches as f64),
    );
    ep.notes.push(format!(
        "offered {n} packets: admitted {admitted}, refused {refused} (shed or overflow), delivered {delivered}, \
         verdict drops {}, loop cuts {}, steer hops {hops}, filter batches {}",
        sum.dropped, sum.loop_cuts, sum.batches
    ));
    if let Some(t) = &tr {
        let aggs = t.aggregate();
        let pump = &aggs["net.pump"];
        let drain = &aggs["net.drain"];
        let rx = &aggs["net.rx"];
        ep.layer.insert("net.rx.host_ns".into(), rx.host_mean_ns());
        ep.layer.insert(
            "net.pump.host_ns_per_pkt".into(),
            pump.host_ns.iter().sum::<u64>() as f64 / offered,
        );
        ep.layer.insert(
            "net.drain.host_ns_per_pkt".into(),
            ratio(drain.host_ns.iter().sum::<u64>() as f64, delivered as f64),
        );
        ep.layer.insert("net.pump.vus_per_pkt".into(), us(pump.vcycles) / offered);
        ep.layer.insert("net.pump.own_vus_per_pkt".into(), us(pump.own_cycles()) / offered);
        depth.sort_unstable();
        ep.layer.insert("net.ring.depth_p99".into(), quantile_sorted(&depth, 0.99) as f64);
        let mp = &planes[0];
        let g = |c| mp.get(c);
        ep.check(
            "metrics plane: admissions = fresh + steer hops",
            g(Counter::NetRxPackets) + g(Counter::NetRxSheds) + g(Counter::NetRxOverflows)
                == n as u64 + g(Counter::NetSteerHops),
        );
        ep.check(
            "metrics plane: one verdict per admission",
            g(Counter::NetRxPackets)
                == g(Counter::NetAccepts) + g(Counter::NetDrops) + g(Counter::NetSteers),
        );
        ep.check("metrics plane: accepts = deliveries", g(Counter::NetAccepts) == delivered);
        ep.check(
            "metrics plane: refusals agree",
            g(Counter::NetRxSheds) + g(Counter::NetRxOverflows) == ring_refused,
        );
        if let Err(e) = t.reconcile(t0, t1, ledger0.expect("traced")) {
            crate::diverged("pkt-storm", &e);
        }
    }
    ep.tracer = tr;
    ep.seal();
    ep
}

/// The timed phase's running state.
struct Storm<'a> {
    plane: &'a PacketPlane,
    ports: &'a [Port],
    clock: &'a Rc<vino_sim::VirtualClock>,
    tr: Option<Tracer>,
    sum: PumpSummary,
    busy: u64,
    idle: u64,
    lat: Vec<u64>,
    delivered: u64,
    twice: u64,
    /// Delivered flag per packet id (ids start at 1).
    seen: Vec<bool>,
    /// Due time per packet id.
    due_of: Vec<u64>,
    /// Total ring depth sampled before each traced pump.
    depth: Vec<u64>,
}

impl Storm<'_> {
    /// Idles the clock forward to `t`, if it is behind.
    fn idle_to(&mut self, t: u64) {
        let now = self.clock.now().get();
        if now < t {
            self.idle += t - now;
            self.clock.advance_to(vino_sim::Cycles(t));
            if let Some(tr) = self.tr.as_mut() {
                tr.mark("gen.idle", now, t);
            }
        }
    }

    /// One pump, then the drain of every port; books the latency of
    /// every delivered packet against the end of the pump.
    fn pump_and_drain(&mut self) {
        let (plane, ports) = (self.plane, self.ports);
        if self.tr.is_some() {
            self.depth.push(
                ports.iter().map(|&p| plane.port_stats(p).map_or(0, |s| s.depth as u64)).sum(),
            );
        }
        let v0 = self.clock.now().get();
        let s = span(&mut self.tr, "net.pump", || plane.pump());
        let end = self.clock.now().get();
        add_summary(&mut self.sum, &s);
        let got = span(&mut self.tr, "net.drain", || {
            let mut got = Vec::new();
            for &p in ports {
                got.extend(plane.drain_delivered(p).into_iter().map(|pkt| pkt.id));
            }
            got
        });
        self.busy += self.clock.now().get() - v0;
        for id in got {
            let id = id as usize;
            if self.seen[id] {
                self.twice += 1;
            }
            self.seen[id] = true;
            self.delivered += 1;
            self.lat.push(end - self.due_of[id]);
        }
    }
}

fn add_summary(sum: &mut PumpSummary, s: &PumpSummary) {
    sum.filtered += s.filtered;
    sum.defaulted += s.defaulted;
    sum.accepted += s.accepted;
    sum.dropped += s.dropped;
    sum.steered += s.steered;
    sum.loop_cuts += s.loop_cuts;
    sum.batches += s.batches;
    sum.filter_aborts += s.filter_aborts;
}
