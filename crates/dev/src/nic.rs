//! The simulated network interface.
//!
//! §3.5: "When an event occurs in the kernel (e.g., a new connection is
//! established on the TCP port dedicated to HTTP, or a packet is
//! received on the UDP port for NFS), VINO spawns a worker thread and
//! begins a transaction." The NIC is the source of those events: tests
//! and benchmarks inject traffic, the kernel's event-graft dispatcher
//! drains it.
//!
//! Overload is observable: the device keeps global and per-port drop
//! tallies, and when a [`vino_sim::MetricsPlane`] is attached it mirrors
//! delivered/dropped into [`Counter::NicDelivered`] /
//! [`Counter::NicDropped`] so a health snapshot shows device-level loss
//! next to the packet plane's own shedding.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use vino_sim::metrics::Counter;
use vino_sim::obs::{Observer, Reading};

/// A TCP or UDP port number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port(pub u16);

/// The first connection descriptor a fresh NIC hands out. Descriptor
/// allocation wraps back here rather than overflowing.
pub const FIRST_CONN_FD: u32 = 1000;

/// A network event the kernel may dispatch to event grafts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// A new TCP connection was established on `port`; `conn_fd` is the
    /// kernel descriptor handed to the handler (Figure 2's HTTP graft
    /// receives exactly this).
    TcpConnect {
        /// Listening port.
        port: Port,
        /// Kernel descriptor for the new connection.
        conn_fd: u32,
    },
    /// A UDP datagram arrived on `port` (the NFS-server event).
    UdpPacket {
        /// Destination port.
        port: Port,
        /// Datagram payload.
        payload: Vec<u8>,
    },
}

impl NetEvent {
    /// The port this event concerns.
    pub fn port(&self) -> Port {
        match self {
            NetEvent::TcpConnect { port, .. } | NetEvent::UdpPacket { port, .. } => *port,
        }
    }
}

/// The simulated NIC: a FIFO of arrived events.
#[derive(Debug)]
pub struct Nic {
    queue: VecDeque<NetEvent>,
    next_fd: u32,
    delivered: u64,
    dropped: u64,
    dropped_by_port: BTreeMap<Port, u64>,
    capacity: usize,
    obs: Rc<Observer>,
}

impl Nic {
    /// Creates a NIC with the default receive-queue capacity, reporting
    /// to `obs`: delivered/dropped events are mirrored into
    /// [`Counter::NicDelivered`] / [`Counter::NicDropped`] (and drops
    /// into the per-port drop table).
    pub fn new(obs: Rc<Observer>) -> Nic {
        Nic {
            queue: VecDeque::new(),
            next_fd: FIRST_CONN_FD,
            delivered: 0,
            dropped: 0,
            dropped_by_port: BTreeMap::new(),
            capacity: 1024,
            obs,
        }
    }

    fn drop_event(&mut self, port: Port) {
        self.dropped += 1;
        *self.dropped_by_port.entry(port).or_insert(0) += 1;
        self.obs.report(Reading::NicPortDrop { port: port.0 });
    }

    /// Injects a TCP connection-established event, returning the
    /// connection descriptor the handler will receive, or `None` when
    /// the receive queue overflowed (the event is dropped, as real NICs
    /// drop packets under overload).
    pub fn inject_tcp_connect(&mut self, port: Port) -> Option<u32> {
        if self.queue.len() >= self.capacity {
            self.drop_event(port);
            return None;
        }
        let fd = self.next_fd;
        // Descriptors are per-connection and transient; a long-lived
        // simulation must wrap, not overflow, and must never re-enter
        // the well-known low descriptor range.
        self.next_fd = self.next_fd.checked_add(1).unwrap_or(FIRST_CONN_FD);
        self.queue.push_back(NetEvent::TcpConnect { port, conn_fd: fd });
        Some(fd)
    }

    /// Injects a UDP datagram. Returns false if dropped on overflow.
    pub fn inject_udp(&mut self, port: Port, payload: Vec<u8>) -> bool {
        if self.queue.len() >= self.capacity {
            self.drop_event(port);
            return false;
        }
        self.queue.push_back(NetEvent::UdpPacket { port, payload });
        true
    }

    /// Removes and returns the oldest pending event.
    pub fn poll(&mut self) -> Option<NetEvent> {
        let e = self.queue.pop_front();
        if e.is_some() {
            self.delivered += 1;
            self.obs.inc(Counter::NicDelivered);
        }
        e
    }

    /// Pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Events handed to the kernel so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Events dropped due to queue overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events dropped on `port` specifically.
    pub fn dropped_on(&self, port: Port) -> u64 {
        self.dropped_by_port.get(&port).copied().unwrap_or(0)
    }

    /// Per-port drop tallies, ordered by port.
    pub fn drops_by_port(&self) -> impl Iterator<Item = (Port, u64)> + '_ {
        self.dropped_by_port.iter().map(|(p, n)| (*p, *n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vino_sim::VirtualClock;

    fn nic() -> Nic {
        Nic::new(Observer::new(VirtualClock::new()))
    }

    #[test]
    fn fifo_delivery() {
        let mut n = nic();
        let fd1 = n.inject_tcp_connect(Port(80)).unwrap();
        n.inject_udp(Port(2049), vec![1, 2, 3]);
        let fd2 = n.inject_tcp_connect(Port(80)).unwrap();
        assert_ne!(fd1, fd2, "descriptors are unique");
        assert_eq!(n.pending(), 3);
        assert_eq!(n.poll(), Some(NetEvent::TcpConnect { port: Port(80), conn_fd: fd1 }));
        assert_eq!(
            n.poll(),
            Some(NetEvent::UdpPacket { port: Port(2049), payload: vec![1, 2, 3] })
        );
        assert_eq!(n.poll(), Some(NetEvent::TcpConnect { port: Port(80), conn_fd: fd2 }));
        assert_eq!(n.poll(), None);
        assert_eq!(n.delivered(), 3);
    }

    #[test]
    fn event_port_accessor() {
        let e = NetEvent::UdpPacket { port: Port(53), payload: vec![] };
        assert_eq!(e.port(), Port(53));
    }

    #[test]
    fn overflow_drops() {
        let mut n = nic();
        let mut accepted = 0;
        for _ in 0..2000 {
            if n.inject_udp(Port(9), vec![]) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 1024);
        assert_eq!(n.dropped(), 2000 - 1024);
        assert_eq!(n.pending(), 1024);
    }

    #[test]
    fn drops_are_accounted_per_port() {
        let mut n = nic();
        for _ in 0..1024 {
            assert!(n.inject_udp(Port(9), vec![]));
        }
        // Queue full: everything below drops, attributed to its port.
        n.inject_udp(Port(9), vec![]);
        n.inject_udp(Port(9), vec![]);
        n.inject_udp(Port(53), vec![]);
        assert!(n.inject_tcp_connect(Port(80)).is_none());
        assert_eq!(n.dropped(), 4);
        assert_eq!(n.dropped_on(Port(9)), 2);
        assert_eq!(n.dropped_on(Port(53)), 1);
        assert_eq!(n.dropped_on(Port(80)), 1);
        assert_eq!(n.dropped_on(Port(7)), 0);
        let per_port: Vec<(Port, u64)> = n.drops_by_port().collect();
        assert_eq!(per_port, [(Port(9), 2), (Port(53), 1), (Port(80), 1)]);
    }

    #[test]
    fn conn_fd_allocation_wraps_instead_of_overflowing() {
        let mut n = nic();
        n.next_fd = u32::MAX;
        let last = n.inject_tcp_connect(Port(80)).unwrap();
        assert_eq!(last, u32::MAX);
        let wrapped = n.inject_tcp_connect(Port(80)).unwrap();
        assert_eq!(wrapped, FIRST_CONN_FD, "wraps to the base, not to 0");
    }

    #[test]
    fn metrics_plane_sees_delivered_and_dropped() {
        let mp = vino_sim::MetricsPlane::new(VirtualClock::new());
        let mut n = nic();
        n.obs.attach_metrics(Rc::clone(&mp)).unwrap();
        for _ in 0..1025 {
            n.inject_udp(Port(9), vec![]);
        }
        assert!(n.poll().is_some());
        assert_eq!(mp.get(Counter::NicDelivered), 1);
        assert_eq!(mp.get(Counter::NicDropped), 1);
    }
}
