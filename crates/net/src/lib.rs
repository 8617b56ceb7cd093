//! `amrio-net` — interconnect cost models for the simulated platforms.
//!
//! A [`Net`] prices point-to-point transfers between *endpoints* (compute
//! processors and I/O servers), each living on a *node*. Three behaviours
//! matter for reproducing the paper:
//!
//! * **ccNUMA** (SGI Origin2000): one big node; all transfers go at memory
//!   speed with very low latency and no port bottleneck — this is why
//!   two-phase redistribution is nearly free there (paper §4.1).
//! * **SMP cluster** (IBM SP-2): 8 processors share one switch adapter per
//!   node; inter-node messages serialize on both adapters, so many
//!   processors on one node doing I/O queue up (paper §4.2).
//! * **Fast Ethernet cluster** (Chiba City): one processor per node behind
//!   a 100 Mb/s NIC with high latency; all redistribution and client↔I/O
//!   node traffic crawls through it (paper §4.3).
//!
//! State (adapter free times) lives inside [`Net`]; callers must invoke
//! [`Net::transfer`] from within `amrio-simt` ordered sections so requests
//! arrive in nondecreasing virtual time and runs stay deterministic.

#![forbid(unsafe_code)]

use amrio_fault::FaultPlan;
use amrio_simt::{SimDur, SimTime};
use std::sync::Arc;

/// An endpoint index: a compute rank or an I/O server, as assigned by the
/// platform that built the [`Net`].
pub type Endpoint = usize;

/// Latency + bandwidth of one class of link.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    pub latency: SimDur,
    /// Bytes per second.
    pub bandwidth: f64,
}

impl LinkParams {
    pub fn new(latency_us: u64, bandwidth_mb_s: f64) -> Self {
        LinkParams {
            latency: SimDur::from_micros(latency_us),
            bandwidth: bandwidth_mb_s * 1.0e6,
        }
    }

    fn time_for(&self, bytes: u64) -> SimDur {
        self.latency + SimDur::transfer(bytes, self.bandwidth)
    }
}

/// Outcome of a priced transfer.
#[derive(Clone, Copy, Debug)]
pub struct Xfer {
    /// When the sender's CPU is free again (injection finished).
    pub sender_free: SimTime,
    /// When the last byte is available at the destination.
    pub arrival: SimTime,
}

/// Configuration of an interconnect.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// `node_of[endpoint]` — which physical node hosts each endpoint.
    pub node_of: Vec<usize>,
    /// Link used between endpoints on the same node (shared memory).
    pub intra: LinkParams,
    /// Link used between endpoints on different nodes.
    pub inter: LinkParams,
    /// If true, inter-node messages serialize on the source and
    /// destination node adapters (SP switch adapter, Ethernet NIC).
    pub port_limited: bool,
    /// Per-message software overhead charged on top of link latency.
    pub per_message: SimDur,
}

impl NetConfig {
    /// SGI Origin2000-style ccNUMA: every processor in one shared-memory
    /// machine; bristled fat hypercube → high bisection bandwidth, no port
    /// serialization.
    pub fn ccnuma(nprocs: usize) -> NetConfig {
        NetConfig {
            node_of: vec![0; nprocs],
            intra: LinkParams::new(1, 180.0),
            inter: LinkParams::new(1, 180.0),
            port_limited: false,
            per_message: SimDur::from_micros(1),
        }
    }

    /// IBM SP-2-style clustered SMP: `procs_per_node` processors share one
    /// switch adapter; the switch itself has full bisection.
    pub fn smp_cluster(nprocs: usize, procs_per_node: usize) -> NetConfig {
        assert!(procs_per_node > 0);
        NetConfig {
            node_of: (0..nprocs).map(|p| p / procs_per_node).collect(),
            intra: LinkParams::new(2, 400.0),
            inter: LinkParams::new(22, 133.0),
            port_limited: true,
            per_message: SimDur::from_micros(3),
        }
    }

    /// Fast-Ethernet Linux cluster (Chiba City): one processor per node,
    /// 100 Mb/s ≈ 12.5 MB/s per NIC, high TCP latency.
    pub fn fast_ethernet(nnodes: usize) -> NetConfig {
        NetConfig {
            node_of: (0..nnodes).collect(),
            intra: LinkParams::new(1, 400.0),
            inter: LinkParams::new(120, 11.5),
            port_limited: true,
            per_message: SimDur::from_micros(30),
        }
    }

    /// Extend the endpoint space with `extra` additional endpoints mapped to
    /// the given nodes (used to place I/O servers on the fabric).
    pub fn with_extra_endpoints(mut self, nodes: &[usize]) -> NetConfig {
        self.node_of.extend_from_slice(nodes);
        self
    }

    pub fn num_nodes(&self) -> usize {
        self.node_of.iter().copied().max().map_or(0, |m| m + 1)
    }
}

/// The stateful interconnect: prices transfers and tracks adapter
/// occupancy.
#[derive(Clone, Debug)]
pub struct Net {
    cfg: NetConfig,
    adapter_free: Vec<SimTime>,
    /// Total bytes moved across node boundaries (for reports).
    pub inter_node_bytes: u64,
    /// Total messages priced.
    pub messages: u64,
    /// Optional fault schedule consulted per message (drops/delays).
    faults: Option<Arc<FaultPlan>>,
}

impl Net {
    pub fn new(cfg: NetConfig) -> Net {
        let nodes = cfg.num_nodes();
        Net {
            cfg,
            adapter_free: vec![SimTime::ZERO; nodes],
            inter_node_bytes: 0,
            messages: 0,
            faults: None,
        }
    }

    /// Attach a fault plan: every subsequent [`Net::transfer`] consults
    /// it for message drops/delays. An empty plan changes nothing.
    pub fn attach_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    pub fn node_of(&self, ep: Endpoint) -> usize {
        self.cfg.node_of[ep]
    }

    pub fn endpoints(&self) -> usize {
        self.cfg.node_of.len()
    }

    /// Price a message of `bytes` from `src` to `dst` starting at `t`.
    ///
    /// Port-limited inter-node messages serialize on both adapters: the
    /// transfer starts when both are free, and holds both for the wire
    /// time. Intra-node messages and non-port-limited fabrics never queue.
    pub fn transfer(&mut self, src: Endpoint, dst: Endpoint, bytes: u64, t: SimTime) -> Xfer {
        self.messages += 1;
        let sent_at = t;
        let (sn, dn) = (self.cfg.node_of[src], self.cfg.node_of[dst]);
        let t = t + self.cfg.per_message;
        let mut xfer = if sn == dn {
            let done = t + self.cfg.intra.time_for(bytes);
            Xfer {
                sender_free: done,
                arrival: done,
            }
        } else {
            self.inter_node_bytes += bytes;
            let wire = SimDur::transfer(bytes, self.cfg.inter.bandwidth);
            if self.cfg.port_limited {
                let start = t.max(self.adapter_free[sn]).max(self.adapter_free[dn]);
                let busy_until = start + wire;
                self.adapter_free[sn] = busy_until;
                self.adapter_free[dn] = busy_until;
                Xfer {
                    sender_free: busy_until,
                    arrival: busy_until + self.cfg.inter.latency,
                }
            } else {
                Xfer {
                    sender_free: t + wire,
                    arrival: t + self.cfg.inter.latency + wire,
                }
            }
        };
        // Message faults: delivery stays reliable (the MPI layer above
        // assumes it), so a "dropped" message is retransmitted by the
        // adapter and simply arrives late, exactly like a delayed one.
        // Keyed to the submission time so the effect is reproducible.
        if let Some(plan) = &self.faults {
            if let Some(extra) = plan.message_penalty(src, dst, sent_at) {
                xfer.arrival += extra;
            }
        }
        xfer
    }

    /// When the adapter of `ep`'s node becomes free (ZERO if never used or
    /// fabric is not port-limited).
    pub fn adapter_free_at(&self, ep: Endpoint) -> SimTime {
        self.adapter_free[self.cfg.node_of[ep]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(x: f64) -> f64 {
        x * 1.0e6
    }

    #[test]
    fn ccnuma_is_uncontended() {
        let mut n = Net::new(NetConfig::ccnuma(8));
        let a = n.transfer(0, 1, 1_000_000, SimTime::ZERO);
        let b = n.transfer(2, 3, 1_000_000, SimTime::ZERO);
        // Concurrent transfers do not slow each other down.
        assert_eq!(a.arrival, b.arrival);
        let expect = 1.0e6 / mb(180.0);
        assert!((a.arrival.as_secs_f64() - expect).abs() < 1e-4);
    }

    #[test]
    fn ethernet_serializes_on_nic() {
        let mut n = Net::new(NetConfig::fast_ethernet(4));
        // Two messages out of node 0 back-to-back must queue on its NIC.
        let a = n.transfer(0, 1, 1_250_000, SimTime::ZERO);
        let b = n.transfer(0, 2, 1_250_000, SimTime::ZERO);
        assert!(b.arrival > a.arrival);
        let wire = 1_250_000.0 / mb(11.5);
        assert!(b.arrival.as_secs_f64() >= 2.0 * wire);
    }

    #[test]
    fn ethernet_receiver_nic_also_contends() {
        let mut n = Net::new(NetConfig::fast_ethernet(4));
        // Different senders, same receiver: messages serialize at node 3.
        let a = n.transfer(0, 3, 1_250_000, SimTime::ZERO);
        let b = n.transfer(1, 3, 1_250_000, SimTime::ZERO);
        assert!(
            b.arrival.as_secs_f64() >= a.arrival.as_secs_f64() + 0.9 * (1_250_000.0 / mb(11.5))
        );
    }

    #[test]
    fn smp_intra_node_bypasses_adapter() {
        let mut n = Net::new(NetConfig::smp_cluster(16, 8));
        // ranks 0..8 on node 0; 0->1 is shared memory.
        let a = n.transfer(0, 1, 1_000_000, SimTime::ZERO);
        let b = n.transfer(0, 8, 1_000_000, a.sender_free);
        assert!(a.arrival < b.arrival);
        assert_eq!(n.adapter_free_at(0), b.sender_free);
        // intra-node transfer did not touch adapter bookkeeping
        assert_eq!(n.inter_node_bytes, 1_000_000);
    }

    #[test]
    fn extra_endpoints_map_to_io_nodes() {
        let cfg = NetConfig::fast_ethernet(4).with_extra_endpoints(&[4, 5]);
        let n = Net::new(cfg);
        assert_eq!(n.endpoints(), 6);
        assert_eq!(n.node_of(4), 4);
        assert_eq!(n.config().num_nodes(), 6);
    }

    #[test]
    fn transfer_monotone_in_bytes() {
        let mut n = Net::new(NetConfig::smp_cluster(16, 8));
        let small = n.clone().transfer(0, 8, 1_000, SimTime::ZERO).arrival;
        let big = n.transfer(0, 8, 1_000_000, SimTime::ZERO).arrival;
        assert!(big > small);
    }

    #[test]
    fn message_counters_accumulate() {
        let mut n = Net::new(NetConfig::ccnuma(4));
        n.transfer(0, 1, 10, SimTime::ZERO);
        n.transfer(1, 2, 10, SimTime::ZERO);
        assert_eq!(n.messages, 2);
        // ccNUMA: single node, nothing is inter-node.
        assert_eq!(n.inter_node_bytes, 0);
    }

    /// `Net::transfer` as priced before zero-byte messages skipped the
    /// bandwidth division: the same arithmetic over plain state, with
    /// wire times always computed as `ceil(bytes / bandwidth * 1e9)`.
    struct Reference {
        cfg: NetConfig,
        adapter_free: Vec<SimTime>,
        inter_node_bytes: u64,
        messages: u64,
        faults: Option<FaultPlan>,
    }

    impl Reference {
        fn wire(bytes: u64, bw: f64) -> SimDur {
            SimDur(((bytes as f64 / bw) * 1e9).ceil() as u64)
        }

        fn transfer(&mut self, src: Endpoint, dst: Endpoint, bytes: u64, t: SimTime) -> Xfer {
            self.messages += 1;
            let (sn, dn) = (self.cfg.node_of[src], self.cfg.node_of[dst]);
            let t0 = t + self.cfg.per_message;
            let mut x = if sn == dn {
                let done =
                    t0 + self.cfg.intra.latency + Self::wire(bytes, self.cfg.intra.bandwidth);
                Xfer {
                    sender_free: done,
                    arrival: done,
                }
            } else {
                self.inter_node_bytes += bytes;
                let wire = Self::wire(bytes, self.cfg.inter.bandwidth);
                if self.cfg.port_limited {
                    let start = t0.max(self.adapter_free[sn]).max(self.adapter_free[dn]);
                    self.adapter_free[sn] = start + wire;
                    self.adapter_free[dn] = start + wire;
                    Xfer {
                        sender_free: start + wire,
                        arrival: start + wire + self.cfg.inter.latency,
                    }
                } else {
                    Xfer {
                        sender_free: t0 + wire,
                        arrival: t0 + self.cfg.inter.latency + wire,
                    }
                }
            };
            if let Some(plan) = &self.faults {
                if let Some(extra) = plan.message_penalty(src, dst, t) {
                    x.arrival += extra;
                }
            }
            x
        }
    }

    #[test]
    fn zero_byte_pricing_matches_the_reference_arithmetic() {
        // Two nodes of two endpoints each: (0,1) is intra-node, (0,2)
        // and (3,1) are inter-node. Zero-byte messages are interleaved
        // with loaded ones so they meet busy adapters, and the first
        // messages matching the fault budgets carry no bytes.
        let mut flat = NetConfig::smp_cluster(4, 2);
        flat.port_limited = false;
        let cfgs = [
            NetConfig::smp_cluster(4, 2),
            flat,
            NetConfig::fast_ethernet(4),
        ];
        let hops = [(0, 1), (0, 2), (3, 1), (2, 0), (1, 0), (2, 3)];
        let plan = || {
            FaultPlan::new()
                .with_message_drops(
                    Some(0),
                    Some(2),
                    amrio_fault::window_secs(0.0, 1.0),
                    SimDur::from_micros(700),
                    1,
                )
                .with_message_delays(
                    None,
                    Some(1),
                    amrio_fault::window_secs(0.0, 1.0),
                    SimDur::from_micros(90),
                    2,
                )
        };
        for cfg in cfgs {
            for with_faults in [false, true] {
                let mut net = Net::new(cfg.clone());
                let mut reference = Reference {
                    adapter_free: vec![SimTime::ZERO; cfg.num_nodes()],
                    cfg: cfg.clone(),
                    inter_node_bytes: 0,
                    messages: 0,
                    faults: with_faults.then(plan),
                };
                let net_plan = Arc::new(plan());
                if with_faults {
                    net.attach_faults(Arc::clone(&net_plan));
                }
                let mut t = SimTime::ZERO;
                for (m, &(src, dst)) in hops.iter().cycle().take(24).enumerate() {
                    let bytes = if m % 3 == 2 { 5_000 } else { 0 };
                    let got = net.transfer(src, dst, bytes, t);
                    let want = reference.transfer(src, dst, bytes, t);
                    let at = format!("message {m} {src}->{dst}, faults {with_faults}");
                    assert_eq!(got.sender_free, want.sender_free, "{at}");
                    assert_eq!(got.arrival, want.arrival, "{at}");
                    for ep in 0..4 {
                        let node = cfg.node_of[ep];
                        assert_eq!(
                            net.adapter_free_at(ep),
                            reference.adapter_free[node],
                            "{at}"
                        );
                    }
                    assert_eq!(net.messages, reference.messages, "{at}");
                    assert_eq!(net.inter_node_bytes, reference.inter_node_bytes, "{at}");
                    t += SimDur::from_micros(if m % 2 == 0 { 1 } else { 40 });
                }
                let used = net_plan.report(t);
                let spent = if with_faults { (1, 2) } else { (0, 0) };
                assert_eq!((used.dropped_messages, used.delayed_messages), spent);
            }
        }
    }

    #[test]
    fn zero_byte_message_costs_latency_only() {
        let mut n = Net::new(NetConfig::fast_ethernet(2));
        let x = n.transfer(0, 1, 0, SimTime::ZERO);
        let want = SimDur::from_micros(30) + SimDur::from_micros(120);
        assert_eq!(x.arrival, SimTime::ZERO + want);
    }
}
