//! The host transport layer: a deterministic in-process channel.
//!
//! [`Transport`] is the seam a socket backend would fill: byte frames
//! in, byte frames out, time injected by the caller (the cluster's
//! virtual clock), no threads. [`ChannelTransport`] is the in-process
//! implementation: a priority queue of in-flight frames under a
//! serialized-link cost model, with a [`NetPlan`] interpreter that
//! turns the VM crate's pure network-fault data into drops, delays,
//! duplicates, reorders, node crashes and partitions — same plan,
//! same storm, same recovery.
//!
//! The link model prices batching honestly: the link is a serialized
//! resource, every departing *frame group* pays [`LinkConfig::per_flight`]
//! once plus [`LinkConfig::per_word`] per payload word, and with a
//! non-zero [`LinkConfig::batch_window`] all frames departing in the
//! same window share one group — which is exactly the batching gain
//! `exp_h7_rpc` measures.

use fpc_vm::inject::{NetEvent, NetPlan};

/// A simulated machine in the cluster. Node 0 is the client by
/// convention.
pub type NodeId = u16;

/// A frame the transport handed back at delivery time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Sender.
    pub from: NodeId,
    /// Destination the frame was addressed to.
    pub to: NodeId,
    /// The byte frame.
    pub bytes: Vec<u8>,
    /// `true` when this is the sender's own frame bounced off a
    /// crashed destination (a NAK): `to` is dead, and `bytes` is the
    /// original frame so the caller can recover the sequence number.
    pub nak: bool,
}

/// What a transport must provide — shaped so a socket backend can
/// follow: frames and node ids only, time injected by the caller.
pub trait Transport {
    /// Submits a frame at virtual time `now`.
    fn send(&mut self, now: u64, from: NodeId, to: NodeId, bytes: Vec<u8>);
    /// Drains every frame due at or before `now`, in deterministic
    /// (arrival time, send order) order.
    fn poll(&mut self, now: u64) -> Vec<Delivery>;
    /// Frames still in flight.
    fn in_flight(&self) -> usize;
    /// The earliest `deliver_at` over the frames still in flight, or
    /// `None` when nothing is: no `poll` before then delivers anything.
    fn next_due(&self) -> Option<u64>;
    /// Network-side counters, when the backend keeps any.
    fn net_stats(&self) -> NetStats {
        NetStats::default()
    }
}

/// Link cost model parameters (simulated cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Propagation delay, departure to delivery.
    pub latency: u64,
    /// Serialized per-frame-group cost: header, arbitration, the
    /// per-trip overhead batching amortizes.
    pub per_flight: u64,
    /// Serialized cost per frame word.
    pub per_word: u64,
    /// Departure quantization window; 0 disables batching. Frames
    /// departing within one window share a single `per_flight` charge
    /// and leave together at the window boundary.
    pub batch_window: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: 2_000,
            per_flight: 400,
            per_word: 8,
            batch_window: 0,
        }
    }
}

/// Counters for what the network did — fault-side accounting, kept
/// apart from the guests' architectural counters exactly like
/// `FaultStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames submitted.
    pub sent: u64,
    /// Frames delivered (duplicates included).
    pub delivered: u64,
    /// Frames dropped by plan events.
    pub dropped: u64,
    /// Frames dropped by an active partition.
    pub partition_dropped: u64,
    /// Frames bounced off crashed nodes (NAKs issued).
    pub naks: u64,
    /// Frames delayed by plan events.
    pub delayed: u64,
    /// Extra copies injected by duplicate events.
    pub duplicated: u64,
    /// Adjacent frame pairs swapped by reorder events.
    pub reordered: u64,
    /// Crash events applied.
    pub crashes: u64,
    /// Restart events applied.
    pub restarts: u64,
    /// Partitions formed.
    pub partitions: u64,
}

#[derive(Debug)]
struct Flight {
    deliver_at: u64,
    order: u64,
    from: NodeId,
    to: NodeId,
    bytes: Vec<u8>,
    nak: bool,
}

/// The deterministic in-process channel transport.
#[derive(Debug)]
pub struct ChannelTransport {
    cfg: LinkConfig,
    plan: Vec<NetEvent>,
    next_event: usize,
    sends: u64,
    flights: Vec<Flight>,
    /// The minimum `deliver_at` over `flights` (`u64::MAX` when empty),
    /// so a poll with nothing due returns without scanning.
    earliest: u64,
    crashed: Vec<NodeId>,
    partitions: Vec<(NodeId, NodeId)>,
    /// When the serialized link frees up.
    link_free_at: u64,
    /// The batch window currently being filled, when batching.
    open_window: Option<u64>,
    /// Set by a reorder event: swap the next frame's arrival with the
    /// flight at this index.
    reorder_with: Option<usize>,
    stats: NetStats,
}

impl ChannelTransport {
    /// A fault-free transport under `cfg`.
    pub fn new(cfg: LinkConfig) -> Self {
        Self::with_plan(cfg, NetPlan::from_events(Vec::new()))
    }

    /// A transport that interprets `plan` against the frames it
    /// carries (events keyed on send index, topology events sticky).
    pub fn with_plan(cfg: LinkConfig, plan: NetPlan) -> Self {
        ChannelTransport {
            cfg,
            plan: plan.events().to_vec(),
            next_event: 0,
            sends: 0,
            flights: Vec::new(),
            earliest: u64::MAX,
            crashed: Vec::new(),
            partitions: Vec::new(),
            link_free_at: 0,
            open_window: None,
            reorder_with: None,
            stats: NetStats::default(),
        }
    }

    /// Network-side counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Whether `node` is currently crashed.
    pub fn node_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(&node)
    }

    fn partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions
            .iter()
            .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// Advances the plan cursor through every event scheduled at or
    /// before send index `idx`: topology events apply statefully,
    /// packet-scoped events for exactly `idx` come back as flags.
    fn apply_events(&mut self, idx: u64) -> (bool, u64, bool, bool) {
        let (mut drop, mut delay, mut dup, mut reorder) = (false, 0u64, false, false);
        while let Some(&ev) = self.plan.get(self.next_event) {
            if ev.at() > idx {
                break;
            }
            self.next_event += 1;
            match ev {
                NetEvent::Drop { at } if at == idx => drop = true,
                NetEvent::Delay { at, cycles } if at == idx => delay += cycles,
                NetEvent::Duplicate { at } if at == idx => dup = true,
                NetEvent::Reorder { at } if at == idx => reorder = true,
                NetEvent::CrashNode { node, .. } if !self.crashed.contains(&node) => {
                    self.crashed.push(node);
                    self.stats.crashes += 1;
                    // A crash loses everything addressed to the node
                    // that has not yet arrived.
                    self.flights.retain(|f| f.to != node || f.nak);
                    self.earliest = self
                        .flights
                        .iter()
                        .map(|f| f.deliver_at)
                        .min()
                        .unwrap_or(u64::MAX);
                }
                NetEvent::RestartNode { node, .. } => {
                    if let Some(i) = self.crashed.iter().position(|&n| n == node) {
                        self.crashed.swap_remove(i);
                        self.stats.restarts += 1;
                    }
                }
                NetEvent::Partition { a, b, .. } if !self.partitioned(a, b) => {
                    self.partitions.push((a, b));
                    self.stats.partitions += 1;
                }
                NetEvent::Heal { .. } => self.partitions.clear(),
                // A packet-scoped event whose send index is already
                // past (unreachable with a monotone cursor, but the
                // match must be total).
                _ => {}
            }
        }
        (drop, delay, dup, reorder)
    }

    /// The serialized-link departure model; returns the departure time
    /// of a frame of `words` payload words submitted at `now`.
    fn depart(&mut self, now: u64, words: u64) -> u64 {
        let serial = self.cfg.per_word * words;
        // `checked_div` doubles as the batching switch: window 0
        // means no departure quantization.
        if let Some(window) = now.checked_div(self.cfg.batch_window) {
            let window_end = (window + 1) * self.cfg.batch_window;
            if self.open_window == Some(window) {
                // Riding the already-open frame group: no per-flight
                // charge, just the words.
                self.link_free_at = self.link_free_at.max(window_end) + serial;
            } else {
                self.open_window = Some(window);
                self.link_free_at =
                    self.link_free_at.max(window_end) + self.cfg.per_flight + serial;
            }
        } else {
            self.link_free_at = self.link_free_at.max(now) + self.cfg.per_flight + serial;
        }
        self.link_free_at
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, now: u64, from: NodeId, to: NodeId, bytes: Vec<u8>) {
        let idx = self.sends;
        self.sends += 1;
        self.stats.sent += 1;
        let (drop, delay, dup, reorder) = self.apply_events(idx);
        let pending_swap = self.reorder_with.take();

        if self.partitioned(from, to) {
            self.stats.partition_dropped += 1;
            return; // silence: the sender sees only its deadline
        }
        let words = (bytes.len() as u64).div_ceil(2);
        let mut deliver_at = self.depart(now, words) + self.cfg.latency;
        let nak = self.crashed.contains(&to);
        if nak {
            // Bounce off the dead node: the sender learns after a full
            // round trip, not by magic.
            self.stats.naks += 1;
            deliver_at += self.cfg.latency;
        } else if drop {
            self.stats.dropped += 1;
            return;
        }
        if delay > 0 {
            self.stats.delayed += 1;
            deliver_at += delay;
        }
        let order = idx;
        let (to, dest_bytes) = if nak { (from, bytes) } else { (to, bytes) };
        self.flights.push(Flight {
            deliver_at,
            order,
            from,
            to,
            bytes: dest_bytes,
            nak,
        });
        self.earliest = self.earliest.min(deliver_at);
        let this = self.flights.len() - 1;
        if dup && !nak {
            self.stats.duplicated += 1;
            let f = &self.flights[this];
            let copy = Flight {
                deliver_at: f.deliver_at + self.cfg.per_word * words,
                order: f.order,
                from: f.from,
                to: f.to,
                bytes: f.bytes.clone(),
                nak: false,
            };
            self.earliest = self.earliest.min(copy.deliver_at);
            self.flights.push(copy);
        }
        if let Some(prev) = pending_swap {
            // The reorder event marked the previous frame: swap its
            // arrival with this one's, so the later send overtakes
            // (a swap leaves `earliest` as it is).
            if prev < self.flights.len() && prev != this {
                let t = self.flights[prev].deliver_at;
                self.flights[prev].deliver_at = self.flights[this].deliver_at;
                self.flights[this].deliver_at = t;
                self.stats.reordered += 1;
            }
        }
        if reorder {
            self.reorder_with = Some(this);
        }
    }

    fn poll(&mut self, now: u64) -> Vec<Delivery> {
        if self.earliest > now {
            return Vec::new();
        }
        let mut due: Vec<Flight> = Vec::new();
        // Every frame that stays is visited once at the `else`, so the
        // scan also finds the new earliest arrival.
        self.earliest = u64::MAX;
        let mut i = 0;
        while i < self.flights.len() {
            if self.flights[i].deliver_at <= now {
                due.push(self.flights.swap_remove(i));
            } else {
                self.earliest = self.earliest.min(self.flights[i].deliver_at);
                i += 1;
            }
        }
        due.sort_by_key(|f| (f.deliver_at, f.order));
        self.stats.delivered += due.len() as u64;
        due.into_iter()
            .map(|f| Delivery {
                from: f.from,
                to: f.to,
                bytes: f.bytes,
                nak: f.nak,
            })
            .collect()
    }

    fn in_flight(&self) -> usize {
        self.flights.len()
    }

    fn next_due(&self) -> Option<u64> {
        (!self.flights.is_empty()).then_some(self.earliest)
    }

    fn net_stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LinkConfig {
        LinkConfig {
            latency: 100,
            per_flight: 10,
            per_word: 1,
            batch_window: 0,
        }
    }

    #[test]
    fn frames_arrive_after_latency_in_order() {
        let mut t = ChannelTransport::new(cfg());
        t.send(0, 0, 1, vec![1, 2]);
        t.send(0, 0, 1, vec![3, 4]);
        assert_eq!(t.poll(50).len(), 0, "nothing due yet");
        let d = t.poll(10_000);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].bytes, vec![1, 2]);
        assert_eq!(d[1].bytes, vec![3, 4]);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn drop_and_delay_follow_the_plan() {
        let plan = NetPlan::from_events(vec![
            NetEvent::Drop { at: 0 },
            NetEvent::Delay { at: 1, cycles: 500 },
        ]);
        let mut t = ChannelTransport::with_plan(cfg(), plan);
        t.send(0, 0, 1, vec![1]);
        t.send(0, 0, 1, vec![2]);
        let d = t.poll(100_000);
        assert_eq!(d.len(), 1, "first frame dropped");
        assert_eq!(t.stats().dropped, 1);
        assert_eq!(t.stats().delayed, 1);
    }

    #[test]
    fn crashed_nodes_nak_and_restart_heals() {
        let plan = NetPlan::from_events(vec![
            NetEvent::CrashNode { at: 0, node: 1 },
            NetEvent::RestartNode { at: 1, node: 1 },
        ]);
        let mut t = ChannelTransport::with_plan(cfg(), plan);
        t.send(0, 0, 1, vec![1]);
        let d = t.poll(100_000);
        assert_eq!(d.len(), 1);
        assert!(d[0].nak, "bounced off the crashed node");
        assert_eq!(d[0].to, 0, "returned to sender");
        t.send(200_000, 0, 1, vec![2]);
        let d = t.poll(400_000);
        assert_eq!(d.len(), 1);
        assert!(!d[0].nak, "restarted node accepts frames");
    }

    #[test]
    fn partition_drops_silently_and_heals() {
        let plan = NetPlan::from_events(vec![
            NetEvent::Partition { at: 0, a: 0, b: 1 },
            NetEvent::Heal { at: 1 },
        ]);
        let mut t = ChannelTransport::with_plan(cfg(), plan);
        t.send(0, 0, 1, vec![1]);
        assert_eq!(t.poll(100_000).len(), 0, "partitioned frame vanished");
        assert_eq!(t.stats().partition_dropped, 1);
        t.send(100_000, 0, 1, vec![2]);
        assert_eq!(t.poll(300_000).len(), 1, "healed");
    }

    #[test]
    fn duplicates_and_reorders() {
        let plan = NetPlan::from_events(vec![
            NetEvent::Duplicate { at: 0 },
            NetEvent::Reorder { at: 1 },
        ]);
        let mut t = ChannelTransport::with_plan(cfg(), plan);
        t.send(0, 0, 1, vec![1]);
        t.send(0, 0, 1, vec![2]);
        t.send(0, 0, 1, vec![3]);
        let d = t.poll(100_000);
        assert_eq!(d.len(), 4, "one duplicate");
        assert_eq!(t.stats().duplicated, 1);
        assert_eq!(t.stats().reordered, 1);
        // Frame 3 overtook frame 2.
        let pos2 = d.iter().position(|x| x.bytes == vec![2]).unwrap();
        let pos3 = d.iter().position(|x| x.bytes == vec![3]).unwrap();
        assert!(pos3 < pos2, "reorder swapped arrivals");
    }

    #[test]
    fn batching_amortizes_per_flight() {
        let link_time = |window: u64| {
            let mut t = ChannelTransport::new(LinkConfig {
                batch_window: window,
                ..cfg()
            });
            for _ in 0..8 {
                t.send(0, 0, 1, vec![0; 8]);
            }
            t.link_free_at
        };
        let unbatched = link_time(0);
        let batched = link_time(50);
        assert!(
            batched < unbatched,
            "batched link time {batched} should beat unbatched {unbatched}"
        );
    }

    /// The cached earliest arrival against a scan of every flight,
    /// after every send and poll of seeded storms: drops, delays,
    /// duplicates, reorders, crashes and partitions all move it.
    #[test]
    fn next_due_tracks_the_earliest_flight_through_storms() {
        fn brute(t: &ChannelTransport) -> Option<u64> {
            t.flights.iter().map(|f| f.deliver_at).min()
        }
        let mut total = NetStats::default();
        for seed in 0..16 {
            let mut t = ChannelTransport::with_plan(cfg(), NetPlan::generate(seed, 60, 2));
            let mut rng = fpc_rng::Rng::seed_from_u64(seed);
            let mut now = 0u64;
            for _ in 0..200 {
                now += rng.gen_index(80) as u64;
                if rng.gen_bool(0.5) {
                    let from = rng.gen_index(3) as NodeId;
                    let to = (from + 1 + rng.gen_index(2) as NodeId) % 3;
                    t.send(now, from, to, vec![0; 1 + rng.gen_index(12)]);
                } else {
                    let quiet = t.next_due().is_none_or(|due| now < due);
                    let delivered = t.poll(now);
                    assert!(
                        !quiet || delivered.is_empty(),
                        "seed {seed}: poll at {now} delivered before next_due"
                    );
                    assert!(
                        quiet || !delivered.is_empty(),
                        "seed {seed}: poll at {now} missed a due frame"
                    );
                }
                assert_eq!(t.next_due(), brute(&t), "seed {seed} at {now}");
            }
            let s = t.stats();
            total.dropped += s.dropped;
            total.partition_dropped += s.partition_dropped;
            total.naks += s.naks;
            total.delayed += s.delayed;
            total.duplicated += s.duplicated;
            total.reordered += s.reordered;
            total.crashes += s.crashes;
        }
        for (what, n) in [
            ("drops", total.dropped),
            ("partition drops", total.partition_dropped),
            ("naks", total.naks),
            ("delays", total.delayed),
            ("duplicates", total.duplicated),
            ("reorders", total.reordered),
            ("crashes", total.crashes),
        ] {
            assert!(n > 0, "no storm exercised {what}");
        }
    }
}
