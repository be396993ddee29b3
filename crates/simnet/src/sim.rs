//! The discrete-event kernel: actors, message delivery, timers, per-node
//! busy-time (single-server queueing), crash/restart, and scheduled control
//! operations (fault injection).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use replimid_det::DetRng;

use crate::net::{Delivery, LinkFault, NetworkModel, NodeId};
use crate::time::SimTime;

/// A simulated process. `M` is the message type of the whole simulation
/// (typically one enum covering every protocol in play).
pub trait Actor<M> {
    /// Called once when the simulation starts (arm initial timers here).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// A message arrived.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// A timer armed with [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _tag: u64) {}

    /// The node just restarted after a crash. In-flight volatile state is
    /// gone; timers armed before the crash will not fire. Durable state (in
    /// our experiments: the database engine the actor owns) survives,
    /// modelling disk persistence.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_, M>) {}
}

/// Everything an actor may do during a callback.
pub struct Ctx<'a, M> {
    pub me: NodeId,
    now: SimTime,
    queue: &'a mut EventQueue<M>,
    net: &'a NetworkModel,
    rng: &'a mut DetRng,
    meta: &'a mut [NodeMeta],
    stats: &'a mut SimStats,
    fifo: &'a mut std::collections::HashMap<(NodeId, NodeId), SimTime>,
}

impl<M> Ctx<'_, M> {
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic per-simulation RNG (jitter, workload choices).
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Send a message; it arrives after the link's latency unless the link
    /// is partitioned or lossy. Delivery is FIFO per directed link (TCP-like:
    /// jitter never reorders two messages between the same pair of nodes).
    /// Sending to a crashed node silently loses the message at delivery time
    /// (connection reset).
    pub fn send(&mut self, to: NodeId, msg: M)
    where
        M: Clone,
    {
        self.send_after(to, msg, 0);
    }

    /// Send with an extra sender-side delay before the message leaves —
    /// e.g. a response that must not depart before the service time the
    /// sender consumed for producing it has elapsed.
    pub fn send_after(&mut self, to: NodeId, msg: M, extra_us: u64)
    where
        M: Clone,
    {
        self.stats.messages_sent += 1;
        match self.net.transit(self.me, to, self.rng) {
            Some(delivery) => {
                let dup_delay = match delivery {
                    Delivery::Once(_) => None,
                    Delivery::Twice(_, d2) => Some(d2),
                };
                let mut at = self.now + extra_us + delivery.delay();
                let horizon = self.fifo.entry((self.me, to)).or_insert(SimTime::ZERO);
                if at < *horizon {
                    at = *horizon;
                }
                *horizon = at;
                if let Some(d2) = dup_delay {
                    // Duplication fault: a second copy trails the first. It
                    // advances the FIFO horizon like any later send, so it
                    // never reorders against subsequent traffic.
                    self.stats.messages_duplicated += 1;
                    let mut at2 = self.now + extra_us + d2;
                    let horizon = self.fifo.get_mut(&(self.me, to)).unwrap();
                    if at2 < *horizon {
                        at2 = *horizon;
                    }
                    *horizon = at2;
                    self.queue.push(at, EventKind::Deliver { to, from: self.me, msg: msg.clone() });
                    self.queue.push(at2, EventKind::Deliver { to, from: self.me, msg });
                } else {
                    self.queue.push(at, EventKind::Deliver { to, from: self.me, msg });
                }
            }
            None => self.stats.messages_dropped += 1,
        }
    }

    /// Arm a timer that fires on this node after `delay_us`. Timers do not
    /// survive crashes.
    pub fn set_timer(&mut self, delay_us: u64, tag: u64) -> TimerId {
        let epoch = self.meta[self.me.0].epoch;
        self.queue
            .push(self.now + delay_us, EventKind::Timer { node: self.me, tag, epoch })
    }

    /// Arm a timer at an absolute virtual time (clamped to now). Arrival
    /// processes schedule each arrival at its precomputed instant instead
    /// of chaining relative delays, so interarrival rounding never
    /// accumulates into rate drift over a long open-loop run.
    pub fn set_timer_at(&mut self, at: SimTime, tag: u64) -> TimerId {
        let epoch = self.meta[self.me.0].epoch;
        let at = at.max(self.now);
        self.queue.push(at, EventKind::Timer { node: self.me, tag, epoch })
    }

    /// Drop a timer before it fires: its payload is freed at once and it
    /// no longer counts as pending. Cancelling a timer that already fired,
    /// or cancelling twice, does nothing.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.queue.cancel(id);
    }

    /// Account `service_us` of serial processing on this node: subsequent
    /// message deliveries queue behind it (single-server queue). Returns the
    /// time at which the node becomes free again.
    ///
    /// During a brownout (`ControlOp::SetBrownout`) every consumed service
    /// time is stretched by the node's slow factor — the node is *slow but
    /// alive* (§4.1.3's failing-battery anecdote), still answering but
    /// building backlog.
    pub fn consume(&mut self, service_us: u64) -> SimTime {
        let m = &mut self.meta[self.me.0];
        let service_us = if m.slow_factor != 1.0 {
            (service_us as f64 * m.slow_factor) as u64
        } else {
            service_us
        };
        let start = m.busy_until.max(self.now);
        m.busy_until = start + service_us;
        self.stats.busy_us_total += service_us;
        m.busy_until
    }

    /// This node's backlog: how far its busy horizon extends past now.
    pub fn backlog_us(&self) -> u64 {
        self.meta[self.me.0].busy_until.saturating_sub(self.now)
    }

    /// Whether another node is currently crashed. Real distributed systems
    /// cannot ask this — actors implementing failure detectors must not call
    /// it; it exists for *oracle* measurements (e.g. "what was the true
    /// failure time" when computing detection latency).
    pub fn oracle_is_crashed(&self, node: NodeId) -> bool {
        self.meta
            .get(node.0)
            .map(|m| m.crashed)
            .unwrap_or(false)
    }
}

/// What the fault-injection schedule can do (§5.1: benchmarks should
/// integrate fault injection and management operations).
#[derive(Debug, Clone)]
pub enum ControlOp {
    Crash(NodeId),
    Restart(NodeId),
    Partition(Vec<Vec<NodeId>>),
    Heal,
    /// Gray failure: stretch the node's service times by this factor
    /// (slow-but-alive, §4.1.3). A factor of 1.0 is a no-op.
    SetBrownout(NodeId, f64),
    /// End a brownout (service times return to nominal).
    ClearBrownout(NodeId),
    /// Gray failure: overlay loss/duplication/jitter on both directions of
    /// a link without severing it.
    SetLinkFault(NodeId, NodeId, LinkFault),
    /// End a link-fault episode (both directions).
    ClearLinkFault(NodeId, NodeId),
}

enum EventKind<M> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, tag: u64, epoch: u64 },
    Control(ControlOp),
    /// Single wake marker for a busy node with held deliveries: fires at
    /// the node's free time, carries the lowest held sequence number so it
    /// sorts where that delivery would have (see `step`'s Deliver arm).
    Wake { node: NodeId },
}

struct Event<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

/// Names one armed timer, for [`Ctx::cancel_timer`]. It carries the
/// event's sequence number as well as its queue slot: a slot is reused
/// once its event leaves the queue, and an id whose sequence number no
/// longer matches its slot cancels nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    seq: u64,
    slot: u32,
}

/// Heap entries a cancellation may leave dead before the heap is rebuilt,
/// beyond one per live event.
const COMPACT_SLACK: usize = 64;

/// The event queue: a min-heap of `(at, seq, slot)` over a slab of
/// payloads. Events run in `(at, seq)` order; `seq` is unique among queued
/// events, so the order is total. Cancelling a timer frees its slab slot
/// at once and leaves its heap entry dead (lazy deletion): `pop` and
/// `peek_time` skip an entry whose slot no longer holds its `seq`, and the
/// heap is rebuilt when dead entries outnumber live ones.
struct EventQueue<M> {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slab: Vec<Option<(u64, EventKind<M>)>>,
    free: Vec<u32>,
    /// Live (queued, not cancelled) events.
    live: usize,
    /// High-water mark of `live`.
    peak: usize,
    cancelled: u64,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak: 0,
            cancelled: 0,
            next_seq: 0,
        }
    }

    fn push(&mut self, at: SimTime, kind: EventKind<M>) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_at_seq(at, seq, kind)
    }

    /// Re-queue with an existing sequence number (busy-node deferral):
    /// keeping the original seq preserves FIFO against later-sent messages
    /// that land at the same instant.
    fn push_at_seq(&mut self, at: SimTime, seq: u64, kind: EventKind<M>) -> TimerId {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some((seq, kind));
                slot
            }
            None => {
                self.slab.push(Some((seq, kind)));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 queued events")
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
        self.live += 1;
        self.peak = self.peak.max(self.live);
        TimerId { seq, slot }
    }

    fn holds(&self, seq: u64, slot: u32) -> bool {
        matches!(self.slab[slot as usize], Some((s, _)) if s == seq)
    }

    /// Free `slot`, which holds a live event, and return its payload.
    fn take(&mut self, slot: u32) -> EventKind<M> {
        let (_, kind) = self.slab[slot as usize].take().expect("a live slot");
        self.free.push(slot);
        self.live -= 1;
        kind
    }

    fn pop(&mut self) -> Option<Event<M>> {
        loop {
            let Reverse((at, seq, slot)) = self.heap.pop()?;
            if self.holds(seq, slot) {
                let kind = self.take(slot);
                self.compact_if_sparse();
                return Some(Event { at, seq, kind });
            }
        }
    }

    /// Time of the next live event; dead entries at the head are dropped.
    fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let &Reverse((at, seq, slot)) = self.heap.peek()?;
            if self.holds(seq, slot) {
                return Some(at);
            }
            self.heap.pop();
        }
    }

    /// Drop a queued timer; nothing if it already fired or was cancelled.
    fn cancel(&mut self, id: TimerId) {
        if self.holds(id.seq, id.slot) {
            self.take(id.slot);
            self.cancelled += 1;
            self.compact_if_sparse();
        }
    }

    /// Rebuild the heap from its live entries once the dead ones outnumber
    /// them (plus slack), so the heap stays within 2 × live + slack.
    fn compact_if_sparse(&mut self) {
        if self.heap.len() > 2 * self.live + COMPACT_SLACK {
            let mut entries = std::mem::take(&mut self.heap).into_vec();
            entries.retain(|&Reverse((_, seq, slot))| self.holds(seq, slot));
            self.heap = entries.into();
        }
    }

    fn len(&self) -> usize {
        self.live
    }
}

#[derive(Debug, Clone)]
struct NodeMeta {
    crashed: bool,
    busy_until: SimTime,
    /// Bumped on restart so pre-crash timers are invalidated.
    epoch: u64,
    /// Brownout multiplier on consumed service time; 1.0 = nominal.
    slow_factor: f64,
}

impl Default for NodeMeta {
    fn default() -> Self {
        NodeMeta { crashed: false, busy_until: SimTime::ZERO, epoch: 0, slow_factor: 1.0 }
    }
}

/// Aggregate kernel statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    pub messages_sent: u64,
    pub messages_dropped: u64,
    pub messages_duplicated: u64,
    pub events_processed: u64,
    pub busy_us_total: u64,
    /// Timers dropped by [`Ctx::cancel_timer`] before they fired.
    pub timers_cancelled: u64,
    /// High-water mark of live queued events ([`Sim::pending_events`]).
    pub peak_pending: u64,
}

/// Object-safe actor + downcast support (blanket-implemented for every
/// `Actor<M> + 'static`; users never implement this directly).
pub trait AnyActor<M>: Actor<M> {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<M, T: Actor<M> + 'static> AnyActor<M> for T {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The simulation world.
pub struct Sim<M> {
    actors: Vec<Option<Box<dyn AnyActor<M>>>>,
    meta: Vec<NodeMeta>,
    queue: EventQueue<M>,
    pub net: NetworkModel,
    rng: DetRng,
    now: SimTime,
    started: bool,
    stats: SimStats,
    fifo: std::collections::HashMap<(NodeId, NodeId), SimTime>,
    /// Per-node arrival queue for deliveries that found the node busy,
    /// ordered by sequence number (= FIFO arrival order). Invariant: a
    /// node's map is non-empty iff `wake[node]` holds a scheduled `Wake`
    /// marker. Re-heaping every deferred delivery once per service
    /// completion is O(queue²); holding them here and waking once is not.
    held: Vec<std::collections::BTreeMap<u64, (NodeId, M)>>,
    /// Sequence number of the node's scheduled `Wake` marker, if any.
    wake: Vec<Option<u64>>,
}

impl<M> Sim<M> {
    pub fn new(net: NetworkModel, seed: u64) -> Self {
        Sim {
            actors: Vec::new(),
            meta: Vec::new(),
            queue: EventQueue::new(),
            net,
            rng: DetRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            started: false,
            stats: SimStats::default(),
            fifo: std::collections::HashMap::new(),
            held: Vec::new(),
            wake: Vec::new(),
        }
    }

    pub fn add_node<A: Actor<M> + 'static>(&mut self, actor: A) -> NodeId {
        let id = NodeId(self.actors.len());
        self.actors.push(Some(Box::new(actor)));
        self.meta.push(NodeMeta::default());
        self.held.push(std::collections::BTreeMap::new());
        self.wake.push(None);
        id
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn stats(&self) -> SimStats {
        SimStats {
            timers_cancelled: self.queue.cancelled,
            peak_pending: self.queue.peak as u64,
            ..self.stats
        }
    }

    pub fn node_count(&self) -> usize {
        self.actors.len()
    }

    /// Schedule a control operation (fault injection) at an absolute time.
    pub fn schedule(&mut self, at: SimTime, op: ControlOp) {
        self.queue.push(at, EventKind::Control(op));
    }

    /// Immediately inject a message to a node (external stimulus). `from` is
    /// reported as the destination itself.
    pub fn inject(&mut self, at: SimTime, to: NodeId, msg: M) {
        self.inject_as(at, to, to, msg);
    }

    /// Inject a message that appears to come from `from` (so the receiver's
    /// replies route there).
    pub fn inject_as(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        assert!(at >= self.now, "cannot inject into the past");
        self.queue.push(at, EventKind::Deliver { to, from, msg });
    }

    /// Downcast helper for setup and inspection between runs (`A` must be
    /// the concrete actor type registered at `add_node`).
    pub fn with_actor<A: 'static, R>(&mut self, node: NodeId, f: impl FnOnce(&mut A) -> R) -> R {
        let actor = self.actors[node.0].as_mut().expect("actor not in callback");
        let any = actor.as_any_mut();
        f(any.downcast_mut::<A>().expect("actor type mismatch"))
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            self.with_ctx(NodeId(i), |actor, ctx| actor.on_start(ctx));
        }
    }

    fn with_ctx(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Actor<M>, &mut Ctx<'_, M>)) {
        let mut actor = self.actors[node.0].take().expect("re-entrant actor callback");
        {
            let mut ctx = Ctx {
                me: node,
                now: self.now,
                queue: &mut self.queue,
                net: &self.net,
                rng: &mut self.rng,
                meta: &mut self.meta,
                stats: &mut self.stats,
                fifo: &mut self.fifo,
            };
            f(actor.as_mut(), &mut ctx);
        }
        self.actors[node.0] = Some(actor);
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let Some(ev) = self.queue.pop() else { return false };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.stats.events_processed += 1;
        match ev.kind {
            EventKind::Deliver { to, from, msg } => {
                if self.meta[to.0].crashed {
                    self.stats.messages_dropped += 1;
                    return true;
                }
                // Single-server queueing: if the node is busy, park the
                // delivery in its arrival queue. One `Wake` marker at the
                // node's free time then drains the queue a message per
                // service completion; the marker reuses the lowest held
                // seq so it sorts exactly where that delivery would have.
                if self.meta[to.0].busy_until > self.now {
                    self.held[to.0].insert(ev.seq, (from, msg));
                    if self.wake[to.0].is_none() {
                        self.schedule_wake(to);
                    }
                    return true;
                }
                self.with_ctx(to, |actor, ctx| actor.on_message(ctx, from, msg));
            }
            EventKind::Timer { node, tag, epoch } => {
                if self.meta[node.0].crashed || self.meta[node.0].epoch != epoch {
                    return true;
                }
                self.with_ctx(node, |actor, ctx| actor.on_timer(ctx, tag));
            }
            EventKind::Control(op) => self.apply_control(op),
            EventKind::Wake { node } => {
                self.wake[node.0] = None;
                if self.meta[node.0].crashed {
                    // Deferred deliveries to a node that crashed in the
                    // meantime are lost, exactly as if each had been
                    // requeued and found the node dead.
                    self.stats.messages_dropped += self.held[node.0].len() as u64;
                    self.held[node.0].clear();
                    return true;
                }
                if self.meta[node.0].busy_until > self.now {
                    // Went busy again before the wake: re-aim at the new
                    // free time.
                    self.schedule_wake(node);
                    return true;
                }
                let Some((&seq, _)) = self.held[node.0].iter().next() else { return true };
                let (from, msg) = self.held[node.0].remove(&seq).expect("held delivery");
                self.with_ctx(node, |actor, ctx| actor.on_message(ctx, from, msg));
                if !self.held[node.0].is_empty() {
                    self.schedule_wake(node);
                }
            }
        }
        true
    }

    /// (Re)schedule the `Wake` marker for a node with held deliveries, at
    /// the node's free time, ordered by the lowest held sequence number.
    /// The marker reuses that seq as its own: the delivery's original heap
    /// slot was freed when it was parked, and there is at most one marker
    /// per node, so the seq cannot collide.
    fn schedule_wake(&mut self, node: NodeId) {
        let Some((&seq, _)) = self.held[node.0].iter().next() else { return };
        let at = self.meta[node.0].busy_until.max(self.now);
        self.queue.push_at_seq(at, seq, EventKind::Wake { node });
        self.wake[node.0] = Some(seq);
    }

    fn apply_control(&mut self, op: ControlOp) {
        match op {
            ControlOp::Crash(node) => {
                self.meta[node.0].crashed = true;
                self.meta[node.0].busy_until = self.now;
            }
            ControlOp::Restart(node) => {
                if self.meta[node.0].crashed {
                    self.meta[node.0].crashed = false;
                    self.meta[node.0].epoch += 1;
                    self.with_ctx(node, |actor, ctx| actor.on_restart(ctx));
                }
            }
            ControlOp::Partition(groups) => {
                let refs: Vec<&[NodeId]> = groups.iter().map(|g| g.as_slice()).collect();
                self.net.partition(&refs);
            }
            ControlOp::Heal => self.net.heal(),
            ControlOp::SetBrownout(node, factor) => {
                self.meta[node.0].slow_factor = if factor > 0.0 { factor } else { 1.0 };
            }
            ControlOp::ClearBrownout(node) => {
                self.meta[node.0].slow_factor = 1.0;
            }
            ControlOp::SetLinkFault(a, b, fault) => {
                self.net.set_fault_symmetric(a, b, fault);
            }
            ControlOp::ClearLinkFault(a, b) => {
                self.net.clear_fault_symmetric(a, b);
            }
        }
    }

    /// Run until the queue drains or virtual time reaches `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.start_if_needed();
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
        if self.now < until {
            self.now = until;
        }
    }

    /// Drain every queued event (use with closed workloads that terminate).
    pub fn run_to_quiescence(&mut self) {
        self.start_if_needed();
        while self.step() {}
    }

    /// Live queued events; cancelled timers are not counted.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::dur;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    #[derive(Default)]
    struct Pinger {
        peer: usize,
        pongs: Vec<(u64, u32)>,
    }

    impl Actor<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.send(NodeId(self.peer), Msg::Ping(1));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Pong(n) = msg {
                self.pongs.push((ctx.now().micros(), n));
                if n < 3 {
                    ctx.send(NodeId(self.peer), Msg::Ping(n + 1));
                }
            }
        }
    }

    struct Ponger;

    impl Actor<Msg> for Ponger {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
            if let Msg::Ping(n) = msg {
                ctx.consume(10);
                ctx.send(from, Msg::Pong(n));
            }
        }
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut sim = Sim::new(NetworkModel::lan(), 42);
        let a = sim.add_node(Pinger { peer: 1, pongs: vec![] });
        let _b = sim.add_node(Ponger);
        sim.run_to_quiescence();
        sim.with_actor::<Pinger, _>(a, |p| {
            assert_eq!(p.pongs.len(), 3);
            assert!(p.pongs[0].0 >= 200, "two LAN hops minimum");
            assert!(p.pongs.windows(2).all(|w| w[0].0 < w[1].0));
        });
    }

    #[test]
    fn crash_drops_messages_and_restart_revives() {
        let mut sim = Sim::new(NetworkModel::lan(), 1);
        let a = sim.add_node(Pinger { peer: 1, pongs: vec![] });
        let b = sim.add_node(Ponger);
        sim.schedule(SimTime::ZERO, ControlOp::Crash(b));
        sim.run_until(SimTime::from_millis(10));
        sim.with_actor::<Pinger, _>(a, |p| assert!(p.pongs.is_empty()));
        // Restart and ping again.
        sim.schedule(SimTime::from_millis(10), ControlOp::Restart(b));
        let t = SimTime::from_millis(11);
        sim.inject_as(t, a, b, Msg::Ping(9));
        sim.run_to_quiescence();
        sim.with_actor::<Pinger, _>(a, |p| {
            assert_eq!(p.pongs.len(), 1, "revived node answered");
            assert_eq!(p.pongs[0].1, 9);
        });
    }

    struct Busy {
        handled: Vec<u64>,
    }

    impl Actor<Msg> for Busy {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {
            self.handled.push(ctx.now().micros());
            ctx.consume(dur::millis(1));
        }
    }

    #[test]
    fn busy_nodes_serialize_deliveries() {
        let mut sim = Sim::new(NetworkModel::new(crate::net::LinkSpec::local()), 3);
        let b = sim.add_node(Busy { handled: vec![] });
        for _ in 0..3 {
            sim.inject(SimTime::ZERO, b, Msg::Ping(0));
        }
        sim.run_to_quiescence();
        sim.with_actor::<Busy, _>(b, |busy| {
            assert_eq!(busy.handled, vec![0, 1_000, 2_000], "1ms service each");
        });
    }

    #[test]
    fn timers_do_not_survive_crash() {
        struct T {
            fired: bool,
        }
        impl Actor<Msg> for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(dur::millis(5), 7);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _tag: u64) {
                self.fired = true;
            }
        }
        let mut sim = Sim::new(NetworkModel::lan(), 5);
        let n = sim.add_node(T { fired: false });
        sim.schedule(SimTime::from_millis(1), ControlOp::Crash(n));
        sim.schedule(SimTime::from_millis(2), ControlOp::Restart(n));
        sim.run_until(SimTime::from_millis(20));
        sim.with_actor::<T, _>(n, |t| assert!(!t.fired, "pre-crash timer must not fire"));
    }

    #[test]
    fn partition_control_blocks_messages() {
        let mut sim = Sim::new(NetworkModel::lan(), 9);
        let a = sim.add_node(Pinger { peer: 1, pongs: vec![] });
        let b = sim.add_node(Ponger);
        sim.schedule(SimTime::ZERO, ControlOp::Partition(vec![vec![a], vec![b]]));
        sim.run_until(SimTime::from_millis(5));
        sim.with_actor::<Pinger, _>(a, |p| assert!(p.pongs.is_empty()));
        assert!(sim.stats().messages_dropped >= 1);
    }

    #[test]
    fn brownout_stretches_service_then_recovers() {
        let mut sim = Sim::new(NetworkModel::new(crate::net::LinkSpec::local()), 4);
        let b = sim.add_node(Busy { handled: vec![] });
        sim.schedule(SimTime::ZERO, ControlOp::SetBrownout(b, 5.0));
        sim.inject(SimTime(1), b, Msg::Ping(0)); // 5ms under brownout
        sim.inject(SimTime(2), b, Msg::Ping(0)); // queues behind it
        sim.schedule(SimTime::from_millis(6), ControlOp::ClearBrownout(b));
        sim.inject(SimTime::from_millis(20), b, Msg::Ping(0)); // nominal again
        sim.run_to_quiescence();
        sim.with_actor::<Busy, _>(b, |busy| {
            assert_eq!(busy.handled[0], 1);
            assert_eq!(busy.handled[1], 5_001, "second waited out 5x service");
            assert_eq!(busy.handled[2], 20_000);
        });
        // Nominal service resumed: total busy = 5ms + 5ms + 1ms.
        assert_eq!(sim.stats().busy_us_total, 11_000);
    }

    #[test]
    fn link_fault_control_duplicates_and_clears() {
        // A sender that pings on two timers: once during the dup episode,
        // once after it clears.
        struct SendTwice {
            peer: usize,
        }
        impl Actor<Msg> for SendTwice {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(dur::millis(1), 1);
                ctx.set_timer(dur::millis(5), 2);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
                ctx.send(NodeId(self.peer), Msg::Ping(tag as u32));
            }
        }
        // Zero-jitter base link + dup_prob 1.0: every send during the
        // episode delivers exactly twice, FIFO preserved.
        let mut sim = Sim::new(NetworkModel::new(crate::net::LinkSpec::local()), 6);
        let sink = sim.add_node(Busy { handled: vec![] });
        let src = sim.add_node(SendTwice { peer: 0 });
        sim.schedule(
            SimTime::ZERO,
            ControlOp::SetLinkFault(
                src,
                sink,
                crate::net::LinkFault { drop_prob: 0.0, dup_prob: 1.0, jitter_us: 0 },
            ),
        );
        sim.schedule(SimTime::from_millis(4), ControlOp::ClearLinkFault(src, sink));
        sim.run_to_quiescence();
        sim.with_actor::<Busy, _>(sink, |b| {
            assert_eq!(b.handled.len(), 3, "ping 1 twice, ping 2 once");
        });
        assert_eq!(sim.stats().messages_duplicated, 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = Sim::new(NetworkModel::lan(), seed);
            let a = sim.add_node(Pinger { peer: 1, pongs: vec![] });
            let _ = sim.add_node(Ponger);
            sim.run_to_quiescence();
            let mut out = Vec::new();
            sim.with_actor::<Pinger, _>(a, |p| out = p.pongs.clone());
            out
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different jitter draws");
    }
}

#[cfg(test)]
mod timer_tests {
    use super::*;

    /// Runs `start` at start-up and `timer` after recording each firing.
    struct Script {
        ids: Vec<TimerId>,
        fired: Vec<(u64, u64)>,
        start: fn(&mut Script, &mut Ctx<'_, ()>),
        timer: fn(&mut Script, &mut Ctx<'_, ()>, u64),
    }

    impl Script {
        fn new(start: fn(&mut Script, &mut Ctx<'_, ()>), timer: fn(&mut Script, &mut Ctx<'_, ()>, u64)) -> Self {
            Script { ids: Vec::new(), fired: Vec::new(), start, timer }
        }
    }

    impl Actor<()> for Script {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            (self.start)(self, ctx);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, tag: u64) {
            self.fired.push((ctx.now().micros(), tag));
            (self.timer)(self, ctx, tag);
        }
    }

    fn no_op(_: &mut Script, _: &mut Ctx<'_, ()>, _: u64) {}

    fn fired(sim: &mut Sim<()>, node: NodeId) -> Vec<(u64, u64)> {
        sim.with_actor::<Script, _>(node, |s| s.fired.clone())
    }

    #[test]
    fn a_cancelled_timer_never_fires_and_is_not_pending() {
        let mut sim = Sim::new(NetworkModel::lan(), 1);
        let n = sim.add_node(Script::new(
            |s, ctx| {
                s.ids = (1..=3).map(|tag| ctx.set_timer(10 * tag, tag)).collect();
                ctx.cancel_timer(s.ids[1]);
            },
            no_op,
        ));
        sim.run_until(SimTime(5));
        assert_eq!(sim.pending_events(), 2);
        sim.run_to_quiescence();
        assert_eq!(fired(&mut sim, n), [(10, 1), (30, 3)]);
        assert_eq!(sim.pending_events(), 0);
        let stats = sim.stats();
        assert_eq!((stats.events_processed, stats.timers_cancelled, stats.peak_pending), (2, 1, 3));
    }

    #[test]
    fn cancelling_a_fired_or_cancelled_timer_is_harmless() {
        let mut sim = Sim::new(NetworkModel::lan(), 1);
        let n = sim.add_node(Script::new(
            |s, ctx| s.ids = vec![ctx.set_timer(10, 1), ctx.set_timer(20, 2), ctx.set_timer(30, 3)],
            |s, ctx, tag| {
                if tag == 1 {
                    // Itself (fired), then timer 2 twice.
                    for id in [s.ids[0], s.ids[0], s.ids[1], s.ids[1]] {
                        ctx.cancel_timer(id);
                    }
                }
            },
        ));
        sim.run_to_quiescence();
        assert_eq!(fired(&mut sim, n), [(10, 1), (30, 3)]);
        assert_eq!(sim.stats().timers_cancelled, 1);
    }

    #[test]
    fn a_stale_id_does_not_cancel_the_event_reusing_its_slot() {
        let mut sim = Sim::new(NetworkModel::lan(), 1);
        let n = sim.add_node(Script::new(
            |s, ctx| s.ids = vec![ctx.set_timer(10, 1)],
            |s, ctx, tag| {
                if tag == 1 {
                    let next = ctx.set_timer(10, 2);
                    assert_eq!(next.slot, s.ids[0].slot, "the fired timer's slot is reused");
                    ctx.cancel_timer(s.ids[0]);
                }
            },
        ));
        sim.run_to_quiescence();
        assert_eq!(fired(&mut sim, n), [(10, 1), (20, 2)]);
        assert_eq!(sim.stats().timers_cancelled, 0);
    }

    #[test]
    fn run_until_with_a_dead_head_runs_nothing_past_the_bound() {
        let mut sim = Sim::new(NetworkModel::lan(), 1);
        let n = sim.add_node(Script::new(
            |s, ctx| {
                s.ids = vec![ctx.set_timer(10, 1), ctx.set_timer(30, 2)];
                ctx.cancel_timer(s.ids[0]);
            },
            no_op,
        ));
        sim.run_until(SimTime(20));
        assert_eq!(fired(&mut sim, n), []);
        assert_eq!((sim.now(), sim.pending_events()), (SimTime(20), 1));
        sim.run_until(SimTime(40));
        assert_eq!(fired(&mut sim, n), [(30, 2)]);
    }

    #[test]
    fn same_instant_events_keep_fifo_order_around_cancellations() {
        let mut sim = Sim::new(NetworkModel::lan(), 1);
        let n = sim.add_node(Script::new(
            |s, ctx| {
                s.ids = (1..=6).map(|tag| ctx.set_timer(10, tag)).collect();
                ctx.cancel_timer(s.ids[1]);
                ctx.cancel_timer(s.ids[4]);
                // Reuses a freed slot, yet still runs after everything
                // armed before it.
                s.ids.push(ctx.set_timer(10, 7));
            },
            |s, ctx, tag| {
                if tag == 3 {
                    ctx.cancel_timer(s.ids[3]);
                    ctx.set_timer(0, 8);
                }
            },
        ));
        sim.run_to_quiescence();
        let order: Vec<u64> = fired(&mut sim, n).into_iter().map(|(_, tag)| tag).collect();
        assert_eq!(order, [1, 3, 6, 7, 8]);
    }

    #[test]
    fn compaction_keeps_the_heap_within_twice_live_plus_slack() {
        let bounded = |q: &EventQueue<()>| q.heap.len() <= 2 * q.len() + COMPACT_SLACK;
        let mut sim = Sim::new(NetworkModel::lan(), 1);
        sim.add_node(Script::new(
            |s, ctx| {
                s.ids = (0..1_000).map(|i| ctx.set_timer(1 + i, i)).collect();
                // Cancel the later 900 one by one: the heap is rebuilt
                // whenever the dead would outnumber the live.
                for i in (100..1_000).rev() {
                    ctx.cancel_timer(s.ids[i]);
                    assert!(ctx.queue.heap.len() <= 2 * ctx.queue.len() + COMPACT_SLACK);
                }
            },
            no_op,
        ));
        sim.run_until(SimTime::ZERO);
        assert_eq!(sim.pending_events(), 100);
        assert!(bounded(&sim.queue), "heap {} for 100 live", sim.queue.heap.len());
        // Pops shrink the live set under the dead entries left behind.
        for t in 1..=100 {
            sim.run_until(SimTime(t));
            assert!(bounded(&sim.queue), "heap {} for {} live", sim.queue.heap.len(), sim.pending_events());
        }
        assert_eq!((sim.pending_events(), sim.stats().events_processed), (0, 100));
    }
}

#[cfg(test)]
mod send_after_tests {
    use super::*;
    use crate::net::LinkSpec;

    #[derive(Debug, Clone)]
    struct N(u64);

    struct Echo {
        service_us: u64,
        received: Vec<(u64, u64)>, // (payload, at)
    }

    impl Actor<N> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, N>, from: NodeId, msg: N) {
            self.received.push((msg.0, ctx.now().micros()));
            ctx.consume(self.service_us);
            let backlog = ctx.backlog_us();
            ctx.send_after(from, N(msg.0 + 100), backlog);
        }
    }

    struct Sink {
        got: Vec<(u64, u64)>,
    }

    impl Actor<N> for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<'_, N>, _from: NodeId, msg: N) {
            self.got.push((msg.0, ctx.now().micros()));
        }
    }

    #[test]
    fn responses_wait_for_service_time() {
        let mut sim = Sim::new(NetworkModel::new(LinkSpec::local()), 1);
        let sink = sim.add_node(Sink { got: vec![] });
        let echo = sim.add_node(Echo { service_us: 1_000, received: vec![] });
        sim.inject_as(SimTime::ZERO, sink, echo, N(1));
        sim.run_to_quiescence();
        sim.with_actor::<Sink, _>(sink, |s| {
            assert_eq!(s.got.len(), 1);
            assert!(s.got[0].1 >= 1_000, "reply left only after the 1ms service");
        });
    }

    #[test]
    fn deferred_deliveries_keep_fifo_against_later_sends() {
        // Two messages sent 1µs apart to a node that is busy: both must be
        // processed in send order even though the first is requeued.
        let mut sim = Sim::new(NetworkModel::new(LinkSpec::local()), 2);
        let sink = sim.add_node(Sink { got: vec![] });
        let echo = sim.add_node(Echo { service_us: 500, received: vec![] });
        sim.inject_as(SimTime(0), sink, echo, N(1)); // starts 500µs of work
        sim.inject_as(SimTime(100), sink, echo, N(2)); // arrives while busy
        sim.inject_as(SimTime(400), sink, echo, N(3)); // also while busy
        sim.run_to_quiescence();
        sim.with_actor::<Echo, _>(echo, |e| {
            let order: Vec<u64> = e.received.iter().map(|&(p, _)| p).collect();
            assert_eq!(order, vec![1, 2, 3], "FIFO preserved across deferral");
        });
    }
}
