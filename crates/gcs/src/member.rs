//! The group member state machine: total-order multicast (fixed sequencer
//! or token ring) with view-synchronous membership.
//!
//! Design notes (sans-I/O): every entry point returns a list of [`Action`]s
//! the embedder must carry out. The member never touches a clock or a
//! socket — `now` is always passed in, which keeps the protocol unit- and
//! property-testable and lets the same code run under the deterministic
//! simulator.
//!
//! View changes use a stop-the-world flush (virtual-synchrony style):
//!
//! 1. The lowest non-suspected member proposes view v+1 and sends
//!    `FlushReq` to the surviving members.
//! 2. On `FlushReq`, members enter the *flushing* state — they stop
//!    ordering, drop in-flight `Ordered`/`Publish` traffic from the old
//!    view, and reply with everything they can retransmit.
//! 3. The coordinator merges the replies into a `fill`, picks the resume
//!    sequence number past everything any survivor saw, and broadcasts
//!    `NewView`.
//! 4. On `NewView`, members install the fill, abandon sequence holes nobody
//!    holds, and re-publish their still-undelivered local messages.
//!
//! The paper's §4.3.4.1 point that "it is inefficient to perform state
//! transfers when a new replica joins a cluster using group communication"
//! is honored: a joiner gets membership only; database state transfer is the
//! replication middleware's job (recovery log / dump), not the GCS's.

use std::collections::{BTreeMap, HashSet};

use crate::buffer::DeliveryBuffer;
use crate::detector::{FailureDetector, FdEvent, HeartbeatConfig};
use crate::types::{
    Action, GcsMsg, MemberId, MsgId, OrderProtocol, OrderedRecord, View, ViewId,
};

/// Timer tag used by the member's single periodic tick.
pub const TICK_TAG: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcsConfig {
    pub heartbeat: HeartbeatConfig,
    pub protocol: OrderProtocol,
    /// Token silence (token mode) after which the coordinator regenerates
    /// the token via a view change.
    pub token_timeout_us: u64,
    /// How long a flush may stall before another coordinator retries.
    pub flush_timeout_us: u64,
}

impl GcsConfig {
    pub const fn lan(protocol: OrderProtocol) -> Self {
        GcsConfig {
            heartbeat: HeartbeatConfig::lan(),
            protocol,
            token_timeout_us: 300_000,
            flush_timeout_us: 500_000,
        }
    }
}

#[derive(Debug)]
struct Proposal<P> {
    proposed: ViewId,
    members: Vec<MemberId>,
    awaiting: HashSet<MemberId>,
    fill: BTreeMap<u64, OrderedRecord<P>>,
    max_seen: u64,
}

/// One member of the group.
#[derive(Debug)]
pub struct GroupMember<P> {
    me: MemberId,
    config: GcsConfig,
    view: View,
    fd: FailureDetector,
    buffer: DeliveryBuffer<P>,
    next_msg_id: u64,
    /// Published but not yet delivered back to us: re-published on view
    /// change (at-least-once; the delivery buffer dedups).
    pending_local: Vec<(MsgId, P)>,
    /// Next sequence number to assign (meaningful for the sequencer / the
    /// token holder / a flush coordinator).
    next_assign: u64,
    has_token: bool,
    last_token_seen: u64,
    flushing: bool,
    flush_started: u64,
    proposal: Option<Proposal<P>>,
    /// False for a joiner until its first view installs.
    joined: bool,
    /// Contact points for joining.
    contacts: Vec<MemberId>,
    /// Traffic tagged with a view newer than ours: the sender already
    /// installed a view whose NewView is still in flight to us. Replayed
    /// after installation (dropping it would open permanent sequence gaps).
    future_msgs: Vec<(MemberId, GcsMsg<P>)>,
    /// The delivered prefix each other member that ever shared a view with
    /// this one last reported on its heartbeat (0 until it reports). A
    /// member that left keeps its entry: readmitted, it asks for what lies
    /// above it. The history keeps only records above the minimum.
    prefixes: BTreeMap<MemberId, u64>,
}

impl<P: Clone> GroupMember<P> {
    /// A founding member: the initial membership is common knowledge.
    pub fn new(me: MemberId, initial: Vec<MemberId>, config: GcsConfig, now: u64) -> Self {
        let view = View::new(ViewId(0), initial);
        assert!(view.contains(me), "founding member must be in the initial view");
        let peers: Vec<MemberId> = view.members.iter().copied().filter(|&m| m != me).collect();
        let prefixes = peers.iter().map(|&m| (m, 0)).collect();
        let fd = FailureDetector::new(config.heartbeat, peers, now);
        let contacts = view.members.clone();
        let mut member = GroupMember {
            me,
            config,
            view,
            fd,
            buffer: DeliveryBuffer::new(),
            next_msg_id: 1,
            pending_local: Vec::new(),
            next_assign: 1,
            // The coordinator holds the first token.
            has_token: false,
            last_token_seen: now,
            flushing: false,
            flush_started: 0,
            proposal: None,
            joined: true,
            contacts,
            future_msgs: Vec::new(),
            prefixes,
        };
        member.update_stable();
        member
    }

    /// A (re)joining member: not in any view until admitted.
    pub fn joiner(me: MemberId, contacts: Vec<MemberId>, config: GcsConfig, now: u64) -> Self {
        let mut m = GroupMember::new(me, vec![me], config, now);
        m.joined = false;
        m.contacts = contacts;
        m.view = View::new(ViewId(0), vec![me]);
        m
    }

    pub fn me(&self) -> MemberId {
        self.me
    }

    pub fn view(&self) -> &View {
        &self.view
    }

    pub fn is_joined(&self) -> bool {
        self.joined
    }

    fn sequencer(&self) -> Option<MemberId> {
        self.view.coordinator()
    }

    fn i_am_sequencer(&self) -> bool {
        self.sequencer() == Some(self.me)
    }

    /// The lowest view member this member does not suspect.
    fn lowest_alive(&self) -> Option<MemberId> {
        self.view
            .members
            .iter()
            .copied()
            .find(|&m| m == self.me || !self.fd.is_suspected(m))
    }

    /// Tell the history what every member that may ask for a retransmission
    /// has delivered (everything, for a member that has shared a view with
    /// no other).
    fn update_stable(&mut self) {
        let stable = self.prefixes.values().copied().min().unwrap_or(u64::MAX);
        self.buffer.set_stable(stable);
    }

    /// Start the member: arms the periodic tick; token-mode coordinators
    /// mint the first token; joiners solicit admission.
    pub fn start(&mut self, now: u64) -> Vec<Action<P>> {
        let mut actions = vec![Action::SetTimer {
            delay_us: self.config.heartbeat.interval_us,
            tag: TICK_TAG,
        }];
        if self.joined
            && self.config.protocol == OrderProtocol::TokenRing
            && self.i_am_sequencer()
        {
            self.has_token = true;
            self.last_token_seen = now;
        }
        if !self.joined {
            for &c in &self.contacts.clone() {
                if c != self.me {
                    actions.push(Action::Send { to: c, msg: GcsMsg::JoinReq });
                }
            }
        }
        actions
    }

    /// Publish a payload for total-order delivery to the whole group.
    pub fn publish(&mut self, payload: P, now: u64) -> Vec<Action<P>> {
        let id = MsgId(self.next_msg_id);
        self.next_msg_id += 1;
        self.pending_local.push((id, payload.clone()));
        if self.flushing || !self.joined {
            return Vec::new(); // re-published after the view installs
        }
        match self.config.protocol {
            OrderProtocol::FixedSequencer => {
                if self.i_am_sequencer() {
                    self.order(self.me, id, payload, now)
                } else if let Some(seq) = self.sequencer() {
                    vec![Action::Send { to: seq, msg: GcsMsg::Publish { id, payload } }]
                } else {
                    Vec::new()
                }
            }
            OrderProtocol::TokenRing => {
                if self.has_token {
                    let mut actions = self.order(self.me, id, payload, now);
                    actions.extend(self.pass_token(now));
                    actions
                } else {
                    Vec::new() // ordered when the token arrives
                }
            }
        }
    }

    /// Assign the next sequence number and disseminate.
    fn order(&mut self, origin: MemberId, id: MsgId, payload: P, _now: u64) -> Vec<Action<P>> {
        let rec = OrderedRecord { seq: self.next_assign, origin, id, payload };
        self.next_assign += 1;
        let mut actions = Vec::new();
        for &m in &self.view.members {
            if m != self.me {
                actions.push(Action::Send {
                    to: m,
                    msg: GcsMsg::Ordered { view: self.view.id, rec: rec.clone() },
                });
            }
        }
        actions.extend(self.accept_record(rec));
        actions
    }

    fn accept_record(&mut self, rec: OrderedRecord<P>) -> Vec<Action<P>> {
        let delivered = self.buffer.offer(rec);
        self.emit_deliveries(delivered)
    }

    fn emit_deliveries(&mut self, records: Vec<OrderedRecord<P>>) -> Vec<Action<P>> {
        let mut actions = Vec::new();
        for rec in records {
            if rec.origin == self.me {
                self.pending_local.retain(|(id, _)| *id != rec.id);
            }
            actions.push(Action::Deliver { seq: rec.seq, origin: rec.origin, payload: rec.payload });
        }
        actions
    }

    /// Feed an incoming protocol message.
    pub fn on_message(&mut self, from: MemberId, msg: GcsMsg<P>, now: u64) -> Vec<Action<P>> {
        // Any traffic proves liveness.
        let _ = self.fd.heard_from(from, now);
        match msg {
            GcsMsg::Heartbeat { delivered } => {
                if let Some(prefix) = self.prefixes.get_mut(&from) {
                    *prefix = delivered;
                    self.update_stable();
                }
                Vec::new()
            }
            GcsMsg::Publish { id, payload } => {
                if self.flushing || !self.joined {
                    return Vec::new(); // origin re-publishes after NewView
                }
                match self.config.protocol {
                    OrderProtocol::FixedSequencer if self.i_am_sequencer() => {
                        self.order(from, id, payload, now)
                    }
                    _ => Vec::new(),
                }
            }
            GcsMsg::Ordered { view, rec } => {
                if view > self.view.id {
                    self.future_msgs.push((from, GcsMsg::Ordered { view, rec }));
                    return Vec::new();
                }
                if self.flushing || view != self.view.id || !self.joined {
                    return Vec::new();
                }
                self.accept_record(rec)
            }
            GcsMsg::FlushReq { proposed } => {
                if proposed <= self.view.id {
                    return Vec::new();
                }
                self.flushing = true;
                self.flush_started = now;
                self.has_token = false;
                vec![Action::Send {
                    to: from,
                    msg: GcsMsg::FlushReply {
                        proposed,
                        max_seen: self.buffer.max_seen(),
                        have: self.buffer.retransmittable(),
                    },
                }]
            }
            GcsMsg::FlushReply { proposed, max_seen, have } => {
                self.on_flush_reply(from, proposed, max_seen, have, now)
            }
            GcsMsg::NewView { view, next_seq, fill } => self.install_view(view, next_seq, fill, now),
            GcsMsg::Token { view, next_seq } => {
                if view > self.view.id {
                    self.future_msgs.push((from, GcsMsg::Token { view, next_seq }));
                    return Vec::new();
                }
                if view != self.view.id || self.flushing || !self.joined {
                    return Vec::new();
                }
                self.last_token_seen = now;
                self.has_token = true;
                self.next_assign = self.next_assign.max(next_seq);
                let mut actions = Vec::new();
                for (id, payload) in self.pending_local.clone() {
                    if !self.buffer.is_delivered(self.me, id) {
                        actions.extend(self.order(self.me, id, payload, now));
                    }
                }
                actions.extend(self.pass_token(now));
                actions
            }
            GcsMsg::JoinReq => {
                // Only the coordinator admits; others ignore (the joiner
                // solicits everyone).
                if self.lowest_alive() == Some(self.me) && self.joined {
                    let mut members: Vec<MemberId> = self
                        .view
                        .members
                        .iter()
                        .copied()
                        .filter(|&m| m == self.me || !self.fd.is_suspected(m))
                        .collect();
                    if !members.contains(&from) {
                        members.push(from);
                    }
                    self.start_proposal(members, now)
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn pass_token(&mut self, _now: u64) -> Vec<Action<P>> {
        if self.config.protocol != OrderProtocol::TokenRing || !self.has_token {
            return Vec::new();
        }
        // Next non-suspected member in ring order.
        let mut candidate = self.me;
        for _ in 0..self.view.members.len() {
            candidate = match self.view.successor(candidate) {
                Some(c) => c,
                None => return Vec::new(),
            };
            if candidate == self.me {
                return Vec::new(); // alone (or everyone suspected): keep it
            }
            if !self.fd.is_suspected(candidate) {
                self.has_token = false;
                return vec![Action::Send {
                    to: candidate,
                    msg: GcsMsg::Token { view: self.view.id, next_seq: self.next_assign },
                }];
            }
        }
        Vec::new()
    }

    fn start_proposal(&mut self, members: Vec<MemberId>, now: u64) -> Vec<Action<P>> {
        let proposed = ViewId(
            self.view
                .id
                .0
                .max(self.proposal.as_ref().map(|p| p.proposed.0).unwrap_or(0))
                + 1,
        );
        let view_members = View::new(proposed, members).members;
        let mut awaiting: HashSet<MemberId> =
            view_members.iter().copied().filter(|&m| m != self.me).collect();
        // A joiner being admitted has nothing to flush and may not know the
        // old view: don't wait on members outside the current view.
        awaiting.retain(|m| self.view.contains(*m));
        let mut fill = BTreeMap::new();
        for rec in self.buffer.retransmittable() {
            fill.insert(rec.seq, rec);
        }
        let max_seen = self.buffer.max_seen();
        self.flushing = true;
        self.flush_started = now;
        self.has_token = false;
        let done = awaiting.is_empty();
        self.proposal = Some(Proposal {
            proposed,
            members: view_members.clone(),
            awaiting,
            fill,
            max_seen,
        });
        let mut actions = Vec::new();
        for &m in &view_members {
            if m != self.me && self.view.contains(m) {
                actions.push(Action::Send { to: m, msg: GcsMsg::FlushReq { proposed } });
            }
        }
        if done {
            actions.extend(self.finish_proposal(now));
        }
        actions
    }

    fn on_flush_reply(
        &mut self,
        from: MemberId,
        proposed: ViewId,
        max_seen: u64,
        have: Vec<OrderedRecord<P>>,
        now: u64,
    ) -> Vec<Action<P>> {
        let Some(p) = self.proposal.as_mut() else { return Vec::new() };
        if p.proposed != proposed {
            return Vec::new();
        }
        p.max_seen = p.max_seen.max(max_seen);
        for rec in have {
            p.fill.entry(rec.seq).or_insert(rec);
        }
        p.awaiting.remove(&from);
        if p.awaiting.is_empty() {
            self.finish_proposal(now)
        } else {
            Vec::new()
        }
    }

    fn finish_proposal(&mut self, now: u64) -> Vec<Action<P>> {
        let Some(p) = self.proposal.take() else { return Vec::new() };
        let fill_max = p.fill.keys().next_back().copied().unwrap_or(0);
        let next_seq = p.max_seen.max(fill_max) + 1;
        let view = View::new(p.proposed, p.members);
        let fill: Vec<OrderedRecord<P>> = p.fill.into_values().collect();
        let mut actions = Vec::new();
        for &m in &view.members {
            if m != self.me {
                actions.push(Action::Send {
                    to: m,
                    msg: GcsMsg::NewView {
                        view: view.clone(),
                        next_seq,
                        fill: fill.clone(),
                    },
                });
            }
        }
        actions.extend(self.install_view(view, next_seq, fill, now));
        actions
    }

    fn install_view(
        &mut self,
        view: View,
        next_seq: u64,
        fill: Vec<OrderedRecord<P>>,
        now: u64,
    ) -> Vec<Action<P>> {
        if view.id <= self.view.id && self.joined {
            return Vec::new();
        }
        if !view.contains(self.me) {
            // Excluded (we were suspected): become a joiner again.
            self.joined = false;
            return Vec::new();
        }
        self.view = view.clone();
        self.joined = true;
        self.flushing = false;
        self.proposal = None;
        let peers: Vec<MemberId> =
            view.members.iter().copied().filter(|&m| m != self.me).collect();
        for &m in &peers {
            self.prefixes.entry(m).or_insert(0);
        }
        self.update_stable();
        self.fd.reset_peers(peers, now);
        self.last_token_seen = now;

        let mut delivered = Vec::new();
        for rec in fill {
            delivered.extend(self.buffer.offer(rec));
        }
        delivered.extend(self.buffer.skip_to(next_seq));
        self.next_assign = next_seq;
        let mut actions = self.emit_deliveries(delivered);
        actions.push(Action::ViewInstalled { view: view.clone() });

        // Token mode: the coordinator mints the new token.
        if self.config.protocol == OrderProtocol::TokenRing && self.i_am_sequencer() {
            self.has_token = true;
        }

        // Re-publish what is still undelivered.
        for (id, payload) in self.pending_local.clone() {
            if self.buffer.is_delivered(self.me, id) {
                continue;
            }
            match self.config.protocol {
                OrderProtocol::FixedSequencer => {
                    if self.i_am_sequencer() {
                        actions.extend(self.order(self.me, id, payload, now));
                    } else if let Some(seq) = self.sequencer() {
                        actions.push(Action::Send {
                            to: seq,
                            msg: GcsMsg::Publish { id, payload },
                        });
                    }
                }
                OrderProtocol::TokenRing => {
                    if self.has_token {
                        actions.extend(self.order(self.me, id, payload, now));
                    }
                }
            }
        }
        if self.config.protocol == OrderProtocol::TokenRing && self.has_token {
            actions.extend(self.pass_token(now));
        }

        // Replay traffic that arrived ahead of this installation; anything
        // for a still-newer view goes back into the stash.
        let stashed = std::mem::take(&mut self.future_msgs);
        for (from, msg) in stashed {
            actions.extend(self.on_message(from, msg, now));
        }
        actions
    }

    /// Periodic tick: heartbeats, failure detection, flush retry, token
    /// regeneration, join solicitation.
    pub fn on_timer(&mut self, tag: u64, now: u64) -> Vec<Action<P>> {
        if tag != TICK_TAG {
            return Vec::new();
        }
        let mut actions = vec![Action::SetTimer {
            delay_us: self.config.heartbeat.interval_us,
            tag: TICK_TAG,
        }];
        if !self.joined {
            for &c in &self.contacts.clone() {
                if c != self.me {
                    actions.push(Action::Send { to: c, msg: GcsMsg::JoinReq });
                }
            }
            return actions;
        }
        let delivered = self.buffer.next_seq() - 1;
        for &m in &self.view.members {
            if m != self.me {
                actions.push(Action::Send { to: m, msg: GcsMsg::Heartbeat { delivered } });
            }
        }
        let events = self.fd.tick(now);
        let mut membership_changed = false;
        for ev in events {
            match ev {
                FdEvent::Suspect(m) => {
                    actions.push(Action::Suspected { member: m });
                    membership_changed = true;
                }
                FdEvent::Restore(_) => {}
            }
        }
        let i_coordinate = self.lowest_alive() == Some(self.me);
        if membership_changed && i_coordinate && self.proposal.is_none() {
            let members: Vec<MemberId> = self
                .view
                .members
                .iter()
                .copied()
                .filter(|&m| m == self.me || !self.fd.is_suspected(m))
                .collect();
            actions.extend(self.start_proposal(members, now));
        }
        // Flush stall: retry or take over.
        if self.flushing && now.saturating_sub(self.flush_started) > self.config.flush_timeout_us {
            if let Some(p) = &self.proposal {
                // Our own proposal stalled: someone we awaited died. Re-propose
                // without the silent members.
                let awaiting = p.awaiting.clone();
                let members: Vec<MemberId> = p
                    .members
                    .iter()
                    .copied()
                    .filter(|m| !awaiting.contains(m))
                    .collect();
                self.proposal = None;
                actions.extend(self.start_proposal(members, now));
            } else if i_coordinate {
                // We were flushing for a coordinator that vanished.
                let members: Vec<MemberId> = self
                    .view
                    .members
                    .iter()
                    .copied()
                    .filter(|&m| m == self.me || !self.fd.is_suspected(m))
                    .collect();
                actions.extend(self.start_proposal(members, now));
            } else {
                self.flush_started = now; // keep waiting, re-check later
            }
        }
        // Token loss detection.
        if self.config.protocol == OrderProtocol::TokenRing
            && !self.flushing
            && !self.has_token
            && self.view.members.len() > 1
            && i_coordinate
            && now.saturating_sub(self.last_token_seen) > self.config.token_timeout_us
            && self.proposal.is_none()
        {
            let members: Vec<MemberId> = self
                .view
                .members
                .iter()
                .copied()
                .filter(|&m| m == self.me || !self.fd.is_suspected(m))
                .collect();
            actions.extend(self.start_proposal(members, now));
        }
        actions
    }

    /// Diagnostics.
    pub fn next_deliver_seq(&self) -> u64 {
        self.buffer.next_seq()
    }

    pub fn pending_local_len(&self) -> usize {
        self.pending_local.len()
    }

    /// Delivered records held for flush retransmission.
    pub fn retained(&self) -> usize {
        self.buffer.retained()
    }

    /// Sequence number of the oldest record held for flush retransmission.
    pub fn oldest_retained(&self) -> Option<u64> {
        self.buffer.oldest_retained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::HISTORY_CAP;
    use crate::types::GcsMsg;

    fn group3(proto: OrderProtocol) -> Vec<GroupMember<u32>> {
        let members: Vec<MemberId> = (0..3).map(MemberId).collect();
        (0..3)
            .map(|i| GroupMember::new(MemberId(i), members.clone(), GcsConfig::lan(proto), 0))
            .collect()
    }

    fn sends(actions: &[Action<u32>]) -> Vec<(MemberId, GcsMsg<u32>)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((*to, msg.clone())),
                _ => None,
            })
            .collect()
    }

    fn delivers(actions: &[Action<u32>]) -> Vec<(u64, u32)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Deliver { seq, payload, .. } => Some((*seq, *payload)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sequencer_orders_and_self_delivers() {
        let mut g = group3(OrderProtocol::FixedSequencer);
        // Member 0 is the sequencer: publishing orders immediately.
        let actions = g[0].publish(7, 10);
        assert_eq!(delivers(&actions), vec![(1, 7)], "self-delivery at seq 1");
        // And it broadcast Ordered to the other two members.
        let outs = sends(&actions);
        assert_eq!(outs.len(), 2);
        assert!(outs
            .iter()
            .all(|(_, m)| matches!(m, GcsMsg::Ordered { rec, .. } if rec.seq == 1)));
    }

    #[test]
    fn non_sequencer_publish_routes_to_sequencer() {
        let mut g = group3(OrderProtocol::FixedSequencer);
        let actions = g[1].publish(9, 10);
        let outs = sends(&actions);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, MemberId(0), "unicast to the sequencer");
        assert!(delivers(&actions).is_empty(), "nothing delivered yet");
        assert_eq!(g[1].pending_local_len(), 1);

        // Feed the publish to the sequencer; it orders and broadcasts.
        let (_, publish) = outs.into_iter().next().unwrap();
        let seq_actions = g[0].on_message(MemberId(1), publish, 20);
        let ordered: Vec<_> = sends(&seq_actions);
        assert_eq!(ordered.len(), 2);

        // Deliver the Ordered back at the origin: pending clears.
        let (_, msg) = ordered.into_iter().find(|(to, _)| *to == MemberId(1)).unwrap();
        let origin_actions = g[1].on_message(MemberId(0), msg, 30);
        assert_eq!(delivers(&origin_actions), vec![(1, 9)]);
        assert_eq!(g[1].pending_local_len(), 0);
    }

    #[test]
    fn token_holder_orders_pending_and_passes_token() {
        let mut g = group3(OrderProtocol::TokenRing);
        for m in g.iter_mut() {
            let _ = m.start(0);
        }
        // Member 1 queues a publish (no token yet).
        let a = g[1].publish(5, 10);
        assert!(sends(&a).is_empty() && delivers(&a).is_empty());
        // Member 0 (initial holder) passes the token on its next order or
        // publish; simulate handing the token directly to member 1.
        let vid = g[1].view().id;
        let a = g[1].on_message(MemberId(0), GcsMsg::Token { view: vid, next_seq: 1 }, 20);
        // It ordered its pending message and passed the token to member 2.
        assert_eq!(delivers(&a), vec![(1, 5)]);
        let outs = sends(&a);
        assert!(outs
            .iter()
            .any(|(to, m)| *to == MemberId(2) && matches!(m, GcsMsg::Token { next_seq: 2, .. })));
    }

    #[test]
    fn flush_reply_carries_retransmittable_state() {
        let mut g = group3(OrderProtocol::FixedSequencer);
        // Deliver one ordered record at member 2.
        let rec = OrderedRecord { seq: 1, origin: MemberId(0), id: MsgId(1), payload: 42u32 };
        let _ = g[2].on_message(
            MemberId(0),
            GcsMsg::Ordered { view: ViewId(0), rec },
            10,
        );
        // A coordinator proposes view 1: member 2 enters flushing and
        // replies with what it has.
        let a = g[2].on_message(MemberId(1), GcsMsg::FlushReq { proposed: ViewId(1) }, 20);
        let outs = sends(&a);
        assert_eq!(outs.len(), 1);
        match &outs[0].1 {
            GcsMsg::FlushReply { proposed, max_seen, have } => {
                assert_eq!(*proposed, ViewId(1));
                assert_eq!(*max_seen, 1);
                assert_eq!(have.len(), 1);
            }
            other => panic!("expected FlushReply, got {other:?}"),
        }
        // While flushing, ordered traffic from the old view is dropped.
        let rec2 = OrderedRecord { seq: 2, origin: MemberId(0), id: MsgId(2), payload: 43u32 };
        let a = g[2].on_message(MemberId(0), GcsMsg::Ordered { view: ViewId(0), rec: rec2 }, 30);
        assert!(delivers(&a).is_empty());
    }

    #[test]
    fn a_lone_member_retains_nothing() {
        let mut m = GroupMember::new(
            MemberId(0),
            vec![MemberId(0)],
            GcsConfig::lan(OrderProtocol::FixedSequencer),
            0,
        );
        for p in 0..10_000u32 {
            assert_eq!(delivers(&m.publish(p, u64::from(p))).len(), 1);
        }
        assert_eq!(m.next_deliver_seq(), 10_001);
        assert_eq!(m.retained(), 0, "no other member can ask for a retransmission");
        println!("footprint: gcs history retained by a lone member: {} slots", m.retained());
        println!("footprint: gcs HISTORY_CAP: {HISTORY_CAP} slots");
    }

    #[test]
    fn new_view_excluding_me_makes_me_a_joiner() {
        let mut g = group3(OrderProtocol::FixedSequencer);
        let view = View::new(ViewId(1), vec![MemberId(0), MemberId(1)]);
        let _ = g[2].on_message(
            MemberId(0),
            GcsMsg::NewView { view, next_seq: 1, fill: Vec::new() },
            10,
        );
        assert!(!g[2].is_joined(), "excluded member must rejoin explicitly");
    }

    #[test]
    fn stale_view_messages_rejected_future_stashed() {
        let mut g = group3(OrderProtocol::FixedSequencer);
        // A future-view Ordered is stashed, not delivered.
        let rec = OrderedRecord { seq: 1, origin: MemberId(0), id: MsgId(1), payload: 1u32 };
        let a = g[1].on_message(
            MemberId(0),
            GcsMsg::Ordered { view: ViewId(3), rec: rec.clone() },
            10,
        );
        assert!(delivers(&a).is_empty());
        // Installing view 3 replays the stash.
        let view = View::new(ViewId(3), vec![MemberId(0), MemberId(1), MemberId(2)]);
        let a = g[1].on_message(
            MemberId(0),
            GcsMsg::NewView { view, next_seq: 1, fill: Vec::new() },
            20,
        );
        assert_eq!(delivers(&a), vec![(1, 1)], "stashed record delivered after install");
    }
}
