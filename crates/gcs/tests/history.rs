//! The retransmission history under the deterministic simulator: a group
//! keeps a delivered record only until every member that may ask for it in
//! a flush has reported delivering it, a silent member pins the history at
//! `HISTORY_CAP`, and a readmitted member still finds its gap.

use std::collections::BTreeMap;

use replimid_gcs::buffer::HISTORY_CAP;
use replimid_gcs::{Action, GcsConfig, GcsMsg, GroupMember, MemberId, OrderProtocol};
use replimid_simnet::{ControlOp, Ctx, NetworkModel, NodeId, Sim, SimTime};

#[derive(Debug, Clone)]
enum TestMsg {
    Gcs(GcsMsg<u64>),
    Publish(u64),
}

struct Node {
    member: GroupMember<u64>,
    delivered: Vec<(u64, u64)>, // (seq, payload)
    /// The delivered prefix each peer last reported to this node.
    reported: BTreeMap<MemberId, u64>,
}

impl Node {
    fn run(&mut self, ctx: &mut Ctx<'_, TestMsg>, actions: Vec<Action<u64>>) {
        for a in actions {
            match a {
                Action::Send { to, msg } => ctx.send(NodeId(to.0), TestMsg::Gcs(msg)),
                Action::Deliver { seq, payload, .. } => self.delivered.push((seq, payload)),
                Action::SetTimer { delay_us, tag } => {
                    ctx.set_timer(delay_us, tag);
                }
                Action::ViewInstalled { .. } | Action::Suspected { .. } => {}
            }
        }
    }
}

impl replimid_simnet::Actor<TestMsg> for Node {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
        let actions = self.member.start(ctx.now().micros());
        self.run(ctx, actions);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, from: NodeId, msg: TestMsg) {
        let now = ctx.now().micros();
        let actions = match msg {
            TestMsg::Gcs(m) => {
                if let GcsMsg::Heartbeat { delivered } = m {
                    self.reported.insert(MemberId(from.0), delivered);
                }
                self.member.on_message(MemberId(from.0), m, now)
            }
            TestMsg::Publish(payload) => self.member.publish(payload, now),
        };
        self.run(ctx, actions);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, tag: u64) {
        let actions = self.member.on_timer(tag, ctx.now().micros());
        self.run(ctx, actions);
    }

    /// The member's state survives a crash; only its tick must be re-armed.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
        let actions = self.member.start(ctx.now().micros());
        self.run(ctx, actions);
    }
}

fn group(n: usize, seed: u64) -> (Sim<TestMsg>, Vec<NodeId>) {
    let mut sim = Sim::new(NetworkModel::lan(), seed);
    let members: Vec<MemberId> = (0..n).map(MemberId).collect();
    let nodes = (0..n)
        .map(|i| {
            sim.add_node(Node {
                member: GroupMember::new(
                    MemberId(i),
                    members.clone(),
                    GcsConfig::lan(OrderProtocol::FixedSequencer),
                    0,
                ),
                delivered: Vec::new(),
                reported: BTreeMap::new(),
            })
        })
        .collect();
    (sim, nodes)
}

fn node<R>(sim: &mut Sim<TestMsg>, n: NodeId, f: impl FnOnce(&mut Node) -> R) -> R {
    sim.with_actor::<Node, _>(n, f)
}

#[test]
fn a_fault_free_group_retains_only_what_its_slowest_member_has_not_reported() {
    let (mut sim, nodes) = group(3, 21);
    for k in 0..300u64 {
        for (i, &n) in nodes.iter().enumerate() {
            sim.inject(
                SimTime(1_000 + k * 5_000 + i as u64 * 1_700),
                n,
                TestMsg::Publish(k * 10 + i as u64),
            );
        }
    }
    let mut most = 0;
    for step in 1..=400u64 {
        sim.run_until(SimTime(step * 4_000));
        let prefixes: Vec<u64> = nodes
            .iter()
            .map(|&n| node(&mut sim, n, |m| m.member.next_deliver_seq() - 1))
            .collect();
        let slowest = *prefixes.iter().min().unwrap();
        for (i, &n) in nodes.iter().enumerate() {
            let (retained, oldest, floor) = node(&mut sim, n, |m| {
                let floor = (0..3)
                    .filter(|&j| j != i)
                    .map(|j| m.reported.get(&MemberId(j)).copied().unwrap_or(0))
                    .min()
                    .unwrap();
                (m.member.retained(), m.member.oldest_retained(), floor)
            });
            assert!(
                oldest.is_none_or(|o| o > floor),
                "member {i} holds seq {oldest:?} though every peer reported {floor}"
            );
            assert!(
                retained as u64 >= prefixes[i].saturating_sub(slowest),
                "member {i} at {} dropped a record member at {slowest} lacks",
                prefixes[i]
            );
            most = most.max(retained);
        }
    }
    let reference = node(&mut sim, nodes[0], |m| m.delivered.clone());
    assert_eq!(reference.len(), 900);
    for &n in &nodes {
        assert_eq!(node(&mut sim, n, |m| m.delivered.clone()), reference);
        assert_eq!(
            node(&mut sim, n, |m| m.member.retained()),
            0,
            "all stable once quiet"
        );
    }
    assert!(most > 0 && most < 100, "history peaked at {most} records");
}

#[test]
fn a_crashed_member_pins_the_history_at_the_cap() {
    let (mut sim, nodes) = group(3, 22);
    sim.schedule(SimTime::from_millis(50), ControlOp::Crash(nodes[2]));
    for k in 0..1_500u64 {
        sim.inject(
            SimTime(500_000 + k * 1_000),
            nodes[k as usize % 2],
            TestMsg::Publish(k),
        );
    }
    sim.run_until(SimTime::from_secs(3));
    for &n in &nodes[..2] {
        node(&mut sim, n, |m| {
            assert!(
                !m.member.view().contains(MemberId(2)),
                "the crashed member was excluded"
            );
            assert_eq!(m.delivered.len(), 1_500);
            assert_eq!(m.member.retained(), HISTORY_CAP);
        });
    }
}

#[test]
fn an_excluded_member_readmitted_within_the_cap_delivers_its_gap() {
    let (mut sim, nodes) = group(3, 23);
    for k in 0..300u64 {
        sim.inject(
            SimTime(10_000 + k * 5_000),
            nodes[k as usize % 2],
            TestMsg::Publish(k),
        );
    }
    sim.schedule(SimTime::from_millis(300), ControlOp::Crash(nodes[2]));
    sim.run_until(SimTime::from_millis(800));
    let excluding = node(&mut sim, nodes[0], |m| m.member.view().clone());
    assert!(
        !excluding.contains(MemberId(2)),
        "the silent member was excluded"
    );
    let ahead = node(&mut sim, nodes[0], |m| m.delivered.len());
    let behind = node(&mut sim, nodes[2], |m| m.delivered.len());
    assert!(
        ahead - behind > 50 && ahead - behind < HISTORY_CAP,
        "gap {}",
        ahead - behind
    );

    // Back up, the member learns of the view that excluded it and rejoins.
    sim.schedule(SimTime::from_millis(800) + 1, ControlOp::Restart(nodes[2]));
    let told = GcsMsg::NewView {
        view: excluding,
        next_seq: 0,
        fill: Vec::new(),
    };
    sim.inject_as(
        SimTime::from_millis(800) + 2,
        nodes[0],
        nodes[2],
        TestMsg::Gcs(told),
    );
    sim.run_until(SimTime::from_secs(3));

    let reference = node(&mut sim, nodes[0], |m| m.delivered.clone());
    assert_eq!(reference.len(), 300);
    for &n in &nodes[1..] {
        node(&mut sim, n, |m| {
            assert!(m.member.view().contains(MemberId(2)), "readmitted");
            assert_eq!(m.delivered, reference, "same sequence as its peers");
        });
    }
}
