//! Hot-row increments under writeset replication. Every client adds 1 to
//! one of 16 rows of its table group, so certified writesets of one row
//! follow each other closely and often meet a local transaction still
//! holding the row at a backend. However the cluster is placed, every
//! acknowledged increment must be in `SUM(v)` on every host of its group,
//! and the hosts of a group must hold the same data.

use replimid_core::{Cluster, ClusterConfig, Mode, Placement, Policy, TxSource};
use replimid_det::DetRng;
use replimid_simnet::{dur, NodeId};
use replimid_sql::{Outcome, ADMIN_PASSWORD, ADMIN_USER};
use replimid_workload::micro;

/// Rows per table.
const KEYS: i64 = 16;
const SEEDS: std::ops::Range<u64> = 1..21;

/// `increments` increments of a random row of `t{g}` for each group in
/// `groups`: one autocommit statement, or one SNAPSHOT transaction for
/// several.
struct HotRows {
    groups: Vec<usize>,
    increments: usize,
}

impl TxSource for HotRows {
    fn next_tx(&mut self, rng: &mut DetRng) -> Vec<String> {
        let mut stmts: Vec<String> = self
            .groups
            .iter()
            .flat_map(|g| std::iter::repeat_n(g, self.increments))
            .map(|g| format!("UPDATE t{g} SET v = v + 1 WHERE k = {}", rng.gen_range(0..KEYS)))
            .collect();
        if stmts.len() > 1 {
            stmts.insert(0, "BEGIN ISOLATION LEVEL SNAPSHOT".into());
            stmts.push("COMMIT".into());
        }
        stmts
    }
}

/// `groups` groups on `2 * groups` backends per middleware, or two
/// backends with no placement at one group; partner groups 2p and 2p+1
/// share the hosts {2p, 2p+1}. Delegates go round-robin, so consecutive
/// writes of a row mostly run on different hosts.
fn cluster(seed: u64, groups: usize, middlewares: usize) -> Cluster {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterWriteset,
        micro::disjoint_schema("bench", groups, KEYS as usize),
        "bench",
    );
    cfg.seed = seed;
    cfg.mw.policy = Policy::RoundRobin;
    cfg.middlewares = middlewares;
    cfg.backends_per_mw = 2;
    if groups > 1 {
        let mut placement = Placement::new((0..groups).map(|g| vec![g & !1, (g & !1) + 1]).collect());
        for g in 0..groups {
            placement = placement.assign(&format!("t{g}"), g);
        }
        cfg.backends_per_mw = groups;
        cfg.mw.placement = Some(placement);
    }
    Cluster::build(cfg)
}

/// A closed-loop client: its node, the groups each of its transactions
/// increments and how often each, and how many transactions it sends.
struct Client {
    node: NodeId,
    groups: Vec<usize>,
    increments: usize,
    limit: u64,
}

/// A client sending `per_client` transactions of `increments` increments
/// of each of `groups` with 200 µs of think time.
fn add(cluster: &mut Cluster, groups: Vec<usize>, increments: usize, per_client: u64) -> Client {
    let node = cluster.add_client(HotRows { groups: groups.clone(), increments }, |cc| {
        cc.think_time_us = 200;
        cc.tx_limit = per_client;
        if increments > 1 {
            // Several increments hold their rows across round trips and
            // lose conflicts far more often than one: five retries would
            // make a client give up under contention alone.
            cc.max_retries = 20;
        }
    });
    Client { node, groups, increments, limit: per_client }
}


/// `SUM(v)` of `t{g}` at backend `b` of middleware `mw`.
fn sum(cluster: &mut Cluster, mw: usize, b: usize, g: usize) -> i64 {
    cluster.with_backend_engine(mw, b, |e| {
        let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).expect("admin login");
        e.execute(c, "USE bench").unwrap();
        let out = e.execute(c, &format!("SELECT SUM(v) FROM t{g}")).unwrap().outcome;
        e.disconnect(c);
        match out {
            Outcome::Rows(rs) => rs.rows[0][0].as_int().unwrap(),
            other => panic!("expected rows, got {other:?}"),
        }
    })
}

/// What one run did, summed over every host of every group.
#[derive(Debug, PartialEq)]
struct Outcomes {
    /// Acknowledged increments missing from a host.
    lost: i64,
    /// Increments a host holds beyond the acknowledged ones.
    extra: i64,
    /// Host pairs whose data differs.
    diverged: usize,
    /// Transactions a client gave up on.
    failed: u64,
}

/// Run `clients` to completion, let the cluster go quiet, and count.
fn run(mut cluster: Cluster, groups: usize, clients: &[Client]) -> Outcomes {
    let deadline = cluster.now() + dur::secs(60);
    loop {
        cluster.run_for(dur::millis(100));
        let done = clients.iter().all(|c| {
            let m = cluster.client_metrics(c.node);
            m.committed + m.failed >= c.limit
        });
        if done {
            break;
        }
        assert!(cluster.now() < deadline, "the clients did not finish");
    }
    cluster.run_for(dur::millis(200));
    let mut acked = vec![0i64; groups];
    let mut out = Outcomes { lost: 0, extra: 0, diverged: 0, failed: 0 };
    for c in clients {
        let m = cluster.client_metrics(c.node);
        out.failed += m.failed;
        for &g in &c.groups {
            acked[g] += (m.committed * c.increments as u64) as i64;
        }
    }
    for mw in 0..cluster.mw_nodes.len() {
        let checksums = cluster.backend_checksums()[mw].clone();
        for (g, &acked) in acked.iter().enumerate() {
            let hosts = if groups == 1 { [0, 1] } else { [g & !1, (g & !1) + 1] };
            for b in hosts {
                let held = sum(&mut cluster, mw, b, g);
                out.lost += (acked - held).max(0);
                out.extra += (held - acked).max(0);
            }
            // Partner groups share their host pair: count each pair once.
            out.diverged += usize::from(g % 2 == 0 && checksums[hosts[0]] != checksums[hosts[1]]);
        }
    }
    out
}

/// Four clients per group on every seed, each transaction `increments`
/// increments of its group: nothing lost, nothing diverged, no client
/// gave up.
fn assert_every_seed(groups: usize, increments: usize, per_client: u64) {
    for seed in SEEDS {
        let mut c = cluster(seed, groups, 1);
        let clients: Vec<_> =
            (0..groups).flat_map(|g| [g; 4]).map(|g| add(&mut c, vec![g], increments, per_client)).collect();
        let out = run(c, groups, &clients);
        let clean = Outcomes { lost: 0, extra: 0, diverged: 0, failed: 0 };
        assert_eq!(out, clean, "G={groups} seed {seed}");
    }
}

#[test]
fn hot_row_increments_survive_with_one_group() {
    assert_every_seed(1, 1, 300);
}

#[test]
fn hot_row_increments_survive_with_eight_groups() {
    assert_every_seed(8, 1, 150);
}

/// Explicit transactions of two increments each: a certified writeset can
/// wound a transaction after its last statement answered, so the records
/// its COMMIT certifies were returned before the wound. They still hold
/// the row, and certification must abort the transaction.
#[test]
fn hot_row_transactions_survive_with_one_group() {
    assert_every_seed(1, 2, 150);
}

#[test]
fn hot_row_transactions_survive_with_eight_groups() {
    assert_every_seed(8, 2, 75);
}

/// Two middlewares, each with its own eight backends, and one cross-group
/// client per partner pair on top of four hot clients per group. A
/// cross-group commit adds one to each of its two groups. A client may
/// give up on a transaction here (it counts for nothing), but no
/// acknowledged increment may go missing on any of the four hosts of a
/// group.
#[test]
fn cross_group_increments_survive_with_two_middlewares() {
    let mut c = cluster(11, 8, 2);
    let mut clients: Vec<_> = (0..8).flat_map(|g| [g; 4]).map(|g| add(&mut c, vec![g], 1, 150)).collect();
    clients.extend((0..8).step_by(2).map(|g| add(&mut c, vec![g, g + 1], 1, 150)));
    let out = run(c, 8, &clients);
    assert_eq!((out.lost, out.diverged), (0, 0), "{out:?}");
}
