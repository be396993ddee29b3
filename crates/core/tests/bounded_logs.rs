//! Bounded replication logs. Each backend's binlog and each recovery-log
//! stream are trimmed below the lowest position a reader can still ask
//! for, so what they retain stays flat as a run grows longer, in every
//! multi-master mode and placement, and across a crash and rejoin. The
//! trim never changes which rejoin path a returning backend takes: a
//! lossy-crash rejoin still replays the log (a sole-host group's too), a
//! restarted slave still resyncs exactly once, and a spare added late
//! still replays from the start.

use replimid_core::{
    AdminCmd, BackendId, Cluster, ClusterConfig, Mode, NondetPolicy, Placement, Policy, ReadPolicy,
    TxSource,
};
use replimid_simnet::{dur, SimTime};
use replimid_sql::{CrashKind, DurabilityConfig, Outcome, ADMIN_PASSWORD, ADMIN_USER};
use replimid_workload::micro::{self, DisjointInsert, ReadWriteMix};

/// Fresh-key inserts spread over `t0..t7`.
struct SpreadInsert {
    next: i64,
}

impl TxSource for SpreadInsert {
    fn next_tx(&mut self, _rng: &mut replimid_det::DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 1;
        vec![format!("INSERT INTO t{} VALUES ({k}, 1)", k % 8)]
    }
}

fn spread_schema() -> Vec<String> {
    micro::disjoint_schema("bench", 8, 0)
}

fn statement_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement {
            nondet: NondetPolicy::RewriteAndReject,
        },
        spread_schema(),
        "bench",
    );
    cfg.backends_per_mw = 3;
    cfg
}

/// Durable backends that leave an unsynced WAL tail (the benchmark's
/// crash-recover shape).
fn durable_cfg() -> ClusterConfig {
    durable(statement_cfg())
}

fn durable(mut cfg: ClusterConfig) -> ClusterConfig {
    cfg.engine.durability = Some(DurabilityConfig {
        checkpoint_every: 1024,
        fsync_every: 8,
        two_phase_checkpoint: false,
    });
    cfg.mw.recovery_batch = 256;
    cfg
}

/// The most either log holds at one instant, and the heads they reached.
#[derive(Debug, Clone, Copy, Default)]
struct Retained {
    binlog: usize,
    log: usize,
    binlog_head: u64,
    log_head: u64,
}

impl Retained {
    fn now(cluster: &mut Cluster, groups: usize) -> Retained {
        let mut r = Retained::default();
        for b in 0..cluster.db_nodes[0].len() {
            let (len, head) =
                cluster.with_backend_engine(0, b, |e| (e.binlog_len(), e.binlog_head().0));
            r.binlog = r.binlog.max(len);
            r.binlog_head = r.binlog_head.max(head);
        }
        cluster.with_middleware(0, |m| {
            for g in 0..groups {
                r.log = r.log.max(m.group_log(g).len());
                r.log_head += m.group_log(g).head();
            }
        });
        r
    }

    fn peak(self, o: Retained) -> Retained {
        Retained {
            binlog: self.binlog.max(o.binlog),
            log: self.log.max(o.log),
            ..o
        }
    }
}

/// Run until the clients have committed `target` transactions, sampling
/// both logs every 5 virtual ms. Returns the peak retention and the heads
/// at the end.
fn run_to(cluster: &mut Cluster, groups: usize, target: u64) -> Retained {
    let mut peak = Retained::default();
    let deadline = cluster.now() + dur::secs(60);
    while cluster.total_commits() < target {
        assert!(
            cluster.now() < deadline,
            "stalled at {} of {target} commits",
            cluster.total_commits()
        );
        cluster.run_for(dur::millis(5));
        peak = peak.peak(Retained::now(cluster, groups));
    }
    peak
}

/// Retention after `n` and after `4n` commits stays under the writes of
/// two heartbeat intervals plus one recovery batch, while the heads grow
/// with the run; then the replicas converge. With `crash`, that backend
/// crashes right after the first `n` commits and restarts 50 ms later; it
/// must rejoin by log replay.
fn assert_flat(
    name: &str,
    mut cluster: Cluster,
    groups: usize,
    n: u64,
    heartbeat_us: u64,
    batch: usize,
    crash: Option<usize>,
) {
    let t0 = cluster.now();
    let at_n = run_to(&mut cluster, groups, n);
    let per_us = n as f64 / (cluster.now() - t0) as f64;
    let bound = (per_us * 2.0 * heartbeat_us as f64) as usize + batch;
    if let Some(b) = crash {
        cluster.crash_backend_at(cluster.now() + 1, 0, b);
        cluster.restart_backend_at(cluster.now() + dur::millis(50), 0, b);
    }
    let at_4n = run_to(&mut cluster, groups, 4 * n);
    for (when, r) in [("n", at_n), ("4n", at_4n)] {
        assert!(
            r.binlog <= bound,
            "{name}: binlog kept {} entries after {when} (bound {bound})",
            r.binlog
        );
        assert!(
            r.log <= bound,
            "{name}: recovery log kept {} entries after {when} (bound {bound})",
            r.log
        );
    }
    assert!(
        at_4n.binlog_head as f64 >= 3.5 * at_n.binlog_head as f64,
        "{name}: binlog head {} -> {}",
        at_n.binlog_head,
        at_4n.binlog_head
    );
    assert!(
        at_4n.log_head as f64 >= 3.5 * at_n.log_head as f64,
        "{name}: log head {} -> {}",
        at_n.log_head,
        at_4n.log_head
    );
    cluster.run_for(dur::secs(1));
    if let Some(b) = crash {
        let mw = cluster.mw_metrics(0);
        assert!(mw.recoveries.iter().any(|r| r.0 == b), "{name}: backend {b} never rejoined");
        assert_eq!(mw.counters.full_resyncs, 0, "{name}: the rejoin fell back to a full resync");
    }
    if groups == 1 {
        assert_converged(name, &mut cluster);
    } else {
        // Partner groups 2k and 2k+1 share the hosts {2k, 2k+1}.
        for g in 0..groups {
            let table = format!("t{g}");
            let hosts = [g & !1, (g & !1) + 1];
            let counts = hosts.map(|b| count(&mut cluster, b, &table));
            assert!(counts[0] > 0, "{name}: {table} is empty");
            assert_eq!(counts[0], counts[1], "{name}: {table} diverged");
        }
    }
}

/// Every replica holds the same data.
fn assert_converged(name: &str, cluster: &mut Cluster) {
    let sums = cluster.backend_checksums();
    assert!(
        sums[0].windows(2).all(|w| w[0] == w[1]),
        "{name}: replicas diverged: {sums:?}"
    );
}

/// Row count of `table` at backend `b`.
fn count(cluster: &mut Cluster, b: usize, table: &str) -> i64 {
    cluster.with_backend_engine(0, b, |e| {
        let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).expect("admin login");
        e.execute(c, "USE bench").unwrap();
        let out = e
            .execute(c, &format!("SELECT COUNT(*) FROM {table}"))
            .unwrap()
            .outcome;
        e.disconnect(c);
        match out {
            Outcome::Rows(rs) => rs.rows[0][0].as_int().unwrap(),
            other => panic!("expected rows, got {other:?}"),
        }
    })
}

fn add_spread_clients(cluster: &mut Cluster, clients: i64, per_client: u64, think_us: u64) {
    for i in 0..clients {
        cluster.add_client(
            SpreadInsert {
                next: 1_000_000 * (i + 1),
            },
            |cc| {
                cc.think_time_us = think_us;
                cc.tx_limit = per_client;
            },
        );
    }
}

const N: u64 = 800;

#[test]
fn write_sat_retention_is_flat_in_run_length() {
    let mut cfg = statement_cfg();
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.batch_max = 32;
    cfg.mw.batch_deadline_us = 200;
    cfg.mw.plan_cache = 256;
    let (hb, batch) = (cfg.mw.heartbeat.interval_us, cfg.mw.recovery_batch);
    let mut cluster = Cluster::build(cfg);
    add_spread_clients(&mut cluster, 8, 4 * N / 8, 100);
    assert_flat("write-sat", cluster, 1, N, hb, batch, None);
}

/// Writeset replication without a placement: the one-group pipeline's
/// log trims like statement replication's.
#[test]
fn writeset_retention_is_flat_in_run_length() {
    let mut cfg = ClusterConfig::new(Mode::MultiMasterWriteset, spread_schema(), "bench");
    cfg.backends_per_mw = 3;
    cfg.mw.policy = Policy::RoundRobin;
    let (hb, batch) = (cfg.mw.heartbeat.interval_us, cfg.mw.recovery_batch);
    let mut cluster = Cluster::build(cfg);
    add_spread_clients(&mut cluster, 8, 4 * N / 8, 200);
    assert_flat("writeset", cluster, 1, N, hb, batch, None);
}

/// The partial-xgroup shape: eight groups on partner pairs of hosts, a
/// quarter of the transactions spanning two partner groups.
fn partial_xgroup(per_client: u64) -> (Cluster, u64, usize) {
    let mut placement = Placement::new((0..8).map(|g| vec![g & !1, (g & !1) + 1]).collect());
    for g in 0..8 {
        placement = placement.assign(&format!("t{g}"), g);
    }
    let mut cfg = ClusterConfig::new(Mode::MultiMasterWriteset, spread_schema(), "bench");
    cfg.backends_per_mw = 8;
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.placement = Some(placement);
    let (hb, batch) = (cfg.mw.heartbeat.interval_us, cfg.mw.recovery_batch);
    let mut cluster = Cluster::build(cfg);
    for g in 0..8usize {
        cluster.add_client(
            DisjointInsert::new(1_000_000 * (g as i64 + 1), g).with_multi(0.25),
            |cc| {
                cc.think_time_us = 200;
                cc.tx_limit = per_client;
            },
        );
    }
    (cluster, hb, batch)
}

#[test]
fn partial_xgroup_retention_is_flat_in_run_length() {
    let (cluster, hb, batch) = partial_xgroup(4 * N / 8);
    assert_flat("partial-xgroup", cluster, 8, N, hb, batch, None);
}

/// Backend 2 (groups 2 and 3) crashes mid-run and rejoins by replaying
/// both groups' streams from its own positions; retention stays under the
/// same bound. The clients have headroom for the transactions the crash
/// fails.
#[test]
fn partial_xgroup_retention_is_flat_across_a_crash() {
    let (cluster, hb, batch) = partial_xgroup(5 * N / 8);
    assert_flat("partial-xgroup crash", cluster, 8, N, hb, batch, Some(2));
}

fn master_slave_cfg(rows: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        Mode::MasterSlave {
            two_safe: false,
            ship_interval_us: 10_000,
            use_writesets: false,
            parallel_apply: false,
            read_master: false,
        },
        micro::schema("bench", rows),
        "bench",
    );
    cfg.backends_per_mw = 4;
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.read_policy = ReadPolicy::Fresh;
    cfg
}

fn add_mix_clients(cluster: &mut Cluster, keys: i64, per_client: u64, think_us: u64) {
    for _ in 0..8 {
        cluster.add_client(
            ReadWriteMix {
                total_keys: keys,
                write_fraction: 0.5,
            },
            |cc| {
                cc.think_time_us = think_us;
                cc.tx_limit = per_client;
            },
        );
    }
}

#[test]
fn read_fleet_retention_is_flat_in_run_length() {
    let cfg = master_slave_cfg(1_000);
    let (hb, batch) = (cfg.mw.heartbeat.interval_us, cfg.mw.recovery_batch);
    let mut cluster = Cluster::build(cfg);
    add_mix_clients(&mut cluster, 1_000, 4 * N / 8, 200);
    assert_flat("read-fleet", cluster, 1, N, hb, batch, None);
}

#[test]
fn crash_recover_retention_is_flat_in_run_length() {
    let cfg = durable_cfg();
    let (hb, batch) = (cfg.mw.heartbeat.interval_us, cfg.mw.recovery_batch);
    let mut cluster = Cluster::build(cfg);
    add_spread_clients(&mut cluster, 8, 4 * N / 8, 200);
    assert_flat("crash-recover", cluster, 1, N, hb, batch, None);
}

/// Poll backend `b`'s state every `step_us` for `span_us`; returns how
/// many separate `Resyncing` episodes were seen and whether `Recovering`
/// was.
fn watch(cluster: &mut Cluster, b: usize, span_us: u64, step_us: u64) -> (usize, bool) {
    let (mut resyncs, mut recovering, mut was_resyncing) = (0, false, false);
    let end = cluster.now() + span_us;
    while cluster.now() < end {
        cluster.run_for(step_us);
        let state = cluster.with_middleware(0, |m| m.recovery_state(BackendId(b)));
        let resyncing = state == "Resyncing";
        if resyncing && !was_resyncing {
            resyncs += 1;
        }
        was_resyncing = resyncing;
        recovering |= state.starts_with("Recovering");
    }
    (resyncs, recovering)
}

/// After seconds of load and trimming, crash durable backend `b` with
/// `kind` just after a heartbeat's trim, at a moment its fsynced position
/// in group `g` is behind what it has applied (an exposed tail the crash
/// destroys), and restart it 300 ms later. Returns the position in `g` it
/// had applied.
fn crash_exposed_tail(cluster: &mut Cluster, b: usize, g: usize, kind: CrashKind) -> u64 {
    let hb = 20_000;
    cluster.run_for(dur::secs(2));
    let mut tick = cluster.now().micros() / hb + 1;
    loop {
        let at = tick * hb + 1;
        cluster.run_for(at - cluster.now().micros());
        let durable = cluster
            .with_backend_engine(0, b, |e| e.durable_ordered())
            .unwrap()[g];
        if durable + 2 <= cluster.backend_ordered_applied(0, b)[g] {
            break;
        }
        tick += 1;
        assert!(tick * hb < 4_000_000, "never found an exposed WAL tail");
    }
    let applied = cluster.backend_ordered_applied(0, b)[g];
    cluster.crash_backend_with(cluster.now() + 1, 0, b, kind);
    cluster.restart_backend_at(cluster.now() + dur::millis(300), 0, b);
    applied
}

/// A durable backend loses its unsynced WAL tail after seconds of
/// trimming. It comes back *below* what the middleware saw it apply, so
/// replay must start at the node's durable position, which the trim has
/// kept: the rejoin goes through the log, never a full resync.
#[test]
fn lost_tail_rejoin_replays_the_trimmed_log() {
    let mut cluster = Cluster::build(durable_cfg());
    add_spread_clients(&mut cluster, 4, 2_500, 400);
    let applied = crash_exposed_tail(&mut cluster, 2, 0, CrashKind::LostTail);
    let (resyncs, recovering) = watch(&mut cluster, 2, dur::millis(1_500), 500);
    let rec = cluster
        .backend_recovery(0, 2)
        .expect("backend 2 restarted durably");
    assert!(
        rec.report.ordered.prefix(0) < applied,
        "the crash lost no local state"
    );
    assert_eq!(resyncs, 0, "the rejoin fell back to a full resync");
    assert!(recovering, "the rejoin never replayed the log");
    cluster.run_for(dur::secs(10));
    let state = cluster.with_middleware(0, |m| m.recovery_state(BackendId(2)));
    assert_eq!(state, "Online");
    let committed = cluster.total_commits();
    assert_eq!(committed, 4 * 2_500, "clients did not finish");
    for b in 0..3 {
        let rows: i64 = (0..8)
            .map(|t| count(&mut cluster, b, &format!("t{t}")))
            .sum();
        assert_eq!(rows as u64, committed, "backend {b} lost committed rows");
    }
    assert_converged("lost-tail", &mut cluster);
}

/// Writeset replication over three durable backends and three groups:
/// `t0..t2` everywhere, `t3..t5` on backends 0 and 1, and `t6`, `t7` on
/// backend 2 alone.
const SOLE_HOST_GROUPS: [(&[usize], std::ops::Range<usize>); 3] =
    [(&[0, 1, 2], 0..3), (&[0, 1], 3..6), (&[2], 6..8)];

fn sole_host_cfg() -> ClusterConfig {
    let mut placement =
        Placement::new(SOLE_HOST_GROUPS.iter().map(|(hosts, _)| hosts.to_vec()).collect());
    for (g, (_, tables)) in SOLE_HOST_GROUPS.iter().enumerate() {
        for t in tables.clone() {
            placement = placement.assign(&format!("t{t}"), g);
        }
    }
    let mut cfg = ClusterConfig::new(Mode::MultiMasterWriteset, spread_schema(), "bench");
    cfg.backends_per_mw = 3;
    cfg.mw.placement = Some(placement);
    durable(cfg)
}

/// Backend 2, the only host of group 2, crashes under load with `kind`
/// over an exposed WAL tail in that group. No backend could donate a dump
/// of group 2, so the rejoin must replay the group's log stream (and
/// group 0's) from the node's own positions: it ends Online with no full
/// resync, every committed row is present, and each group's hosts agree.
fn sole_host_group_survives(kind: CrashKind) {
    let mut cluster = Cluster::build(sole_host_cfg());
    add_spread_clients(&mut cluster, 4, 2_500, 400);
    let applied = crash_exposed_tail(&mut cluster, 2, 2, kind);
    assert!(cluster.total_commits() < 4 * 2_500, "the load ended before the crash");
    let (_, recovering) = watch(&mut cluster, 2, dur::millis(1_500), 500);
    let rec = cluster
        .backend_recovery(0, 2)
        .expect("backend 2 restarted durably");
    assert!(
        rec.report.ordered.prefix(2) < applied,
        "the crash lost no local state"
    );
    assert!(recovering, "the rejoin never replayed the log");
    cluster.run_for(dur::secs(10));
    let state = cluster.with_middleware(0, |m| m.recovery_state(BackendId(2)));
    assert_eq!(state, "Online");
    let mw = cluster.mw_metrics(0);
    assert_eq!(mw.counters.full_resyncs, 0, "the rejoin fell back to a full resync");
    let committed = cluster.total_commits();
    let mut rows = 0;
    for (hosts, tables) in SOLE_HOST_GROUPS {
        for t in tables {
            let table = format!("t{t}");
            let counts: Vec<i64> = hosts.iter().map(|&b| count(&mut cluster, b, &table)).collect();
            assert!(counts.windows(2).all(|w| w[0] == w[1]), "{table} diverged: {counts:?}");
            rows += counts[0];
        }
    }
    assert_eq!(rows as u64, committed, "committed rows lost");
}

#[test]
fn sole_host_group_survives_a_lost_tail() {
    sole_host_group_survives(CrashKind::LostTail);
}

#[test]
fn sole_host_group_survives_a_torn_tail() {
    sole_host_group_survives(CrashKind::TornTail);
}

/// A slave crashes and restarts under load. Its rejoin restores a dump of
/// the master whose baseline the other slaves overtake while the restore
/// is in flight; the master's horizon stays frozen until it lands, so the
/// master never answers "resync needed" and nobody else is rebuilt.
#[test]
fn slave_restart_under_load_resyncs_exactly_once() {
    // 10 000 rows: each of the dump and the restore takes ~30 ms, longer
    // than a heartbeat interval.
    let mut cluster = Cluster::build(master_slave_cfg(10_000));
    add_mix_clients(&mut cluster, 10_000, 3_000, 500);
    cluster.crash_backend_at(SimTime::from_secs(1), 0, 2);
    cluster.restart_backend_at(SimTime::from_millis(1_500), 0, 2);
    cluster.run_for(dur::millis(1_400));
    let mut resyncs = [0; 4];
    let mut was = [false; 4];
    let end = cluster.now() + dur::millis(1_000);
    while cluster.now() < end {
        cluster.run_for(500);
        for (b, n) in resyncs.iter_mut().enumerate() {
            let state = cluster.with_middleware(0, |m| m.recovery_state(BackendId(b)));
            let now = state == "Resyncing";
            if now && !was[b] {
                *n += 1;
            }
            was[b] = now;
        }
    }
    assert_eq!(resyncs, [0, 0, 1, 0], "full resyncs per backend");
    cluster.run_for(dur::secs(10));
    assert_eq!(cluster.total_commits(), 8 * 3_000, "clients did not finish");
    assert_converged("slave restart", &mut cluster);
}

/// A spare provisioned `initial_removed` has applied nothing, so it pins
/// the whole recovery log until it is added; it then replays from
/// position 0 (E23's add arm), and trimming resumes once it is online.
#[test]
fn spare_added_late_replays_from_position_zero() {
    let mut cfg = statement_cfg();
    cfg.mw.initial_removed = vec![2];
    let mut cluster = Cluster::build(cfg);
    add_spread_clients(&mut cluster, 4, 1_500, 400);
    cluster.run_for(dur::secs(1));
    let (head, len) = cluster.with_middleware(0, |m| (m.log().head(), m.log().len()));
    assert!(head > 0);
    assert_eq!(
        len as u64, head,
        "the spare must pin the log from position 0"
    );
    cluster.admin_at(
        cluster.now() + 1,
        0,
        AdminCmd::AddBackend {
            backend: BackendId(2),
        },
    );
    let (resyncs, recovering) = watch(&mut cluster, 2, dur::millis(500), 500);
    assert_eq!(resyncs, 0, "the spare fell back to a full resync");
    assert!(recovering, "the spare never replayed the log");
    cluster.run_for(dur::secs(6));
    let state = cluster.with_middleware(0, |m| m.recovery_state(BackendId(2)));
    assert_eq!(state, "Online");
    let (head, len) = cluster.with_middleware(0, |m| (m.log().head(), m.log().len()));
    assert!(
        (len as u64) < head / 10,
        "trimming did not resume: {len} of {head} kept"
    );
    assert_converged("spare", &mut cluster);
}
