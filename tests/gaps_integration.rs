//! End-to-end demonstrations of the paper's §4 gap catalogue, driven
//! through the full cluster (middleware + engines + simulated network).

use replimid_core::{
    AdminCmd, BackendId, Cluster, ClusterConfig, Granularity, Mode, NondetPolicy, Policy,
    ReadPolicy, ScriptSource, TxSource,
};
use replimid_simnet::{dur, SimTime};
use replimid_workload::micro;

struct SeqInsert {
    next: i64,
}

impl TxSource for SeqInsert {
    fn next_tx(&mut self, _rng: &mut replimid_det::DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 1;
        vec![format!("INSERT INTO bench VALUES ({k}, 1)")]
    }
}

fn read_v(cluster: &mut Cluster, b: usize, k: i64) -> i64 {
    cluster.with_backend_engine(0, b, |e| {
        let conn = e.connect("admin", "admin").unwrap();
        e.execute(conn, "USE bench").unwrap();
        let r = e
            .execute(conn, &format!("SELECT v FROM bench WHERE k = {k}"))
            .unwrap();
        let v = r.outcome.rows().unwrap().rows[0][0].as_int().unwrap();
        e.disconnect(conn);
        v
    })
}

// ---------------------------------------------------------------------
// §4.1.3 heterogeneous clusters: LPRF vs round-robin
// ---------------------------------------------------------------------

#[test]
fn lprf_outperforms_round_robin_on_heterogeneous_cluster() {
    // One replica is 4x slower (the RAID-battery anecdote). Reads dominate.
    let run = |policy: Policy| {
        let mut cfg = ClusterConfig::new(
            Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
            micro::schema("bench", 200),
            "bench",
        );
        cfg.backends_per_mw = 3;
        cfg.backend_speed = vec![1.0, 1.0, 4.0];
        cfg.mw.policy = policy;
        cfg.mw.granularity = Granularity::Query;
        let mut cluster = Cluster::build(cfg);
        let mut clients = Vec::new();
        // A point read costs 41 µs (164 µs on the slow replica): it takes
        // this many clients for round-robin to queue behind that replica.
        for _ in 0..32 {
            clients.push(
                cluster.add_client(micro::PointReads { total_keys: 200 }, |cc| {
                    cc.think_time_us = 200
                }),
            );
        }
        cluster.run_for(dur::secs(5));
        clients
            .iter()
            .map(|&c| cluster.client_metrics(c).committed)
            .sum::<u64>()
    };
    let rr = run(Policy::RoundRobin);
    let lprf = run(Policy::Lprf);
    assert!(
        lprf as f64 > rr as f64 * 1.1,
        "LPRF should beat RR on a skewed cluster: rr={rr} lprf={lprf}"
    );
}

// ---------------------------------------------------------------------
// §3.3 session consistency: read-your-writes on master-slave
// ---------------------------------------------------------------------

#[test]
fn session_sticky_reads_see_own_writes_on_stale_slaves() {
    let mut cfg = ClusterConfig::new(
        Mode::MasterSlave {
            two_safe: false,
            ship_interval_us: 2_000_000, // effectively never during the test
            use_writesets: false,
            parallel_apply: false,
            read_master: true,
        },
        micro::schema("bench", 10),
        "bench",
    );
    cfg.backends_per_mw = 2;
    cfg.mw.read_policy = ReadPolicy::SessionSticky;
    let mut cluster = Cluster::build(cfg);
    let src = ScriptSource::new(vec![vec![
        "UPDATE bench SET v = 42 WHERE k = 1".into(),
        "SELECT v FROM bench WHERE k = 1".into(),
    ]]);
    let c = cluster.add_client(src, |cc| {
        cc.tx_limit = 1;
    });
    cluster.run_for(dur::secs(1));
    let m = cluster.client_metrics(c);
    assert_eq!(m.committed, 1, "({:?})", m.last_error);
    // The slave is stale (shipping never ran within the test window)...
    assert_eq!(read_v(&mut cluster, 1, 1), 0, "slave must be stale");
    // ...and the master has the write the session read back.
    assert_eq!(read_v(&mut cluster, 0, 1), 42);
}

// ---------------------------------------------------------------------
// §4.4.1 backups: cold removes the replica, hot degrades it
// ---------------------------------------------------------------------

#[test]
fn cold_backup_removes_replica_then_rejoins_via_log() {
    let cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        micro::schema("bench", 500),
        "bench",
    );
    let mut cluster = Cluster::build(cfg);
    let c = cluster.add_client(SeqInsert { next: 10_000 }, |cc| {
        cc.think_time_us = 1_000;
        cc.tx_limit = 2_500;
    });
    cluster.admin_at(
        SimTime::from_secs(1),
        0,
        AdminCmd::Backup { backend: BackendId(1), hot: false },
    );
    cluster.run_for(dur::secs(8));
    let mw = cluster.mw_metrics(0);
    assert_eq!(mw.backups.len(), 1, "backup completed");
    let (start, end, hot, rows) = mw.backups[0];
    assert!(!hot);
    assert!(end > start);
    assert!(rows >= 500, "dump contains the table ({rows} rows)");
    // The backend rejoined and converged.
    let state = cluster.with_middleware(0, |m| m.recovery_state(BackendId(1)));
    assert_eq!(state, "Online");
    let sums = cluster.backend_checksums();
    assert_eq!(sums[0][0], sums[0][1]);
    assert_eq!(sums[0][1], sums[0][2]);
    let m = cluster.client_metrics(c);
    assert!(m.committed >= 2_500);
}

#[test]
fn hot_backup_keeps_replica_serving() {
    let cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        micro::schema("bench", 2_000),
        "bench",
    );
    let mut cluster = Cluster::build(cfg);
    let c = cluster.add_client(SeqInsert { next: 10_000 }, |cc| {
        cc.think_time_us = 1_000;
        cc.tx_limit = 2_500;
    });
    cluster.admin_at(
        SimTime::from_secs(1),
        0,
        AdminCmd::Backup { backend: BackendId(1), hot: true },
    );
    cluster.run_for(dur::secs(8));
    let mw = cluster.mw_metrics(0);
    assert_eq!(mw.backups.len(), 1);
    assert!(mw.backups[0].2, "hot");
    // No recovery was needed: the backend never left the cluster.
    let state = cluster.with_middleware(0, |m| m.recovery_state(BackendId(1)));
    assert_eq!(state, "Online");
    assert_eq!(mw.counters.failovers, 0);
    let sums = cluster.backend_checksums();
    assert_eq!(sums[0][0], sums[0][1]);
    let m = cluster.client_metrics(c);
    assert!(m.committed >= 2_500);
}

// ---------------------------------------------------------------------
// §4.2.3 sequences under writeset replication: the counter-skew channel
// ---------------------------------------------------------------------

#[test]
fn sequences_skew_under_writeset_replication() {
    let mut schema = micro::schema("bench", 10);
    schema.push("CREATE SEQUENCE ids START 1".into());
    schema.push("CREATE TABLE tickets (id INT PRIMARY KEY, v INT)".into());
    let cfg = ClusterConfig::new(Mode::MultiMasterWriteset, schema, "bench");
    let mut cluster = Cluster::build(cfg);
    let src = ScriptSource::new(vec![vec![
        "INSERT INTO tickets (id, v) VALUES (nextval('ids'), 1)".into(),
    ]]);
    let c = cluster.add_client(src, |cc| {
        cc.think_time_us = 2_000;
        cc.tx_limit = 30;
    });
    cluster.run_for(dur::secs(4));
    let m = cluster.client_metrics(c);
    assert!(m.committed >= 25, "committed {} ({:?})", m.committed, m.last_error);
    // Row data replicated fine...
    let sums = cluster.backend_checksums();
    assert_eq!(sums[0][0], sums[0][1]);
    assert_eq!(sums[0][1], sums[0][2]);
    // ...but sequence counters only advanced on the delegates that executed
    // NEXTVAL: full checksums (which include counters) disagree — the
    // §4.2.3 divergence channel, waiting to bite after the next failover.
    let full = cluster.backend_full_checksums();
    let all_equal = full[0].windows(2).all(|w| w[0] == w[1]);
    assert!(!all_equal, "expected sequence counter skew: {full:?}");
}

// ---------------------------------------------------------------------
// §4.2.1 stored procedures under statement replication
// ---------------------------------------------------------------------

#[test]
fn deterministic_procedure_broadcasts_nondeterministic_diverges() {
    let mk_schema = |body: &str| {
        let mut s = micro::schema("bench", 20);
        s.push(format!("CREATE PROCEDURE bump(k2) AS BEGIN {body}; END"));
        s
    };
    // Deterministic body: replicas converge.
    let cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        mk_schema("UPDATE bench SET v = v + 1 WHERE k = k2"),
        "bench",
    );
    let mut cluster = Cluster::build(cfg);
    let src = ScriptSource::new(vec![vec!["CALL bump(3)".into()]]);
    let c = cluster.add_client(src, |cc| {
        cc.tx_limit = 10;
        cc.think_time_us = 2_000;
    });
    cluster.run_for(dur::secs(3));
    let m = cluster.client_metrics(c);
    assert_eq!(m.committed, 10, "({:?})", m.last_error);
    let sums = cluster.backend_checksums();
    assert_eq!(sums[0][0], sums[0][1]);
    assert_eq!(sums[0][1], sums[0][2]);

    // Non-deterministic body: the middleware cannot see inside the CALL
    // (§4.2.1: "no schema describing the behavior of a stored procedure"),
    // broadcasts it, and the replicas silently diverge.
    let cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        mk_schema("UPDATE bench SET v = floor(rand() * 1000) WHERE k = k2"),
        "bench",
    );
    let mut cluster = Cluster::build(cfg);
    let src = ScriptSource::new(vec![vec!["CALL bump(3)".into()]]);
    let c = cluster.add_client(src, |cc| {
        cc.tx_limit = 5;
        cc.think_time_us = 2_000;
    });
    cluster.run_for(dur::secs(3));
    assert!(cluster.client_metrics(c).committed >= 5);
    let sums = cluster.backend_checksums();
    let flat: Vec<u64> = sums.iter().flatten().copied().collect();
    assert!(
        flat.windows(2).any(|w| w[0] != w[1]),
        "nondeterministic procedure must diverge replicas"
    );
}
