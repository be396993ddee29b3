//! End-to-end replication scenarios across sql + simnet + gcs + core.

use replimid_core::{
    Cluster, ClusterConfig, Mode, NondetPolicy, PartitionScheme, Placement, ScriptSource,
};
use replimid_simnet::dur;

fn shop_schema() -> Vec<String> {
    vec![
        "CREATE DATABASE shop".into(),
        "USE shop".into(),
        "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT NOT NULL)".into(),
        "INSERT INTO items VALUES (1, 'book', 10), (2, 'pen', 20), (3, 'mug', 30)".into(),
        "CREATE TABLE log (id INT PRIMARY KEY AUTO_INCREMENT, at TIMESTAMP, note TEXT)".into(),
    ]
}

/// Inserts rows with ever-fresh keys (never collides with itself), with a
/// COUNT read every few transactions.
struct SeqInsert {
    next: i64,
    since_read: u32,
}

impl SeqInsert {
    fn new(key_base: i64) -> Self {
        SeqInsert { next: key_base, since_read: 0 }
    }
}

impl replimid_core::TxSource for SeqInsert {
    fn next_tx(&mut self, _rng: &mut replimid_det::DetRng) -> Vec<String> {
        self.since_read += 1;
        if self.since_read.is_multiple_of(5) {
            return vec!["SELECT COUNT(*) FROM items".into()];
        }
        let k = self.next;
        self.next += 1;
        vec![format!("INSERT INTO items VALUES ({k}, 'x', {})", k % 100)]
    }
}

fn updater_script() -> ScriptSource {
    ScriptSource::new(vec![
        vec!["UPDATE items SET qty = qty + 1 WHERE id = 1".into()],
        vec!["SELECT qty FROM items WHERE id = 2".into()],
        vec![
            "BEGIN".into(),
            "UPDATE items SET qty = qty - 1 WHERE id = 2".into(),
            "UPDATE items SET qty = qty + 1 WHERE id = 3".into(),
            "COMMIT".into(),
        ],
    ])
}

fn assert_all_equal(checksums: &[Vec<u64>]) {
    let flat: Vec<u64> = checksums.iter().flatten().copied().collect();
    assert!(
        flat.windows(2).all(|w| w[0] == w[1]),
        "backends diverged: {checksums:?}"
    );
}

fn count_items(cluster: &mut Cluster, mw: usize, b: usize, pred: Option<&str>) -> i64 {
    cluster.with_backend_engine(mw, b, |e| {
        let conn = e.connect("admin", "admin").unwrap();
        e.execute(conn, "USE shop").unwrap();
        let sql = match pred {
            Some(p) => format!("SELECT COUNT(*) FROM items WHERE {p}"),
            None => "SELECT COUNT(*) FROM items".to_string(),
        };
        let r = e.execute(conn, &sql).unwrap();
        let n = r.outcome.rows().unwrap().rows[0][0].as_int().unwrap();
        e.disconnect(conn);
        n
    })
}

// ---------------------------------------------------------------------
// Multi-master, statement-based
// ---------------------------------------------------------------------

#[test]
fn mm_statement_replicates_and_converges() {
    let cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        shop_schema(),
        "shop",
    );
    let mut cluster = Cluster::build(cfg);
    let c1 = cluster.add_client(SeqInsert::new(100), |c| c.think_time_us = 500);
    let c2 = cluster.add_client(updater_script(), |c| c.think_time_us = 700);
    cluster.run_for(dur::secs(5));

    let m1 = cluster.client_metrics(c1);
    let m2 = cluster.client_metrics(c2);
    assert!(m1.committed > 20, "writer committed {}", m1.committed);
    assert!(m2.committed > 20, "updater committed {}", m2.committed);
    assert_eq!(m1.failed + m2.failed, 0, "unexpected failures");
    assert_all_equal(&cluster.backend_checksums());

    // Reads on the insert client were COUNTs; the inserts all landed on
    // every backend.
    let inserted = (m1.committed - m1.committed / 5) as i64; // minus COUNT txs
    let expect = 3 + inserted;
    for b in 0..3 {
        let n = count_items(&mut cluster, 0, b, None);
        assert!((n - expect).abs() <= 1, "backend {b}: {n} vs ~{expect}");
    }
}

#[test]
fn mm_statement_time_macro_rewritten_consistently() {
    let cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        shop_schema(),
        "shop",
    );
    let mut cluster = Cluster::build(cfg);
    let src = ScriptSource::new(vec![vec![
        "INSERT INTO log (at, note) VALUES (now(), 'hello')".into(),
    ]]);
    let c = cluster.add_client(src, |c| {
        c.tx_limit = 10;
        c.think_time_us = 2_000;
    });
    cluster.run_for(dur::secs(3));
    let m = cluster.client_metrics(c);
    assert_eq!(m.committed, 10, "failed={} aborted={}", m.failed, m.aborted);
    assert_all_equal(&cluster.backend_checksums());
    let mw = cluster.mw_metrics(0);
    assert!(mw.counters.rewritten_statements >= 10);
}

#[test]
fn mm_statement_naive_policy_diverges_on_rand() {
    // The §4.3.2 demonstration: per-row RAND broadcast verbatim makes
    // replicas disagree; the safe policy rejects the statement instead.
    let cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::Ignore },
        shop_schema(),
        "shop",
    );
    let mut cluster = Cluster::build(cfg);
    let src =
        ScriptSource::new(vec![vec!["UPDATE items SET qty = floor(rand() * 100)".into()]]);
    let c = cluster.add_client(src, |c| {
        c.tx_limit = 3;
        c.think_time_us = 5_000;
    });
    cluster.run_for(dur::secs(2));
    let m = cluster.client_metrics(c);
    assert!(m.committed >= 1);
    let sums = cluster.backend_checksums();
    let flat: Vec<u64> = sums.iter().flatten().copied().collect();
    assert!(
        flat.windows(2).any(|w| w[0] != w[1]),
        "expected divergence under the naive policy"
    );

    // Safe policy: same statement is rejected, cluster stays consistent.
    let cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        shop_schema(),
        "shop",
    );
    let mut cluster = Cluster::build(cfg);
    let src =
        ScriptSource::new(vec![vec!["UPDATE items SET qty = floor(rand() * 100)".into()]]);
    let c = cluster.add_client(src, |c| {
        c.tx_limit = 3;
        c.think_time_us = 5_000;
    });
    cluster.run_for(dur::secs(2));
    let m = cluster.client_metrics(c);
    assert_eq!(m.committed, 0);
    assert!(m.failed >= 1, "rejected statements fail the transaction");
    assert_all_equal(&cluster.backend_checksums());
    let mw = cluster.mw_metrics(0);
    assert!(mw.counters.rejected_statements >= 1);
}

// ---------------------------------------------------------------------
// Multi-master, writeset-based
// ---------------------------------------------------------------------

#[test]
fn mm_writeset_certification_and_convergence() {
    let cfg = ClusterConfig::new(Mode::MultiMasterWriteset, shop_schema(), "shop");
    let mut cluster = Cluster::build(cfg);
    let mk = || {
        ScriptSource::new(vec![vec![
            "BEGIN ISOLATION LEVEL SNAPSHOT".into(),
            "UPDATE items SET qty = qty + 1 WHERE id = 1".into(),
            "COMMIT".into(),
        ]])
    };
    let c1 = cluster.add_client(mk(), |c| c.think_time_us = 400);
    let c2 = cluster.add_client(mk(), |c| c.think_time_us = 400);
    cluster.run_for(dur::secs(5));
    // Let the transactions in flight finish, so every increment a backend
    // holds has reached its client as a commit.
    cluster.stop_clients();
    cluster.run_for(dur::millis(100));
    let m1 = cluster.client_metrics(c1);
    let m2 = cluster.client_metrics(c2);
    let committed = m1.committed + m2.committed;
    assert!(committed > 20, "committed {committed}");
    assert_all_equal(&cluster.backend_checksums());
    // Contending increments must all land exactly once.
    let qty = cluster.with_backend_engine(0, 0, |e| {
        let conn = e.connect("admin", "admin").unwrap();
        e.execute(conn, "USE shop").unwrap();
        let r = e.execute(conn, "SELECT qty FROM items WHERE id = 1").unwrap();
        r.outcome.rows().unwrap().rows[0][0].as_int().unwrap()
    });
    assert_eq!(qty as u64, 10 + committed, "lost or duplicated updates");
}

// ---------------------------------------------------------------------
// Master-slave
// ---------------------------------------------------------------------

#[test]
fn master_slave_one_safe_ships_asynchronously() {
    let mut cfg = ClusterConfig::new(
        Mode::MasterSlave {
            two_safe: false,
            ship_interval_us: 50_000,
            use_writesets: false,
            parallel_apply: false,
            read_master: false,
        },
        shop_schema(),
        "shop",
    );
    cfg.backends_per_mw = 3; // 1 master + 2 slaves
    let mut cluster = Cluster::build(cfg);
    let c = cluster.add_client(SeqInsert::new(200), |c| {
        c.think_time_us = 500;
        c.tx_limit = 500;
    });
    cluster.run_for(dur::secs(3));
    let m = cluster.client_metrics(c);
    assert!(m.committed > 25, "committed {}", m.committed);
    // Shipping catches up once the writer quiesces.
    cluster.run_for(dur::secs(2));
    assert_all_equal(&cluster.backend_checksums());
    let mw = cluster.mw_metrics(0);
    assert!(!mw.lag_samples.is_empty());
}

#[test]
fn master_slave_two_safe_costs_commit_latency() {
    let mk = |two_safe: bool| {
        let mut cfg = ClusterConfig::new(
            Mode::MasterSlave {
                two_safe,
                ship_interval_us: 100_000,
                use_writesets: false,
                parallel_apply: false,
                read_master: true,
            },
            shop_schema(),
            "shop",
        );
        cfg.backends_per_mw = 2;
        let mut cluster = Cluster::build(cfg);
        let c = cluster.add_client(SeqInsert::new(300), |cc| {
            cc.think_time_us = 300;
            cc.tx_limit = 40;
        });
        cluster.run_for(dur::secs(10));
        let m = cluster.client_metrics(c);
        assert!(m.committed >= 40, "committed {}", m.committed);
        m.tx_latency.mean_us()
    };
    let fast = mk(false);
    let slow = mk(true);
    assert!(
        slow > fast * 1.5,
        "2-safe must cost commit latency: 1-safe {fast}us vs 2-safe {slow}us"
    );
}

// ---------------------------------------------------------------------
// Partitioned
// ---------------------------------------------------------------------

#[test]
fn partitioned_writes_route_to_owning_partition() {
    // `items` in two range partitions, each its own group on a sole host.
    let placement = Placement::new(vec![vec![0], vec![1]]).partition(
        "items",
        PartitionScheme::Range { column: "id".into(), bounds: vec![1000] },
        vec![0, 1],
    );
    let schema = vec![
        "CREATE DATABASE shop".into(),
        "USE shop".into(),
        "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT NOT NULL)".into(),
    ];
    let mut cfg = ClusterConfig::new(Mode::MultiMasterWriteset, schema, "shop");
    cfg.backends_per_mw = 2;
    cfg.mw.placement = Some(placement);
    let mut cluster = Cluster::build(cfg);
    // Named and positional inserts find the key alike (positional: by the
    // primary key's schema position), then keyed reads.
    let src = ScriptSource::new(vec![
        vec!["INSERT INTO items (id, name, qty) VALUES (10, 'low', 1)".into()],
        vec!["INSERT INTO items (id, name, qty) VALUES (2000, 'high', 1)".into()],
        vec!["INSERT INTO items VALUES (20, 'low', 1)".into()],
        vec!["INSERT INTO items VALUES (3000, 'high', 1)".into()],
        vec!["SELECT name FROM items WHERE id = 10".into()],
        vec!["SELECT name FROM items WHERE id = 2000".into()],
    ]);
    // The inserts run once each (ids are primary keys), then reads.
    let c = cluster.add_client(src, |c| {
        c.tx_limit = 6;
        c.think_time_us = 1_000;
    });
    cluster.run_for(dur::secs(3));
    let m = cluster.client_metrics(c);
    assert_eq!(m.committed, 6, "failed={} aborted={}", m.failed, m.aborted);

    assert_eq!(count_items(&mut cluster, 0, 0, Some("id < 1000")), 2);
    assert_eq!(count_items(&mut cluster, 0, 0, Some("id >= 1000")), 0);
    assert_eq!(count_items(&mut cluster, 0, 1, Some("id >= 1000")), 2);
    assert_eq!(count_items(&mut cluster, 0, 1, Some("id < 1000")), 0);
}

// ---------------------------------------------------------------------
// Replicated middleware (Sequoia-style)
// ---------------------------------------------------------------------

#[test]
fn replicated_middleware_keeps_all_sites_consistent() {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        shop_schema(),
        "shop",
    );
    cfg.middlewares = 2;
    cfg.backends_per_mw = 2;
    let mut cluster = Cluster::build(cfg);
    let c1 = cluster.add_client(SeqInsert::new(100_000), |c| {
        c.think_time_us = 600;
        c.tx_limit = 300;
    });
    let c2 = cluster.add_client(SeqInsert::new(200_000), |c| {
        c.think_time_us = 600;
        c.tx_limit = 300;
    });
    cluster.run_for(dur::secs(5));
    let m1 = cluster.client_metrics(c1);
    let m2 = cluster.client_metrics(c2);
    assert!(m1.committed >= 10 && m2.committed >= 10);
    // Quiesce so in-flight fan-outs drain, then check convergence of all
    // four backends across both middlewares.
    cluster.run_for(dur::secs(1));
    assert_all_equal(&cluster.backend_checksums());
}

// ---------------------------------------------------------------------
// Temp tables pin sessions (§4.1.4)
// ---------------------------------------------------------------------

#[test]
fn temp_tables_pin_session_and_do_not_replicate() {
    let cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        shop_schema(),
        "shop",
    );
    let mut cluster = Cluster::build(cfg);
    let src = ScriptSource::new(vec![
        vec![
            "CREATE TEMPORARY TABLE scratch (k INT PRIMARY KEY, v INT)".into(),
            "INSERT INTO scratch VALUES (1, 10)".into(),
            "SELECT v FROM scratch WHERE k = 1".into(),
        ],
        vec!["SELECT v FROM scratch WHERE k = 1".into()],
    ]);
    let c = cluster.add_client(src, |c| {
        c.tx_limit = 2;
        c.think_time_us = 1_000;
    });
    cluster.run_for(dur::secs(3));
    let m = cluster.client_metrics(c);
    assert_eq!(m.committed, 2, "failed={} timeouts={}", m.failed, m.timeouts);
    // Temp tables never replicated; backends stayed consistent.
    assert_all_equal(&cluster.backend_checksums());
}
