//! Replica rejoin and resynchronization (§4.4.2): recovery-log replay,
//! truncated-log full resync, and the global barrier for the final hop.

use replimid_core::{Cluster, ClusterConfig, Mode, NondetPolicy, TxSource};
use replimid_simnet::{dur, LinkFault, SimTime};

struct SeqInsert {
    next: i64,
}

impl TxSource for SeqInsert {
    fn next_tx(&mut self, _rng: &mut replimid_det::DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 1;
        vec![format!("INSERT INTO items VALUES ({k}, 'x', 1)")]
    }
}

fn schema() -> Vec<String> {
    vec![
        "CREATE DATABASE shop".into(),
        "USE shop".into(),
        "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT NOT NULL)".into(),
    ]
}

fn mm_cfg() -> ClusterConfig {
    ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        schema(),
        "shop",
    )
}

fn row_count(cluster: &mut Cluster, b: usize) -> i64 {
    cluster.with_backend_engine(0, b, |e| {
        let conn = e.connect("admin", "admin").unwrap();
        e.execute(conn, "USE shop").unwrap();
        let r = e.execute(conn, "SELECT COUNT(*) FROM items").unwrap();
        let n = r.outcome.rows().unwrap().rows[0][0].as_int().unwrap();
        e.disconnect(conn);
        n
    })
}

#[test]
fn rejoin_via_recovery_log_replay() {
    let mut cluster = Cluster::build(mm_cfg());
    let c = cluster.add_client(SeqInsert { next: 100 }, |cc| {
        cc.think_time_us = 1_000;
        cc.tx_limit = 2_500;
    });
    // Backend 1 is out between 1s and 2.5s; writes continue throughout.
    cluster.crash_backend_at(SimTime::from_secs(1), 0, 1);
    cluster.restart_backend_at(SimTime::from_millis(2_500), 0, 1);
    cluster.run_for(dur::secs(8));

    let m = cluster.client_metrics(c);
    assert!(m.committed >= 2_000, "committed {}", m.committed);
    // The rejoined replica caught up via log replay: all three agree.
    let state = cluster.with_middleware(0, |mw| {
        mw.recovery_state(replimid_core::BackendId(1))
    });
    assert_eq!(state, "Online", "backend 1 recovered: {state}");
    let sums = cluster.backend_checksums();
    assert_eq!(sums[0][0], sums[0][1], "rejoined replica matches");
    assert_eq!(sums[0][1], sums[0][2]);
    assert_eq!(row_count(&mut cluster, 1), m.committed as i64);
}

#[test]
fn truncated_log_forces_full_resync() {
    let mut cluster = Cluster::build(mm_cfg());
    let c = cluster.add_client(SeqInsert { next: 100 }, |cc| {
        cc.think_time_us = 1_000;
        cc.tx_limit = 2_000;
    });
    cluster.crash_backend_at(SimTime::from_secs(1), 0, 1);
    cluster.restart_backend_at(SimTime::from_secs(3), 0, 1);
    // While backend 1 is down, the log is purged past its checkpoint
    // ("log full" pressure, §4.4.2): replay is impossible.
    cluster.run_for(dur::secs(2));
    cluster.with_middleware(0, |mw| {
        let head = mw.log().head();
        mw.log().force_truncate(head);
    });
    cluster.run_for(dur::secs(6));

    let m = cluster.client_metrics(c);
    assert!(m.committed >= 1_500);
    let state = cluster.with_middleware(0, |mw| {
        mw.recovery_state(replimid_core::BackendId(1))
    });
    assert_eq!(state, "Online", "backend 1 resynced: {state}");
    let sums = cluster.backend_checksums();
    assert_eq!(sums[0][0], sums[0][1], "full resync converged");
}

#[test]
fn rejoin_under_load_uses_barrier_and_converges() {
    // Heavy write load while a replica replays: the final hop needs the
    // global barrier; the cluster still converges once the writers stop.
    let mut cfg = mm_cfg();
    cfg.mw.recovery_batch = 128;
    let mut cluster = Cluster::build(cfg);
    let c1 = cluster.add_client(SeqInsert { next: 100_000 }, |cc| {
        cc.think_time_us = 300;
        cc.tx_limit = 6_000;
    });
    let c2 = cluster.add_client(SeqInsert { next: 200_000 }, |cc| {
        cc.think_time_us = 300;
        cc.tx_limit = 6_000;
    });
    cluster.crash_backend_at(SimTime::from_secs(1), 0, 2);
    cluster.restart_backend_at(SimTime::from_secs(2), 0, 2);
    cluster.run_for(dur::secs(12));

    let m1 = cluster.client_metrics(c1);
    let m2 = cluster.client_metrics(c2);
    assert!(m1.committed + m2.committed >= 10_000);
    let state = cluster.with_middleware(0, |mw| {
        mw.recovery_state(replimid_core::BackendId(2))
    });
    assert_eq!(state, "Online", "backend 2 recovered under load: {state}");
    let sums = cluster.backend_checksums();
    assert_eq!(sums[0][0], sums[0][2], "caught up under load");
}

/// A lossy link to backend 1 drops some of the ordered statements sent to
/// it while later ones get through. The backend is failed (an op times out
/// or its pongs go missing) and rejoins by replaying the log from its own
/// position, which must not count past the first statement it never
/// received: a position that is the highest one applied, not the end of a
/// contiguous prefix, would skip the lost statements for good (the other
/// clients' statements get through behind a lost one). Once the link heals
/// every replica holds every committed row.
#[test]
fn statements_lost_on_a_flaky_link_are_replayed_at_rejoin() {
    let mut cluster = Cluster::build(mm_cfg());
    let clients: Vec<_> = (1..=4)
        .map(|i| {
            cluster.add_client(SeqInsert { next: 1_000_000 * i }, |cc| {
                cc.think_time_us = 1_000;
                cc.tx_limit = 1_500;
            })
        })
        .collect();
    let lossy = LinkFault { drop_prob: 0.2, dup_prob: 0.0, jitter_us: 0 };
    cluster.flaky_link_at(SimTime::from_secs(1), 0, 1, lossy);
    cluster.clear_flaky_link_at(SimTime::from_secs(2), 0, 1);
    cluster.run_for(dur::secs(10));

    let committed: u64 = clients.iter().map(|&c| cluster.client_metrics(c).committed).sum();
    assert!(committed > 4_000, "committed {committed}");
    let failovers = cluster.mw_metrics(0).failover_times.len();
    assert!(failovers > 0, "the lossy link never failed backend 1");
    for b in 0..3 {
        let state = cluster.with_middleware(0, |mw| mw.recovery_state(replimid_core::BackendId(b)));
        assert_eq!(state, "Online", "backend {b}");
        assert_eq!(row_count(&mut cluster, b) as u64, committed, "backend {b} lost committed rows");
    }
}

#[test]
fn master_slave_failback_resyncs_old_master_as_slave() {
    let mut cfg = ClusterConfig::new(
        Mode::MasterSlave {
            two_safe: false,
            ship_interval_us: 20_000,
            use_writesets: false,
            parallel_apply: false,
            read_master: true,
        },
        schema(),
        "shop",
    );
    cfg.backends_per_mw = 2;
    let mut cluster = Cluster::build(cfg);
    let c = cluster.add_client(SeqInsert { next: 100 }, |cc| {
        cc.think_time_us = 1_000;
        cc.request_timeout_us = 300_000;
        cc.tx_limit = 3_000;
    });
    // Master dies at 1.5s; slave promoted. Old master returns at 3s: it has
    // committed-but-unshipped transactions (1-safe divergence) and must be
    // rebuilt from the new master — the paper's manual-reconciliation case,
    // automated here as a full resync.
    cluster.crash_backend_at(SimTime::from_millis(1_500), 0, 0);
    cluster.restart_backend_at(SimTime::from_secs(3), 0, 0);
    cluster.run_for(dur::secs(8));

    let m = cluster.client_metrics(c);
    assert!(m.committed >= 2_000, "committed {}", m.committed);
    let master = cluster.master_of(0);
    assert_eq!(master.0, 1, "promotion stuck");
    // The old master rejoined as a slave and converged to the new master.
    cluster.run_for(dur::secs(1));
    let sums = cluster.backend_checksums();
    assert_eq!(sums[0][0], sums[0][1], "failback converged");
}

/// Autocommit inserts into `items`, every 7th of which repeats key 1: that
/// one fails with a duplicate key on every replica.
struct InsertWithDuplicates {
    n: i64,
}

impl TxSource for InsertWithDuplicates {
    fn next_tx(&mut self, _rng: &mut replimid_det::DetRng) -> Vec<String> {
        self.n += 1;
        let k = if self.n % 7 == 0 { 1 } else { self.n };
        vec![format!("INSERT INTO items VALUES ({k}, 'x', 1)")]
    }
}

/// Explicit two-insert transactions into `table`.
struct TwoInsertTx {
    table: &'static str,
    next: i64,
}

impl TxSource for TwoInsertTx {
    fn next_tx(&mut self, _rng: &mut replimid_det::DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 2;
        vec![
            "BEGIN".into(),
            format!("INSERT INTO {} VALUES ({k}, 'x', 1)", self.table),
            format!("INSERT INTO {} VALUES ({}, 'y', 2)", self.table, k + 1),
            "COMMIT".into(),
        ]
    }
}

/// Backend 1 of three crashes at 1 s and restarts at 2.5 s. It must rejoin
/// by replaying the recovery log alone: no dump, no divergence, and every
/// replica ends with one checksum.
fn assert_rejoins_by_replay(cluster: &mut Cluster) {
    let counters = cluster.mw_metrics(0).counters;
    assert_eq!(counters.full_resyncs, 0, "replay fell back to a dump");
    assert_eq!(counters.divergence_detected, 0, "replay reported divergence");
    let state = cluster.with_middleware(0, |mw| mw.recovery_state(replimid_core::BackendId(1)));
    assert_eq!(state, "Online", "backend 1 rejoined: {state}");
    let sums = cluster.backend_checksums();
    assert!(sums[0].windows(2).all(|w| w[0] == w[1]), "replicas diverged: {sums:?}");
}

/// A statement that failed on every replica is in the log too. Replay runs
/// it, gets the same error the live replicas got, and goes on: the error
/// is that entry's outcome, not a failed rejoin.
#[test]
fn replay_passes_a_statement_that_failed_everywhere() {
    let mut cluster = Cluster::build(mm_cfg());
    let c = cluster.add_client(InsertWithDuplicates { n: 0 }, |cc| {
        cc.think_time_us = 1_000;
        cc.tx_limit = 2_500;
    });
    cluster.crash_backend_at(SimTime::from_secs(1), 0, 1);
    cluster.restart_backend_at(SimTime::from_millis(2_500), 0, 1);
    cluster.run_for(dur::secs(8));

    assert!(cluster.client_metrics(c).committed >= 2_000);
    assert_rejoins_by_replay(&mut cluster);
}

/// Two sessions interleave `BEGIN … COMMIT` transactions in the log. Replay
/// runs each statement on its own session's connection, as the live path
/// did, so one session's BEGIN never opens a transaction around the
/// other's inserts.
#[test]
fn replay_keeps_interleaved_transactions_on_their_sessions() {
    let mut schema = schema();
    schema.push("CREATE TABLE other (id INT PRIMARY KEY, name TEXT, qty INT NOT NULL)".into());
    let mut cluster = Cluster::build(ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        schema,
        "shop",
    ));
    for (table, think) in [("items", 700), ("other", 900)] {
        cluster.add_client(TwoInsertTx { table, next: 1 }, |cc| {
            cc.think_time_us = think;
            cc.tx_limit = 800;
        });
    }
    cluster.crash_backend_at(SimTime::from_secs(1), 0, 1);
    cluster.restart_backend_at(SimTime::from_millis(2_500), 0, 1);
    cluster.run_for(dur::secs(10));

    assert_rejoins_by_replay(&mut cluster);
}
