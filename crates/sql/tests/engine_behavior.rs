//! End-to-end behaviour tests for the SQL engine substrate, organized by the
//! paper section whose gap each group exercises.

use replimid_sql::engine::{ConnId, Engine, EngineConfig};
use replimid_sql::writeset::Writeset;
use replimid_sql::{DumpOptions, Outcome, SqlError, TableName, Value, ADMIN_PASSWORD, ADMIN_USER};

fn setup() -> (Engine, ConnId) {
    let (mut e, c) = Engine::with_database("shop");
    e.execute(c, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT NOT NULL)").unwrap();
    e.execute(c, "INSERT INTO acct VALUES (1, 100), (2, 200)").unwrap();
    (e, c)
}

fn q(e: &mut Engine, c: ConnId, sql: &str) -> Vec<Vec<Value>> {
    match e.execute(c, sql).unwrap().outcome {
        Outcome::Rows(rs) => rs.rows,
        other => panic!("expected rows from {sql}, got {other:?}"),
    }
}

fn scalar_int(e: &mut Engine, c: ConnId, sql: &str) -> i64 {
    q(e, c, sql)[0][0].as_int().unwrap()
}

// ---------------------------------------------------------------------
// Basic SQL + transactions
// ---------------------------------------------------------------------

#[test]
fn autocommit_and_explicit_transactions() {
    let (mut e, c) = setup();
    assert_eq!(scalar_int(&mut e, c, "SELECT bal FROM acct WHERE id = 1"), 100);

    e.execute(c, "BEGIN").unwrap();
    e.execute(c, "UPDATE acct SET bal = bal - 10 WHERE id = 1").unwrap();
    assert_eq!(scalar_int(&mut e, c, "SELECT bal FROM acct WHERE id = 1"), 90);
    e.execute(c, "ROLLBACK").unwrap();
    assert_eq!(scalar_int(&mut e, c, "SELECT bal FROM acct WHERE id = 1"), 100);

    e.execute(c, "BEGIN").unwrap();
    e.execute(c, "UPDATE acct SET bal = bal - 10 WHERE id = 1").unwrap();
    let r = e.execute(c, "COMMIT").unwrap();
    assert!(r.commit.is_some());
    assert_eq!(r.commit.unwrap().writeset.len(), 1);
    assert_eq!(scalar_int(&mut e, c, "SELECT bal FROM acct WHERE id = 1"), 90);
}

#[test]
fn joins_aggregates_order_limit() {
    let (mut e, c) = setup();
    e.execute(c, "CREATE TABLE owner (id INT PRIMARY KEY, acct_id INT, name TEXT)").unwrap();
    e.execute(c, "INSERT INTO owner VALUES (1, 1, 'ann'), (2, 2, 'bob'), (3, 1, 'cat')")
        .unwrap();
    let rows = q(
        &mut e,
        c,
        "SELECT o.name, a.bal FROM owner o JOIN acct a ON o.acct_id = a.id \
         WHERE a.bal >= 100 ORDER BY o.name DESC LIMIT 2",
    );
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::Text("cat".into()));
    assert_eq!(scalar_int(&mut e, c, "SELECT COUNT(*) FROM owner WHERE acct_id = 1"), 2);
    assert_eq!(scalar_int(&mut e, c, "SELECT SUM(bal) FROM acct"), 300);
    let grouped = q(
        &mut e,
        c,
        "SELECT acct_id, COUNT(*) AS n FROM owner GROUP BY acct_id HAVING COUNT(*) > 1",
    );
    assert_eq!(grouped.len(), 1);
    assert_eq!(grouped[0][1], Value::Int(2));
}

#[test]
fn subqueries_correlated_and_in() {
    let (mut e, c) = setup();
    let rows = q(
        &mut e,
        c,
        "SELECT id FROM acct WHERE bal = (SELECT MAX(bal) FROM acct)",
    );
    assert_eq!(rows, vec![vec![Value::Int(2)]]);
    let rows = q(&mut e, c, "SELECT id FROM acct WHERE id IN (SELECT id FROM acct WHERE bal < 150)");
    assert_eq!(rows, vec![vec![Value::Int(1)]]);
    // Correlated EXISTS.
    e.execute(c, "CREATE TABLE flags (acct_id INT PRIMARY KEY)").unwrap();
    e.execute(c, "INSERT INTO flags VALUES (2)").unwrap();
    let rows = q(
        &mut e,
        c,
        "SELECT id FROM acct a WHERE EXISTS (SELECT 1 FROM flags f WHERE f.acct_id = a.id)",
    );
    assert_eq!(rows, vec![vec![Value::Int(2)]]);
}

// ---------------------------------------------------------------------
// §4.1.2 isolation levels and error handling
// ---------------------------------------------------------------------

#[test]
fn snapshot_isolation_repeatable_reads() {
    let (mut e, c1) = setup();
    let c2 = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(c2, "USE shop").unwrap();

    e.execute(c1, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
    assert_eq!(scalar_int(&mut e, c1, "SELECT bal FROM acct WHERE id = 1"), 100);
    // Concurrent committed update.
    e.execute(c2, "UPDATE acct SET bal = 999 WHERE id = 1").unwrap();
    // SI: still sees the old snapshot.
    assert_eq!(scalar_int(&mut e, c1, "SELECT bal FROM acct WHERE id = 1"), 100);
    e.execute(c1, "COMMIT").unwrap();
    assert_eq!(scalar_int(&mut e, c1, "SELECT bal FROM acct WHERE id = 1"), 999);
}

#[test]
fn read_committed_sees_new_commits() {
    let (mut e, c1) = setup();
    let c2 = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(c2, "USE shop").unwrap();
    e.execute(c1, "BEGIN ISOLATION LEVEL READ COMMITTED").unwrap();
    assert_eq!(scalar_int(&mut e, c1, "SELECT bal FROM acct WHERE id = 1"), 100);
    e.execute(c2, "UPDATE acct SET bal = 999 WHERE id = 1").unwrap();
    assert_eq!(scalar_int(&mut e, c1, "SELECT bal FROM acct WHERE id = 1"), 999);
    e.execute(c1, "COMMIT").unwrap();
}

#[test]
fn first_committer_wins_under_si() {
    let (mut e, c1) = setup();
    let c2 = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(c2, "USE shop").unwrap();

    e.execute(c1, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
    e.execute(c2, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
    e.execute(c1, "UPDATE acct SET bal = 1 WHERE id = 1").unwrap();
    // c2 writes the same row -> conflict with the uncommitted writer.
    let err = e.execute(c2, "UPDATE acct SET bal = 2 WHERE id = 1").unwrap_err();
    assert!(matches!(err, SqlError::WriteConflict { .. }), "{err}");
    e.execute(c1, "COMMIT").unwrap();
}

#[test]
fn serializable_detects_read_write_conflict() {
    let (mut e, c1) = setup();
    let c2 = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(c2, "USE shop").unwrap();

    e.execute(c1, "BEGIN ISOLATION LEVEL SERIALIZABLE").unwrap();
    let _ = scalar_int(&mut e, c1, "SELECT SUM(bal) FROM acct");
    e.execute(c2, "UPDATE acct SET bal = bal + 1 WHERE id = 2").unwrap();
    // Write something so the commit matters, then commit must fail
    // validation: a table we read changed after our snapshot.
    e.execute(c1, "INSERT INTO acct VALUES (3, 1)").unwrap();
    let err = e.execute(c1, "COMMIT").unwrap_err();
    assert!(matches!(err, SqlError::SerializationFailure(_)), "{err}");
    // Transaction is gone; the insert is not visible.
    assert_eq!(scalar_int(&mut e, c1, "SELECT COUNT(*) FROM acct"), 2);
}

#[test]
fn postgres_mode_poisons_transaction_mysql_mode_continues() {
    // PostgreSQL-style engine (default).
    let (mut e, c) = setup();
    e.execute(c, "BEGIN").unwrap();
    assert!(e.execute(c, "INSERT INTO acct VALUES (1, 5)").is_err()); // dup key
    let err = e.execute(c, "SELECT COUNT(*) FROM acct").unwrap_err();
    assert!(matches!(err, SqlError::TransactionState(_)));
    e.execute(c, "ROLLBACK").unwrap();
    assert_eq!(scalar_int(&mut e, c, "SELECT COUNT(*) FROM acct"), 2);

    // MySQL-style engine keeps the transaction usable after the error.
    let mut e = Engine::new(EngineConfig::mysqlish("my", 1));
    let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(c, "CREATE DATABASE shop").unwrap();
    e.execute(c, "USE shop").unwrap();
    e.execute(c, "CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    e.execute(c, "BEGIN").unwrap();
    e.execute(c, "INSERT INTO t VALUES (1)").unwrap();
    assert!(e.execute(c, "INSERT INTO t VALUES (1)").is_err());
    // Still usable: the paper notes MySQL continues until the client acts.
    e.execute(c, "INSERT INTO t VALUES (2)").unwrap();
    e.execute(c, "COMMIT").unwrap();
    assert_eq!(scalar_int(&mut e, c, "SELECT COUNT(*) FROM t"), 2);
}

#[test]
fn engines_without_si_reject_it() {
    let mut e = Engine::new(EngineConfig::sybasish("syb", 1));
    let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    let err = e.execute(c, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap_err();
    assert!(matches!(err, SqlError::Unsupported(_)));
}

// ---------------------------------------------------------------------
// §4.1.1 multi-database + cross-database triggers
// ---------------------------------------------------------------------

#[test]
fn cross_database_trigger_reporting() {
    let (mut e, c) = setup();
    e.execute(c, "CREATE DATABASE reportdb").unwrap();
    e.execute(c, "CREATE TABLE reportdb.audit (acct_id INT, delta INT)").unwrap();
    e.execute(
        c,
        "CREATE TRIGGER log_ins AFTER INSERT ON acct DO BEGIN \
         INSERT INTO reportdb.audit (acct_id, delta) VALUES (NEW.id, NEW.bal); END",
    )
    .unwrap();
    e.execute(c, "INSERT INTO acct VALUES (7, 70)").unwrap();
    assert_eq!(scalar_int(&mut e, c, "SELECT COUNT(*) FROM reportdb.audit"), 1);
    let rows = q(&mut e, c, "SELECT acct_id, delta FROM reportdb.audit");
    assert_eq!(rows[0], vec![Value::Int(7), Value::Int(70)]);

    // Trigger writes are part of the same transaction: rollback undoes both.
    e.execute(c, "BEGIN").unwrap();
    e.execute(c, "INSERT INTO acct VALUES (8, 80)").unwrap();
    e.execute(c, "ROLLBACK").unwrap();
    assert_eq!(scalar_int(&mut e, c, "SELECT COUNT(*) FROM reportdb.audit"), 1);
    // ...and the writeset of a committed transaction spans both databases.
    e.execute(c, "BEGIN").unwrap();
    e.execute(c, "INSERT INTO acct VALUES (9, 90)").unwrap();
    let commit = e.execute(c, "COMMIT").unwrap().commit.unwrap();
    let tables = commit.writeset.tables();
    assert!(tables.contains(&TableName::new("shop", "acct")));
    assert!(tables.contains(&TableName::new("reportdb", "audit")));
}

// ---------------------------------------------------------------------
// §4.1.4 temporary tables
// ---------------------------------------------------------------------

#[test]
fn temp_tables_are_connection_local_and_unreplicated() {
    let (mut e, c1) = setup();
    let c2 = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(c2, "USE shop").unwrap();

    e.execute(c1, "CREATE TEMPORARY TABLE scratch (k INT PRIMARY KEY, v INT)").unwrap();
    let r = e.execute(c1, "INSERT INTO scratch VALUES (1, 10)").unwrap();
    // Not in the writeset: temp tables must not replicate.
    assert!(r.commit.unwrap().writeset.is_empty());
    assert_eq!(scalar_int(&mut e, c1, "SELECT v FROM scratch WHERE k = 1"), 10);
    // Invisible to the other connection.
    assert!(e.execute(c2, "SELECT * FROM scratch").is_err());
    // Dumps never contain temp tables.
    let dump = e.dump(DumpOptions::full());
    assert!(dump
        .databases
        .iter()
        .all(|d| d.tables.iter().all(|t| t.name != "scratch")));
    // Dropped on disconnect.
    e.disconnect(c1);
    let c3 = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(c3, "USE shop").unwrap();
    assert!(e.execute(c3, "SELECT * FROM scratch").is_err());
}

#[test]
fn sybase_flavour_rejects_temp_table_in_transaction() {
    let mut e = Engine::new(EngineConfig::sybasish("syb", 1));
    let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(c, "CREATE DATABASE d").unwrap();
    e.execute(c, "USE d").unwrap();
    e.execute(c, "BEGIN").unwrap();
    let err = e.execute(c, "CREATE TEMPORARY TABLE s (k INT)").unwrap_err();
    assert!(matches!(err, SqlError::Unsupported(_)));
    e.execute(c, "ROLLBACK").unwrap();
    // Fine outside a transaction.
    e.execute(c, "CREATE TEMPORARY TABLE s (k INT)").unwrap();
}

// ---------------------------------------------------------------------
// §4.2.3 sequences and auto-increment
// ---------------------------------------------------------------------

#[test]
fn sequences_are_not_transactional() {
    let (mut e, c) = setup();
    e.execute(c, "CREATE SEQUENCE ids START 100").unwrap();
    e.execute(c, "BEGIN").unwrap();
    assert_eq!(scalar_int(&mut e, c, "SELECT nextval('ids')"), 100);
    e.execute(c, "ROLLBACK").unwrap();
    // The rollback did NOT give 100 back: a hole.
    assert_eq!(scalar_int(&mut e, c, "SELECT nextval('ids')"), 101);
}

#[test]
fn auto_increment_survives_rollback() {
    let (mut e, c) = setup();
    e.execute(c, "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)").unwrap();
    e.execute(c, "BEGIN").unwrap();
    e.execute(c, "INSERT INTO t (v) VALUES ('a')").unwrap();
    e.execute(c, "ROLLBACK").unwrap();
    e.execute(c, "INSERT INTO t (v) VALUES ('b')").unwrap();
    // id 1 was burned by the rolled-back insert.
    let rows = q(&mut e, c, "SELECT id FROM t");
    assert_eq!(rows, vec![vec![Value::Int(2)]]);
}

// ---------------------------------------------------------------------
// §4.2.1 stored procedures
// ---------------------------------------------------------------------

#[test]
fn stored_procedures_execute_with_params() {
    let (mut e, c) = setup();
    e.execute(
        c,
        "CREATE PROCEDURE transfer(src, dst, amount) AS BEGIN \
         UPDATE acct SET bal = bal - amount WHERE id = src; \
         UPDATE acct SET bal = bal + amount WHERE id = dst; END",
    )
    .unwrap();
    e.execute(c, "CALL transfer(1, 2, 30)").unwrap();
    assert_eq!(scalar_int(&mut e, c, "SELECT bal FROM acct WHERE id = 1"), 70);
    assert_eq!(scalar_int(&mut e, c, "SELECT bal FROM acct WHERE id = 2"), 230);
    // Arity is checked.
    assert!(matches!(
        e.execute(c, "CALL transfer(1, 2)").unwrap_err(),
        SqlError::Arity { .. }
    ));
}

// ---------------------------------------------------------------------
// §4.1.5 access control and backup completeness
// ---------------------------------------------------------------------

#[test]
fn grants_enforced_and_lost_by_default_dump() {
    let (mut e, c) = setup();
    e.execute(c, "CREATE USER app PASSWORD 'pw'").unwrap();
    e.execute(c, "GRANT READ ON shop TO app").unwrap();
    let app = e.connect("app", "pw").unwrap();
    e.execute(app, "USE shop").unwrap();
    assert_eq!(scalar_int(&mut e, app, "SELECT COUNT(*) FROM acct"), 2);
    assert!(matches!(
        e.execute(app, "UPDATE acct SET bal = 0 WHERE id = 1").unwrap_err(),
        SqlError::AccessDenied(_)
    ));

    // Clone the engine from a *default* dump: principals are lost (§4.1.5).
    let dump = e.dump(DumpOptions::default());
    let mut clone = Engine::new(EngineConfig::default());
    clone.restore(&dump).unwrap();
    assert!(clone.connect("app", "pw").is_err(), "clone lost the app user");

    // A full dump preserves them.
    let dump = e.dump(DumpOptions::full());
    let mut clone = Engine::new(EngineConfig::default());
    clone.restore(&dump).unwrap();
    assert!(clone.connect("app", "pw").is_ok());
    assert_eq!(clone.checksum_data(), e.checksum_data(), "data identical either way");
}

// ---------------------------------------------------------------------
// Writesets (§4.3.2)
// ---------------------------------------------------------------------

#[test]
fn writeset_application_replicates_data_but_not_counters() {
    let (mut src, c) = setup();
    src.execute(c, "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)").unwrap();

    // A destination replica with identical schema.
    let (mut dst, d) = Engine::with_database("shop");
    dst.execute(d, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT NOT NULL)").unwrap();
    dst.execute(d, "INSERT INTO acct VALUES (1, 100), (2, 200)").unwrap();
    dst.execute(d, "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)").unwrap();

    let ws = src
        .execute(c, "INSERT INTO t (v) VALUES ('x')")
        .unwrap()
        .commit
        .unwrap()
        .writeset;
    dst.apply_writeset(&ws).unwrap();
    // Data matches...
    assert_eq!(
        src.checksum_data(),
        dst.checksum_data(),
        "row data replicated by writeset"
    );
    // ...but the auto-increment counter did NOT move on dst (the gap): the
    // full checksum (which covers counters) already disagrees...
    assert_ne!(src.checksum_full(), dst.checksum_full(), "counter skew detected");
    // ...and a local insert on dst collides with the replicated row.
    let err = dst.execute(d, "INSERT INTO t (v) VALUES ('y')").unwrap_err();
    assert!(matches!(err, SqlError::DuplicateKey(_)), "{err}");
}

#[test]
fn counter_sync_extension_closes_the_gap() {
    let mut cfg = EngineConfig { capture_counters: true, ..Default::default() };
    cfg.name = "src".into();
    let mut src = Engine::new(cfg);
    let c = src.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    src.execute(c, "CREATE DATABASE shop").unwrap();
    src.execute(c, "USE shop").unwrap();
    src.execute(c, "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)").unwrap();

    let mut dst = Engine::new(EngineConfig {
        apply_counter_sync: true,
        name: "dst".into(),
        ..Default::default()
    });
    let d = dst.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    dst.execute(d, "CREATE DATABASE shop").unwrap();
    dst.execute(d, "USE shop").unwrap();
    dst.execute(d, "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)").unwrap();

    let ws = src
        .execute(c, "INSERT INTO t (v) VALUES ('x')")
        .unwrap()
        .commit
        .unwrap()
        .writeset;
    assert!(ws.counters.is_some());
    dst.apply_writeset(&ws).unwrap();
    // The local insert now gets a fresh id: no collision.
    dst.execute(d, "INSERT INTO t (v) VALUES ('y')").unwrap();
}

// ---------------------------------------------------------------------
// Binlog + statement shipping
// ---------------------------------------------------------------------

#[test]
fn binlog_replays_to_an_identical_replica() {
    let (mut master, c) = setup();
    master.execute(c, "CREATE SEQUENCE ids START 1").unwrap();
    master.execute(c, "UPDATE acct SET bal = bal + 5 WHERE id = 1").unwrap();
    master.execute(c, "BEGIN").unwrap();
    master.execute(c, "INSERT INTO acct VALUES (3, 300)").unwrap();
    master.execute(c, "DELETE FROM acct WHERE id = 2").unwrap();
    master.execute(c, "COMMIT").unwrap();

    // Replay the statement stream on a fresh slave.
    let mut slave = Engine::new(EngineConfig::default());
    let s = slave.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    for entry in master.binlog_after(replimid_sql::Lsn(0)).unwrap() {
        if let Some(db) = &entry.default_db {
            slave.execute(s, &format!("USE {db}")).unwrap();
        }
        for stmt in &entry.statements {
            slave.execute(s, stmt).unwrap();
        }
    }
    assert_eq!(master.checksum_data(), slave.checksum_data());
}

/// The versions `acct` holds, live and dead.
fn acct_versions(e: &Engine) -> usize {
    e.catalog().database("shop").unwrap().table("acct").unwrap().version_count()
}

/// A commit drops the versions it ended that nobody can read: with no
/// snapshot open, each autocommit UPDATE leaves its row one version.
#[test]
fn a_commit_prunes_the_versions_nobody_reads() {
    let (mut e, c) = setup();
    for _ in 0..10 {
        e.execute(c, "UPDATE acct SET bal = bal + 1 WHERE id = 1").unwrap();
    }
    assert_eq!(acct_versions(&e), 2, "one version per row");
    e.execute(c, "DELETE FROM acct WHERE id = 2").unwrap();
    assert_eq!(acct_versions(&e), 1, "a committed delete leaves no version");
    assert_eq!(e.vacuum(), 0, "nothing left for vacuum");
    assert_eq!(scalar_int(&mut e, c, "SELECT bal FROM acct WHERE id = 1"), 110);
}

/// Vacuum reclaims what an open snapshot pinned while the rows were
/// written: a snapshot taken before the updates keeps every version it
/// may read, and once it ends a vacuum drops them.
#[test]
fn vacuum_reclaims_dead_versions() {
    let (mut e, c) = setup();
    let reader = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(reader, "USE shop").unwrap();
    e.execute(reader, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
    for _ in 0..10 {
        e.execute(c, "UPDATE acct SET bal = bal + 1 WHERE id = 1").unwrap();
    }
    assert_eq!(e.vacuum(), 0, "the open snapshot pins every dead version");
    assert_eq!(scalar_int(&mut e, reader, "SELECT bal FROM acct WHERE id = 1"), 100);
    e.execute(reader, "COMMIT").unwrap();
    let reclaimed = e.vacuum();
    assert!(reclaimed >= 9, "reclaimed {reclaimed}");
    assert_eq!(acct_versions(&e), 2);
    assert_eq!(scalar_int(&mut e, c, "SELECT bal FROM acct WHERE id = 1"), 110);
}

// ---------------------------------------------------------------------
// Primary-key point access (`WHERE <pk> = <literal>`) under MVCC
// ---------------------------------------------------------------------

/// Run `sql`, asserting it looked its row up by key rather than scanning.
fn q_by_key(e: &mut Engine, c: ConnId, sql: &str) -> Vec<Vec<Value>> {
    let r = e.execute(c, sql).unwrap();
    assert!(r.cost.rows_read <= 1, "{sql} touched {} rows", r.cost.rows_read);
    match r.outcome {
        Outcome::Rows(rs) => rs.rows,
        other => panic!("expected rows from {sql}, got {other:?}"),
    }
}

fn second_connection(e: &mut Engine) -> ConnId {
    let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(c, "USE shop").unwrap();
    c
}

#[test]
fn point_lookup_follows_a_moved_key_per_snapshot() {
    let (mut e, c1) = setup();
    let c2 = second_connection(&mut e);
    e.execute(c1, "INSERT INTO acct VALUES (5, 500)").unwrap();

    e.execute(c1, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
    e.execute(c2, "UPDATE acct SET id = 6 WHERE id = 5").unwrap();
    // The snapshot opened before the move still has the row under key 5.
    assert_eq!(q_by_key(&mut e, c1, "SELECT bal FROM acct WHERE id = 5"), [[Value::Int(500)]]);
    assert!(q_by_key(&mut e, c1, "SELECT bal FROM acct WHERE id = 6").is_empty());
    e.execute(c1, "COMMIT").unwrap();
    // A later snapshot has it under key 6 only.
    assert!(q_by_key(&mut e, c1, "SELECT bal FROM acct WHERE id = 5").is_empty());
    assert_eq!(q_by_key(&mut e, c1, "SELECT bal FROM acct WHERE id = 6"), [[Value::Int(500)]]);
}

#[test]
fn point_lookup_after_delete_and_reinsert_returns_the_live_row() {
    let (mut e, c1) = setup();
    let c2 = second_connection(&mut e);
    e.execute(c2, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
    e.execute(c1, "DELETE FROM acct WHERE id = 1").unwrap();
    e.execute(c1, "INSERT INTO acct VALUES (1, 111)").unwrap();
    assert_eq!(q_by_key(&mut e, c1, "SELECT bal FROM acct WHERE id = 1"), [[Value::Int(111)]]);
    // The older snapshot still reads the row that was deleted since.
    assert_eq!(q_by_key(&mut e, c2, "SELECT bal FROM acct WHERE id = 1"), [[Value::Int(100)]]);
    e.execute(c2, "COMMIT").unwrap();
}

#[test]
fn point_lookup_sees_own_uncommitted_insert() {
    let (mut e, c1) = setup();
    let c2 = second_connection(&mut e);
    e.execute(c1, "BEGIN").unwrap();
    e.execute(c1, "INSERT INTO acct VALUES (7, 70)").unwrap();
    assert_eq!(q_by_key(&mut e, c1, "SELECT bal FROM acct WHERE id = 7"), [[Value::Int(70)]]);
    assert!(q_by_key(&mut e, c2, "SELECT bal FROM acct WHERE id = 7").is_empty());
    e.execute(c1, "ROLLBACK").unwrap();
    assert!(q_by_key(&mut e, c1, "SELECT bal FROM acct WHERE id = 7").is_empty());
}

#[test]
fn keyed_update_racing_an_uncommitted_writer_conflicts_like_a_scan() {
    // `id + 0 = 1` is the same predicate with the key lookup defeated.
    let conflict = |filter: &str| {
        let (mut e, c1) = setup();
        let c2 = second_connection(&mut e);
        e.execute(c1, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
        e.execute(c2, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
        e.execute(c1, "UPDATE acct SET bal = 1 WHERE id = 1").unwrap();
        let err = e.execute(c2, &format!("UPDATE acct SET bal = 2 WHERE {filter}")).unwrap_err();
        assert!(matches!(err, SqlError::WriteConflict { .. }), "{err}");
        err.to_string()
    };
    assert_eq!(conflict("id = 1"), conflict("id + 0 = 1"));
}

#[test]
fn integer_keys_above_2_pow_53_stay_distinct() {
    let (max, below) = (i64::MAX, i64::MAX - 1);
    assert_eq!(max as f64, below as f64, "the two keys collide in f64");
    let (mut e, c) = setup();
    e.execute(c, &format!("INSERT INTO acct VALUES ({max}, 1), ({below}, 2), (3, 3)")).unwrap();

    // ORDER BY tells them apart in both directions.
    let asc = q(&mut e, c, "SELECT id FROM acct WHERE id > 2 ORDER BY id");
    assert_eq!(asc, [[Value::Int(3)], [Value::Int(below)], [Value::Int(max)]]);
    let desc = q(&mut e, c, "SELECT id FROM acct WHERE id > 2 ORDER BY id DESC");
    assert_eq!(desc, [[Value::Int(max)], [Value::Int(below)], [Value::Int(3)]]);

    // Each is unique on its own: neither blocks the other, both block a repeat.
    let dup = e.execute(c, &format!("INSERT INTO acct VALUES ({max}, 9)")).unwrap_err();
    assert!(matches!(dup, SqlError::DuplicateKey(_)), "{dup}");
    let dup = e.execute(c, &format!("INSERT INTO acct VALUES ({below}, 9)")).unwrap_err();
    assert!(matches!(dup, SqlError::DuplicateKey(_)), "{dup}");

    // A point lookup finds exactly the key it names.
    let by_key = |e: &mut Engine, k: i64| {
        q_by_key(e, c, &format!("SELECT bal FROM acct WHERE id = {k}"))
    };
    assert_eq!(by_key(&mut e, max), [[Value::Int(1)]]);
    assert_eq!(by_key(&mut e, below), [[Value::Int(2)]]);
    e.execute(c, &format!("DELETE FROM acct WHERE id = {max}")).unwrap();
    assert!(by_key(&mut e, max).is_empty());
    assert_eq!(by_key(&mut e, below), [[Value::Int(2)]]);
}

// ---------------------------------------------------------------------
// A certified writeset never waits (§4.3.2)
// ---------------------------------------------------------------------

/// The writeset `sql` commits on a fresh copy of `setup()`'s data.
fn writeset_of(sql: &str) -> Writeset {
    let (mut src, c) = setup();
    src.execute(c, sql).unwrap().commit.unwrap().writeset
}

/// Is `r` the retryable conflict a wounded transaction answers?
fn wounded<T>(r: Result<T, SqlError>) -> bool {
    matches!(&r, Err(err @ SqlError::WriteConflict { .. }) if err.is_retryable())
}

#[test]
fn a_certified_writeset_wounds_the_open_transaction_holding_its_row() {
    // (what the holder did, what the writeset does, acct afterwards)
    let cases = [
        ("UPDATE acct SET bal = 1 WHERE id = 1", "UPDATE acct SET bal = 150 WHERE id = 1", vec![(1, 150), (2, 7)]),
        ("DELETE FROM acct WHERE id = 1", "DELETE FROM acct WHERE id = 1", vec![(2, 7)]),
        ("UPDATE acct SET bal = 1 WHERE id = 1", "DELETE FROM acct WHERE id = 1", vec![(2, 7)]),
        ("INSERT INTO acct VALUES (3, 1)", "INSERT INTO acct VALUES (3, 300)", vec![(1, 100), (2, 7), (3, 300)]),
    ];
    for (i, (held, applied, after)) in cases.into_iter().enumerate() {
        let (mut e, c) = setup();
        let holder = second_connection(&mut e);
        let bystander = second_connection(&mut e);
        e.execute(holder, "CREATE TEMPORARY TABLE scratch (k INT PRIMARY KEY)").unwrap();
        e.execute(holder, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
        e.execute(holder, "INSERT INTO scratch VALUES (1)").unwrap();
        e.execute(holder, held).unwrap();
        e.execute(bystander, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
        e.execute(bystander, "UPDATE acct SET bal = 7 WHERE id = 2").unwrap();

        e.apply_writeset(&writeset_of(applied)).unwrap();
        assert!(wounded(e.execute(holder, "SELECT COUNT(*) FROM acct")), "{held} / {applied}");
        assert!(wounded(e.pending_writeset(holder)));
        if i == 0 {
            // COMMIT fails and ends the transaction, as ROLLBACK does.
            assert!(wounded(e.execute(holder, "COMMIT")));
        }
        e.execute(holder, "ROLLBACK").unwrap();
        assert_eq!(scalar_int(&mut e, holder, "SELECT COUNT(*) FROM scratch"), 0, "temp write unwound");
        // The bystander held no row the writeset needed.
        e.execute(bystander, "COMMIT").unwrap();
        let rows = q(&mut e, c, "SELECT id, bal FROM acct ORDER BY id");
        let want: Vec<Vec<Value>> = after.into_iter().map(|(k, v)| vec![Value::Int(k), Value::Int(v)]).collect();
        assert_eq!(rows, want, "{held} / {applied}");
    }
}
