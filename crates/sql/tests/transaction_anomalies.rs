//! Classic isolation anomalies, used to validate that the engine's levels
//! actually differ in the ways the consistency-spectrum experiment (E10)
//! relies on.

use replimid_sql::{Engine, Outcome, SqlError, Value, ADMIN_PASSWORD, ADMIN_USER};

fn setup() -> (Engine, replimid_sql::ConnId, replimid_sql::ConnId) {
    let (mut e, c1) = Engine::with_database("d");
    e.execute(c1, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT NOT NULL)").unwrap();
    e.execute(c1, "INSERT INTO acct VALUES (1, 50), (2, 50)").unwrap();
    let c2 = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(c2, "USE d").unwrap();
    (e, c1, c2)
}

fn bal(e: &mut Engine, c: replimid_sql::ConnId, id: i64) -> i64 {
    match e
        .execute(c, &format!("SELECT bal FROM acct WHERE id = {id}"))
        .unwrap()
        .outcome
    {
        Outcome::Rows(rs) => rs.rows[0][0].as_int().unwrap(),
        _ => unreachable!(),
    }
}

#[test]
fn lost_update_prevented_under_si() {
    let (mut e, c1, c2) = setup();
    e.execute(c1, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
    e.execute(c2, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
    // Both read 50 and try to add their increment.
    assert_eq!(bal(&mut e, c1, 1), 50);
    assert_eq!(bal(&mut e, c2, 1), 50);
    e.execute(c1, "UPDATE acct SET bal = 60 WHERE id = 1").unwrap();
    // c2's write conflicts with the uncommitted first writer.
    let err = e.execute(c2, "UPDATE acct SET bal = 70 WHERE id = 1").unwrap_err();
    assert!(matches!(err, SqlError::WriteConflict { .. }));
    e.execute(c1, "COMMIT").unwrap();
    e.execute(c2, "ROLLBACK").unwrap();
    assert_eq!(bal(&mut e, c1, 1), 60, "no lost update");
}

#[test]
fn lost_update_possible_under_read_committed() {
    // The paper notes production systems run read committed for speed and
    // live with its anomalies (§4.1.2).
    let (mut e, c1, c2) = setup();
    e.execute(c1, "BEGIN ISOLATION LEVEL READ COMMITTED").unwrap();
    let v1 = bal(&mut e, c1, 1); // reads 50
    // c2 sneaks in a committed update.
    e.execute(c2, "UPDATE acct SET bal = 80 WHERE id = 1").unwrap();
    // c1 writes a value computed from its stale read: last writer wins.
    e.execute(c1, &format!("UPDATE acct SET bal = {} WHERE id = 1", v1 + 10)).unwrap();
    e.execute(c1, "COMMIT").unwrap();
    assert_eq!(bal(&mut e, c1, 1), 60, "c2's update was silently lost");
}

#[test]
fn write_skew_allowed_under_si_rejected_under_serializable() {
    // The canonical SI anomaly: the constraint bal1 + bal2 >= 0 is enforced
    // by each transaction reading BOTH rows, then decrementing one. Under
    // SI both commit (write skew); under serializable one aborts.
    let run = |level: &str| -> Result<i64, SqlError> {
        let (mut e, c1, c2) = setup();
        e.execute(c1, &format!("BEGIN ISOLATION LEVEL {level}")).unwrap();
        e.execute(c2, &format!("BEGIN ISOLATION LEVEL {level}")).unwrap();
        // Each checks the invariant over both rows.
        let total1 = match e.execute(c1, "SELECT SUM(bal) FROM acct").unwrap().outcome {
            Outcome::Rows(rs) => rs.rows[0][0].as_int().unwrap(),
            _ => unreachable!(),
        };
        assert_eq!(total1, 100);
        let _ = e.execute(c2, "SELECT SUM(bal) FROM acct").unwrap();
        // Disjoint writes: c1 drains row 1, c2 drains row 2.
        e.execute(c1, "UPDATE acct SET bal = bal - 80 WHERE id = 1")?;
        e.execute(c2, "UPDATE acct SET bal = bal - 80 WHERE id = 2")?;
        e.execute(c1, "COMMIT")?;
        e.execute(c2, "COMMIT")?;
        let mut total = 0;
        for id in [1, 2] {
            total += bal(&mut e, c1, id);
        }
        Ok(total)
    };
    // SI: both commit; the invariant silently breaks (total -60).
    assert_eq!(run("SNAPSHOT").unwrap(), -60);
    // Serializable: one of the two fails (write conflict or validation).
    let err = run("SERIALIZABLE").unwrap_err();
    assert!(
        matches!(err, SqlError::SerializationFailure(_) | SqlError::WriteConflict { .. }),
        "{err}"
    );
}

#[test]
fn insert_on_a_stale_snapshot_conflicts_with_a_key_committed_since() {
    let (mut e, c1, c2) = setup();
    e.execute(c1, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
    e.execute(c2, "INSERT INTO acct VALUES (7, 1)").unwrap();
    // c1's snapshot misses key 7, but first-committer-wins still applies.
    let err = e.execute(c1, "INSERT INTO acct VALUES (7, 2)").unwrap_err();
    assert!(matches!(err, SqlError::WriteConflict { .. }) && err.is_retryable(), "{err}");
    e.execute(c1, "ROLLBACK").unwrap();
    let count = e.execute(c2, "SELECT COUNT(*) FROM acct WHERE id + 0 = 7").unwrap().outcome;
    assert!(matches!(count, Outcome::Rows(rs) if rs.rows == [[Value::Int(1)]]));
}

#[test]
fn read_committed_sees_each_statements_fresh_snapshot() {
    let (mut e, c1, c2) = setup();
    e.execute(c1, "BEGIN ISOLATION LEVEL READ COMMITTED").unwrap();
    assert_eq!(bal(&mut e, c1, 2), 50);
    e.execute(c2, "UPDATE acct SET bal = 99 WHERE id = 2").unwrap();
    assert_eq!(bal(&mut e, c1, 2), 99, "non-repeatable read, by design");
    e.execute(c1, "COMMIT").unwrap();
}

#[test]
fn for_update_locks_rows_against_concurrent_writers() {
    let (mut e, c1, c2) = setup();
    e.execute(c1, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
    let r = e.execute(c1, "SELECT bal FROM acct WHERE id = 1 FOR UPDATE").unwrap();
    assert!(matches!(r.outcome, Outcome::Rows(_)));
    let err = e.execute(c2, "UPDATE acct SET bal = 0 WHERE id = 1").unwrap_err();
    assert!(matches!(err, SqlError::WriteConflict { .. }), "{err}");
    e.execute(c1, "COMMIT").unwrap();
    // Released after commit.
    e.execute(c2, "UPDATE acct SET bal = 0 WHERE id = 1").unwrap();
}

#[test]
fn dirty_reads_never_happen() {
    let (mut e, c1, c2) = setup();
    e.execute(c1, "BEGIN").unwrap();
    e.execute(c1, "UPDATE acct SET bal = 1234 WHERE id = 1").unwrap();
    // c2 (autocommit read committed) must not see the uncommitted value.
    assert_eq!(bal(&mut e, c2, 1), 50);
    e.execute(c1, "ROLLBACK").unwrap();
    assert_eq!(bal(&mut e, c2, 1), 50);
    let _ = Value::Null;
}

#[test]
fn a_delete_committed_after_a_snapshot_is_not_lost() {
    // First-committer-wins covers deletes too: a snapshot that still sees
    // the row may not update it over a delete that committed since.
    let (mut e, c1, c2) = setup();
    e.execute(c1, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
    assert_eq!(bal(&mut e, c1, 1), 50);
    e.execute(c2, "DELETE FROM acct WHERE id = 1").unwrap();
    let err = e.execute(c1, "UPDATE acct SET bal = 5 WHERE id = 1").unwrap_err();
    assert!(matches!(err, SqlError::WriteConflict { .. }), "{err:?}");
    e.execute(c1, "ROLLBACK").unwrap();
    match e.execute(c2, "SELECT bal FROM acct WHERE id = 1").unwrap().outcome {
        Outcome::Rows(rs) => assert!(rs.rows.is_empty(), "the row stays deleted: {:?}", rs.rows),
        other => panic!("{other:?}"),
    }
}
