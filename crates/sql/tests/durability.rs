//! Engine-level durability tests: crash recovery across the three crash
//! kinds, operator snapshot round-trips through the checkpoint format, and
//! the `crash_recovery_preserves_committed_state` detcheck property.
//!
//! The cluster-level counterpart (recovered replica reconverges with its
//! peers) lives in the E20 campaign and the benchmark's crash-recover
//! workload; these tests pin the engine contract in isolation: recovery
//! lands exactly on a state the engine passed through, never past the
//! durable horizon, and identically on every same-seed rerun.

use replimid_det::{detcheck, DetRng};
use replimid_sql::{
    CrashKind, DurabilityConfig, Engine, EngineConfig, ADMIN_PASSWORD, ADMIN_USER,
};

/// A durable engine with the 4-table bench schema and the initial forced
/// checkpoint `DbNode::new` takes, so lossy crashes cannot destroy schema.
fn durable_engine(cfg: DurabilityConfig) -> (Engine, replimid_sql::ConnId) {
    let ecfg = EngineConfig { durability: Some(cfg), ..Default::default() };
    let mut e = Engine::new(ecfg);
    let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(c, "CREATE DATABASE bench").unwrap();
    e.execute(c, "USE bench").unwrap();
    for i in 0..4 {
        e.execute(c, &format!("CREATE TABLE t{i} (k INT PRIMARY KEY, v INT)")).unwrap();
    }
    e.wal_force_checkpoint(0);
    let _ = e.take_io();
    (e, c)
}

/// One maintenance round after the operation that applied group-0
/// position `pos` (the node actor's per-operation `wal_tick`).
fn maintain(e: &mut Engine, pos: u64) -> replimid_sql::wal::WalMaintain {
    e.note_applied(&[(0, pos)]);
    e.wal_maintain(0)
}

#[test]
fn clean_crash_recovers_exact_state() {
    let (mut e, c) = durable_engine(DurabilityConfig {
        checkpoint_every: 16,
        fsync_every: 8,
        ..Default::default()
    });
    for i in 0..100i64 {
        e.execute(c, &format!("INSERT INTO t{} VALUES ({}, 1)", i % 4, 10_000_000 + i)).unwrap();
        maintain(&mut e, (i + 1) as u64);
    }
    let before = e.checksum_data();
    let report = e.crash_recover(CrashKind::Clean, 0xDEAD_BEEF);
    assert_eq!(e.checksum_data(), before, "clean crash must lose nothing");
    assert_eq!(report.ordered.prefix(0), 100);
    assert!(report.checkpoint_loaded);
    assert!(!report.torn_truncated);
}

#[test]
fn lossy_crash_never_recovers_past_fsync_horizon() {
    // fsync_every=4 with no periodic checkpoints: positions 4, 8, ... are
    // durable; a lost tail lands exactly on the last fsynced position.
    let (mut e, c) = durable_engine(DurabilityConfig {
        checkpoint_every: 0,
        fsync_every: 4,
        ..Default::default()
    });
    let mut sums = vec![e.checksum_data()];
    for i in 0..10i64 {
        e.execute(c, &format!("INSERT INTO t{} VALUES ({}, 1)", i % 4, 10_000_000 + i)).unwrap();
        maintain(&mut e, (i + 1) as u64);
        sums.push(e.checksum_data());
    }
    assert_eq!(e.durable_ordered(), Some(vec![8]), "the durable position is the last fsync's");
    let report = e.crash_recover(CrashKind::LostTail, 7);
    assert_eq!(report.ordered.prefix(0), 8, "tail past the last fsync (pos 8) is gone");
    assert_eq!(e.checksum_data(), sums[8], "recovered state is the committed prefix at pos 8");
    assert_eq!(e.durable_ordered(), Some(vec![8]), "recovery leaves everything it kept synced");
}

/// Positions are per group, with the positions applied above each
/// group's contiguous prefix: a cross-group slot can reach a replica
/// after the next one. Recovery rebuilds them exactly, hole included.
#[test]
fn per_group_positions_survive_a_crash_hole_and_all() {
    let (mut e, c) = durable_engine(DurabilityConfig {
        checkpoint_every: 0,
        fsync_every: 1,
        ..Default::default()
    });
    // Group 1's position 2 is applied before its position 1.
    for (i, mark) in [(0, 1), (1, 2), (0, 2)].into_iter().enumerate() {
        e.execute(c, &format!("INSERT INTO t0 VALUES ({}, 1)", 10_000_000 + i)).unwrap();
        e.note_applied(&[mark]);
        e.wal_maintain(0);
    }
    let before = e.ordered().clone();
    let report = e.crash_recover(CrashKind::LostTail, 3);
    assert_eq!(report.ordered, before);
    assert_eq!(report.ordered.prefixes(), vec![2, 0]);
    assert!(report.ordered.has((1, 2)) && !report.ordered.has((1, 1)));
    assert_eq!(e.durable_ordered(), Some(vec![2, 0]));
}

/// The binlog trim clamps to the WAL mirror cursor: commits that no
/// maintenance round has copied into the WAL yet survive an unread binlog,
/// reach the WAL on the next round, and come back after a crash.
/// (An unclamped trim made the next round skip them: lost on restart.)
#[test]
fn trim_keeps_commits_the_wal_has_not_mirrored() {
    let (mut e, c) = durable_engine(DurabilityConfig {
        checkpoint_every: 0,
        fsync_every: 1,
        ..Default::default()
    });
    for i in 0..20i64 {
        e.execute(c, &format!("INSERT INTO t{} VALUES ({}, 1)", i % 4, 10_000_000 + i)).unwrap();
    }
    let before = e.checksum_data();
    let head = e.binlog_head();
    e.set_binlog_horizon(None);
    assert_eq!(e.binlog_len(), 20, "the unmirrored commits stay");
    maintain(&mut e, 20);
    assert_eq!(e.binlog_len(), 0, "mirrored commits go once the WAL holds them");
    e.crash_recover(CrashKind::Clean, 1);
    assert_eq!(e.checksum_data(), before, "every commit survives the crash");
    assert_eq!(e.binlog_head(), head);
    let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(c, "USE bench").unwrap();
    for t in 0..4 {
        let r = e.execute(c, &format!("SELECT k FROM t{t}")).unwrap();
        let replimid_sql::Outcome::Rows(rs) = r.outcome else { panic!("select returns rows") };
        assert_eq!(rs.rows.len(), 5, "t{t} keeps its five rows");
    }
}

#[test]
fn snapshot_roundtrip_restores_full_catalog() {
    // Satellite: operator dump/restore rides the recovery snapshot format.
    // The snapshot must carry the full catalog — users, grants, triggers,
    // procedures — not just table rows.
    let (mut e, c) = durable_engine(DurabilityConfig::default());
    e.execute(c, "INSERT INTO t0 VALUES (1, 10)").unwrap();
    e.execute(c, "INSERT INTO t1 VALUES (2, 20)").unwrap();
    e.execute(c, "CREATE USER alice PASSWORD 'pw'").unwrap();
    e.execute(c, "GRANT READ ON bench TO alice").unwrap();
    e.execute(
        c,
        "CREATE TRIGGER trg AFTER INSERT ON t0 DO BEGIN \
         UPDATE t1 SET v = v + 1 WHERE k = 2; END",
    )
    .unwrap();
    e.execute(c, "CREATE PROCEDURE bump() AS BEGIN UPDATE t0 SET v = v + 1 WHERE k = 1; END")
        .unwrap();

    e.note_applied(&[(0, 42), (3, 2), (3, 5)]);
    let bytes = e.snapshot_bytes(41);
    let mut f = Engine::new(EngineConfig::default());
    let pos = f.restore_snapshot(&bytes).unwrap();
    assert_eq!(pos, (41, e.ordered().clone()), "replication positions travel with the snapshot");
    assert_eq!(f.checksum_full(), e.checksum_full(), "catalog-inclusive checksums match");

    // Behavioral spot-checks: the restored side enforces the restored
    // catalog, fires the trigger, and runs the procedure.
    let fc = f.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    f.execute(fc, "USE bench").unwrap();
    f.execute(fc, "INSERT INTO t0 VALUES (3, 30)").unwrap();
    f.execute(fc, "CALL bump()").unwrap();
    let ac = f.connect("alice", "pw").expect("restored user can log in");
    f.execute(ac, "USE bench").unwrap();
    assert!(f.execute(ac, "DELETE FROM t0 WHERE k = 3").is_err(), "alice only has SELECT");

    e.execute(c, "INSERT INTO t0 VALUES (3, 30)").unwrap();
    e.execute(c, "CALL bump()").unwrap();
    assert_eq!(f.checksum_data(), e.checksum_data(), "restored side behaves like the original");
}

#[test]
fn crash_mid_sequence_recovers_counters_no_duplicate_keys() {
    // §4.2.3 regression: sequences and AUTO_INCREMENT advance outside the
    // transactional store, so commit records alone replay inserts against a
    // stale counter and the next NEXTVAL hands out an already-used key.
    // Counter WAL records close the gap.
    let (mut e, c) = durable_engine(DurabilityConfig {
        checkpoint_every: 0,
        fsync_every: 1,
        ..Default::default()
    });
    e.execute(c, "CREATE SEQUENCE ids START 100").unwrap();
    e.execute(c, "CREATE TABLE seq_t (k INT PRIMARY KEY, v INT)").unwrap();
    e.execute(c, "CREATE TABLE auto_t (k INT PRIMARY KEY AUTO_INCREMENT, v INT)").unwrap();
    maintain(&mut e, 0);
    for i in 0..10i64 {
        e.execute(c, &format!("INSERT INTO seq_t VALUES (NEXTVAL('ids'), {i})")).unwrap();
        e.execute(c, &format!("INSERT INTO auto_t (v) VALUES ({i})")).unwrap();
        maintain(&mut e, (i + 1) as u64);
    }
    // A rolled-back NEXTVAL still burns a number (non-transactional): the
    // counter record must cover it even though no commit record exists.
    e.execute(c, "BEGIN").unwrap();
    e.execute(c, "INSERT INTO seq_t VALUES (NEXTVAL('ids'), 99)").unwrap();
    e.execute(c, "ROLLBACK").unwrap();
    maintain(&mut e, 10);

    let report = e.crash_recover(CrashKind::LostTail, 0xC0FFEE);
    assert!(report.entries_replayed > 0, "commits should replay from the WAL");

    // The recovered counters must sit past every recovered row: fresh
    // NEXTVAL/AUTO_INCREMENT inserts may not collide with replayed keys.
    let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
    e.execute(c, "USE bench").unwrap();
    for i in 0..10i64 {
        e.execute(c, &format!("INSERT INTO seq_t VALUES (NEXTVAL('ids'), {})", 100 + i))
            .unwrap_or_else(|err| panic!("duplicate sequence key after recovery: {err}"));
        e.execute(c, &format!("INSERT INTO auto_t (v) VALUES ({})", 100 + i))
            .unwrap_or_else(|err| panic!("duplicate auto-increment key after recovery: {err}"));
    }
    // The burned (rolled-back) number stays burned across the crash.
    let r = e.execute(c, "SELECT COUNT(*) FROM seq_t WHERE k = 110").unwrap();
    let rows = r.outcome.rows().unwrap();
    assert_eq!(
        rows.rows[0][0],
        replimid_sql::Value::Int(0),
        "rolled-back NEXTVAL number must not be reissued after recovery"
    );
}

#[test]
fn torn_in_progress_checkpoint_falls_back_and_replays() {
    // Two-phase checkpoints: round 8's maintenance stages a new image but
    // the crash hits before the next round completes it. Recovery must
    // detect the damaged in-progress image, fall back to the previous
    // checkpoint, and replay the longer WAL suffix — with zero committed
    // loss, because the WAL itself is fully fsynced here.
    let run = |entropy: u64| {
        let cfg =
            DurabilityConfig { checkpoint_every: 4, fsync_every: 1, two_phase_checkpoint: true };
        let (mut e, c) = durable_engine(cfg);
        maintain(&mut e, 0); // completes the staged setup checkpoint
        let mut pos = 0u64;
        loop {
            let i = pos as i64;
            e.execute(c, &format!("INSERT INTO t{} VALUES ({}, 1)", i % 4, 10_000_000 + i))
                .unwrap();
            pos += 1;
            let out = maintain(&mut e, pos);
            if pos >= 8 {
                assert!(out.checkpoint_rows.is_some(), "round 8 must stage a checkpoint");
                break;
            }
        }
        let before = e.checksum_data();
        let report = e.crash_recover(CrashKind::TornTail, entropy);
        assert_eq!(e.checksum_data(), before, "fully-fsynced WAL must lose nothing");
        assert_eq!(report.ordered.prefix(0), 8, "replay reaches the end of history");
        report
    };
    let reports: Vec<_> = (0..32u64).map(run).collect();
    let torn = reports
        .iter()
        .find(|r| r.checkpoint_fallback)
        .expect("no entropy tore the staged image");
    assert!(torn.checkpoint_loaded, "fallback still loads the previous checkpoint");
    assert_eq!(torn.entries_replayed, 4, "the suffix past the old checkpoint replays");
}

/// One full crash-recovery scenario, fully determined by `seed`. Returns
/// the recovered (report, checksum) pair so the caller can assert rerun
/// bit-identity.
fn crash_scenario(seed: u64) -> (replimid_sql::RecoveryReport, u64) {
    let mut rng = DetRng::seed_from_u64(seed);
    let cfg = DurabilityConfig {
        checkpoint_every: *detcheck::pick(&mut rng, &[0u64, 4, 16]),
        fsync_every: *detcheck::pick(&mut rng, &[1u64, 4, 8]),
        // Half the scenarios run the two-phase install, so the crash
        // matrix also covers torn in-progress checkpoints.
        two_phase_checkpoint: rng.gen::<bool>(),
    };
    let (mut e, c) = durable_engine(cfg);

    // Committed history with a checksum recorded at every position, plus a
    // running durable floor: the highest position at or below which every
    // WAL byte (or a covering checkpoint) has been fsynced.
    let n = rng.gen_range(5u64..60);
    let mut sums = vec![e.checksum_data()];
    let mut durable_floor = 0u64;
    for i in 0..n {
        let k = 10_000_000 + i as i64;
        let table = rng.gen_range(0u64..4);
        if rng.gen::<bool>() {
            e.execute(c, &format!("INSERT INTO t{table} VALUES ({k}, 1)")).unwrap();
        } else {
            e.execute(c, &format!("INSERT INTO t{table} VALUES ({k}, {})", i % 7)).unwrap();
        }
        maintain(&mut e, i + 1);
        sums.push(e.checksum_data());
        let stats = e.wal_stats().unwrap();
        if stats.wal_bytes == stats.wal_synced_bytes {
            durable_floor = i + 1;
        }
    }

    let kind = *detcheck::pick(&mut rng, &[CrashKind::Clean, CrashKind::LostTail, CrashKind::TornTail]);
    let entropy = rng.next_u64();
    let report = e.crash_recover(kind, entropy);
    let recovered = e.checksum_data();

    // Zero committed loss past the durable horizon: recovery lands on an
    // exact committed prefix, at or above the last fsync-covered position,
    // and a clean crash loses nothing at all.
    assert!(
        report.ordered.prefix(0) <= n,
        "recovered past the end of history ({} > {n})",
        report.ordered.prefix(0)
    );
    assert!(
        report.ordered.prefix(0) >= durable_floor,
        "{} crash lost fsynced records: recovered to {} < durable floor {durable_floor}",
        kind.name(),
        report.ordered.prefix(0)
    );
    if kind == CrashKind::Clean {
        assert_eq!(report.ordered.prefix(0), n, "clean shutdown must flush everything");
    }
    assert_eq!(
        recovered,
        sums[report.ordered.prefix(0) as usize],
        "recovered state is not the committed prefix at position {}",
        report.ordered.prefix(0)
    );
    (report, recovered)
}

#[test]
fn crash_recovery_preserves_committed_state() {
    detcheck::check("crash_recovery_preserves_committed_state", 96, |rng| {
        let seed = rng.next_u64();
        let first = crash_scenario(seed);
        let rerun = crash_scenario(seed);
        assert_eq!(first, rerun, "same-seed rerun diverged (seed {seed})");
    });
}
