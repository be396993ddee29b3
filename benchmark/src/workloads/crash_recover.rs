//! `crash-recover` — open loop, Poisson at 6 000/s (fault-free: no
//! backlog, two survivors well under 80 % busy), durable backends; one of
//! them crashes with its unsynced WAL tail lost and restarts half a
//! virtual second later.
//!
//! The availability axis: `core::health` detection, `core::recovery`
//! resync, `sql::wal` replay and the `core::db_node` restart do the work,
//! and requests keep arriving on schedule while the replica is down, so
//! the stall is charged to every request due during it.
//!
//! The first virtual second is warm-up. The latency mean is read from the
//! two fault-free seconds between it and the crash (what durability costs
//! on the normal path; a third second did not steady it); the fault itself is carried by `slo_ok_ratio`
//! and `tps` over the whole measured window and by `e2e.outage_ms` /
//! `e2e.mttr_ms`. Whole-run means were tried first: with one fault per run
//! they swing by 10–30 % from seed to seed (how many requests happen to be
//! in flight to the dead replica), which no regression bound survives.

use replimid_core::{QuarantineConfig, TxSource};
use replimid_simnet::SimTime;
use replimid_sql::{CrashKind, DurabilityConfig};

use super::gen::OpenMirror;
use super::open::{self, OpenSnap};
use super::*;

const RATE: f64 = 6_000.0;
/// Wide enough that admission never fills while the crash goes
/// undetected (6 000/s × 120 ms × 40 % routed to the victim ≈ 290): with
/// 64 slots the whole driver stalls on some seeds and not on others.
const MAX_INFLIGHT: usize = 1024;
const WARMUP_US: u64 = 1_000_000;
const RUN_US: u64 = 10_000_000;
const CRASH_AT_US: u64 = 3_000_000;
const RESTART_AT_US: u64 = 3_500_000;
const VICTIM: usize = 2;
/// Latency limit: 2^12 = 4096 µs, judged over the whole measured window.
const SLO_POW2: usize = 12;

/// A checkpoint (a full dump: a stall of several ms that grows with the
/// data) every 1024 commits. At every 256 the stalls reach further into
/// the fault-free seconds, and which requests they catch makes the write
/// latency swing 6–13 % across seeds (at 1024 it still swings 5–10 %,
/// which is why it is a layer metric and not a gated one).
pub const DURABILITY: DurabilityConfig = DurabilityConfig {
    checkpoint_every: 1024,
    fsync_every: 8,
    two_phase_checkpoint: false,
};

pub fn sources(seed: u64) -> Vec<Box<dyn TxSource>> {
    vec![Box::new(OpenMirror::new(seed, 0, open::WRITE_PERMILLE))]
}

pub fn rep(o: &Opts, t: &mut Tracer) -> Result<Rep, String> {
    // Smoke keeps the fault schedule and shortens only the tail.
    let run_us = if o.smoke {
        RESTART_AT_US + 1_000_000
    } else {
        RUN_US
    };
    let mut oc = t.phase("bench.setup", |_| {
        let mut cfg = open::cluster_config(o);
        cfg.engine.durability = Some(DURABILITY);
        cfg.mw.quarantine = Some(QuarantineConfig::default());
        cfg.mw.recovery_batch = 256;
        let mut oc = open::build(o, cfg, RATE, MAX_INFLIGHT, run_us, 0);
        oc.cluster
            .crash_backend_with(SimTime(CRASH_AT_US), 0, VICTIM, CrashKind::LostTail);
        oc.cluster
            .restart_backend_at(SimTime(RESTART_AT_US), 0, VICTIM);
        oc
    });
    let warm = open::warm_up(&mut oc, WARMUP_US, t);
    let (at_crash, r) = t.phase("bench.run", |t| {
        t.run_for(&mut oc.cluster, CRASH_AT_US - WARMUP_US);
        let at_crash = OpenSnap::take(&mut oc);
        open::run(&mut oc, &warm, t).map(|r| (at_crash, r))
    })?;

    let mut rep = Rep::default();
    let recovery = t.phase("bench.collect", |_| {
        open::cluster_layers(&mut rep.layer, &mut oc, &r);
        open::driver_layers(&mut rep.layer, &r);
        sim_per_op(&mut rep.layer, r.sim_before, r.window.sim, r.window.ok);
        oc.cluster.backend_recovery(0, VICTIM)
    });
    let recovery = recovery.ok_or("the crashed backend never restarted durably")?;
    let &(_, rejoin_start, rejoin_end) =
        r.mw.recoveries
            .iter()
            .find(|&&(b, _, _)| b == VICTIM)
            .ok_or("the crashed backend never rejoined")?;
    let detected_at = *r
        .mw
        .failover_times
        .first()
        .ok_or("the crash was never detected")?;
    let rejoin_us = rejoin_end - rejoin_start;

    let fault_free = at_crash.since(&warm);
    rep.e2e.insert(
        "tps",
        r.ok_by_stop as f64 * 1e6 / (run_us - WARMUP_US) as f64,
    );
    rep.e2e
        .insert("lat_mean_us", fault_free.ok_sojourn.mean_us());
    rep.layer.insert(
        "core.middleware.write_latency_us".into(),
        fault_free.write_latency.mean_us(),
    );
    rep.e2e
        .insert("slo_ok_ratio", r.window.slo_ok_ratio(SLO_POW2));
    rep.layer.insert(
        "e2e.outage_ms".into(),
        r.mw.availability.downtime_us() as f64 / 1e3,
    );
    rep.layer.insert(
        "e2e.mttr_ms".into(),
        (recovery.local_us + rejoin_us) as f64 / 1e3,
    );
    rep.layer.insert(
        "core.health.detect_ms".into(),
        detected_at.saturating_sub(CRASH_AT_US) as f64 / 1e3,
    );
    rep.layer
        .insert("core.recovery.rejoin_ms".into(), rejoin_us as f64 / 1e3);
    rep.layer.insert(
        "core.db_node.local_recovery_ms".into(),
        recovery.local_us as f64 / 1e3,
    );
    rep.layer.insert(
        "sql.wal.replay_entries_per_vs".into(),
        recovery.report.entries_replayed as f64 * 1e6 / recovery.local_us.max(1) as f64,
    );
    rep.ops = r.window.ok;
    rep.attempted = r.window.settled();
    rep.failed = r.window.failed();
    rep.window_us = run_us - WARMUP_US;
    rep.events = r.window.sim.events_processed - r.sim_before.events_processed;

    t.phase("bench.check", |t| open::check(&mut oc, &r, t, false))?;
    Ok(rep)
}
