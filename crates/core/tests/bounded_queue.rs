//! The event queue holds live events only. A load driver arms a request
//! guard per request and cancels it when the reply is accepted, so after
//! two guard timeouts of steady load the queue is bounded by the actors
//! and session slots, not by request rate × timeout.

use replimid_core::{Cluster, ClusterConfig, Mode, NondetPolicy};
use replimid_workload::micro::{self, ReadWriteMix};

const TIMEOUT_US: u64 = 200_000;

fn cluster() -> Cluster {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        micro::schema("bench", 100),
        "bench",
    );
    cfg.backends_per_mw = 3;
    Cluster::build(cfg)
}

/// Both the high-water mark and what is queued now stay within `bound`.
fn assert_queue_within(cluster: &Cluster, bound: usize, ops: u64) {
    let peak = cluster.sim.stats().peak_pending as usize;
    let now = cluster.sim.pending_events();
    assert!(
        peak <= bound && now <= bound,
        "{ops} requests left {now} events queued (peak {peak}); bound {bound}"
    );
}

#[test]
fn client_guards_leave_the_queue() {
    let mut cluster = cluster();
    let clients: Vec<_> = (0..8)
        .map(|_| {
            cluster.add_client(ReadWriteMix { total_keys: 100, write_fraction: 0.2 }, |cc| {
                cc.request_timeout_us = TIMEOUT_US;
            })
        })
        .collect();
    cluster.run_for(2 * TIMEOUT_US + 50_000);
    let ops: u64 = clients.iter().map(|&c| cluster.client_metrics(c).committed).sum();
    // Every one of these armed a guard that would still be queued.
    assert!(ops > 1_000, "only {ops} transactions");
    assert_queue_within(&cluster, 8 * cluster.sim.node_count(), ops);
}

#[test]
fn fleet_guards_leave_the_queue() {
    let sessions = 64;
    let mut cluster = cluster();
    let fleet = cluster.add_session_fleet(0, sessions, |fc| {
        fc.request_timeout_us = TIMEOUT_US;
        fc.think_time_us = 5_000;
        fc.ramp_us = 10_000;
    });
    cluster.run_for(2 * TIMEOUT_US + 50_000);
    let m = cluster.fleet_metrics(fleet);
    let ops = m.reads + m.writes;
    assert!(ops > 1_000, "only {ops} requests");
    assert_queue_within(&cluster, 2 * sessions + 8 * cluster.sim.node_count(), ops);
}
