//! `partial-xgroup` — closed loop, 32 virtual clients (4 per table group),
//! think 200 µs, fixed work.
//!
//! The same write layers as `write-sat`, used differently: writeset-mode
//! multi-master over eight backends and eight table groups with partner
//! pairs co-hosted ({0,1},{0,1},{2,3},...), so per-group sequencers
//! (`gcs::ShardedMember`), certifier shards, writeset extract/apply and
//! the deterministic-vote cross-group commit do the work. A gain on the global path that costs the partial
//! path (or the reverse) shows here.
//!
//! Every key is fresh, so no two writesets conflict and every certifier
//! abort would be a false one. Hot-row updates were tried and dropped: on
//! this path a retried or network-reordered `ApplyWriteset` can land after
//! a later certified writeset of the same row, replicas of a group end up
//! different and acknowledged increments are lost (see the README), and a
//! gated workload must not report numbers from diverged replicas.

use std::collections::BTreeSet;

use replimid_core::{Cluster, ClusterConfig, Mode, Placement, Policy, TxSource};
use replimid_simnet::NodeId;

use super::gen::{is_paired_key, XGroup};
use super::*;

pub const GROUPS: usize = 8;
const CLIENTS: u64 = 32;
const TX_PER_CLIENT: u64 = 1_500;
const WARMUP_US: u64 = 200_000;
const DRAIN_US: u64 = 100_000;
/// Latency limit for `slo_ok_ratio`, in µs.
const SLO_US: u64 = 2_000;

pub fn schema() -> Vec<String> {
    let mut s = vec!["CREATE DATABASE bench".to_string(), "USE bench".to_string()];
    for g in 0..GROUPS {
        s.push(format!("CREATE TABLE t{g} (k INT PRIMARY KEY, v INT)"));
    }
    s
}

pub fn sources(seed: u64) -> Vec<Box<dyn TxSource>> {
    (0..CLIENTS)
        .map(|i| Box::new(XGroup::new(seed, i, i as usize % GROUPS)) as Box<dyn TxSource>)
        .collect()
}

fn config(o: &Opts) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(Mode::MultiMasterWriteset, schema(), "bench");
    cfg.seed = o.seed;
    cfg.backends_per_mw = GROUPS;
    cfg.mw.policy = Policy::RoundRobin;
    let mut placement = Placement::new((0..GROUPS).map(|g| vec![g & !1, (g & !1) + 1]).collect());
    for g in 0..GROUPS {
        placement = placement.assign(&format!("t{g}"), g);
    }
    cfg.mw.placement = Some(placement);
    cfg
}

pub fn rep(o: &Opts, t: &mut Tracer) -> Result<Rep, String> {
    let tx_limit = o.scaled(TX_PER_CLIENT);
    let (mut cluster, clients) = t.phase("bench.setup", |_| {
        let mut cluster = Cluster::build(config(o));
        let clients: Vec<NodeId> = (0..CLIENTS)
            .map(|i| {
                cluster.add_client(XGroup::new(o.seed, i, i as usize % GROUPS), |cc| {
                    cc.think_time_us = 200;
                    cc.request_timeout_us = 2_000_000;
                    cc.tx_limit = tx_limit;
                })
            })
            .collect();
        (cluster, clients)
    });
    let (rep, after) = run_closed_clients(
        &mut cluster,
        &clients,
        CLIENTS * tx_limit,
        (WARMUP_US, DRAIN_US),
        SLO_US,
        t,
    )?;

    t.phase("bench.check", |_| {
        // Per group: both hosts hold the same data (a host pair carries
        // the same two groups, so whole-backend checksums compare).
        let pairs: Vec<Vec<usize>> = (0..GROUPS).step_by(2).map(|g| vec![g, g + 1]).collect();
        check_checksums(&mut cluster, &pairs)?;
        // Every client finished its whole script (checked below), so the
        // generators say exactly which keys the run must have left behind.
        let mut want: Vec<BTreeSet<i64>> = vec![BTreeSet::new(); GROUPS];
        for i in 0..CLIENTS {
            let mut gen = XGroup::new(o.seed, i, i as usize % GROUPS);
            for _ in 0..tx_limit {
                let (key, groups) = gen.next_op();
                for g in groups {
                    want[g].insert(key);
                }
            }
        }
        let paired = |keys: &BTreeSet<i64>| -> BTreeSet<i64> {
            keys.iter().copied().filter(|&k| is_paired_key(k)).collect()
        };
        let mut have: Vec<BTreeSet<i64>> = Vec::new();
        for (g, want) in want.iter().enumerate() {
            let keys: BTreeSet<i64> =
                query_ints(&mut cluster, g & !1, &format!("SELECT k FROM t{g}"))?
                    .into_iter()
                    .map(|r| r[0])
                    .collect();
            ensure(&keys == want, || {
                format!(
                    "t{g}: {} committed inserts but {} rows present, e.g. key {:?}",
                    want.len(),
                    keys.len(),
                    keys.symmetric_difference(want).next()
                )
            })?;
            // Cross-group atomicity: a paired key is in both partner
            // tables or in neither.
            if g % 2 == 1 {
                ensure(paired(&keys) == paired(&have[g - 1]), || {
                    format!("paired keys differ between t{} and t{g}", g - 1)
                })?;
            }
            have.push(keys);
        }
        ensure(after.failed == 0, || {
            format!("{} transactions gave up after retries", after.failed)
        })?;
        check_no_other(&rep)
    })?;
    Ok(rep)
}
