//! `write-sat` — closed loop, 32 virtual clients, think 100 µs, fixed work.
//!
//! The saturated global write path: statement-mode multi-master over three
//! backends, fresh-key inserts into eight disjoint tables, group commit
//! 32/200 µs, plan cache 256, round-robin. `core::middleware` ordering,
//! batching and fan-out, `gcs`, three `sql` inserts per statement and
//! `simnet` do nearly all the work; reads, the certifier, the WAL and the
//! session fleet do none.

use replimid_core::{Cluster, ClusterConfig, Mode, NondetPolicy, Policy, TxSource};
use replimid_simnet::NodeId;

use super::gen::{ShardedInsert, INSERT_TABLES};
use super::*;

pub const CLIENTS: u64 = 32;
const TX_PER_CLIENT: u64 = 2_500;
const WARMUP_US: u64 = 200_000;
const DRAIN_US: u64 = 50_000;
/// Latency limit for `slo_ok_ratio`, in µs.
const SLO_US: u64 = 800;

pub fn schema() -> Vec<String> {
    let mut s = vec!["CREATE DATABASE bench".to_string(), "USE bench".to_string()];
    s.extend((0..INSERT_TABLES).map(|t| format!("CREATE TABLE t{t} (k INT PRIMARY KEY, v INT)")));
    s
}

pub fn sources(seed: u64) -> Vec<Box<dyn TxSource>> {
    (0..CLIENTS)
        .map(|i| Box::new(ShardedInsert::new(seed, i)) as Box<dyn TxSource>)
        .collect()
}

fn config(o: &Opts) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement {
            nondet: NondetPolicy::RewriteAndReject,
        },
        schema(),
        "bench",
    );
    cfg.seed = o.seed;
    cfg.backends_per_mw = 3;
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.batch_max = 32;
    cfg.mw.batch_deadline_us = 200;
    cfg.mw.plan_cache = 256;
    cfg
}

pub fn rep(o: &Opts, t: &mut Tracer) -> Result<Rep, String> {
    let tx_limit = o.scaled(TX_PER_CLIENT);
    let (mut cluster, clients) = t.phase("bench.setup", |_| {
        let mut cluster = Cluster::build(config(o));
        let clients: Vec<NodeId> = (0..CLIENTS)
            .map(|i| {
                cluster.add_client(ShardedInsert::new(o.seed, i), |cc| {
                    cc.think_time_us = 100;
                    cc.request_timeout_us = 2_000_000;
                    cc.tx_limit = tx_limit;
                })
            })
            .collect();
        (cluster, clients)
    });
    let target = CLIENTS * tx_limit;
    let (rep, after) = run_closed_clients(
        &mut cluster,
        &clients,
        target,
        (WARMUP_US, DRAIN_US),
        SLO_US,
        t,
    )?;

    t.phase("bench.check", |_| {
        check_checksums(&mut cluster, &[vec![0, 1, 2]])?;
        let mut rows = 0;
        for tbl in 0..INSERT_TABLES {
            rows += query_scalar(&mut cluster, 0, &format!("SELECT COUNT(*) FROM t{tbl}"))?;
        }
        ensure(rows as u64 == after.committed, || {
            format!(
                "{} transactions committed but {rows} rows present",
                after.committed
            )
        })?;
        ensure(after.committed == target, || {
            format!(
                "only {} of {target} transactions committed",
                after.committed
            )
        })?;
        check_no_other(&rep)
    })?;
    Ok(rep)
}
