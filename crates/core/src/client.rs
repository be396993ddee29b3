//! The closed-loop client: the load driver with one session, running
//! transactions from a [`TxSource`], retrying retryable aborts in place and
//! failing over between middlewares on timeout — the behaviour §4.3.3 says
//! real drivers need and mostly lack.

use std::collections::BTreeMap;

use replimid_det::DetRng;
use replimid_simnet::NodeId;

use crate::driver::{Arrival, Driver, DriverMetrics, Retry, Source, TxSource};
use crate::metrics::Histogram;
use crate::msg::SessionId;
use crate::trace::TraceSink;

/// A fixed script, cycled forever (test helper).
pub struct ScriptSource {
    pub txs: Vec<Vec<String>>,
    cursor: usize,
}

impl ScriptSource {
    pub fn new(txs: Vec<Vec<String>>) -> Self {
        ScriptSource { txs, cursor: 0 }
    }
}

impl TxSource for ScriptSource {
    fn next_tx(&mut self, _rng: &mut DetRng) -> Vec<String> {
        let tx = self.txs[self.cursor % self.txs.len()].clone();
        self.cursor += 1;
        tx
    }
}

/// The client actor is the load driver.
pub type Client = Driver;

#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub session: SessionId,
    /// Middleware nodes, in failover preference order.
    pub middlewares: Vec<NodeId>,
    /// Closed-loop think time between transactions.
    pub think_time_us: u64,
    /// Per-statement timeout before failing over to the next middleware.
    pub request_timeout_us: u64,
    /// Retries of retryable aborts, each after `BackoffConfig::client()`.
    pub max_retries: u32,
    /// Start no transaction after this many ended (0 = no limit).
    pub tx_limit: u64,
}

impl ClientConfig {
    pub fn new(session: SessionId, middlewares: Vec<NodeId>) -> Self {
        let (think_time_us, request_timeout_us, max_retries, tx_limit) = (1_000, 500_000, 5, 0);
        ClientConfig { session, middlewares, think_time_us, request_timeout_us, max_retries, tx_limit }
    }
}

/// Per-client measurements: a view of its [`DriverMetrics`].
#[derive(Debug, Clone, Default)]
pub struct ClientMetrics {
    pub committed: u64,
    pub aborted: u64,
    pub failed: u64,
    pub timeouts: u64,
    /// Every timeout fails over to the next middleware.
    pub failovers: u64,
    pub stmt_latency: Histogram,
    pub tx_latency: Histogram,
    /// Committed-transaction count per virtual second (throughput series).
    pub commits_per_sec: BTreeMap<u64, u64>,
    /// The most recent error, for diagnostics.
    pub last_error: Option<String>,
    /// One trace per transaction, retries included.
    pub trace: TraceSink,
}

impl From<&DriverMetrics> for ClientMetrics {
    fn from(m: &DriverMetrics) -> Self {
        let by_sec = |series: &[u64]| {
            let seconds = series.iter().enumerate().filter(|(_, &n)| n > 0);
            seconds.map(|(sec, &n)| (sec as u64, n)).collect()
        };
        ClientMetrics {
            committed: m.committed, aborted: m.aborted, failed: m.failed,
            timeouts: m.timeouts, failovers: m.timeouts,
            stmt_latency: m.stmt_latency.clone(), tx_latency: m.tx_latency.clone(),
            commits_per_sec: by_sec(&m.per_sec_committed),
            last_error: m.last_error.clone(), trace: m.trace.clone(),
        }
    }
}

impl Driver {
    /// A closed-loop client: one session, in-place retries, failover. Its
    /// start is staggered a little by session id, against lockstep.
    pub fn client(cfg: ClientConfig, source: impl TxSource + 'static) -> Driver {
        let (think_us, tx_limit) = (cfg.think_time_us, cfg.tx_limit);
        let arrival = Arrival::Closed { think_us, first_us: 1_000 + (cfg.session.0 % 97) * 100, ramp_us: 0, tx_limit };
        let retry = Retry::InPlace { max_retries: cfg.max_retries };
        let source = Source::Tx(Box::new(source));
        Driver::build(cfg.session.0, 1, cfg.middlewares, cfg.request_timeout_us, arrival, retry, source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_source_cycles() {
        let mut s = ScriptSource::new(vec![vec!["SELECT 1".into()], vec!["SELECT 2".into()]]);
        let mut rng = DetRng::seed_from_u64(0);
        assert_eq!(s.next_tx(&mut rng)[0], "SELECT 1");
        assert_eq!(s.next_tx(&mut rng)[0], "SELECT 2");
        assert_eq!(s.next_tx(&mut rng)[0], "SELECT 1");
    }
}
