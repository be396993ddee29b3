//! The session fleet: the load driver with up to 10⁶ closed-loop sessions
//! on one middleware, one slot each — a node per session would drown the
//! simulator in actors before the middleware's session storage (the thing
//! under test) is touched. Each slot reads and writes its own key and
//! checks read-your-writes and monotonic reads; a failed or timed-out
//! request is an error, never retried.

use replimid_simnet::NodeId;

use crate::driver::{Arrival, Driver, DriverMetrics, Retry, Source};
use crate::metrics::Histogram;

#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// First session id; the fleet owns ids `[first_session, ..)`.
    pub first_session: u64,
    /// Number of concurrently live sessions (slots).
    pub sessions: usize,
    /// The middleware every request goes to.
    pub middleware: NodeId,
    /// Closed-loop think time between a reply and the slot's next request.
    pub think_time_us: u64,
    /// Slot starts spread over this window: a ramp, not one burst.
    pub ramp_us: u64,
    /// Writes per thousand requests (the rest are reads).
    pub write_permille: u32,
    /// Shard the keys over `bench_<t>` tables of this many keys (as
    /// `micro::sharded_schema` does); 0 = the single `bench` table.
    pub keys_per_table: usize,
    /// Give up on a request after this long: an error, and the slot moves on.
    pub request_timeout_us: u64,
    /// Every Nth slot but slot 0 only reads its left neighbour's key: with
    /// no writes of its own, the monotonic-reads litmus. 0 = off.
    pub observer_every: usize,
}

impl FleetConfig {
    pub fn new(first_session: u64, sessions: usize, middleware: NodeId) -> Self {
        FleetConfig {
            first_session, sessions, middleware, think_time_us: 1_000, ramp_us: 500_000,
            write_permille: 200, keys_per_table: 0, request_timeout_us: 2_000_000, observer_every: 0,
        }
    }
}

/// Aggregated fleet measurements: a view of its [`DriverMetrics`].
#[derive(Debug, Clone, Default)]
pub struct FleetMetrics {
    pub reads: u64,
    pub writes: u64,
    pub errors: u64,
    /// Reads older than the slot's last acked write: 0 under RYW policies.
    pub ryw_violations: u64,
    /// Reads older than an earlier read of the session: 0 under
    /// `MonotonicReads` and `Fresh`; `Any` routing produces them freely.
    pub monotonic_violations: u64,
    pub read_latency: Histogram,
    pub write_latency: Histogram,
}

impl From<&DriverMetrics> for FleetMetrics {
    fn from(m: &DriverMetrics) -> Self {
        FleetMetrics {
            reads: m.committed - m.writes, writes: m.writes, errors: m.failed,
            ryw_violations: m.ryw_violations, monotonic_violations: m.monotonic_violations,
            read_latency: m.read_latency.clone(), write_latency: m.write_latency.clone(),
        }
    }
}

impl Driver {
    /// A session fleet: `sessions` slots ramping in, no retries.
    pub fn fleet(cfg: FleetConfig) -> Driver {
        let (think_us, ramp_us) = (cfg.think_time_us, cfg.ramp_us);
        let arrival = Arrival::Closed { think_us, first_us: 1, ramp_us, tx_limit: 0 };
        let (write_permille, keys_per_table, observer_every) =
            (cfg.write_permille, cfg.keys_per_table, cfg.observer_every);
        let source = Source::SlotKeys { write_permille, keys_per_table, observer_every };
        let (mw, timeout) = (vec![cfg.middleware], cfg.request_timeout_us);
        let retry = Retry::Requeue { max_retries: 0 };
        Driver::build(cfg.first_session, cfg.sessions, mw, timeout, arrival, retry, source)
    }
}
