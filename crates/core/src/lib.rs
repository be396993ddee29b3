//! # replimid-core
//!
//! Middleware-based database replication — the primary contribution of the
//! reproduction of Cecchet, Candea & Ailamaki (SIGMOD 2008). See DESIGN.md
//! at the workspace root for the architecture and the per-experiment index.

pub mod backoff;
pub mod balancer;
pub mod certifier;
pub mod client;
pub mod cluster;
pub mod db_node;
pub mod driver;
pub mod fleet;
pub mod health;
pub mod metrics;
pub mod middleware;
pub mod msg;
pub mod partition;
pub mod recovery;
pub mod rewrite;
pub mod session;
pub mod trace;

pub use backoff::{delay_us as backoff_delay_us, BackoffConfig};
pub use balancer::{Balancer, Granularity, Policy};
pub use certifier::{Certifier, CertifierStats, Verdict};
pub use client::{Client, ClientConfig, ClientMetrics, ScriptSource};
pub use cluster::{Cluster, ClusterConfig};
pub use db_node::{DbNode, RecoveryInfo};
pub use driver::{ArrivalProcess, Driver, DriverMetrics, OpenLoopConfig, OpenLoopMetrics, TxSource};
pub use fleet::{FleetConfig, FleetMetrics};
pub use health::{HealthEvent, HealthState, HealthTracker, QuarantineConfig};
pub use metrics::{AvailabilityTracker, Counters, DegradedTracker, Histogram};
pub use middleware::{Middleware, Mode, MwConfig, MwMetrics, ReadPolicy};
pub use msg::{AdminCmd, BackendId, ClientReply, ClientRequest, Msg, ReplyBody, ReplyError, SessionId};
pub use partition::{PartitionScheme, Placement};
pub use recovery::{RecoveryLog, ReplayMode};
pub use rewrite::NondetPolicy;
pub use session::SessionTable;
pub use trace::{CompletedTrace, SpanRec, Stage, TraceId, TraceSink, TraceSummary};

/// `REPLIMID_DEBUG` is set: stream middleware-level event traces to stderr.
/// Read once per process — several call sites sit on per-request paths.
pub(crate) fn debug_on() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var("REPLIMID_DEBUG").is_ok())
}
