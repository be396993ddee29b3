//! # replimid-workload
//!
//! Seeded workload generators and fault schedules for the replication
//! experiments. Each generator implements `replimid_core::TxSource` and
//! comes with a schema builder, so a cluster plus workload is two calls.
//!
//! Workloads, mapped to the paper:
//!
//! * [`broker`] — the Fortune-500 travel-broker mix from the introduction:
//!   95% reads / 5% writes, but at volumes where the 5% dominates.
//! * [`micro`] — microbenchmarks: keyed updates with a controllable conflict
//!   rate (for the consistency-spectrum experiment) and read-only point
//!   queries.
//! * [`batch`] — the sequential batch-update job of §4.4.5 (latency-bound,
//!   no parallelism: the case replicated databases serve worst).
//! * [`faults`] — Poisson fault schedules at the paper's observed rate of
//!   one fatal failure per day per 200 processors (§2.2).
//! * [`openloop`] — an open-loop heavy-traffic driver (Poisson/diurnal
//!   arrivals, bounded admission, explicit shed counter) for the
//!   elasticity experiments: arrivals do not wait for completions, so
//!   overload during a management operation is observable.

pub mod batch;
pub mod broker;
pub mod faults;
pub mod micro;
pub mod openloop;

pub use batch::BatchUpdate;
pub use broker::Broker;
pub use faults::{FaultSchedule, GrayFault, GrayFaultSchedule, GrayKind, GraySpec};
pub use micro::{KeyedUpdates, PointReads, ReadWriteMix};
pub use openloop::{add_open_loop, open_loop_metrics, ArrivalProcess, OpenLoopConfig, OpenLoopMetrics};
