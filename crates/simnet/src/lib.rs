//! # replimid-simnet
//!
//! Deterministic discrete-event cluster simulator: virtual time, actors with
//! message passing and timers, per-node busy-time (single-server queueing),
//! a network model with latency/jitter/loss/partitions, and scheduled fault
//! injection (crash, restart, partition, heal).
//!
//! This is the "testbed" substrate for the replication middleware: the paper
//! (§5.1) asks for benchmarks that integrate fault injection and replayable
//! workloads; a seeded simulation gives exactly that.

pub mod disk;
pub mod net;
pub mod sim;
pub mod time;

pub use disk::DiskModel;
pub use net::{Delivery, LinkFault, LinkSpec, NetworkModel, NodeId};
pub use sim::{Actor, AnyActor, ControlOp, Ctx, Sim, SimStats, TimerId};
pub use time::{dur, SimTime};
