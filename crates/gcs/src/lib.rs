//! # replimid-gcs
//!
//! Sans-I/O group communication for database replication (paper §4.3.4.1):
//! totally-ordered multicast via a fixed sequencer or a token ring, a
//! heartbeat failure detector with tunable timeouts (§4.3.4.2), and
//! view-synchronous membership with a stop-the-world flush on view changes.
//!
//! Everything is a pure state machine: callers feed messages, timers, and
//! publishes, and carry out the returned [`Action`]s. The replication
//! middleware embeds [`GroupMember`] into simulator actors; experiment E14
//! measures the two ordering protocols against each other, and E11 sweeps
//! the failure-detector timeout tradeoff.

pub mod buffer;
pub mod detector;
pub mod member;
pub mod sharded;
pub mod types;

pub use buffer::DeliveryBuffer;
pub use detector::{FailureDetector, FdEvent, HeartbeatConfig};
pub use member::{GcsConfig, GroupMember, TICK_TAG};
pub use sharded::ShardedMember;
pub use types::{Action, GcsMsg, MemberId, MsgId, OrderProtocol, OrderedRecord, View, ViewId};
