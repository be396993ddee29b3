//! Wire types and actions for the group communication substrate.

/// A group member. Distinct from any transport-level node id — the embedder
/// maps between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemberId(pub usize);

impl std::fmt::Display for MemberId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Monotonic view number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ViewId(pub u64);

/// The current membership. `members` is sorted; the lowest id is the
/// coordinator (and, in sequencer mode, the sequencer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    pub id: ViewId,
    pub members: Vec<MemberId>,
}

impl View {
    pub fn new(id: ViewId, mut members: Vec<MemberId>) -> Self {
        members.sort();
        members.dedup();
        View { id, members }
    }

    pub fn coordinator(&self) -> Option<MemberId> {
        self.members.first().copied()
    }

    pub fn contains(&self, m: MemberId) -> bool {
        self.members.binary_search(&m).is_ok()
    }

    /// Next member after `m` in ring order (token passing).
    pub fn successor(&self, m: MemberId) -> Option<MemberId> {
        if self.members.is_empty() {
            return None;
        }
        let idx = self.members.iter().position(|&x| x == m)?;
        Some(self.members[(idx + 1) % self.members.len()])
    }
}

/// Identifies a published message at its origin (dedup key together with
/// the origin id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgId(pub u64);

/// A message with its assigned global sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderedRecord<P> {
    pub seq: u64,
    pub origin: MemberId,
    pub id: MsgId,
    pub payload: P,
}

/// Protocol selection (§4.3.4.1 compares these classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderProtocol {
    /// Fixed sequencer: publishers unicast to the sequencer (lowest member
    /// id), which assigns sequence numbers and multicasts. One extra hop,
    /// but ordering latency is constant.
    FixedSequencer,
    /// Token ring: the token visits members in ring order; the holder
    /// orders its pending messages. No central hop, but ordering latency
    /// grows with group size.
    TokenRing,
}

/// Messages exchanged between group members.
#[derive(Debug, Clone, PartialEq)]
pub enum GcsMsg<P> {
    /// Publisher -> sequencer (sequencer mode only).
    Publish { id: MsgId, payload: P },
    /// Ordering broadcast.
    Ordered { view: ViewId, rec: OrderedRecord<P> },
    /// Liveness, carrying the sender's delivered prefix (its next sequence
    /// number − 1), below which peers may drop their retransmission history.
    Heartbeat { delivered: u64 },
    /// Coordinator -> members: report your state for view `proposed`.
    FlushReq { proposed: ViewId },
    /// Member -> coordinator: everything I have at or above my delivery
    /// horizon, plus the highest sequence number I have seen.
    FlushReply {
        proposed: ViewId,
        max_seen: u64,
        have: Vec<OrderedRecord<P>>,
    },
    /// Coordinator -> members: install the view; `fill` re-disseminates
    /// survivor-known messages; `next_seq` is where ordering resumes.
    NewView {
        view: View,
        next_seq: u64,
        fill: Vec<OrderedRecord<P>>,
    },
    /// The ordering token (token mode only).
    Token { view: ViewId, next_seq: u64 },
    /// A restarted/new member asking the coordinator to be admitted.
    JoinReq,
}

/// What the embedder must do after feeding an event into the member.
#[derive(Debug, Clone, PartialEq)]
pub enum Action<P> {
    /// Send a protocol message to another member.
    Send { to: MemberId, msg: GcsMsg<P> },
    /// Hand a totally-ordered payload to the application.
    Deliver { seq: u64, origin: MemberId, payload: P },
    /// Arm a timer; the embedder must call `on_timer(tag)` after `delay_us`.
    SetTimer { delay_us: u64, tag: u64 },
    /// A new view was installed (membership changed).
    ViewInstalled { view: View },
    /// This member now believes `member` has failed (diagnostics; the view
    /// change follows automatically).
    Suspected { member: MemberId },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_ring_order() {
        let v = View::new(ViewId(1), vec![MemberId(3), MemberId(1), MemberId(5)]);
        assert_eq!(v.coordinator(), Some(MemberId(1)));
        assert_eq!(v.successor(MemberId(1)), Some(MemberId(3)));
        assert_eq!(v.successor(MemberId(5)), Some(MemberId(1)));
        assert_eq!(v.successor(MemberId(9)), None);
        assert!(v.contains(MemberId(3)));
        assert!(!v.contains(MemberId(2)));
    }

    #[test]
    fn view_dedups_members() {
        let v = View::new(ViewId(0), vec![MemberId(2), MemberId(2), MemberId(0)]);
        assert_eq!(v.members, vec![MemberId(0), MemberId(2)]);
    }
}
