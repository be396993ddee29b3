//! In-order delivery buffer with duplicate suppression and a retransmission
//! history (used by the view-change flush protocol) that keeps a delivered
//! record only until it is stable: delivered by every member that may ask
//! for it in a flush.

use std::collections::{BTreeMap, HashSet, VecDeque};

use crate::types::{MemberId, MsgId, OrderedRecord};

/// The most delivered records a member retains for retransmission during
/// view changes, stable or not. Must cover the divergence window between
/// the fastest and slowest member; sized generously. A member that stopped
/// reporting (crashed, partitioned) pins the history at this cap.
pub const HISTORY_CAP: usize = 1024;

#[derive(Debug, Clone)]
pub struct DeliveryBuffer<P> {
    /// Next sequence number to deliver.
    next_seq: u64,
    /// Out-of-order arrivals waiting for their predecessors.
    pending: BTreeMap<u64, OrderedRecord<P>>,
    /// (origin, id) of everything ever delivered (dedup across re-publish).
    delivered_ids: HashSet<(MemberId, MsgId)>,
    /// Delivered records above `stable`, at most `HISTORY_CAP` of them, for
    /// flush retransmission.
    history: VecDeque<OrderedRecord<P>>,
    /// Every member that may ask for a retransmission has delivered through
    /// this sequence number (`u64::MAX` when no other member may ask; 0
    /// until the owner says).
    stable: u64,
}

impl<P: Clone> DeliveryBuffer<P> {
    pub fn new() -> Self {
        DeliveryBuffer {
            next_seq: 1,
            pending: BTreeMap::new(),
            delivered_ids: HashSet::new(),
            history: VecDeque::new(),
            stable: 0,
        }
    }

    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Highest sequence number seen (delivered or buffered).
    pub fn max_seen(&self) -> u64 {
        let buffered = self.pending.keys().next_back().copied().unwrap_or(0);
        buffered.max(self.next_seq.saturating_sub(1))
    }

    pub fn is_delivered(&self, origin: MemberId, id: MsgId) -> bool {
        self.delivered_ids.contains(&(origin, id))
    }

    /// Accept a record; returns everything now deliverable, in order.
    /// A record whose (origin, id) was already delivered still *consumes*
    /// its sequence slot (drained silently) — otherwise a re-published
    /// duplicate would stall delivery at its assigned number forever.
    pub fn offer(&mut self, rec: OrderedRecord<P>) -> Vec<OrderedRecord<P>> {
        if rec.seq < self.next_seq {
            return Vec::new();
        }
        self.pending.entry(rec.seq).or_insert(rec);
        self.drain()
    }

    fn drain(&mut self) -> Vec<OrderedRecord<P>> {
        let mut out = Vec::new();
        while let Some(rec) = self.pending.remove(&self.next_seq) {
            self.next_seq += 1;
            if self.delivered_ids.insert((rec.origin, rec.id)) {
                self.retain(&rec);
                out.push(rec);
            }
        }
        out
    }

    /// Keep a copy of a just-delivered record unless it is already stable.
    fn retain(&mut self, rec: &OrderedRecord<P>) {
        if rec.seq <= self.stable {
            return;
        }
        self.history.push_back(rec.clone());
        if self.history.len() > HISTORY_CAP {
            self.history.pop_front();
        }
    }

    /// Every member that may ask for a retransmission has delivered through
    /// `stable` (`u64::MAX`: no other member may ask); drop what that makes
    /// stable.
    pub fn set_stable(&mut self, stable: u64) {
        self.stable = stable;
        while self.history.front().is_some_and(|r| r.seq <= stable) {
            self.history.pop_front();
        }
    }

    /// Delivered records held for retransmission.
    pub fn retained(&self) -> usize {
        self.history.len()
    }

    /// Sequence number of the oldest record held for retransmission.
    pub fn oldest_retained(&self) -> Option<u64> {
        self.history.front().map(|r| r.seq)
    }

    /// Deliver everything buffered below `horizon`, skipping holes (view
    /// change resolution: sequence numbers nobody in the surviving group
    /// holds are abandoned). Afterwards `next_seq == horizon`.
    pub fn skip_to(&mut self, horizon: u64) -> Vec<OrderedRecord<P>> {
        let mut out = Vec::new();
        while self.next_seq < horizon {
            if let Some(rec) = self.pending.remove(&self.next_seq) {
                if self.delivered_ids.insert((rec.origin, rec.id)) {
                    self.retain(&rec);
                    out.push(rec);
                }
            }
            self.next_seq += 1;
        }
        // Anything buffered beyond the horizon stays pending.
        out.extend(self.drain());
        out
    }

    /// Records this member can retransmit during a flush: its unstable
    /// history plus everything still buffered.
    pub fn retransmittable(&self) -> Vec<OrderedRecord<P>> {
        let mut out: Vec<OrderedRecord<P>> = self.history.iter().cloned().collect();
        out.extend(self.pending.values().cloned());
        out
    }
}

impl<P: Clone> Default for DeliveryBuffer<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, id: u64) -> OrderedRecord<u32> {
        OrderedRecord { seq, origin: MemberId(0), id: MsgId(id), payload: id as u32 }
    }

    #[test]
    fn in_order_delivery() {
        let mut b = DeliveryBuffer::new();
        assert_eq!(b.offer(rec(2, 2)).len(), 0, "gap at 1");
        let out = b.offer(rec(1, 1));
        assert_eq!(out.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(b.next_seq(), 3);
    }

    #[test]
    fn duplicates_suppressed() {
        let mut b = DeliveryBuffer::new();
        assert_eq!(b.offer(rec(1, 1)).len(), 1);
        assert_eq!(b.offer(rec(1, 1)).len(), 0, "same seq again");
        // Same message re-published under a new seq is also suppressed.
        assert_eq!(b.offer(rec(2, 1)).len(), 0);
        assert_eq!(b.next_seq(), 3, "seq consumed even though suppressed");
    }

    #[test]
    fn skip_to_abandons_holes() {
        let mut b = DeliveryBuffer::new();
        b.offer(rec(3, 3));
        b.offer(rec(5, 5));
        let out = b.skip_to(5);
        // 1, 2, 4 were holes; 3 delivered; 5 drains after the horizon.
        assert_eq!(out.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 5]);
        assert_eq!(b.next_seq(), 6);
    }

    #[test]
    fn retransmittable_covers_history_and_pending() {
        let mut b = DeliveryBuffer::new();
        b.offer(rec(1, 1));
        b.offer(rec(3, 3));
        let r = b.retransmittable();
        let seqs: Vec<u64> = r.iter().map(|x| x.seq).collect();
        assert!(seqs.contains(&1) && seqs.contains(&3));
    }

    #[test]
    fn the_history_keeps_only_what_is_not_stable() {
        let mut b = DeliveryBuffer::new();
        for s in 1..=5 {
            b.offer(rec(s, s));
        }
        assert_eq!(b.retained(), 5, "nothing is stable until the owner says");
        b.set_stable(3);
        assert_eq!((b.retained(), b.oldest_retained()), (2, Some(4)));
        b.offer(rec(6, 6));
        assert_eq!(b.retained(), 3);
        b.set_stable(u64::MAX);
        b.offer(rec(7, 7));
        assert_eq!((b.retained(), b.oldest_retained()), (0, None));
        let seqs: Vec<u64> = b.retransmittable().iter().map(|r| r.seq).collect();
        assert!(seqs.is_empty());
    }

    #[test]
    fn max_seen_tracks_both() {
        let mut b = DeliveryBuffer::new();
        assert_eq!(b.max_seen(), 0);
        b.offer(rec(1, 1));
        assert_eq!(b.max_seen(), 1);
        b.offer(rec(7, 7));
        assert_eq!(b.max_seen(), 7);
    }
}
