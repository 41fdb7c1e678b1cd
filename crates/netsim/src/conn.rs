//! Connection state: per-direction segment queues, windows, and
//! acknowledgement tracking.
//!
//! Segment queues are run-length encoded: an application message of
//! `n × MSS + r` bytes is two runs (`n` full segments, then one `r`-byte
//! segment flagged as the message boundary), so a 100-MB Hadoop transfer
//! costs O(1) memory rather than one entry per packet.

use crate::packet::{ConnId, Dir, FlowKey};
use serde::{Content, DeError, Deserialize, DeserializeRow, Serialize, SerializeRow, Sink};
use sonet_topology::LinkId;
use sonet_util::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One run of identical segments awaiting transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, SerializeRow, DeserializeRow)]
pub(crate) struct SegRun {
    /// Number of segments in the run.
    pub count: u64,
    /// Payload bytes per segment.
    pub payload: u32,
    /// Application message these segments belong to.
    pub msg: u32,
    /// True if the single segment in this run closes the message
    /// (`count` must be 1 when set).
    pub last_of_msg: bool,
}

/// A popped segment ready to become a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segment {
    pub payload: u32,
    pub msg: u32,
    pub last_of_msg: bool,
}

/// Run-length-encoded FIFO of segments.
#[derive(Debug, Clone, Default, SerializeRow, DeserializeRow)]
pub(crate) struct SegQueue {
    runs: VecDeque<SegRun>,
    segments: u64,
}

impl SegQueue {
    /// Appends the segments of a `bytes`-long message with id `msg`.
    ///
    /// Zero-byte messages enqueue nothing.
    pub fn push_message(&mut self, bytes: u64, mss: u32, msg: u32) {
        if bytes == 0 {
            return;
        }
        let mss64 = mss as u64;
        let full = bytes / mss64;
        let rem = (bytes % mss64) as u32;
        if rem > 0 {
            if full > 0 {
                self.push_run(SegRun {
                    count: full,
                    payload: mss,
                    msg,
                    last_of_msg: false,
                });
            }
            self.push_run(SegRun {
                count: 1,
                payload: rem,
                msg,
                last_of_msg: true,
            });
        } else {
            if full > 1 {
                self.push_run(SegRun {
                    count: full - 1,
                    payload: mss,
                    msg,
                    last_of_msg: false,
                });
            }
            self.push_run(SegRun {
                count: 1,
                payload: mss,
                msg,
                last_of_msg: true,
            });
        }
    }

    fn push_run(&mut self, run: SegRun) {
        debug_assert!(!run.last_of_msg || run.count == 1);
        self.segments += run.count;
        // Coalesce with the tail when identical in everything but count.
        if let Some(tail) = self.runs.back_mut() {
            if !tail.last_of_msg
                && !run.last_of_msg
                && tail.payload == run.payload
                && tail.msg == run.msg
            {
                tail.count += run.count;
                return;
            }
        }
        self.runs.push_back(run);
    }

    /// Pops the next segment, if any.
    pub fn pop(&mut self) -> Option<Segment> {
        let front = self.runs.front_mut()?;
        let seg = Segment {
            payload: front.payload,
            msg: front.msg,
            last_of_msg: front.last_of_msg,
        };
        front.count -= 1;
        if front.count == 0 {
            self.runs.pop_front();
        }
        self.segments -= 1;
        Some(seg)
    }

    /// Appends one already-popped segment (used to track unacked segments).
    pub fn push_seg(&mut self, seg: Segment) {
        self.push_run(SegRun {
            count: 1,
            payload: seg.payload,
            msg: seg.msg,
            last_of_msg: seg.last_of_msg,
        });
    }

    /// Prepends all runs of `other` ahead of this queue (retransmission).
    pub fn prepend(&mut self, mut other: SegQueue) {
        while let Some(run) = other.runs.pop_back() {
            self.segments += run.count;
            self.runs.push_front(run);
        }
    }

    /// Number of queued segments.
    #[allow(dead_code)] // used by tests and kept for queue introspection
    pub fn len(&self) -> u64 {
        self.segments
    }

    /// True when no segments are queued.
    #[allow(dead_code)] // used by tests and kept for queue introspection
    pub fn is_empty(&self) -> bool {
        self.segments == 0
    }
}

/// Sender + receiver state for one direction of a connection.
#[derive(Debug, Clone, Default, SerializeRow, DeserializeRow)]
pub(crate) struct DirState {
    /// Segments not yet put on the wire.
    pub pending: SegQueue,
    /// Segments on the wire, not yet acknowledged (for go-back-N).
    pub unacked: SegQueue,
    /// Cumulative segments handed to the wire (resets to `acked` on RTO).
    pub sent: u64,
    /// Cumulative segments acknowledged by the peer.
    pub acked: u64,
    /// Receiver side: cumulative in-order segments received.
    pub received: u64,
    /// Receiver side: data segments since the last ACK we sent.
    pub unacked_by_us: u32,
    /// Receiver side: highest message id whose final segment was delivered.
    pub last_msg_completed: Option<u32>,
    /// Whether an RTO timer event is currently scheduled.
    pub rto_armed: bool,
    /// Value of `acked` when the current RTO timer was armed; progress
    /// since arming re-arms instead of retransmitting.
    pub acked_at_arm: u64,
    /// Retransmissions fired since the last acknowledgement progress;
    /// the engine aborts the connection when this exceeds its cap while
    /// the route is broken.
    pub consecutive_rtos: u32,
}

impl DirState {
    /// Segments currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.sent - self.acked
    }
}

/// Lifecycle of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum ConnPhase {
    /// SYN sent, not yet accepted.
    Opening,
    /// Established.
    Open,
    /// FIN sent or received; no new messages may be queued.
    Closed,
}

/// Metadata for a message queued by the application: what the server
/// should send back and after how long, plus when the client issued it
/// (for latency accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, SerializeRow, DeserializeRow)]
pub(crate) struct MsgMeta {
    pub response_bytes: u64,
    pub service_time: SimDuration,
    pub issued_at: SimTime,
}

/// Full state of one simulated connection.
///
/// Serialized (only into checkpoints) as one positional row of
/// [`CONN_CELLS`] cells: its fields in declaration order, with `id` and
/// `key` written inline as their own fields (`idx, gen` and `client,
/// server, client_port, server_port`).
#[derive(Debug, Clone)]
pub(crate) struct Conn {
    #[allow(dead_code)] // identity kept for debugging/assertions
    pub id: ConnId,
    pub key: FlowKey,
    pub phase: ConnPhase,
    /// Route for client→server packets.
    pub route_fwd: Vec<LinkId>,
    /// Route for server→client packets.
    pub route_rev: Vec<LinkId>,
    /// Client→server direction state.
    pub c2s: DirState,
    /// Server→client direction state.
    pub s2c: DirState,
    /// Per-request metadata, indexed by client message id.
    pub msg_meta: Vec<MsgMeta>,
    /// Issue time of the request each server response answers, indexed by
    /// server message id (latency accounting).
    pub resp_req_issued: Vec<SimTime>,
    /// Messages queued while the handshake is still in progress:
    /// `(request_bytes, meta)` pairs released when the SYN-ACK arrives.
    pub pre_open: Vec<(u64, MsgMeta)>,
    /// Server-side message id counter (responses).
    pub next_server_msg: u32,
    /// SYNs emitted so far (handshake retries back off exponentially and
    /// give up at the configured cap).
    pub syn_attempts: u32,
    /// Time the connection was opened (SYN emission).
    #[allow(dead_code)] // retained for debugging and future duration accounting
    pub opened_at: SimTime,
}

/// Cells in a serialized [`Conn`] row.
const CONN_CELLS: usize = 17;

impl Serialize for Conn {
    fn serialize<S: Sink + ?Sized>(&self, s: &mut S) {
        s.seq_begin(CONN_CELLS);
        self.id.idx.serialize(s);
        self.id.gen.serialize(s);
        self.key.client.serialize(s);
        self.key.server.serialize(s);
        self.key.client_port.serialize(s);
        self.key.server_port.serialize(s);
        self.phase.serialize(s);
        self.route_fwd.serialize(s);
        self.route_rev.serialize(s);
        self.c2s.serialize(s);
        self.s2c.serialize(s);
        self.msg_meta.serialize(s);
        self.resp_req_issued.serialize(s);
        self.pre_open.serialize(s);
        self.next_server_msg.serialize(s);
        self.syn_attempts.serialize(s);
        self.opened_at.serialize(s);
        s.seq_end();
    }
}

impl Deserialize for Conn {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let r = serde::row(c, CONN_CELLS, "Conn")?;
        Ok(Conn {
            id: ConnId {
                idx: serde::cell(r, 0, "Conn.id.idx")?,
                gen: serde::cell(r, 1, "Conn.id.gen")?,
            },
            key: FlowKey {
                client: serde::cell(r, 2, "Conn.key.client")?,
                server: serde::cell(r, 3, "Conn.key.server")?,
                client_port: serde::cell(r, 4, "Conn.key.client_port")?,
                server_port: serde::cell(r, 5, "Conn.key.server_port")?,
            },
            phase: serde::cell(r, 6, "Conn.phase")?,
            route_fwd: serde::cell(r, 7, "Conn.route_fwd")?,
            route_rev: serde::cell(r, 8, "Conn.route_rev")?,
            c2s: serde::cell(r, 9, "Conn.c2s")?,
            s2c: serde::cell(r, 10, "Conn.s2c")?,
            msg_meta: serde::cell(r, 11, "Conn.msg_meta")?,
            resp_req_issued: serde::cell(r, 12, "Conn.resp_req_issued")?,
            pre_open: serde::cell(r, 13, "Conn.pre_open")?,
            next_server_msg: serde::cell(r, 14, "Conn.next_server_msg")?,
            syn_attempts: serde::cell(r, 15, "Conn.syn_attempts")?,
            opened_at: serde::cell(r, 16, "Conn.opened_at")?,
        })
    }
}

impl Conn {
    pub fn dir_mut(&mut self, dir: Dir) -> &mut DirState {
        match dir {
            Dir::ClientToServer => &mut self.c2s,
            Dir::ServerToClient => &mut self.s2c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_segmentation_exact_multiple() {
        let mut q = SegQueue::default();
        q.push_message(2920, 1460, 0); // exactly 2 MSS
        assert_eq!(q.len(), 2);
        let a = q.pop().expect("first");
        assert_eq!((a.payload, a.last_of_msg), (1460, false));
        let b = q.pop().expect("second");
        assert_eq!((b.payload, b.last_of_msg), (1460, true));
        assert!(q.pop().is_none());
    }

    #[test]
    fn message_segmentation_with_remainder() {
        let mut q = SegQueue::default();
        q.push_message(3000, 1460, 7);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().expect("seg").payload, 1460);
        assert_eq!(q.pop().expect("seg").payload, 1460);
        let last = q.pop().expect("seg");
        assert_eq!(last.payload, 80);
        assert!(last.last_of_msg);
        assert_eq!(last.msg, 7);
    }

    #[test]
    fn small_message_is_single_boundary_segment() {
        let mut q = SegQueue::default();
        q.push_message(100, 1460, 3);
        assert_eq!(q.len(), 1);
        let s = q.pop().expect("seg");
        assert!(s.last_of_msg);
        assert_eq!(s.payload, 100);
    }

    #[test]
    fn zero_byte_message_enqueues_nothing() {
        let mut q = SegQueue::default();
        q.push_message(0, 1460, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn huge_message_uses_constant_runs() {
        let mut q = SegQueue::default();
        q.push_message(100 << 20, 1460, 0); // 100 MB
        assert!(
            q.runs.len() <= 2,
            "RLE should keep runs tiny: {}",
            q.runs.len()
        );
        assert_eq!(q.len(), (100u64 << 20).div_ceil(1460));
    }

    #[test]
    fn coalescing_adjacent_full_runs() {
        let mut q = SegQueue::default();
        // Two messages with the same id never happen, but runs from the same
        // message with equal payload coalesce.
        q.push_message(1460 * 10, 1460, 1);
        assert_eq!(q.runs.len(), 2); // 9 full + 1 boundary
    }

    #[test]
    fn prepend_restores_fifo_order() {
        let mut pending = SegQueue::default();
        pending.push_message(100, 1460, 2);
        let mut unacked = SegQueue::default();
        unacked.push_message(3000, 1460, 1);
        pending.prepend(unacked);
        assert_eq!(pending.len(), 4);
        assert_eq!(pending.pop().expect("seg").msg, 1); // retransmitted first
        assert_eq!(pending.pop().expect("seg").msg, 1);
        assert_eq!(pending.pop().expect("seg").msg, 1);
        assert_eq!(pending.pop().expect("seg").msg, 2);
    }

    #[test]
    fn in_flight_accounting() {
        let mut d = DirState::default();
        d.sent = 10;
        d.acked = 4;
        assert_eq!(d.in_flight(), 6);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Segmentation conserves payload exactly: popping everything
            /// returns the message byte-for-byte, with exactly one
            /// boundary segment per message, in FIFO order.
            #[test]
            fn segmentation_conserves_bytes(
                msgs in prop::collection::vec(1u64..5_000_000, 1..20),
                mss in 100u32..9000,
            ) {
                let mut q = SegQueue::default();
                for (i, &m) in msgs.iter().enumerate() {
                    q.push_message(m, mss, i as u32);
                }
                let mut total = 0u64;
                let mut boundaries = 0usize;
                let mut last_msg = None;
                while let Some(seg) = q.pop() {
                    prop_assert!(seg.payload >= 1 && seg.payload <= mss);
                    total += seg.payload as u64;
                    if seg.last_of_msg {
                        boundaries += 1;
                    }
                    if let Some(prev) = last_msg {
                        prop_assert!(seg.msg >= prev, "FIFO order violated");
                    }
                    last_msg = Some(seg.msg);
                }
                prop_assert_eq!(total, msgs.iter().sum::<u64>());
                prop_assert_eq!(boundaries, msgs.len());
                prop_assert!(q.is_empty());
            }

            /// prepend(unacked) + pending preserves total counts under any
            /// interleaving of pushes and pops (the go-back-N path).
            #[test]
            fn prepend_conserves_counts(
                first in 1u64..100_000,
                second in 1u64..100_000,
                pops in 0usize..40,
            ) {
                let mss = 1460u32;
                let mut pending = SegQueue::default();
                pending.push_message(first, mss, 0);
                let mut unacked = SegQueue::default();
                let mut moved = 0u64;
                for _ in 0..pops {
                    if let Some(seg) = pending.pop() {
                        unacked.push_seg(seg);
                        moved += 1;
                    }
                }
                pending.push_message(second, mss, 1);
                let before = pending.len() + unacked.len();
                prop_assert_eq!(unacked.len(), moved);
                pending.prepend(unacked);
                prop_assert_eq!(pending.len(), before);
            }
        }
    }
}
