//! Sessions and request slots (§4.3).
//!
//! A session is a one-to-one connection between two `Rpc` endpoints (two
//! user threads). Each session supports a constant number of concurrent
//! outstanding requests tracked in *slots* (default 8); further requests
//! are transparently queued in a backlog. Packet-level flow control uses
//! *session credits* (§4.3.1): a client may have at most `C` packets
//! un-replied-to per session, which (a) can never overflow the server's RX
//! descriptors if sessions ≤ |RQ|/C, and (b) bounds in-flight data to one
//! BDP when C = BDP/MTU, which is the paper's loss-avoidance mechanism.

use std::collections::VecDeque;

use erpc_congestion::{Dcqcn, Timely};
use erpc_transport::Addr;

use crate::msgbuf::MsgBuf;
use crate::rpc::Continuation;

/// Opaque handle to a client session, returned by `Rpc::create_session`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionHandle(pub(crate) u16);

impl SessionHandle {
    /// The endpoint-local session number.
    pub fn num(&self) -> u16 {
        self.0
    }

    /// A handle that never names a live session (sentinel for tests and
    /// not-yet-connected placeholders); using it in any call yields
    /// [`crate::RpcError::InvalidSession`].
    pub fn invalid() -> Self {
        SessionHandle(u16::MAX)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// ConnectReq sent, awaiting ConnectResp.
    Connecting,
    Connected,
    /// DisconnectReq sent, awaiting DisconnectResp.
    Disconnecting,
    /// Management layer declared the peer dead (Appendix B).
    Failed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Client,
    Server,
}

/// A request on its way into a slot: handed straight to `start_request`
/// when one is free, queued in the session's backlog when all are busy
/// (§4.3: "additional requests are transparently queued by eRPC").
/// Carries its owned continuation: per-request state travels with the
/// request, not through a registration table.
pub(crate) struct PendingReq {
    pub req_type: u8,
    pub req: MsgBuf,
    pub resp: MsgBuf,
    pub cont: Continuation,
    /// When the application enqueued the request. Backlog time counts
    /// toward `Completion::latency_ns` (enqueue → continuation), so this
    /// travels into the slot's `start_ns` unchanged.
    pub enqueue_ns: u64,
}

/// Client-side slot: wire-protocol state for one outstanding request.
///
/// Following eRPC, the whole client protocol state is two counters over a
/// unified packet sequence (§5.3 makes rollback "simple go-back-N" exactly
/// because of this):
///
/// * TX sequence `k` is request packet `k` while `k < N` (N = request
///   packets), and the RFR for response packet `k − N + 1` otherwise.
/// * RX sequence `k` is the CR for request packet `k` while `k < N − 1`,
///   and response packet `k − N + 1` otherwise. The first response packet
///   jumps `num_rx` to `N` because it acknowledges every request packet
///   (§5.1: implicit credit return).
///
/// Invariants:
/// * `num_rx ≤ num_tx ≤ num_rx + C` — in-flight packets consume session
///   credits, so `num_tx − num_rx` is exactly this slot's credit hold.
/// * Rollback = `num_tx ← num_rx` plus returning that many credits.
pub(crate) struct ClientSlot {
    pub active: bool,
    /// Request number: starts at the slot index and advances by the slot
    /// count, so (session, slot) → monotone non-overlapping req_nums.
    pub req_num: u64,
    pub req_type: u8,
    pub req: Option<MsgBuf>,
    pub resp: Option<MsgBuf>,
    /// The per-request continuation, present exactly while `active`. Moved
    /// out (and thus invoked at most once, by construction) when the slot
    /// completes — on success or on any error path.
    pub cont: Option<Continuation>,
    /// Virtual/wall time the request was enqueued (latency accounting).
    pub start_ns: u64,
    /// Unified TX sequence consumed (request packets, then RFRs).
    pub num_tx: u32,
    /// Unified RX sequence consumed (CRs, then response packets).
    pub num_rx: u32,
    /// Request packets (known at enqueue).
    pub req_total: u32,
    /// Response packets received (data copied).
    pub resp_rcvd: u32,
    /// Total response packets (0 until the first response packet reveals
    /// the response size).
    pub resp_total: u32,
    /// Last time an ack/response packet for this slot arrived.
    pub last_progress_ns: u64,
    /// Consecutive rollbacks without progress.
    pub retries: u32,
    /// Invalidates timing-wheel entries scheduled before a rollback.
    pub tx_epoch: u32,
    /// TX timestamps of in-flight packets for RTT sampling: one entry per
    /// credit, rounded up to a power of two so `tx_seq` indexes it by mask.
    pub tx_ts: Vec<u64>,
}

impl ClientSlot {
    pub fn new(slot_idx: usize, credits: u32) -> Self {
        Self {
            active: false,
            req_num: slot_idx as u64,
            req_type: 0,
            req: None,
            resp: None,
            cont: None,
            start_ns: 0,
            num_tx: 0,
            num_rx: 0,
            req_total: 0,
            resp_rcvd: 0,
            resp_total: 0,
            last_progress_ns: 0,
            retries: 0,
            tx_epoch: 0,
            tx_ts: vec![0; credits.max(1).next_power_of_two() as usize],
        }
    }

    /// Credits this slot currently holds (in-flight packets).
    #[inline]
    pub fn in_flight(&self) -> u32 {
        self.num_tx - self.num_rx
    }

    /// Total TX sequences this request needs given what we know: all
    /// request packets, plus one RFR per response packet after the first
    /// (sendable only once the response size is known).
    #[inline]
    pub fn tx_target(&self) -> u32 {
        if self.resp_total == 0 {
            self.req_total
        } else {
            self.req_total + self.resp_total - 1
        }
    }

    /// Completion condition: every expected RX sequence arrived.
    #[inline]
    pub fn done(&self) -> bool {
        self.resp_total > 0 && self.num_rx == self.req_total + self.resp_total - 1
    }

    /// Stamp the TX time of sequence `tx_seq` for later RTT sampling.
    #[inline]
    pub fn stamp_tx(&mut self, tx_seq: u32, now_ns: u64) {
        let mask = self.tx_ts.len() - 1;
        self.tx_ts[tx_seq as usize & mask] = now_ns;
    }

    /// RTT sample for an acked TX sequence.
    #[inline]
    pub fn rtt_sample(&self, tx_seq: u32, now_ns: u64) -> u64 {
        let mask = self.tx_ts.len() - 1;
        now_ns.saturating_sub(self.tx_ts[tx_seq as usize & mask])
    }
}

/// Server-side request execution phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrvPhase {
    /// No request in flight for this slot.
    Idle,
    /// Collecting request packets.
    Receiving,
    /// Handler running (or dispatched to a worker); response not enqueued
    /// yet. At-most-once: a slot in this phase never re-invokes the
    /// handler (§5.3).
    Processing,
    /// Response enqueued; serving response packets / RFRs.
    Responding,
}

/// Server-side slot.
#[derive(Debug)]
pub(crate) struct ServerSlot {
    pub phase: SrvPhase,
    /// Request number currently owning the slot.
    pub req_num: u64,
    pub req_type: u8,
    /// Assembly buffer for multi-packet requests.
    pub req_buf: Option<MsgBuf>,
    pub req_rcvd: u32,
    pub req_total: u32,
    /// The response message (preallocated or pooled).
    pub resp: Option<MsgBuf>,
    pub resp_is_prealloc: bool,
    /// MTU-sized preallocated response buffer (§4.3 optimization), taken
    /// from the pool by the slot's first response that fits it.
    pub prealloc: Option<MsgBuf>,
    /// Explicit per-slot ECN echo state: an ECN mark arrived on a request
    /// packet that gets no CR (e.g. the last one), so the response packets
    /// for this request carry the mark back to the client's DCQCN. Set
    /// while the request is received, cleared when a new request takes the
    /// slot, and baked into the response's header template at install
    /// time — retransmitted response packets re-carry the echo with no
    /// header re-diffing.
    pub resp_ecn: bool,
}

impl ServerSlot {
    pub fn new() -> Self {
        Self {
            phase: SrvPhase::Idle,
            req_num: u64::MAX,
            req_type: 0,
            req_buf: None,
            req_rcvd: 0,
            req_total: 0,
            resp: None,
            resp_is_prealloc: false,
            prealloc: None,
            resp_ecn: false,
        }
    }
}

/// A set of slot indices (`slots_per_session` ≤ 255), served lowest first.
#[derive(Debug, Default)]
pub(crate) struct SlotSet([u64; 4]);

impl SlotSet {
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    pub fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    /// Remove and return the lowest member.
    #[inline]
    pub fn pop_lowest(&mut self) -> Option<usize> {
        let w = self.0.iter().position(|bits| *bits != 0)?;
        let i = w * 64 + self.0[w].trailing_zeros() as usize;
        self.0[w] &= self.0[w] - 1;
        Some(i)
    }
}

pub(crate) enum Slot {
    Client(ClientSlot),
    Server(ServerSlot),
}

impl Slot {
    pub fn client_mut(&mut self) -> &mut ClientSlot {
        match self {
            Slot::Client(c) => c,
            Slot::Server(_) => panic!("server slot in client session"),
        }
    }

    pub fn client(&self) -> &ClientSlot {
        match self {
            Slot::Client(c) => c,
            Slot::Server(_) => panic!("server slot in client session"),
        }
    }

    pub fn server_mut(&mut self) -> &mut ServerSlot {
        match self {
            Slot::Server(s) => s,
            Slot::Client(_) => panic!("client slot in server session"),
        }
    }

    pub fn server(&self) -> &ServerSlot {
        match self {
            Slot::Server(s) => s,
            Slot::Client(_) => panic!("client slot in server session"),
        }
    }
}

/// Per-session congestion-control state (client sessions only; "for Rpc's
/// that host only server-mode endpoints, there is no overhead due to
/// congestion control", §5.2.1).
#[derive(Debug, Default)]
pub(crate) struct SessionCc {
    pub timely: Option<Timely>,
    pub dcqcn: Option<Dcqcn>,
    /// Pacing horizon: earliest time the next paced packet may leave.
    pub next_tx_ns: u64,
    /// Smoothed RTT (Jacobson/Karn, RFC 6298); valid once `has_rtt`.
    pub srtt_ns: u64,
    /// RTT variance estimate.
    pub rttvar_ns: u64,
    /// Whether at least one Karn-valid RTT sample has been folded in.
    pub has_rtt: bool,
}

/// Floor for the adaptive RTO: kernel-UDP loopback RTTs are tens of µs,
/// but a single scheduler hiccup on a loaded host is easily 100s of µs; a
/// sub-millisecond floor would turn every hiccup into a spurious go-back-N
/// round. Spurious retransmissions are *safe* (servers are at-most-once
/// per req_num) but wasteful.
pub(crate) const RTO_MIN_NS: u64 = 1_000_000;

/// Cap on the exponential-backoff shift applied after consecutive RTOs of
/// one slot (`min(retries, RTO_BACKOFF_MAX_SHIFT)` doublings).
pub(crate) const RTO_BACKOFF_MAX_SHIFT: u32 = 6;

impl SessionCc {
    /// Fold one Karn-valid RTT sample into the Jacobson estimator
    /// (RFC 6298 §2): first sample seeds `SRTT = R`, `RTTVAR = R/2`;
    /// afterwards `RTTVAR += ¼(|R − SRTT| − RTTVAR)`, `SRTT += ⅛(R − SRTT)`.
    pub fn on_rtt_sample(&mut self, sample_ns: u64) {
        if !self.has_rtt {
            self.srtt_ns = sample_ns;
            self.rttvar_ns = sample_ns / 2;
            self.has_rtt = true;
        } else {
            let delta = self.srtt_ns.abs_diff(sample_ns);
            self.rttvar_ns = self.rttvar_ns - self.rttvar_ns / 4 + delta / 4;
            self.srtt_ns = self.srtt_ns - self.srtt_ns / 8 + sample_ns / 8;
        }
    }

    /// Effective retransmission timeout for a slot that has rolled back
    /// `retries` times already. Adaptive mode uses `SRTT + 4·RTTVAR`
    /// clamped to `[RTO_MIN_NS, cfg_rto_ns]` — the configured fixed RTO
    /// doubles as the adaptive upper bound — then applies exponential
    /// backoff, one doubling per consecutive RTO, capped at
    /// [`RTO_BACKOFF_MAX_SHIFT`]. With `adaptive` off this returns
    /// `cfg_rto_ns` untouched (the pre-adaptive fixed behavior, kept
    /// bit-identical for the ablation baseline).
    pub fn effective_rto_ns(&self, cfg_rto_ns: u64, adaptive: bool, retries: u32) -> u64 {
        if !adaptive {
            return cfg_rto_ns;
        }
        let base = if self.has_rtt {
            (self.srtt_ns + 4 * self.rttvar_ns).clamp(RTO_MIN_NS.min(cfg_rto_ns), cfg_rto_ns)
        } else {
            cfg_rto_ns
        };
        let shift = retries.min(RTO_BACKOFF_MAX_SHIFT);
        base.saturating_mul(1u64 << shift)
    }

    /// Allowed rate in bits/sec, or `None` when uncontrolled.
    pub fn rate_bps(&self) -> Option<f64> {
        if let Some(t) = &self.timely {
            Some(t.rate_bps())
        } else {
            self.dcqcn.as_ref().map(|d| d.rate_bps())
        }
    }

    /// Uncongested sessions bypass pacing (§5.2.2 opt 2).
    pub fn is_uncongested(&self) -> bool {
        match (&self.timely, &self.dcqcn) {
            (Some(t), _) => t.is_uncongested(),
            (_, Some(d)) => d.is_uncongested(),
            _ => true,
        }
    }
}

/// One session (client or server end).
pub(crate) struct Session {
    pub role: Role,
    pub state: SessionState,
    pub peer: Addr,
    /// Our session number (index in the owning Rpc's session table).
    pub local_num: u16,
    /// Peer's session number (learned during connect).
    pub remote_num: u16,
    /// Available credits (client side).
    pub credits: u32,
    pub slots: Vec<Slot>,
    /// The free client slots (`!active`); a request takes the lowest.
    /// Always empty on a server session.
    pub free: SlotSet,
    /// Client slots that may have something to send: every event that can
    /// unblock a slot (request started, ack, rollback) adds it, and
    /// `Rpc::kick_session` serves the set lowest-first. A slot that ran
    /// out of credits stays in it, so the next credits that come back are
    /// offered to the starved slots in index order.
    pub wants_tx: SlotSet,
    /// Requests waiting for a slot, FIFO. Non-empty only while every slot
    /// is busy (or the session is still connecting).
    pub backlog: VecDeque<PendingReq>,
    pub cc: SessionCc,
    /// Last packet of any kind from the peer (failure detection).
    pub last_rx_ns: u64,
    pub last_ping_tx_ns: u64,
    /// When the last ConnectReq went out (for retry).
    pub connect_sent_ns: u64,
    /// Absolute give-up time for the connect handshake, armed by the
    /// *first timer scan* that sees the session `Connecting` — not at
    /// creation. Apps may construct several endpoints before polling any
    /// of them (a debug build on a loaded 1-CPU CI host spends hundreds
    /// of ms per endpoint); counting that pre-poll stall against the
    /// handshake would fail the session before its first retry. 0 = not
    /// yet armed.
    pub connect_deadline_ns: u64,
    /// Requests enqueued on this session that have not completed.
    pub outstanding: u32,
    /// The peer endpoint's incarnation id, for restart detection. Servers
    /// learn it from the ConnectReq; clients adopt the low 48 bits from
    /// the first pong. 0 = not yet known (pings from a pre-adoption client
    /// carry the full client incarnation regardless).
    pub peer_incarnation: u64,
}

impl Session {
    pub fn new_client(
        local_num: u16,
        peer: Addr,
        credits: u32,
        num_slots: usize,
        now_ns: u64,
    ) -> Self {
        let mut s = Self {
            role: Role::Client,
            state: SessionState::Connecting,
            peer,
            local_num,
            remote_num: u16::MAX,
            credits,
            slots: (0..num_slots)
                .map(|i| Slot::Client(ClientSlot::new(i, credits)))
                .collect(),
            free: SlotSet::default(),
            wants_tx: SlotSet::default(),
            backlog: VecDeque::new(),
            cc: SessionCc::default(),
            last_rx_ns: now_ns,
            last_ping_tx_ns: now_ns,
            connect_sent_ns: now_ns,
            connect_deadline_ns: 0,
            outstanding: 0,
            peer_incarnation: 0,
        };
        (0..num_slots).for_each(|i| s.free.insert(i));
        s
    }

    pub fn new_server(
        local_num: u16,
        peer: Addr,
        remote_num: u16,
        credits: u32,
        slots: Vec<Slot>,
        now_ns: u64,
    ) -> Self {
        Self {
            role: Role::Server,
            state: SessionState::Connected,
            peer,
            local_num,
            remote_num,
            credits,
            slots,
            free: SlotSet::default(),
            wants_tx: SlotSet::default(),
            backlog: VecDeque::new(),
            cc: SessionCc::default(),
            last_rx_ns: now_ns,
            last_ping_tx_ns: now_ns,
            connect_sent_ns: now_ns,
            connect_deadline_ns: 0,
            outstanding: 0,
            peer_incarnation: 0,
        }
    }

    /// The slot `req_num` runs in: request numbers advance by the slot
    /// count, so this is `req_num mod slots` — a mask when the count is a
    /// power of two (the default 8 is), a division only otherwise.
    #[inline]
    pub fn slot_of(&self, req_num: u64) -> usize {
        let n = self.slots.len();
        if n.is_power_of_two() {
            req_num as usize & (n - 1)
        } else {
            (req_num % n as u64) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_num_space_is_slot_strided() {
        let s = Session::new_client(0, Addr::new(1, 0), 8, 8, 0);
        let nums: Vec<u64> = s.slots.iter().map(|x| x.client().req_num).collect();
        assert_eq!(nums, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // Advancing by slot count keeps the spaces disjoint.
        let next: Vec<u64> = nums.iter().map(|n| n + 8).collect();
        for (a, b) in nums.iter().zip(&next) {
            assert_eq!(a % 8, b % 8);
        }
    }

    #[test]
    fn lowest_free_slot_is_taken_first() {
        for n in [1, 2, 8, 64, 65, 200, 255] {
            let mut s = Session::new_client(0, Addr::new(1, 0), 8, n, 0);
            for i in 0..n {
                assert!(s.free.contains(i));
                assert_eq!(s.free.pop_lowest(), Some(i));
                assert!(!s.free.contains(i));
            }
            assert_eq!(s.free.pop_lowest(), None);
            // Released out of order, the lowest comes back first.
            for i in [n - 1, n / 2, 0] {
                s.free.insert(i);
            }
            let mut want = vec![0, n / 2, n - 1];
            want.dedup();
            for i in want {
                assert_eq!(s.free.pop_lowest(), Some(i));
            }
            assert_eq!(s.free.pop_lowest(), None);
        }
    }

    #[test]
    fn slot_of_is_req_num_mod_slots() {
        for n in [1usize, 5, 8, 64, 255] {
            let s = Session::new_client(0, Addr::new(1, 0), 8, n, 0);
            for req_num in [0u64, 1, 7, 8, 254, 255, 256, 1 << 40, (1 << 48) - 1] {
                assert_eq!(s.slot_of(req_num), (req_num % n as u64) as usize);
            }
        }
    }

    #[test]
    fn rtt_stamps_wrap_by_credits() {
        let mut c = ClientSlot::new(0, 4);
        c.stamp_tx(0, 100);
        c.stamp_tx(5, 900); // 5 % 4 == 1
        assert_eq!(c.rtt_sample(0, 150), 50);
        assert_eq!(c.rtt_sample(5, 1000), 100);
        // Slot 4 aliases slot 0's entry (stamped at 100).
        assert_eq!(c.rtt_sample(4, 150), 50);
        // Six credits get eight entries: any six consecutive sequences
        // (all that can be in flight) keep distinct stamps.
        let mut c = ClientSlot::new(0, 6);
        for seq in 13..19 {
            c.stamp_tx(seq, seq as u64);
        }
        for seq in 13..19 {
            assert_eq!(c.rtt_sample(seq, 100), 100 - seq as u64);
        }
    }

    #[test]
    fn client_slot_protocol_arithmetic() {
        let mut c = ClientSlot::new(0, 8);
        c.active = true;
        c.req_total = 3;
        // Before the response size is known, only request packets count.
        assert_eq!(c.tx_target(), 3);
        c.num_tx = 3;
        c.num_rx = 2; // two CRs
        assert_eq!(c.in_flight(), 1);
        assert!(!c.done());
        // First response packet: num_rx jumps to N, size revealed.
        c.num_rx = 3;
        c.resp_total = 3;
        c.resp_rcvd = 1;
        assert_eq!(c.tx_target(), 5); // 3 req pkts + 2 RFRs
        c.num_tx = 5;
        c.num_rx = 5;
        c.resp_rcvd = 3;
        assert!(c.done());
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn uncontrolled_session_is_uncongested() {
        let cc = SessionCc::default();
        assert!(cc.is_uncongested());
        assert!(cc.rate_bps().is_none());
    }

    #[test]
    fn jacobson_estimator_seeds_and_converges() {
        let mut cc = SessionCc::default();
        assert!(!cc.has_rtt);
        cc.on_rtt_sample(8_000_000);
        assert_eq!(cc.srtt_ns, 8_000_000);
        assert_eq!(cc.rttvar_ns, 4_000_000);
        // A steady stream of identical samples collapses the variance and
        // pins SRTT to the sample.
        for _ in 0..200 {
            cc.on_rtt_sample(8_000_000);
        }
        assert!(cc.srtt_ns.abs_diff(8_000_000) < 100_000);
        assert!(cc.rttvar_ns < 100_000);
    }

    #[test]
    fn effective_rto_fixed_mode_is_untouched() {
        let mut cc = SessionCc::default();
        cc.on_rtt_sample(100_000);
        // Knob off: the configured RTO, regardless of samples or retries.
        assert_eq!(cc.effective_rto_ns(5_000_000, false, 0), 5_000_000);
        assert_eq!(cc.effective_rto_ns(5_000_000, false, 9), 5_000_000);
    }

    #[test]
    fn effective_rto_adapts_clamps_and_backs_off() {
        let mut cc = SessionCc::default();
        // No samples yet: fall back to the configured RTO.
        assert_eq!(cc.effective_rto_ns(5_000_000, true, 0), 5_000_000);
        // Converged fast path: SRTT+4·RTTVAR well under the fixed RTO, but
        // never below the floor.
        for _ in 0..200 {
            cc.on_rtt_sample(50_000);
        }
        let rto = cc.effective_rto_ns(5_000_000, true, 0);
        assert_eq!(rto, RTO_MIN_NS, "clamped to the floor, not ~50µs");
        // The configured RTO is the adaptive ceiling.
        let mut slow = SessionCc::default();
        slow.on_rtt_sample(40_000_000);
        assert_eq!(slow.effective_rto_ns(5_000_000, true, 0), 5_000_000);
        // Exponential backoff doubles per consecutive RTO, capped.
        assert_eq!(cc.effective_rto_ns(5_000_000, true, 1), 2 * RTO_MIN_NS);
        assert_eq!(cc.effective_rto_ns(5_000_000, true, 3), 8 * RTO_MIN_NS);
        let capped = cc.effective_rto_ns(5_000_000, true, 40);
        assert_eq!(capped, RTO_MIN_NS << RTO_BACKOFF_MAX_SHIFT);
    }
}
