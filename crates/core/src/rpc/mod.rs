//! The `Rpc` endpoint: event loop, wire protocol, and public API (§3, §5).
//!
//! One `Rpc` per user thread, exclusive (eRPC's threading model). The
//! owning thread must call [`Rpc::run_event_loop_once`] periodically; the
//! event loop performs all datapath work: packet RX/TX, congestion
//! control, retransmission, session management, and handler/continuation
//! dispatch.
//!
//! ## Module layout
//!
//! The endpoint is one struct with a layered implementation, one file per
//! datapath layer (none of them changes the public surface):
//!
//! * [`mod@self`] — public API: construction, buffers, handlers, sessions,
//!   request enqueue, and the event-loop driver.
//! * `tx` — the egress datapath: the deferred TX batch (§4.3 transmit
//!   batching), the pacing wheel (§5.2), and slot scheduling
//!   (`kick_session`).
//! * `rx` — the ingress datapath: RX burst dispatch, the client and server
//!   halves of the wire protocol (§5.1), and handler/continuation
//!   invocation.
//! * `sm` — session management: connect/disconnect handshakes, timers,
//!   failure detection (Appendix B), and go-back-N recovery (§5.3).
//!
//! Process-wide resources (the transport fabric handle, the shared worker
//! pool, thread-ID allocation) live in [`crate::Nexus`]; an `Rpc` is the
//! cheap per-thread object created from it (§3's "one Rpc per thread").
//!
//! ## Wire protocol (§5.1, client-driven)
//!
//! Every server packet responds to a client packet. A request of N packets
//! and response of M packets exchanges:
//!
//! ```text
//! client → server : N request data packets        (paced, credit-limited)
//! server → client : N−1 credit returns (CR)       (16 B)
//! server → client : response packet 0             (implicitly returns the
//!                                                  last request credit)
//! client → server : M−1 request-for-response (RFR)
//! server → client : response packets 1..M−1
//! ```
//!
//! Loss handling is go-back-N at the client only (§5.3): the client rolls
//! its two protocol counters back, reclaims credits, flushes the TX DMA
//! queue (§4.2.2), and retransmits. Servers never run a handler twice for
//! one request number (at-most-once).

// The unit tests that script the other endpoint share the integration
// tests' fake peer.
#[cfg(test)]
#[path = "../../tests/fake_peer/mod.rs"]
mod fake_peer;
#[cfg(test)]
mod run_tests;
mod rx;
#[cfg(test)]
mod sched_tests;
mod sm;
mod tx;

use std::collections::HashMap;

use erpc_congestion::TimingWheel;
use erpc_transport::{Addr, RxToken, Transport};

use crate::config::RpcConfig;
use crate::error::RpcError;
use crate::msgbuf::{BufPool, MsgBuf};
use crate::pkthdr::PKT_HDR_SIZE;
use crate::session::{PendingReq, Role, Session, SessionHandle, SessionState, Slot};
use crate::stats::RpcStats;
use crate::worker::{WorkDone, WorkerFn, WorkerHandle};

use tx::{ClientSeq, TxDesc, TxResolved};

/// Dispatch-mode request handler: runs inside the event loop on the
/// dispatch thread (§3.2). For single-packet requests the payload slice
/// borrows the transport RX ring directly (zero-copy RX, §4.2.3).
pub type DispatchFn = Box<dyn FnMut(&mut ReqContext<'_>, &[u8])>;

/// Continuation: invoked exactly once when its RPC completes (or fails),
/// with ownership of both msgbufs returned to the application (§4.2.2's
/// ownership rule). Unlike the paper's C++ implementation — which
/// pre-registers continuations in a `u8`-indexed table and threads a
/// `(cont_id, tag)` pair through every call — each request carries its own
/// continuation, stored in the request's session slot. Captured state
/// replaces the `tag`, and the type system guarantees the at-most-once
/// invocation the table-based design only promised.
///
/// Two shapes share the slot: the general owned-`FnOnce` closure
/// ([`Continuation::new`]; boxing a zero-sized closure allocates nothing),
/// and the [`crate::Channel`] fast path, which carries only a shared
/// outcome cell — no closure, no per-call heap box — so typed calls stay
/// allocation-free in steady state.
pub struct Continuation(ContInner);

/// The boxed general-path continuation closure.
type BoxedCont = Box<dyn FnOnce(&mut ContContext<'_>, Completion)>;

pub(crate) enum ContInner {
    /// General path: an owned `FnOnce` closure.
    Boxed(BoxedCont),
    /// Channel fast path: deposit the response msgbuf into the shared
    /// cell; the request msgbuf (and, on failure, the response msgbuf)
    /// recycles through the pool.
    Cell(CompletionCell),
}

/// Outcome cell shared between a [`crate::CallHandle`] and the endpoint.
pub(crate) type CompletionCell = std::rc::Rc<std::cell::RefCell<Option<Result<MsgBuf, RpcError>>>>;

impl Continuation {
    /// Wrap an owned closure. A zero-capture closure (or fn item) is
    /// zero-sized, so this performs no heap allocation for it.
    pub fn new(f: impl FnOnce(&mut ContContext<'_>, Completion) + 'static) -> Self {
        Continuation(ContInner::Boxed(Box::new(f)))
    }

    pub(crate) fn cell(c: CompletionCell) -> Self {
        Continuation(ContInner::Cell(c))
    }

    pub(crate) fn into_inner(self) -> ContInner {
        self.0
    }
}

impl core::fmt::Debug for Continuation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &self.0 {
            ContInner::Boxed(_) => f.write_str("Continuation::Boxed"),
            ContInner::Cell(_) => f.write_str("Continuation::Cell"),
        }
    }
}

enum HandlerEntry {
    None,
    Dispatch(DispatchFn),
    Worker,
}

/// Delivered to a continuation when its RPC completes.
pub struct Completion {
    /// The request msgbuf, ownership returned.
    pub req: MsgBuf,
    /// The response msgbuf; on success its length is the response size.
    pub resp: MsgBuf,
    /// `Ok` or the failure reason (e.g. [`RpcError::RemoteFailure`]).
    pub result: Result<(), RpcError>,
    /// Completion latency (enqueue → continuation), transport clock. The
    /// enqueue stamp is shared by the requests enqueued between two
    /// event-loop passes (see [`RpcConfig::opt_batched_timestamps`]): it
    /// is the first one's, so this overstates a later one's latency by at
    /// most the time the application spent between those enqueues.
    pub latency_ns: u64,
    /// The session the request ran on.
    pub session: SessionHandle,
}

/// Handle to a request whose response will be enqueued later (nested /
/// long-running RPCs, §3.1: "the handler need not enqueue a response
/// before returning").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeferredHandle {
    sess: u16,
    slot: u8,
    req_num: u64,
}

/// Operations queued by handlers/continuations (executed by the event loop
/// right after the callback returns, avoiding reentrancy).
enum QueuedOp {
    Request {
        sess: SessionHandle,
        req_type: u8,
        req: MsgBuf,
        resp: MsgBuf,
        cont: Continuation,
    },
    Response {
        handle: DeferredHandle,
        /// Pooled response msgbuf, installed into the slot without copying.
        resp: MsgBuf,
    },
}

/// Context available to dispatch-mode request handlers.
pub struct ReqContext<'a> {
    pool: &'a mut BufPool,
    ops: &'a mut Vec<QueuedOp>,
    prealloc: Option<MsgBuf>,
    prealloc_enabled: bool,
    resp_built: Option<(MsgBuf, bool)>,
    deferred: bool,
    handle: DeferredHandle,
    max_msg_size: usize,
}

/// The §4.3 response-buffer choice, made in exactly one place: the slot's
/// preallocated msgbuf when `opt_preallocated_responses` is on and `cap`
/// bytes fit it (no allocator traffic), else a pooled buffer — with an
/// unsuitable prealloc left in place for future requests. A slot takes its
/// MTU-sized prealloc from the pool on its first response that fits one,
/// and keeps it: an idle server slot holds no buffer. The `bool` says
/// which, so slot reuse knows where the buffer goes back.
fn take_resp_buf(
    prealloc: &mut Option<MsgBuf>,
    enabled: bool,
    pool: &mut BufPool,
    cap: usize,
) -> (MsgBuf, bool) {
    match prealloc.take() {
        Some(p) if enabled && cap <= p.capacity() => (p, true),
        None if enabled && cap <= pool.data_per_pkt() => (pool.alloc(pool.data_per_pkt()), true),
        other => {
            *prealloc = other;
            (pool.alloc(cap), false)
        }
    }
}

impl ReqContext<'_> {
    fn take_resp_buf(&mut self, cap: usize) -> (MsgBuf, bool) {
        take_resp_buf(&mut self.prealloc, self.prealloc_enabled, self.pool, cap)
    }

    /// Enqueue the response for this request. The common case: small
    /// responses are served from the slot's preallocated msgbuf with no
    /// allocator traffic (§4.3).
    pub fn respond(&mut self, data: &[u8]) {
        assert!(!self.deferred, "respond() after defer()");
        assert!(self.resp_built.is_none(), "respond() called twice");
        assert!(data.len() <= self.max_msg_size, "response exceeds max size");
        let (mut buf, is_prealloc) = self.take_resp_buf(data.len());
        buf.fill(data);
        self.resp_built = Some((buf, is_prealloc));
    }

    /// Enqueue a response the handler built directly in a msgbuf (from
    /// [`ReqContext::alloc_msg_buffer`], so it recycles through the pool
    /// when the slot is reused) — no copy into a fresh buffer. For typed
    /// messages prefer [`ReqContext::respond_typed`].
    pub fn respond_with(&mut self, buf: MsgBuf) {
        assert!(!self.deferred, "respond_with() after defer()");
        assert!(self.resp_built.is_none(), "respond() called twice");
        assert!(buf.len() <= self.max_msg_size, "response exceeds max size");
        self.resp_built = Some((buf, false));
    }

    /// Respond with a typed message, serialized directly into the slot's
    /// preallocated msgbuf (or a pooled one) via the slice-writer path —
    /// no intermediate `Vec`, no copy.
    pub fn respond_typed<M: crate::channel::RpcMessage>(&mut self, m: &M) {
        assert!(!self.deferred, "respond_typed() after defer()");
        assert!(self.resp_built.is_none(), "respond() called twice");
        let cap = m.encoded_len_hint().min(self.max_msg_size);
        let (mut buf, is_prealloc) = self.take_resp_buf(cap);
        buf.resize(cap);
        let n = {
            let mut sink = erpc_transport::codec::SliceSink::new(buf.data_mut());
            m.encode(&mut sink);
            erpc_transport::codec::ByteSink::written(&sink)
        };
        buf.resize(n);
        self.resp_built = Some((buf, is_prealloc));
    }

    /// Defer the response: the handler returns without responding, and the
    /// application calls [`Rpc::enqueue_response`] (or
    /// [`ContContext::enqueue_response`]) with this handle later.
    pub fn defer(&mut self) -> DeferredHandle {
        assert!(self.resp_built.is_none(), "defer() after respond()");
        self.deferred = true;
        self.handle
    }

    /// This request's handle (for logging / correlation).
    pub fn handle(&self) -> DeferredHandle {
        self.handle
    }

    /// Issue a nested RPC from inside the handler; it is enqueued when the
    /// handler returns. The continuation runs when the nested RPC
    /// completes (capture the [`DeferredHandle`] from [`ReqContext::defer`]
    /// to answer the original caller from it).
    pub fn enqueue_request(
        &mut self,
        sess: SessionHandle,
        req_type: u8,
        req: MsgBuf,
        resp: MsgBuf,
        cont: impl FnOnce(&mut ContContext<'_>, Completion) + 'static,
    ) {
        self.ops.push(QueuedOp::Request {
            sess,
            req_type,
            req,
            resp,
            cont: Continuation::new(cont),
        });
    }

    /// Allocate a msgbuf (for nested requests).
    pub fn alloc_msg_buffer(&mut self, size: usize) -> MsgBuf {
        self.pool.alloc(size)
    }

    /// Return a msgbuf to the pool.
    pub fn free_msg_buffer(&mut self, m: MsgBuf) {
        self.pool.free(m);
    }
}

/// Context available to continuations.
pub struct ContContext<'a> {
    pool: &'a mut BufPool,
    ops: &'a mut Vec<QueuedOp>,
}

impl ContContext<'_> {
    /// Issue a follow-up RPC (the closed-loop pattern: re-enqueue from the
    /// continuation, reusing the completed msgbufs).
    pub fn enqueue_request(
        &mut self,
        sess: SessionHandle,
        req_type: u8,
        req: MsgBuf,
        resp: MsgBuf,
        cont: impl FnOnce(&mut ContContext<'_>, Completion) + 'static,
    ) {
        self.ops.push(QueuedOp::Request {
            sess,
            req_type,
            req,
            resp,
            cont: Continuation::new(cont),
        });
    }

    /// Enqueue a deferred response from within a continuation (the nested-
    /// RPC pattern: parent response depends on a child RPC's completion).
    /// The bytes are copied once into a pooled msgbuf (no `Vec`); to skip
    /// that copy, build the buffer yourself and use
    /// [`ContContext::enqueue_response_buf`].
    pub fn enqueue_response(&mut self, handle: DeferredHandle, data: &[u8]) {
        let mut resp = self.pool.alloc(data.len());
        resp.fill(data);
        self.ops.push(QueuedOp::Response { handle, resp });
    }

    /// Enqueue a deferred response from an already-built pooled msgbuf —
    /// installed into the request slot without copying.
    pub fn enqueue_response_buf(&mut self, handle: DeferredHandle, resp: MsgBuf) {
        self.ops.push(QueuedOp::Response { handle, resp });
    }

    pub fn alloc_msg_buffer(&mut self, size: usize) -> MsgBuf {
        self.pool.alloc(size)
    }

    pub fn free_msg_buffer(&mut self, m: MsgBuf) {
        self.pool.free(m);
    }
}

/// Failed `enqueue_request`, returning buffer ownership with the reason.
/// The continuation comes back too, unfired — the caller decides whether
/// to retry with it or drop it.
pub struct EnqueueError {
    pub err: RpcError,
    pub req: MsgBuf,
    pub resp: MsgBuf,
    pub cont: Continuation,
}

impl core::fmt::Debug for EnqueueError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "EnqueueError({})", self.err)
    }
}

/// Point-in-time view of a session's health (see [`Rpc::session_info`]).
#[derive(Debug, Clone)]
pub struct SessionInfo {
    pub state: SessionState,
    /// True for client-mode sessions.
    pub is_client: bool,
    pub peer: Addr,
    /// Credits currently available (client side).
    pub credits_available: u32,
    /// Requests enqueued but not completed (slots + backlog).
    pub outstanding_requests: u32,
    /// Requests waiting for a free slot.
    pub backlogged: usize,
    /// Packets in flight (unacknowledged) across all slots.
    pub in_flight_pkts: u32,
    /// Congestion-controlled rate, if a controller is attached.
    pub rate_bps: Option<f64>,
    /// Whether the pacer is currently bypassed (§5.2.2).
    pub uncongested: bool,
}

/// Work performed since the last [`Rpc::take_work`] (the simulator's
/// CPU-cost driver consumes this).
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkCounts {
    pub tx_pkts: u64,
    pub rx_pkts: u64,
    pub callbacks: u64,
    pub rx_bytes: u64,
}

/// An eRPC endpoint. Generic over the transport; `!Sync` by design.
pub struct Rpc<T: Transport> {
    transport: T,
    cfg: RpcConfig,
    pool: BufPool,
    sessions: Vec<Option<Session>>,
    /// (peer key, peer's client session num) → local server session num.
    connect_map: HashMap<(u32, u16), u16>,
    handlers: Vec<HandlerEntry>,
    wheel: TimingWheel<ClientSeq>,
    wheel_scratch: Vec<ClientSeq>,
    /// Deferred TX queue: drained into one `tx_burst` per event-loop pass
    /// (or when it reaches `cfg.tx_batch`).
    tx_queue: Vec<TxDesc>,
    /// Live sessions (client + server), maintained on create/free so the
    /// per-`create_session` limit check is O(1) instead of an O(n) scan
    /// over the session table.
    live_session_count: usize,
    /// Reusable scratch for `flush_tx_batch`'s validation pass.
    tx_resolved: Vec<TxResolved>,
    pending_ops: Vec<QueuedOp>,
    /// Spare buffer rotated with `pending_ops` by `drain_pending_ops` so
    /// callback-queued ops never pay a heap round trip per pass.
    ops_scratch: Vec<QueuedOp>,
    /// Worker-pool attachment: `Rpc`-owned threads (standalone) or a handle
    /// into the process-wide pool of the owning [`crate::Nexus`].
    worker: Option<WorkerHandle>,
    worker_done_scratch: Vec<WorkDone>,
    stats: RpcStats,
    work: WorkCounts,
    /// Batched timestamp (§5.2.2 opt 3): refreshed once per loop pass.
    now_cache: u64,
    /// The enqueue stamp requests share (§5.2.2 opt 3 extended to issue):
    /// `now_cache` during a pass; cleared when the pass ends, so the first
    /// enqueue after it reads the clock and the ones that follow, up to
    /// the next pass, reuse that read. Always `None` with
    /// `opt_batched_timestamps` off.
    issue_stamp: Option<u64>,
    last_timer_scan_ns: u64,
    rx_tokens: Vec<RxToken>,
    /// Per-packet RTT samples (enabled by `record_rtt_samples`).
    rtt_hist: crate::stats::LatencyHistogram,
    /// Emulated RX descriptor ring for the multi-packet-RQ cost model.
    desc_scratch: Vec<u8>,
    /// Descriptor re-post events so far (advances the emulated ring).
    desc_counter: u64,
    /// Packets until the next re-post (1 or `rq_multi_packet_factor`).
    desc_countdown: u64,
    /// Data bytes per packet: transport MTU − 16 B header.
    dpp: usize,
    /// Per-process-lifetime incarnation id, stamped into every ConnectReq
    /// and ping this endpoint sends (truncated to the header's 48-bit
    /// `req_num` field on pings). A peer seeing the same `(addr, session)`
    /// with a *different* incarnation knows this endpoint restarted and
    /// resets its stale session instead of blackholing us. Never zero
    /// (zero means "unknown" on the receiving side).
    incarnation: u64,
}

impl<T: Transport> Rpc<T> {
    pub fn new(transport: T, cfg: RpcConfig) -> Self {
        let worker = if cfg.num_worker_threads > 0 {
            Some(WorkerHandle::owned(cfg.num_worker_threads))
        } else {
            None
        };
        Self::new_with_worker(transport, cfg, worker)
    }

    /// Construct with an explicit worker-pool attachment (`None` = no
    /// worker threads at all). [`crate::Nexus::create_rpc`] uses this to
    /// hand every per-thread `Rpc` a handle into the one shared pool.
    pub(crate) fn new_with_worker(
        transport: T,
        cfg: RpcConfig,
        worker: Option<WorkerHandle>,
    ) -> Self {
        assert!(
            cfg.session_credits >= 1,
            "RpcConfig::session_credits must be >= 1"
        );
        // The slot index travels as a `u8` (descriptors, `ConnectReq`).
        assert!(
            (1..=255).contains(&cfg.slots_per_session),
            "RpcConfig::slots_per_session must be in 1..=255"
        );
        assert!(cfg.rx_batch >= 1, "RpcConfig::rx_batch must be >= 1");
        assert!(cfg.tx_batch >= 1, "RpcConfig::tx_batch must be >= 1");
        let dpp = transport.mtu() - PKT_HDR_SIZE;
        assert!(dpp > 0, "transport MTU too small for the packet header");
        let now = transport.now_ns();
        // Handler functions already in the (shared) worker table — e.g.
        // registered at the Nexus before this Rpc existed — are served
        // from the start, like the paper's Nexus-registered handlers.
        let mut handlers: Vec<HandlerEntry> = (0..256).map(|_| HandlerEntry::None).collect();
        if let Some(w) = &worker {
            for rt in w.registered_types() {
                handlers[rt as usize] = HandlerEntry::Worker;
            }
        }
        Self {
            pool: BufPool::new(dpp),
            sessions: Vec::new(),
            connect_map: HashMap::new(),
            handlers,
            wheel: TimingWheel::new(cfg.wheel_slots, cfg.wheel_granularity_ns, now),
            wheel_scratch: Vec::new(),
            tx_queue: Vec::with_capacity(cfg.tx_batch),
            live_session_count: 0,
            tx_resolved: Vec::with_capacity(cfg.tx_batch),
            pending_ops: Vec::new(),
            ops_scratch: Vec::new(),
            worker,
            worker_done_scratch: Vec::new(),
            stats: RpcStats {
                rto_backoff_hist: crate::stats::LatencyHistogram::preallocated(),
                ..RpcStats::default()
            },
            work: WorkCounts::default(),
            now_cache: now,
            issue_stamp: None,
            last_timer_scan_ns: now,
            rx_tokens: Vec::with_capacity(cfg.rx_batch),
            rtt_hist: crate::stats::LatencyHistogram::new(),
            desc_scratch: vec![0u8; 64 * 64],
            desc_counter: 0,
            desc_countdown: if cfg.opt_multi_packet_rq {
                (cfg.rq_multi_packet_factor as u64).max(1)
            } else {
                1
            },
            dpp,
            incarnation: Self::fresh_incarnation(transport.addr()),
            transport,
            cfg,
        }
    }

    /// A new per-endpoint incarnation id: wall-clock entropy mixed with a
    /// process-wide counter (uniqueness within one process even if the
    /// clock stalls) and the endpoint address, finalized with SplitMix64.
    /// The low 48 bits are forced nonzero because pings carry them in the
    /// header's `req_num` field, where zero means "incarnation unknown".
    fn fresh_incarnation(addr: Addr) -> u64 {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let c = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut z = t ^ (c << 32) ^ ((addr.key() as u64) << 17);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if z & crate::pkthdr::REQ_NUM_MASK == 0 {
            z |= 1;
        }
        z
    }

    /// This endpoint's incarnation id (see the field docs).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    // ── Accessors ───────────────────────────────────────────────────────

    pub fn addr(&self) -> Addr {
        self.transport.addr()
    }

    pub fn config(&self) -> &RpcConfig {
        &self.cfg
    }

    pub fn stats(&self) -> &RpcStats {
        &self.stats
    }

    pub fn transport(&self) -> &T {
        &self.transport
    }

    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Data bytes carried per packet.
    pub fn data_per_pkt(&self) -> usize {
        self.dpp
    }

    /// Maximum sessions this endpoint supports: |RQ| / C (§4.3.1).
    pub fn session_limit(&self) -> usize {
        (self.transport.rx_ring_size() / self.cfg.session_credits as usize).max(1)
    }

    pub(super) fn live_sessions(&self) -> usize {
        debug_assert_eq!(
            self.live_session_count,
            self.sessions.iter().flatten().count(),
            "live-session counter out of sync with the session table"
        );
        self.live_session_count
    }

    /// Number of live sessions (client + server roles) on this endpoint.
    pub fn active_sessions(&self) -> usize {
        self.live_sessions()
    }

    /// Drain the work counters (simulator CPU charging).
    pub fn take_work(&mut self) -> WorkCounts {
        std::mem::take(&mut self.work)
    }

    /// Client-side per-packet RTT samples (when `record_rtt_samples`).
    pub fn rtt_histogram(&self) -> &crate::stats::LatencyHistogram {
        &self.rtt_hist
    }

    /// Reset the RTT histogram (e.g. after a warmup window).
    pub fn clear_rtt_histogram(&mut self) {
        self.rtt_hist.clear();
    }

    // ── Buffers, handlers, continuations ───────────────────────────────

    /// Allocate a DMA-capable msgbuf holding up to `size` bytes.
    pub fn alloc_msg_buffer(&mut self, size: usize) -> MsgBuf {
        assert!(size <= self.cfg.max_msg_size, "msgbuf beyond max_msg_size");
        let m = self.pool.alloc(size);
        self.sync_pool_stats();
        m
    }

    pub fn free_msg_buffer(&mut self, m: MsgBuf) {
        self.pool.free(m);
        self.sync_pool_stats();
    }

    /// Mirror the buffer pool's hit/miss counters into [`RpcStats`] (two
    /// stores; called once per event-loop pass and per public pool op).
    #[inline]
    fn sync_pool_stats(&mut self) {
        self.stats.pool_allocs_new = self.pool.allocs_new;
        self.stats.pool_allocs_reused = self.pool.allocs_reused;
    }

    /// Register a dispatch-mode handler for `req_type` (§3.2: handlers of
    /// up to a few hundred nanoseconds belong here).
    pub fn register_request_handler(&mut self, req_type: u8, f: DispatchFn) {
        self.handlers[req_type as usize] = HandlerEntry::Dispatch(f);
    }

    /// Register a worker-mode handler for `req_type` (long-running
    /// handlers; requires worker threads — `num_worker_threads > 0` or a
    /// Nexus-shared pool — otherwise it runs in dispatch as a degraded
    /// mode). On a Nexus-attached `Rpc` the handler function lands in the
    /// process-wide worker table (shared by all threads, like the paper's
    /// Nexus-registered handlers), but it serves requests only on `Rpc`s
    /// that registered the type.
    pub fn register_worker_handler(&mut self, req_type: u8, f: WorkerFn) {
        if let Some(w) = &self.worker {
            w.register(req_type, f);
            self.handlers[req_type as usize] = HandlerEntry::Worker;
        } else {
            let g = f;
            let cap = Self::worker_resp_cap(&self.cfg);
            self.handlers[req_type as usize] =
                HandlerEntry::Dispatch(Box::new(move |ctx: &mut ReqContext<'_>, req: &[u8]| {
                    // Degraded inline mode still speaks msgbufs: the
                    // handler writes into a pooled buffer installed
                    // directly as the response (no Vec, no extra copy).
                    // Same panic containment as the worker-thread path: a
                    // handler panic (e.g. overflow past the response
                    // capacity) answers empty instead of unwinding the
                    // event loop.
                    let mut out = ctx.alloc_msg_buffer(cap);
                    out.clear();
                    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g(req, &mut out)))
                        .is_err()
                    {
                        out.clear();
                    }
                    ctx.respond_with(out);
                }));
        }
    }

    /// Capacity of the pooled response buffer handed to worker handlers.
    fn worker_resp_cap(cfg: &RpcConfig) -> usize {
        cfg.worker_resp_capacity.min(cfg.max_msg_size).max(1)
    }

    // ── Sessions ────────────────────────────────────────────────────────

    /// Start connecting a client session to the endpoint at `peer`. Poll
    /// [`Rpc::is_connected`] (while running the event loop) to learn when
    /// the handshake completes.
    pub fn create_session(&mut self, peer: Addr) -> Result<SessionHandle, RpcError> {
        if self.live_sessions() + 1 > self.session_limit() {
            return Err(RpcError::TooManySessions);
        }
        let num = self.alloc_session_slot();
        // Fresh clock (cold path): `now_cache` may be arbitrarily stale if
        // the app idled without polling the event loop, and a stale
        // `last_rx_ns` could trip the connect give-up timer instantly.
        let now = self.transport.now_ns();
        let mut sess = Session::new_client(
            num,
            peer,
            self.cfg.session_credits,
            self.cfg.slots_per_session,
            now,
        );
        // The backlog's first growth steps, paid here rather than by some
        // later request that finds every slot busy.
        sess.backlog.reserve(self.cfg.backlog_cap.min(64));
        self.sessions[num as usize] = Some(sess);
        self.live_session_count += 1;
        self.init_session_cc(num);
        self.tx_connect_req(num);
        Ok(SessionHandle(num))
    }

    pub fn session_state(&self, h: SessionHandle) -> Option<SessionState> {
        self.sessions
            .get(h.0 as usize)
            .and_then(|s| s.as_ref())
            .map(|s| s.state)
    }

    pub fn is_connected(&self, h: SessionHandle) -> bool {
        self.session_state(h) == Some(SessionState::Connected)
    }

    /// Credits currently available on a session (tests/diagnostics).
    pub fn session_credits_available(&self, h: SessionHandle) -> Option<u32> {
        self.sessions
            .get(h.0 as usize)
            .and_then(|s| s.as_ref())
            .map(|s| s.credits)
    }

    /// Introspection snapshot of one session (diagnostics/monitoring).
    pub fn session_info(&self, h: SessionHandle) -> Option<SessionInfo> {
        let sess = self.sessions.get(h.0 as usize)?.as_ref()?;
        let in_flight = sess
            .slots
            .iter()
            .map(|s| match s {
                Slot::Client(c) if c.active => c.in_flight(),
                _ => 0,
            })
            .sum();
        Some(SessionInfo {
            state: sess.state,
            is_client: sess.role == Role::Client,
            peer: sess.peer,
            credits_available: sess.credits,
            outstanding_requests: sess.outstanding,
            backlogged: sess.backlog.len(),
            in_flight_pkts: in_flight,
            rate_bps: sess.cc.rate_bps(),
            uncongested: sess.cc.is_uncongested(),
        })
    }

    /// Begin disconnecting an idle client session.
    pub fn disconnect(&mut self, h: SessionHandle) -> Result<(), RpcError> {
        let sess = self
            .sessions
            .get_mut(h.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(RpcError::InvalidSession)?;
        if sess.role != Role::Client || sess.state != SessionState::Connected {
            return Err(RpcError::NotConnected);
        }
        if sess.outstanding > 0 {
            return Err(RpcError::NotConnected);
        }
        sess.state = SessionState::Disconnecting;
        // Disconnect-start stamp: `last_ping_tx_ns` is unused while
        // disconnecting, so it bounds how long we retry before freeing the
        // session locally (dead-peer disconnect must still terminate).
        // Cold path, so read a fresh clock: `now_cache` may be arbitrarily
        // stale if the app idled without polling the event loop, and a
        // stale stamp could expire the whole retry window instantly.
        sess.last_ping_tx_ns = self.transport.now_ns();
        self.tx_disconnect_req(h.0);
        Ok(())
    }

    // ── Request enqueue ────────────────────────────────────────────────

    /// Queue a request on a session. Asynchronous: `cont` fires exactly
    /// once when the RPC completes (successfully or with an error), with
    /// ownership of both msgbufs. On an immediate enqueue failure the
    /// continuation is returned *unfired* inside the [`EnqueueError`].
    ///
    /// If all slots are busy the request is transparently backlogged
    /// (§4.3), up to `backlog_cap` waiting requests. Requests enqueued
    /// while the session is still connecting are also backlogged and sent
    /// once the handshake completes.
    pub fn enqueue_request(
        &mut self,
        h: SessionHandle,
        req_type: u8,
        req: MsgBuf,
        resp: MsgBuf,
        cont: impl FnOnce(&mut ContContext<'_>, Completion) + 'static,
    ) -> Result<(), EnqueueError> {
        self.enqueue_request_cont(h, req_type, req, resp, Continuation::new(cont))
    }

    /// Monomorphization-free inner enqueue taking a pre-built
    /// [`Continuation`]; also the path the event loop uses for queued
    /// continuations (nested RPCs, backlog) and the `Channel` facade's
    /// allocation-free cell continuations.
    pub fn enqueue_request_cont(
        &mut self,
        h: SessionHandle,
        req_type: u8,
        req: MsgBuf,
        resp: MsgBuf,
        cont: Continuation,
    ) -> Result<(), EnqueueError> {
        let err = |err, req, resp, cont| {
            Err(EnqueueError {
                err,
                req,
                resp,
                cont,
            })
        };
        if req.len() > self.cfg.max_msg_size {
            return err(RpcError::MsgTooLarge, req, resp, cont);
        }
        let Some(sess) = self.sessions.get_mut(h.0 as usize).and_then(|s| s.as_mut()) else {
            return err(RpcError::InvalidSession, req, resp, cont);
        };
        if sess.role != Role::Client {
            return err(RpcError::InvalidSession, req, resp, cont);
        }
        match sess.state {
            SessionState::Connected | SessionState::Connecting => {}
            SessionState::Failed => return err(RpcError::RemoteFailure, req, resp, cont),
            SessionState::Disconnecting => return err(RpcError::Disconnected, req, resp, cont),
        }
        // Straight into a free slot — unless requests already wait (FIFO:
        // then every slot is busy) or the session is still connecting.
        let direct = sess.state == SessionState::Connected && sess.backlog.is_empty();
        let slot = direct.then(|| sess.free.pop_lowest()).flatten();
        if slot.is_none() && sess.backlog.len() >= self.cfg.backlog_cap {
            return err(RpcError::BacklogFull, req, resp, cont);
        }
        sess.outstanding += 1;
        self.stats.requests_sent += 1;
        // The enqueue stamp. Enqueue is app-facing and may run arbitrarily
        // long after the last event-loop pass, so `now_cache` would fold
        // application think-time into `Completion::latency_ns`; instead the
        // first enqueue after a pass reads the clock and later ones share
        // the read (§5.2.2's batching, applied to issue).
        let enqueue_ns = self.issue_stamp.unwrap_or_else(|| {
            self.stats.clock_reads += 1;
            // lint:allow(hot-path-clock): the one read a batch of enqueues
            // shares; one per request only with batching off.
            self.transport.now_ns()
        });
        self.issue_stamp = self.cfg.opt_batched_timestamps.then_some(enqueue_ns);
        let p = PendingReq {
            req_type,
            req,
            resp,
            cont,
            enqueue_ns,
        };
        if let Some(slot_idx) = slot {
            Self::start_request(sess, slot_idx, p, self.now_cache);
            self.kick_session(h.0);
        } else {
            sess.backlog.push_back(p);
        }
        Ok(())
    }

    /// Enqueue the response for a previously deferred request (§3.1's
    /// nested-RPC flow). Call between event-loop iterations or from a
    /// continuation via [`ContContext::enqueue_response`]. The bytes are
    /// copied into the slot's preallocated msgbuf when they fit (§4.3).
    pub fn enqueue_response(
        &mut self,
        handle: DeferredHandle,
        data: &[u8],
    ) -> Result<(), RpcError> {
        let Some((_, slot)) = Self::awaiting_response(&mut self.sessions, handle) else {
            return Err(RpcError::InvalidSession);
        };
        let enabled = self.cfg.opt_preallocated_responses;
        let (mut buf, is_prealloc) =
            take_resp_buf(&mut slot.prealloc, enabled, &mut self.pool, data.len());
        buf.fill(data);
        self.install_response(handle, buf, is_prealloc);
        Ok(())
    }

    // ── Event loop ─────────────────────────────────────────────────────

    /// One pass: RX burst → worker completions → pacing wheel → queued
    /// ops → timers → TX-batch flush.
    pub fn run_event_loop_once(&mut self) {
        // Batched timestamp: one clock read per pass (§5.2.2 opt 3), also
        // the stamp of requests enqueued from inside the pass.
        self.now_cache = self.transport.now_ns();
        self.stats.clock_reads += 1;
        self.issue_stamp = self.cfg.opt_batched_timestamps.then_some(self.now_cache);

        self.process_rx();
        self.process_worker_completions();
        self.reap_wheel();
        self.drain_pending_ops();
        if self.now_cache.saturating_sub(self.last_timer_scan_ns) >= self.cfg.timer_scan_interval_ns
        {
            self.last_timer_scan_ns = self.now_cache;
            self.run_timers();
        }
        // Transmit batching (§4.3, Table 3): everything queued this pass
        // leaves in one burst — one DMA doorbell per pass, not per packet.
        self.flush_tx_batch();
        self.sync_pool_stats();
        self.issue_stamp = None;
        if cfg!(debug_assertions) {
            self.assert_slot_scheduling();
        }
    }

    /// The slot scheduler's invariants, checked after every pass in debug
    /// builds: the free set is exactly the inactive slots; a connected
    /// session queues requests only while every slot is busy, and every
    /// slot of it with packets still to send is in `wants_tx`.
    fn assert_slot_scheduling(&self) {
        let clients = self.sessions.iter().flatten();
        for sess in clients.filter(|s| s.role == Role::Client) {
            let live = sess.state == SessionState::Connected;
            for (i, slot) in sess.slots.iter().enumerate() {
                let c = slot.client();
                let unsent = c.active && c.num_tx < c.tx_target();
                assert_eq!(sess.free.contains(i), !c.active, "slot {i}: free set");
                assert!(!live || c.active || sess.backlog.is_empty());
                assert!(!live || !unsent || sess.wants_tx.contains(i));
            }
        }
    }

    /// Run the event loop for (at least) `duration_ns` of transport time.
    /// Only meaningful on wall-clock transports; simulations use
    /// `erpc_sim::driver` instead.
    pub fn run_event_loop(&mut self, duration_ns: u64) {
        let start = self.transport.now_ns();
        while self.transport.now_ns() - start < duration_ns {
            self.run_event_loop_once();
        }
    }

    /// Per-packet timestamp: cached when batching is on, a real clock read
    /// when off (Table 3's "disable batched RTT timestamps").
    #[inline]
    fn pkt_now(&mut self) -> u64 {
        if self.cfg.opt_batched_timestamps {
            self.now_cache
        } else {
            self.stats.clock_reads += 1;
            self.transport.now_ns()
        }
    }
}

impl<T: Transport> Drop for Rpc<T> {
    fn drop(&mut self) {
        // Owned worker threads are joined by `WorkerHandle::drop`; handles
        // into a Nexus-shared pool detach without joining (the pool belongs
        // to the Nexus). Buffers are freed with the pool.
    }
}
