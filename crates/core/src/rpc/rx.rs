//! Ingress datapath: RX burst dispatch, the client and server halves of
//! the wire protocol (§5.1), and handler/continuation invocation.
//!
//! All dispatch happens on the owning thread (§3.2): short handlers run
//! inline on the RX-ring bytes (zero-copy, §4.2.3); long handlers are
//! shipped to the worker pool and their completions re-enter the event
//! loop through [`Rpc::process_worker_completions`].

use erpc_transport::{RxToken, Transport};

use crate::error::RpcError;
use crate::msgbuf::MsgBuf;
use crate::pkthdr::{PktHdr, PktHdrView, PktType, PKT_HDR_SIZE};
use crate::session::{Role, ServerSlot, Session, SessionState, SrvPhase};

use super::{Completion, ContContext, Continuation, DeferredHandle, HandlerEntry};
use super::{QueuedOp, ReqContext, Rpc};

/// Outcome of one data-path packet. `None`: dropped as stale — old,
/// reordered, or inconsistent with its header (§5.3 treats all three as
/// loss). `Some(straight)`: consumed; `straight` iff it took the §5.2
/// straight-line case of its routine.
type Handled = Option<bool>;

impl<T: Transport> Rpc<T> {
    /// Count a datapath-invariant breach — a state the protocol logic
    /// says is unreachable — and, in test builds, fail loudly. Release
    /// builds drop-and-count instead of panicking: a counted drop is
    /// recoverable via retransmission (§5.3); an aborted event loop is
    /// not. See `RpcStats::rx_invariant_breach`.
    #[cold]
    #[inline(never)]
    pub(super) fn invariant_breach(stats: &mut crate::stats::RpcStats, what: &str) {
        stats.rx_invariant_breach += 1;
        debug_assert!(false, "datapath invariant breached: {what}");
    }

    // ── RX path ────────────────────────────────────────────────────────

    pub(super) fn process_rx(&mut self) {
        debug_assert!(self.rx_tokens.is_empty());
        let mut toks = std::mem::take(&mut self.rx_tokens);
        let n = self.transport.rx_burst(self.cfg.rx_batch, &mut toks);
        if n == 0 {
            self.rx_tokens = toks;
            return;
        }
        self.stats.pkts_rx += n as u64;
        self.work.rx_pkts += n as u64;
        (0..n).for_each(|_| self.emulate_rq_descriptor_repost());
        // A routine may consume the packets after its own as one run
        // (`server_rx_run`); it says how many, and they are skipped here.
        let mut left = &toks[..];
        while let Some((&tok, rest)) = left.split_first() {
            left = &rest[self.process_one_pkt(tok, rest)..];
        }
        toks.clear();
        self.transport.rx_release();
        self.rx_tokens = toks;
    }

    /// The multi-packet RQ cost model (§4.1.1, Table 3): with 512-way
    /// descriptors the CPU re-posts one descriptor per 512 packets; with
    /// traditional RQs it writes one descriptor per packet. The descriptor
    /// write is real work (64 B into the emulated ring); the per-packet
    /// bookkeeping is a countdown decrement, not a division.
    #[inline]
    fn emulate_rq_descriptor_repost(&mut self) {
        self.desc_countdown -= 1;
        if self.desc_countdown > 0 {
            return;
        }
        // `.max(1)`: a (nonsensical but representable) zero factor must
        // degrade to per-packet re-posts, not underflow the countdown.
        self.desc_countdown = if self.cfg.opt_multi_packet_rq {
            (self.cfg.rq_multi_packet_factor as u64).max(1)
        } else {
            1
        };
        self.desc_counter += 1; // re-post events
        let idx = (self.desc_counter % 64) as usize * 64;
        let ctr = self.desc_counter;
        for (i, b) in self.desc_scratch[idx..idx + 64].iter_mut().enumerate() {
            *b = (ctr as u8).wrapping_add(i as u8);
        }
        std::hint::black_box(&mut self.desc_scratch[idx]);
    }

    /// Per-packet dispatch (§5.2): the one up-front validity check every
    /// packet needs (length, magic, known type), then one routine per
    /// packet type. Data packets are read lazily through a zero-decode
    /// [`PktHdrView`]; only CR/RFR/management pay the full decode.
    ///
    /// This is also the one classification point: every parsed packet is
    /// counted exactly once, as a `fast_path_hits` (its routine ran the
    /// §5.2 straight-line case) or a `slow_path_entries` (anything else,
    /// including packets dropped as stale). The packets of `rest` that a
    /// request packet's run consumes are classified by `server_rx_run`;
    /// this returns how many that was, for the caller to skip.
    fn process_one_pkt(&mut self, tok: RxToken, rest: &[RxToken]) -> usize {
        self.work.rx_bytes += tok.len() as u64;
        let Some((_, ty)) = PktHdrView::parse(self.transport.rx_bytes(&tok)) else {
            // Malformed (short / bad magic / unknown type): dropped by the
            // one check, before any type-specific work.
            self.stats.rx_dropped_stale += 1;
            return 0;
        };
        let mut run = 0;
        let handled = match ty {
            PktType::Req => self.server_rx_req(&tok, rest, &mut run),
            PktType::Resp => self.client_rx_resp(&tok),
            _ => self.process_one_pkt_slow(ty, tok),
        };
        match handled {
            Some(true) => self.stats.fast_path_hits += 1,
            Some(false) => self.stats.slow_path_entries += 1,
            None => {
                self.stats.slow_path_entries += 1;
                self.stats.rx_dropped_stale += 1;
            }
        }
        run
    }

    /// The cold packet types: credit returns, RFRs and management, which
    /// eagerly decode the whole header. `#[inline(never)]` keeps them out
    /// of the dispatcher's instruction stream.
    #[inline(never)]
    fn process_one_pkt_slow(&mut self, ty: PktType, tok: RxToken) -> Handled {
        let hdr = PktHdr::decode_validated(self.transport.rx_bytes(&tok));
        match ty {
            PktType::CreditReturn => return self.client_rx_cr(hdr),
            PktType::Rfr => return self.server_rx_rfr(hdr),
            PktType::ConnectReq => self.rx_connect_req(hdr, tok),
            PktType::ConnectResp => self.rx_connect_resp(hdr, tok),
            PktType::DisconnectReq => self.rx_disconnect_req(hdr, tok),
            PktType::DisconnectResp => self.rx_disconnect_resp(hdr, tok),
            PktType::Ping => self.rx_ping(hdr),
            PktType::Pong => self.rx_pong(hdr),
            PktType::Req | PktType::Resp => {
                Self::invariant_breach(&mut self.stats, "data packet on the cold path")
            }
        }
        Some(false)
    }

    pub(super) fn touch_session_rx(&mut self, sess_idx: u16) {
        let now = self.now_cache;
        if let Some(Some(s)) = self.sessions.get_mut(sess_idx as usize) {
            s.last_rx_ns = now;
        }
    }

    // ── Client RX: credit returns and responses ────────────────────────

    /// The slot of a connected client session that `req_num` is current
    /// on, or `None` if the packet naming it is stale.
    fn current_client_slot(sess: &Session, req_num: u64) -> Option<usize> {
        if sess.role != Role::Client || sess.state != SessionState::Connected {
            return None;
        }
        let slot_idx = sess.slot_of(req_num);
        let c = sess.slots[slot_idx].client();
        (c.active && c.req_num == req_num).then_some(slot_idx)
    }

    /// Consume client RX sequence `rx_seq` of a slot (a CR, or a response
    /// packet): return the credits it acknowledges, advance `num_rx`, reset
    /// the retransmission state, and note that the slot may send again.
    /// Returns the RTT sample and whether Karn's rule admits it (the
    /// window was never retransmitted since its last progress — captured
    /// before the reset).
    fn ack_rx_seq(sess: &mut Session, slot_idx: usize, rx_seq: u32, now: u64) -> (u64, bool) {
        let c = sess.slots[slot_idx].client_mut();
        let karn_ok = c.retries == 0;
        sess.credits += rx_seq + 1 - c.num_rx;
        c.num_rx = rx_seq + 1;
        c.last_progress_ns = now;
        c.retries = 0;
        sess.wants_tx.insert(slot_idx);
        (c.rtt_sample(rx_seq, now), karn_ok)
    }

    fn client_rx_cr(&mut self, hdr: PktHdr) -> Handled {
        let now = self.pkt_now();
        let sess = self.sessions.get_mut(hdr.dest_session as usize)?.as_mut()?;
        sess.last_rx_ns = self.now_cache;
        let slot_idx = Self::current_client_slot(sess, hdr.req_num)?;
        // A CR acknowledges request packet `pkt_num`; in-order fabrics make
        // this cumulative. RX sequence for request pkt k is k — for all but
        // the last packet, which response packet 0 acknowledges: a CR
        // naming it is forged, and accepting it would make that response
        // stale with nothing left in flight to time out.
        let rx_seq = hdr.pkt_num as u32;
        let c = sess.slots[slot_idx].client();
        if rx_seq >= c.num_tx || rx_seq < c.num_rx || rx_seq + 1 >= c.req_total {
            return None;
        }
        let (rtt, karn_ok) = Self::ack_rx_seq(sess, slot_idx, rx_seq, now);
        self.cc_on_ack(hdr.dest_session, rtt, hdr.ecn, karn_ok, now);
        self.kick_session(hdr.dest_session);
        Some(false)
    }

    /// A response packet. The straight-line case (§5.2) is the first and
    /// only packet of a response that fits the application's buffer:
    /// copied out, credits returned, continuation invoked, all in this
    /// pass. Later packets of a multi-packet response must arrive in order
    /// (§5.3: reordered packets are treated as losses and dropped).
    fn client_rx_resp(&mut self, tok: &RxToken) -> Handled {
        let now = self.pkt_now();
        let dpp = self.dpp;
        let b = self.transport.rx_bytes(tok);
        let v = PktHdrView::trusted(b);
        let payload = &b[PKT_HDR_SIZE..];
        let (dest, p, ecn) = (v.dest_session(), v.pkt_num() as u32, v.ecn());
        let sess = self.sessions.get_mut(dest as usize)?.as_mut()?;
        sess.last_rx_ns = self.now_cache;
        let slot_idx = Self::current_client_slot(sess, v.req_num())?;
        let c = sess.slots[slot_idx].client_mut();
        // Response packet `p` is RX sequence N + p − 1: packet 0 also acks
        // every request packet (§5.1). It must be the next one expected
        // and answer something actually transmitted.
        let rx_seq = c.req_total + p - 1;
        if p != c.resp_rcvd || rx_seq < c.num_rx || rx_seq >= c.num_tx {
            return None;
        }
        let Some(resp) = c.resp.as_mut() else {
            Self::invariant_breach(&mut self.stats, "active client slot lost resp buffer");
            return None;
        };
        // Malformed-packet hardening: the packet must carry exactly the
        // bytes its index implies, or the copy below would corrupt (or
        // overrun) the application's buffer. Checked before anything is
        // trusted, so a forged header can neither do that nor abort a
        // legitimate RPC as too large: it is dropped like a loss (§5.3).
        if p == 0 {
            // First packet: reveals the response size.
            let msg_size = v.msg_size() as usize;
            if payload.len() != msg_size.min(dpp) {
                return None;
            }
            if msg_size > resp.capacity() {
                // Doesn't fit the application's buffer: complete with an
                // error (buffers returned to the app).
                let (rtt, karn_ok) = Self::ack_rx_seq(sess, slot_idx, rx_seq, now);
                self.cc_on_ack(dest, rtt, ecn, karn_ok, now);
                self.complete_slot(dest, slot_idx, Err(RpcError::MsgTooLarge));
                return Some(false);
            }
            resp.resize(msg_size);
            c.resp_total = resp.num_pkts() as u32;
        } else if p >= c.resp_total || payload.len() != resp.pkt_data_len(p as usize) {
            return None;
        }
        resp.write_pkt_data(p as usize, payload);
        c.resp_rcvd += 1;
        let (rtt, karn_ok) = Self::ack_rx_seq(sess, slot_idx, rx_seq, now);
        let c = sess.slots[slot_idx].client();
        let (done, straight) = (c.done(), c.resp_total == 1);
        self.cc_on_ack(dest, rtt, ecn, karn_ok, now);
        if done {
            self.complete_slot(dest, slot_idx, Ok(()));
        } else {
            self.kick_session(dest);
        }
        Some(straight)
    }

    /// Congestion-control reaction to an acked packet (client side only,
    /// §5.2.1). ECN feeds DCQCN; RTT feeds Timely, subject to the Timely
    /// bypass (§5.2.2 opt 1).
    fn cc_on_ack(&mut self, sess_idx: u16, rtt_ns: u64, ecn: bool, karn_ok: bool, now: u64) {
        if self.cfg.record_rtt_samples {
            self.rtt_hist.record(rtt_ns);
        }
        let Some(sess) = self.sessions[sess_idx as usize].as_mut() else {
            Self::invariant_breach(&mut self.stats, "cc_on_ack on missing session");
            return;
        };
        if ecn {
            self.stats.ecn_marks_seen += 1;
        }
        // Adaptive RTO (RFC 6298): fold Karn-valid samples into the
        // per-session SRTT/RTTVAR estimator. Samples taken while the slot's
        // window had been retransmitted are ambiguous (the ack may answer
        // the original or the retransmission) and are excluded.
        if karn_ok && self.cfg.opt_adaptive_rto {
            sess.cc.on_rtt_sample(rtt_ns);
        }
        if let Some(d) = sess.cc.dcqcn.as_mut() {
            if ecn {
                d.on_congestion_notification(now);
            }
        }
        if let Some(t) = sess.cc.timely.as_mut() {
            if self.cfg.opt_timely_bypass && t.can_bypass_update(rtt_ns) {
                self.stats.timely_bypasses += 1;
            } else {
                t.update(rtt_ns, now);
                self.stats.timely_updates += 1;
            }
        }
    }

    /// Complete a client slot: free it, advance its request number, invoke
    /// the continuation with buffer ownership, and let the session start
    /// the backlog head in the slot just freed.
    pub(super) fn complete_slot(
        &mut self,
        sess_idx: u16,
        slot_idx: usize,
        result: Result<(), RpcError>,
    ) {
        let now = self.now_cache;
        let Some(sess) = self.sessions[sess_idx as usize].as_mut() else {
            Self::invariant_breach(&mut self.stats, "complete_slot on missing session");
            return;
        };
        let n_slots = sess.slots.len() as u64;
        let c = sess.slots[slot_idx].client_mut();
        debug_assert!(c.active);
        let (Some(req), Some(resp), Some(cont)) = (c.req.take(), c.resp.take(), c.cont.take())
        else {
            // An active slot owns req+resp+cont; a torn slot forfeits the
            // completion (buffers drop) rather than aborting the loop.
            Self::invariant_breach(&mut self.stats, "active slot missing req/resp/cont");
            return;
        };
        let latency_ns = now.saturating_sub(c.start_ns);
        c.active = false;
        c.req_num += n_slots;
        c.tx_epoch = c.tx_epoch.wrapping_add(1); // kill any paced leftovers
        sess.free.insert(slot_idx);
        sess.outstanding -= 1;
        match result {
            Ok(()) => self.stats.responses_completed += 1,
            Err(_) => self.stats.requests_failed += 1,
        }
        self.invoke_continuation(
            cont,
            Completion {
                req,
                resp,
                result,
                latency_ns,
                session: crate::session::SessionHandle(sess_idx),
            },
        );
        // A slot came free, and the final response packet returned credits.
        self.kick_session(sess_idx);
    }

    /// Consume a continuation: `FnOnce` + move-out-of-slot means each
    /// request's closure runs at most once, structurally. The `Channel`
    /// cell shape bypasses the closure machinery entirely: the request
    /// msgbuf recycles through the pool and the response msgbuf (or the
    /// error) lands in the shared cell — no per-RPC allocation.
    pub(super) fn invoke_continuation(&mut self, cont: Continuation, completion: Completion) {
        self.work.callbacks += 1;
        match cont.into_inner() {
            super::ContInner::Boxed(f) => {
                let mut ctx = ContContext {
                    pool: &mut self.pool,
                    ops: &mut self.pending_ops,
                };
                f(&mut ctx, completion);
            }
            super::ContInner::Cell(cell) => {
                let Completion {
                    req, resp, result, ..
                } = completion;
                self.pool.free(req);
                let outcome = match result {
                    Ok(()) => Ok(resp),
                    Err(e) => {
                        self.pool.free(resp);
                        Err(e)
                    }
                };
                *cell.borrow_mut() = Some(outcome);
            }
        }
    }

    // ── Server RX: requests and RFRs ────────────────────────────────────

    /// A request packet: classified against its slot — packet 0 of a new
    /// request, the next in-order packet of the one being assembled, a
    /// retransmitted duplicate, or stale — under one session borrow, and
    /// checked against what its header implies *before* any state changes,
    /// so a forged or truncated packet is dropped like a loss (§5.3) and
    /// its bytes never reach the assembly buffer or a handler.
    ///
    /// The straight-line case (§5.2) is a new single-packet request for a
    /// dispatch-mode handler: it falls through every branch below to run
    /// the handler inline on the RX-ring bytes (zero-copy, §4.2.3) and
    /// queue the response in the same pass.
    ///
    /// An in-order packet of a multi-packet request that is not its last
    /// goes on as a run through the packets after it in the burst (`rest`;
    /// `server_rx_run`), and `run` is set to how many of them it took.
    fn server_rx_req(&mut self, tok: &RxToken, rest: &[RxToken], run: &mut usize) -> Handled {
        let dpp = self.dpp;
        let b = self.transport.rx_bytes(tok);
        let v = PktHdrView::trusted(b);
        let payload = &b[PKT_HDR_SIZE..];
        let (dest, req_num, p) = (v.dest_session(), v.req_num(), v.pkt_num() as u32);
        let sess = self.sessions.get_mut(dest as usize)?.as_mut()?;
        sess.last_rx_ns = self.now_cache;
        if sess.role != Role::Server {
            return None;
        }
        let (peer, remote) = (sess.peer, sess.remote_num);
        let slot_idx = sess.slot_of(req_num);
        let s = sess.slots[slot_idx].server_mut();

        if s.req_num == u64::MAX || req_num > s.req_num {
            // Packet 0 of a new request: the client only reuses a slot
            // after completing its previous request (a handler still
            // running means it did not), so the slot is this request's.
            let msg_size = v.msg_size() as usize;
            if p != 0
                || s.phase == SrvPhase::Processing
                || msg_size > self.cfg.max_msg_size
                || payload.len() != msg_size.min(dpp)
            {
                return None;
            }
            if let Some(old) = s.resp.take() {
                if s.resp_is_prealloc {
                    s.prealloc = Some(old);
                } else {
                    self.pool.free(old);
                }
            }
            // A peer that abandons a half-sent request must not leave its
            // assembly buffer behind for this request's packets.
            if let Some(abandoned) = s.req_buf.take() {
                self.pool.free(abandoned);
            }
            s.req_num = req_num;
            s.req_type = v.req_type();
            s.req_rcvd = 0;
            s.req_total = 1;
            // Multi-packet requests are assembled by copying; single-packet
            // requests stay zero-copy (§4.2.3).
            if msg_size > dpp {
                let buf = self.pool.alloc(msg_size);
                s.req_total = buf.num_pkts() as u32;
                s.req_buf = Some(buf);
                s.phase = SrvPhase::Receiving;
            }
        } else if req_num < s.req_num {
            return None;
        } else if s.phase != SrvPhase::Receiving || p < s.req_rcvd {
            // Retransmitted duplicate of the slot's request.
            let req_total = s.req_total;
            if s.phase == SrvPhase::Responding && p + 1 == req_total {
                // Last request packet again: the client lost our first
                // response packet; resend it (§5.3 via go-back-N).
                self.tx_resp_pkt(dest, slot_idx, req_num, 0);
            } else if p + 1 < req_total {
                // Lost CR: resend it.
                let cr = PktHdr::control(PktType::CreditReturn, remote, req_num, p as u16);
                self.tx_ctrl(peer, cr);
            } else {
                return None;
            }
            return Some(false);
        } else if p != s.req_rcvd
            || s.req_buf.as_ref().map(|b| b.pkt_data_len(p as usize)) != Some(payload.len())
        {
            return None; // reordering == loss (§5.3); so is a wrong-sized chunk
        }

        // ── Commit: in-order packet `p` of the slot's request. ──
        s.req_rcvd += 1;
        if let Some(buf) = s.req_buf.as_mut() {
            buf.write_pkt_data(p as usize, payload);
        }
        let handle = DeferredHandle {
            sess: dest,
            slot: slot_idx as u8,
            req_num,
        };
        if s.req_rcvd < s.req_total {
            // Not the last packet: it starts a run, which ends in one CR.
            *run = self.server_rx_run(rest, handle, v.ecn()).unwrap_or(0);
            return Some(false);
        }

        // ── Last packet: the request is complete; run its handler. ──
        s.phase = SrvPhase::Processing;
        // The last request packet gets no CR, so its ECN mark rides back
        // on the response (baked into the header template at install).
        s.resp_ecn = v.ecn();
        let req_type = s.req_type;
        let mut assembled = s.req_buf.take();
        self.stats.handlers_invoked += 1;
        self.work.callbacks += 1;
        let mut straight = false;
        let resp = match &mut self.handlers[req_type as usize] {
            HandlerEntry::Dispatch(f) => {
                let mut ctx = ReqContext {
                    pool: &mut self.pool,
                    ops: &mut self.pending_ops,
                    prealloc: s.prealloc.take(),
                    prealloc_enabled: self.cfg.opt_preallocated_responses,
                    resp_built: None,
                    deferred: false,
                    handle,
                    max_msg_size: self.cfg.max_msg_size,
                };
                match &assembled {
                    Some(req) => f(&mut ctx, req.data()),
                    None if self.cfg.opt_zero_copy_rx => {
                        straight = true;
                        f(&mut ctx, payload);
                    }
                    None => {
                        // Table 3's "disable 0-copy request processing":
                        // copy into a pooled msgbuf first.
                        let mut copy = ctx.pool.alloc(payload.len());
                        copy.fill(payload);
                        f(&mut ctx, copy.data());
                        ctx.pool.free(copy);
                    }
                }
                s.prealloc = ctx.prealloc.take();
                if ctx.resp_built.is_none() && !ctx.deferred {
                    // Handler-contract bug: neither respond() nor defer().
                    // The slot stays Processing; the client retries or
                    // times out (§5.3) instead of the server aborting.
                    Self::invariant_breach(
                        &mut self.stats,
                        "dispatch handler must respond() or defer()",
                    );
                }
                ctx.resp_built // None: stays Processing until enqueue_response
            }
            HandlerEntry::Worker => {
                self.stats.handlers_to_workers += 1;
                // The assembled multi-packet msgbuf moves to the worker
                // whole; a single RX packet is copied into a pooled
                // buffer once (zero-copy RX bytes cannot outlive the
                // descriptor re-post, and cannot cross threads; §4.2.3
                // applies to dispatch mode only). Either way: pooled
                // buffers, zero heap allocations in steady state.
                let req = assembled.take().unwrap_or_else(|| {
                    let mut b = self.pool.alloc(payload.len());
                    b.fill(payload);
                    b
                });
                let resp = self.pool.alloc(Self::worker_resp_cap(&self.cfg));
                match self.worker.as_ref() {
                    Some(w) => w.submit(dest, slot_idx as u8, req_num, req_type, req, resp),
                    None => Self::invariant_breach(&mut self.stats, "worker handler, no pool"),
                }
                None
            }
            HandlerEntry::None => {
                // Unknown request type: respond empty so the client
                // completes (the application sees a 0-byte response).
                let enabled = self.cfg.opt_preallocated_responses;
                let (mut buf, is_prealloc) =
                    super::take_resp_buf(&mut s.prealloc, enabled, &mut self.pool, 0);
                buf.clear();
                Some((buf, is_prealloc))
            }
        };
        if let Some(req) = assembled {
            self.pool.free(req);
        }
        if let Some((buf, is_prealloc)) = resp {
            self.install_response(handle, buf, is_prealloc);
        }
        Some(straight)
    }

    /// The rest of a run (§5.1 credits, Fig. 6's large requests): packet
    /// `req_rcvd − 1` of the request `h` names was just committed, and the
    /// burst's next packets are usually the same request's next ones.
    /// Consume them while each one is the slot's next packet and not the
    /// request's last — checked through its header view (type, session,
    /// `req_num`, `pkt_num`) and its exact payload length before its bytes
    /// are copied — then classify them, advance `req_rcvd` once, and queue
    /// one CR naming the run's last packet with the OR of the run's ECN
    /// marks (the receiver-side half of DCQCN's notification path). CRs
    /// are cumulative, so that one CR returns every credit of the run.
    ///
    /// The first packet that fails a check ends the run and is dispatched
    /// on its own — the request's last packet that way runs the handler,
    /// a forged one is dropped like a loss. A lone packet is a run of one.
    /// Out of line: the single-packet path never enters it. Returns how
    /// many packets of `rest` it consumed (`None` only if the slot it was
    /// called for has no assembly buffer — unreachable).
    #[inline(never)]
    fn server_rx_run(&mut self, rest: &[RxToken], h: DeferredHandle, ecn: bool) -> Option<usize> {
        let sess = self.sessions.get_mut(h.sess as usize)?.as_mut()?;
        let (peer, remote) = (sess.peer, sess.remote_num);
        let s = sess.slots[h.slot as usize].server_mut();
        let (first, mut p, mut ecn, buf) = (s.req_rcvd, s.req_rcvd, ecn, s.req_buf.as_mut()?);
        // The request's last packet is never part of a run.
        for tok in rest.iter().take((s.req_total - first - 1) as usize) {
            let b = self.transport.rx_bytes(tok);
            let Some((v, PktType::Req)) = PktHdrView::parse(b) else {
                break;
            };
            if (v.dest_session(), v.req_num(), v.pkt_num() as u32) != (h.sess, h.req_num, p)
                || b.len() - PKT_HDR_SIZE != buf.pkt_data_len(p as usize)
            {
                break;
            }
            buf.write_pkt_data(p as usize, &b[PKT_HDR_SIZE..]);
            ecn |= v.ecn();
            self.work.rx_bytes += b.len() as u64;
            p += 1;
        }
        s.req_rcvd = p;
        self.stats.slow_path_entries += (p - first) as u64;
        let cr = PktHdr::control(PktType::CreditReturn, remote, h.req_num, (p - 1) as u16);
        self.tx_ctrl(peer, PktHdr { ecn, ..cr });
        Some((p - first) as usize)
    }

    /// The server slot `h` names, with its session's remote number, if it
    /// still awaits that request's response. `None` on a stale handle: the
    /// session was freed or the slot reused while the response was being
    /// produced.
    pub(super) fn awaiting_response(
        sessions: &mut [Option<Session>],
        h: DeferredHandle,
    ) -> Option<(u16, &mut ServerSlot)> {
        let sess = sessions.get_mut(h.sess as usize)?.as_mut()?;
        if sess.role != Role::Server {
            return None;
        }
        let s = sess.slots[h.slot as usize].server_mut();
        (s.req_num == h.req_num && s.phase == SrvPhase::Processing).then_some((sess.remote_num, s))
    }

    /// The one place a response becomes the slot's: write its header
    /// template (§5.2: one encode covering every response packet, with the
    /// slot's `resp_ecn` echo baked in; every transmission and
    /// retransmission then reuses these bytes), flip the phase, and queue
    /// packet 0. On a stale handle the buffer recycles through the pool.
    pub(super) fn install_response(
        &mut self,
        handle: DeferredHandle,
        mut buf: MsgBuf,
        is_prealloc: bool,
    ) {
        let Some((remote, s)) = Self::awaiting_response(&mut self.sessions, handle) else {
            self.pool.free(buf);
            return;
        };
        buf.write_hdr_template(&PktHdr {
            pkt_type: PktType::Resp,
            ecn: s.resp_ecn,
            req_type: s.req_type,
            dest_session: remote,
            msg_size: buf.len() as u32,
            req_num: handle.req_num,
            pkt_num: 0,
        });
        s.resp = Some(buf);
        s.resp_is_prealloc = is_prealloc;
        s.phase = SrvPhase::Responding;
        self.tx_resp_pkt(handle.sess, handle.slot as usize, handle.req_num, 0);
    }

    fn server_rx_rfr(&mut self, hdr: PktHdr) -> Handled {
        let sess = self.sessions.get_mut(hdr.dest_session as usize)?.as_mut()?;
        sess.last_rx_ns = self.now_cache;
        if sess.role != Role::Server {
            return None;
        }
        let slot_idx = sess.slot_of(hdr.req_num);
        let s = sess.slots[slot_idx].server();
        if s.req_num != hdr.req_num || s.phase != SrvPhase::Responding {
            return None;
        }
        let Some(total) = s.resp.as_ref().map(|r| r.num_pkts()) else {
            Self::invariant_breach(&mut self.stats, "responding slot lost its resp buffer");
            return None;
        };
        if hdr.pkt_num == 0 || hdr.pkt_num as usize >= total {
            return None;
        }
        // RFRs are idempotent: duplicates (from go-back-N) re-send.
        self.tx_resp_pkt(hdr.dest_session, slot_idx, hdr.req_num, hdr.pkt_num);
        Some(false)
    }

    // ── Worker completions ─────────────────────────────────────────────

    pub(super) fn process_worker_completions(&mut self) {
        let Some(worker) = &self.worker else {
            return;
        };
        let mut done = std::mem::take(&mut self.worker_done_scratch);
        worker.drain_completed(&mut done);
        for d in done.drain(..) {
            let handle = DeferredHandle {
                sess: d.sess,
                slot: d.slot,
                req_num: d.req_num,
            };
            // Both msgbufs come home: the request buffer recycles through
            // the pool; the response installs into the slot with no copy.
            self.pool.free(d.req);
            self.install_response(handle, d.resp, false);
        }
        self.worker_done_scratch = done;
    }

    // ── Queued ops from callbacks ──────────────────────────────────────

    pub(super) fn drain_pending_ops(&mut self) {
        let mut guard = 0u32;
        while !self.pending_ops.is_empty() {
            guard += 1;
            // lint:allow(hot-path-panic): livelock guard — fires only when
            // a continuation endlessly re-queues ops within one drain call
            // (an app bug); runs per event-loop pass, not per packet.
            assert!(guard < 1_000_000, "callback op livelock");
            // Two capacity-retaining buffers rotate: the drained batch and
            // the list callbacks push follow-up ops into. A take-and-drop
            // here would free and re-grow the ops Vec every pass — a heap
            // round trip per event loop on the closed-loop common case.
            let mut ops =
                std::mem::replace(&mut self.pending_ops, std::mem::take(&mut self.ops_scratch));
            for op in ops.drain(..) {
                match op {
                    QueuedOp::Request {
                        sess,
                        req_type,
                        req,
                        resp,
                        cont,
                    } => {
                        if let Err(e) = self.enqueue_request_cont(sess, req_type, req, resp, cont) {
                            // Deliver the failure through the continuation
                            // (the enqueue error hands it back unfired).
                            let completion = Completion {
                                req: e.req,
                                resp: e.resp,
                                result: Err(e.err),
                                latency_ns: 0,
                                session: sess,
                            };
                            self.stats.requests_failed += 1;
                            self.invoke_continuation(e.cont, completion);
                        }
                    }
                    QueuedOp::Response { handle, resp } => {
                        self.install_response(handle, resp, false)
                    }
                }
            }
            self.ops_scratch = ops;
        }
    }
}
