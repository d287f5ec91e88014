//! Session management: connect/disconnect handshakes, session-number
//! allocation, timers, failure detection (Appendix B), and go-back-N
//! recovery (§5.3).
//!
//! SM packets address the *endpoint*, not a session: a `ConnectReq`
//! arrives with the sentinel management session number and carries the
//! client's identity in its body. Under a [`crate::Nexus`], each thread's
//! endpoint has a unique `Addr(node, thread_id)`, so the fabric delivers
//! SM traffic directly to the ring of the owning thread — the paper's
//! "Nexus routes session management to the owning Rpc" collapsed into
//! transport addressing (no cross-thread queues needed).

use erpc_congestion::{Dcqcn, Timely};
use erpc_transport::{Addr, RxToken, Transport};

use crate::config::CcAlgorithm;
use crate::error::RpcError;
use crate::mgmt::{ConnectReq, ConnectResp, DisconnectReq, DisconnectResp};
use crate::pkthdr::{PktHdr, PktType, PKT_HDR_SIZE};
use crate::session::{Role, ServerSlot, Session, SessionHandle, SessionState, Slot};

use super::{Completion, Rpc};

/// Sentinel `dest_session` for packets that precede session establishment.
const MGMT_SESSION: u16 = u16::MAX;

impl<T: Transport> Rpc<T> {
    // ── Session-number allocation ───────────────────────────────────────

    pub(super) fn alloc_session_slot(&mut self) -> u16 {
        if let Some(i) = self.sessions.iter().position(|s| s.is_none()) {
            i as u16
        } else {
            self.sessions.push(None);
            (self.sessions.len() - 1) as u16
        }
    }

    pub(super) fn init_session_cc(&mut self, num: u16) {
        let cc = &self.cfg.cc;
        let sess = self.sessions[num as usize].as_mut().unwrap();
        match cc {
            CcAlgorithm::None => {}
            CcAlgorithm::Timely(tc) => sess.cc.timely = Some(Timely::new(tc.clone())),
            CcAlgorithm::Dcqcn(dc) => sess.cc.dcqcn = Some(Dcqcn::new(dc.clone())),
        }
    }

    // ── Management RX ───────────────────────────────────────────────────

    pub(super) fn rx_connect_req(&mut self, _hdr: PktHdr, tok: RxToken) {
        let body = {
            let b = self.transport.rx_bytes(&tok);
            match ConnectReq::decode(&b[PKT_HDR_SIZE..]) {
                Ok(m) => m,
                Err(_) => return,
            }
        };
        let key = (body.client_addr.key(), body.client_session);
        if let Some(&num) = self.connect_map.get(&key) {
            let stored = self.sessions[num as usize]
                .as_ref()
                .map_or(0, |s| s.peer_incarnation);
            if stored == body.incarnation {
                // Duplicate ConnectReq (retry): re-send the stored answer.
                let resp = ConnectResp {
                    client_session: body.client_session,
                    server_session: num,
                    ok: true,
                };
                self.tx_connect_resp(body.client_addr, resp);
                return;
            }
            // Same (addr, session) but a different incarnation: the client
            // restarted. Replaying the old ConnectResp would point it at a
            // session full of stale slot state — reset and accept fresh.
            self.stats.sessions_reset_incarnation += 1;
            self.free_server_session(num);
        }
        // Config compatibility and capacity checks (§4.3.1 session limit).
        let acceptable = body.num_slots as usize == self.cfg.slots_per_session
            && self.live_sessions() < self.session_limit();
        if !acceptable {
            let resp = ConnectResp {
                client_session: body.client_session,
                server_session: u16::MAX,
                ok: false,
            };
            self.tx_connect_resp(body.client_addr, resp);
            return;
        }
        let num = self.alloc_session_slot();
        let slots: Vec<Slot> = (0..self.cfg.slots_per_session)
            .map(|_| Slot::Server(ServerSlot::new()))
            .collect();
        let mut sess = Session::new_server(
            num,
            body.client_addr,
            body.client_session,
            body.credits,
            slots,
            self.now_cache,
        );
        sess.peer_incarnation = body.incarnation;
        self.sessions[num as usize] = Some(sess);
        self.live_session_count += 1;
        self.connect_map.insert(key, num);
        let resp = ConnectResp {
            client_session: body.client_session,
            server_session: num,
            ok: true,
        };
        self.tx_connect_resp(body.client_addr, resp);
    }

    pub(super) fn rx_connect_resp(&mut self, hdr: PktHdr, tok: RxToken) {
        let body = {
            let b = self.transport.rx_bytes(&tok);
            match ConnectResp::decode(&b[PKT_HDR_SIZE..]) {
                Ok(m) => m,
                Err(_) => return,
            }
        };
        let _ = hdr;
        let Some(Some(sess)) = self.sessions.get_mut(body.client_session as usize) else {
            return;
        };
        if sess.role != Role::Client || sess.state != SessionState::Connecting {
            return; // duplicate
        }
        if !body.ok {
            self.fail_session(body.client_session, RpcError::TooManySessions);
            return;
        }
        sess.state = SessionState::Connected;
        sess.remote_num = body.server_session;
        sess.last_rx_ns = self.now_cache;
        // Requests enqueued during the handshake waited in the backlog.
        self.kick_session(body.client_session);
    }

    pub(super) fn rx_disconnect_req(&mut self, hdr: PktHdr, tok: RxToken) {
        // Server side: free the session (if we still have it) and confirm.
        // The body identifies the requesting client, which makes the
        // handshake idempotent: a retransmitted DisconnectReq for a session
        // we already freed — because our DisconnectResp was lost — is acked
        // again instead of being silently ignored (which leaked the
        // client's session forever).
        let body = {
            let b = self.transport.rx_bytes(&tok);
            match DisconnectReq::decode(&b[PKT_HDR_SIZE..]) {
                Ok(m) => m,
                Err(_) => return,
            }
        };
        if let Some(Some(sess)) = self.sessions.get(hdr.dest_session as usize) {
            // Only free if the session still belongs to this client: the
            // session number may have been reused for a different peer
            // after an earlier DisconnectReq already freed it.
            if sess.role == Role::Server
                && sess.peer == body.client_addr
                && sess.remote_num == body.client_session
            {
                self.free_server_session(hdr.dest_session);
            }
        }
        let resp_hdr = PktHdr::control(PktType::DisconnectResp, body.client_session, 0, 0);
        let resp_body = DisconnectResp {
            server_addr: self.transport.addr(),
        };
        let mut buf = Vec::with_capacity(4);
        resp_body.encode(&mut buf);
        self.tx_mgmt(body.client_addr, resp_hdr, buf);
    }

    pub(super) fn rx_disconnect_resp(&mut self, hdr: PktHdr, tok: RxToken) {
        let body = {
            let b = self.transport.rx_bytes(&tok);
            match DisconnectResp::decode(&b[PKT_HDR_SIZE..]) {
                Ok(m) => m,
                Err(_) => return,
            }
        };
        let Some(Some(sess)) = self.sessions.get_mut(hdr.dest_session as usize) else {
            return;
        };
        if sess.role != Role::Client || sess.state != SessionState::Disconnecting {
            return;
        }
        // The ack must come from the peer this session is disconnecting
        // from: retries make duplicate acks routine, and a delayed ack
        // from a previous occupant of this session number must not free a
        // reused slot (which would strand the real disconnect's retries).
        if sess.peer != body.server_addr {
            return;
        }
        // Return slot msgbufs (none should be active) and free.
        self.sessions[hdr.dest_session as usize] = None;
        self.live_session_count -= 1;
    }

    pub(super) fn rx_ping(&mut self, hdr: PktHdr) {
        // Pings carry the sender's incarnation (low 48 bits) in `req_num`.
        // A mismatch against this session's stored peer incarnation means
        // the pinger is *stale* — a session from before a restart on one
        // side, whose session number now maps to someone else here. Don't
        // count it as liveness for our current peer, and don't tear
        // anything down from an unauthenticated 16 B header (identity-
        // checked resets happen on the ConnectReq path): just answer with
        // our incarnation so the stale pinger fails itself.
        let Some(Some(sess)) = self.sessions.get(hdr.dest_session as usize) else {
            return;
        };
        let stale = hdr.req_num != 0
            && sess.peer_incarnation != 0
            && sess.peer_incarnation & crate::pkthdr::REQ_NUM_MASK != hdr.req_num;
        if !stale {
            self.touch_session_rx(hdr.dest_session);
        }
        let sess = self.sessions[hdr.dest_session as usize].as_ref().unwrap();
        // Address the pong to the *pinging* session (carried in the ping's
        // `pkt_num`), not the stored `remote_num`: after a restart on
        // either side, this server session may be bound to a different
        // client session than the stale one still pinging the old number —
        // the stale session must receive the pong (and its incarnation) to
        // detect that.
        let pong = PktHdr::control(
            PktType::Pong,
            hdr.pkt_num,
            self.incarnation & crate::pkthdr::REQ_NUM_MASK,
            0,
        );
        let dst = sess.peer;
        self.tx_ctrl(dst, pong);
    }

    pub(super) fn rx_pong(&mut self, hdr: PktHdr) {
        self.touch_session_rx(hdr.dest_session);
        // Pongs carry the server's incarnation: adopt it on first sight;
        // a *change* afterwards means the server restarted and silently
        // dropped our session state — fail fast so every pending caller
        // gets a typed error instead of retransmitting into a blackhole
        // until the 100-retry give-up.
        let Some(Some(sess)) = self.sessions.get_mut(hdr.dest_session as usize) else {
            return;
        };
        if sess.role != Role::Client || hdr.req_num == 0 {
            return;
        }
        if sess.peer_incarnation == 0 {
            sess.peer_incarnation = hdr.req_num;
        } else if sess.peer_incarnation != hdr.req_num {
            self.stats.sessions_reset_incarnation += 1;
            self.fail_session(hdr.dest_session, RpcError::RemoteFailure);
        }
    }

    pub(super) fn free_server_session(&mut self, idx: u16) {
        if let Some(sess) = self.sessions[idx as usize].take() {
            self.live_session_count -= 1;
            self.connect_map.remove(&(sess.peer.key(), sess.remote_num));
            for slot in sess.slots {
                if let Slot::Server(mut s) = slot {
                    if let Some(b) = s.resp.take() {
                        if !s.resp_is_prealloc {
                            self.pool.free(b);
                        }
                    }
                    if let Some(b) = s.req_buf.take() {
                        self.pool.free(b);
                    }
                    if let Some(b) = s.prealloc.take() {
                        self.pool.free(b);
                    }
                }
            }
        }
    }

    // ── Management TX ───────────────────────────────────────────────────

    pub(super) fn tx_connect_req(&mut self, sess_idx: u16) {
        // Fresh clock: also reachable from the `create_session` cold path.
        let now = self.transport.now_ns();
        let sess = self.sessions[sess_idx as usize].as_mut().unwrap();
        sess.connect_sent_ns = now;
        let body = ConnectReq {
            client_addr: self.transport.addr(),
            client_session: sess.local_num,
            credits: self.cfg.session_credits,
            num_slots: self.cfg.slots_per_session as u8,
            incarnation: self.incarnation,
        };
        let dst = sess.peer;
        let mut buf = Vec::with_capacity(16);
        body.encode(&mut buf);
        let hdr = PktHdr::control(PktType::ConnectReq, MGMT_SESSION, 0, 0);
        self.tx_mgmt(dst, hdr, buf);
    }

    fn tx_connect_resp(&mut self, dst: Addr, body: ConnectResp) {
        let mut buf = Vec::with_capacity(8);
        body.encode(&mut buf);
        let hdr = PktHdr::control(PktType::ConnectResp, body.client_session, 0, 0);
        self.tx_mgmt(dst, hdr, buf);
    }

    /// (Re)send the DisconnectReq for a disconnecting client session. The
    /// body carries our identity so the server can ack even after it has
    /// freed its end (idempotent disconnect under loss).
    pub(super) fn tx_disconnect_req(&mut self, sess_idx: u16) {
        // Fresh clock: also reachable from the `disconnect()` cold path,
        // where `now_cache` may be stale.
        let now = self.transport.now_ns();
        let client_addr = self.transport.addr();
        let sess = self.sessions[sess_idx as usize].as_mut().unwrap();
        sess.connect_sent_ns = now; // retry pacing, as for ConnectReq
        let body = DisconnectReq {
            client_addr,
            client_session: sess.local_num,
        };
        let hdr = PktHdr::control(PktType::DisconnectReq, sess.remote_num, 0, 0);
        let dst = sess.peer;
        let mut buf = Vec::with_capacity(8);
        body.encode(&mut buf);
        self.tx_mgmt(dst, hdr, buf);
    }

    // ── Timers: RTO, connects, pings, failure detection ─────────────────

    pub(super) fn run_timers(&mut self) {
        let now = self.now_cache;
        for idx in 0..self.sessions.len() as u16 {
            let Some(sess) = self.sessions[idx as usize].as_ref() else {
                continue;
            };
            match (sess.role, sess.state) {
                (Role::Client, SessionState::Connecting) => {
                    // Arm the give-up deadline on the first scan, not at
                    // creation: time between `create_session` and the first
                    // event-loop poll (apps constructing many endpoints
                    // before polling any) must not count against the
                    // handshake, or the session fails before its first
                    // retry ever goes out.
                    if sess.connect_deadline_ns == 0 {
                        let sess = self.sessions[idx as usize].as_mut().unwrap();
                        sess.connect_deadline_ns =
                            now.saturating_add(self.cfg.failure_timeout_ns).max(1);
                    }
                    let sess = self.sessions[idx as usize].as_ref().unwrap();
                    // Give up at the deadline, unconditionally: connect
                    // liveness must not depend on pings being enabled, or a
                    // dead peer strands every enqueued request in the
                    // backlog forever.
                    if now >= sess.connect_deadline_ns {
                        self.fail_session(idx, RpcError::RemoteFailure);
                    } else if now.saturating_sub(sess.connect_sent_ns) >= self.cfg.connect_retry_ns
                    {
                        self.tx_connect_req(idx);
                    }
                }
                (Role::Client, SessionState::Disconnecting) => {
                    // Lost-DisconnectResp handling: retry the DisconnectReq
                    // on the connect-retry timer; if the peer never answers
                    // within the failure timeout (dead server), free the
                    // session locally — it holds no application buffers
                    // (disconnect requires an idle session).
                    if now.saturating_sub(sess.last_ping_tx_ns) >= self.cfg.failure_timeout_ns {
                        self.stats.sessions_failed += 1;
                        self.sessions[idx as usize] = None;
                        self.live_session_count -= 1;
                    } else if now.saturating_sub(sess.connect_sent_ns) >= self.cfg.connect_retry_ns
                    {
                        self.tx_disconnect_req(idx);
                    }
                }
                (Role::Client, SessionState::Connected) => {
                    self.client_session_timers(idx, now);
                }
                (Role::Server, SessionState::Connected)
                    if self.cfg.ping_interval_ns > 0
                        && now.saturating_sub(sess.last_rx_ns) >= self.cfg.failure_timeout_ns =>
                {
                    // Client vanished: reclaim resources (Appendix B).
                    self.stats.sessions_failed += 1;
                    self.free_server_session(idx);
                }
                _ => {}
            }
        }
    }

    fn client_session_timers(&mut self, idx: u16, now: u64) {
        // DCQCN timers.
        {
            let sess = self.sessions[idx as usize].as_mut().unwrap();
            if let Some(d) = sess.cc.dcqcn.as_mut() {
                d.on_timer(now);
            }
        }
        // Failure detection (Appendix B).
        let sess = self.sessions[idx as usize].as_ref().unwrap();
        let (idle, last_rx, last_ping) =
            (sess.outstanding == 0, sess.last_rx_ns, sess.last_ping_tx_ns);
        let n_slots = sess.slots.len();
        if self.cfg.ping_interval_ns > 0 {
            if now.saturating_sub(last_rx) >= self.cfg.failure_timeout_ns {
                self.fail_session(idx, RpcError::RemoteFailure);
                return;
            }
            if idle && now.saturating_sub(last_ping) >= self.cfg.ping_interval_ns {
                let inc = self.incarnation & crate::pkthdr::REQ_NUM_MASK;
                let sess = self.sessions[idx as usize].as_mut().unwrap();
                sess.last_ping_tx_ns = now;
                // `req_num` carries our incarnation; `pkt_num` carries our
                // session number so the pong can be routed back to *this*
                // session even if the server's mapping has changed.
                let hdr = PktHdr::control(PktType::Ping, sess.remote_num, inc, sess.local_num);
                let dst = sess.peer;
                self.tx_ctrl(dst, hdr);
            }
        }
        // RTO scan (go-back-N, §5.3).
        if idle {
            return;
        }
        for slot_idx in 0..n_slots {
            let needs_rto = {
                let sess = self.sessions[idx as usize].as_ref().unwrap();
                let c = sess.slots[slot_idx].client();
                if c.active && c.in_flight() > 0 {
                    // Per-session adaptive RTO (RFC 6298) with exponential
                    // backoff per consecutive retry of this window; fixed
                    // `cfg.rto_ns` when the knob is off.
                    let rto = sess.cc.effective_rto_ns(
                        self.cfg.rto_ns,
                        self.cfg.opt_adaptive_rto,
                        c.retries,
                    );
                    (now.saturating_sub(c.last_progress_ns) >= rto).then_some(rto)
                } else {
                    None
                }
            };
            if let Some(rto) = needs_rto {
                self.stats.rto_events += 1;
                self.stats.rto_backoff_hist.record(rto);
                self.rollback_and_retransmit(idx, slot_idx, now);
            }
        }
    }

    /// Go-back-N rollback (§5.3): reclaim credits for unacked packets,
    /// flush the TX DMA queue so no msgbuf references linger (§4.2.2),
    /// and retransmit from the last acknowledged state.
    pub(super) fn rollback_and_retransmit(&mut self, sess_idx: u16, slot_idx: usize, now: u64) {
        self.stats.retransmissions += 1;
        let give_up = {
            let sess = self.sessions[sess_idx as usize].as_mut().unwrap();
            let c = sess.slots[slot_idx].client_mut();
            c.retries += 1;
            c.retries > self.cfg.max_retransmissions
        };
        if give_up {
            self.fail_session(sess_idx, RpcError::RemoteFailure);
            return;
        }
        // Flush the DMA queue: afterwards no queued TX references the
        // msgbuf (the invariant processing the response relies on). Two
        // queues are involved: the transport's (flushed by the barrier
        // below) and our deferred TX batch, whose descriptors for this slot
        // die at drain time via the epoch bump — the §4.2.2 flush without
        // walking the queue.
        self.transport.tx_flush();
        self.stats.tx_flushes += 1;
        {
            let sess = self.sessions[sess_idx as usize].as_mut().unwrap();
            let c = sess.slots[slot_idx].client_mut();
            let reclaimed = c.in_flight();
            c.num_tx = c.num_rx;
            c.tx_epoch = c.tx_epoch.wrapping_add(1); // invalidate wheel + batch refs
            c.last_progress_ns = now;
            sess.credits += reclaimed;
            // The rolled-back packets' pacing reservations are void: release
            // the horizon so retransmissions aren't scheduled behind wire
            // time that will never be used.
            sess.cc.next_tx_ns = now;
            sess.wants_tx.insert(slot_idx);
        }
        self.kick_session(sess_idx);
    }

    /// Declare the remote dead for one session (Appendix B): flush TX,
    /// error out every pending request, clear the backlog. Deferred TX
    /// descriptors for this session's slots are invalidated by the epoch
    /// bump in `complete_slot` (and the `Failed` state check at drain), so
    /// buffer ownership returns to the continuations with nothing queued
    /// that could still reference it.
    pub(super) fn fail_session(&mut self, sess_idx: u16, err: RpcError) {
        self.stats.sessions_failed += 1;
        self.transport.tx_flush();
        self.stats.tx_flushes += 1;
        let n_slots = {
            let sess = self.sessions[sess_idx as usize].as_mut().unwrap();
            sess.state = SessionState::Failed;
            sess.slots.len()
        };
        // Error out active slots.
        for slot_idx in 0..n_slots {
            let active = {
                let sess = self.sessions[sess_idx as usize].as_ref().unwrap();
                matches!(&sess.slots[slot_idx], Slot::Client(c) if c.active)
            };
            if active {
                self.complete_slot(sess_idx, slot_idx, Err(err));
            }
        }
        // Error out the backlog.
        loop {
            let p = {
                let sess = self.sessions[sess_idx as usize].as_mut().unwrap();
                sess.backlog.pop_front()
            };
            let Some(p) = p else { break };
            {
                let sess = self.sessions[sess_idx as usize].as_mut().unwrap();
                sess.outstanding -= 1;
            }
            self.stats.requests_failed += 1;
            let latency_ns = self.now_cache.saturating_sub(p.enqueue_ns);
            self.invoke_continuation(
                p.cont,
                Completion {
                    req: p.req,
                    resp: p.resp,
                    result: Err(err),
                    latency_ns,
                    session: SessionHandle(sess_idx),
                },
            );
        }
    }
}
