//! Egress datapath: the deferred TX batch (§4.3's transmit batching), the
//! pacing wheel (§5.2), and slot scheduling (`kick_session`).
//!
//! Every packet-egress site in the endpoint appends a [`TxDesc`] here; the
//! event loop drains the queue into one [`Transport::tx_burst`] per pass —
//! one DMA doorbell per burst. Msgbuf-backed descriptors are re-validated
//! against live slot state at drain, so a go-back-N rollback or completion
//! between enqueue and drain invalidates them (the Rust analogue of the
//! §4.2.2 DMA-queue flush).

use erpc_congestion::ns_per_byte;
use erpc_transport::{Addr, Transport, TxPacket};

use crate::config::CcAlgorithm;
use crate::pkthdr::{PktHdr, PktType, PKT_HDR_SIZE};
use crate::session::{ClientSlot, PendingReq, Role, Session, SessionState, Slot, SrvPhase};
use crate::stats::RpcStats;

use super::{DeferredHandle, Rpc};

/// A reference to TX sequences `seq..seq + count` of one request
/// incarnation on a client slot: request data packet `seq` while `seq < N`
/// (N = request packets), the RFR for response packet `seq − N + 1`
/// otherwise. Both the pacing wheel and the deferred TX queue hold these —
/// *descriptors*, never buffer references — so rollback invalidation is an
/// epoch bump and the msgbuf-ownership invariant of §4.2.2/App. C holds
/// structurally. `count` is 1 for an RFR and a paced packet; an unpaced
/// window of request packets is one descriptor (`kick`).
#[derive(Debug, Clone, Copy)]
pub(super) struct ClientSeq {
    pub sess: u16,
    pub slot: u8,
    pub req_num: u64,
    pub epoch: u32,
    pub seq: u32,
    pub count: u32,
}

/// Entry in the deferred TX queue (§4.3's transmit batching): every packet
/// egress site appends one of these, and the event loop hands the whole
/// batch to [`Transport::tx_burst`] at once — one DMA doorbell per batch.
///
/// Msgbuf-backed packets are descriptors: re-validated against live slot
/// state when the batch drains, so go-back-N rollback or slot completion
/// between enqueue and drain simply invalidates them. This is the Rust
/// analogue of the §4.2.2 DMA-queue flush — stale descriptors can never
/// reach the wire, and msgbuf ownership can return to the application
/// without waiting on the queue.
pub(super) enum TxDesc {
    /// Header-only control packet (CR / ping / pong); bytes owned here.
    Ctrl { dst: Addr, hdr: [u8; PKT_HDR_SIZE] },
    /// Management packet (connect / disconnect); header + body owned here.
    Mgmt {
        dst: Addr,
        hdr: [u8; PKT_HDR_SIZE],
        body: Vec<u8>,
    },
    /// Client TX sequences; validated once by (req_num, epoch) at drain,
    /// stamped per sequence, expanded into one packet view each.
    Client(ClientSeq),
    /// Server response packet `.1` of the request `.0` names; validated by
    /// req_num and the `Responding` phase at drain, when its view is taken.
    SrvResp(DeferredHandle, u16),
}

/// Per-descriptor drain resolution (scratch, computed by the validation
/// pass of [`Rpc::flush_tx_batch`], consumed by the view-building pass).
pub(super) enum TxResolved {
    /// Stale: slot rolled back, completed, or freed since enqueue.
    Skip,
    /// Send the descriptor's own bytes, or its slot's msgbuf packet (whose
    /// header was written once, when the message was installed).
    Send,
    /// RFR header encoded at drain time (from live slot state).
    Rfr([u8; PKT_HDR_SIZE]),
}

impl<T: Transport> Rpc<T> {
    // ── TX path (all egress goes through the deferred batch) ───────────

    /// Append a descriptor to the deferred TX queue, which drains once per
    /// event-loop pass or as soon as it holds `cfg.tx_batch` descriptors.
    #[inline]
    pub(super) fn queue_tx(&mut self, desc: TxDesc) {
        self.tx_queue.push(desc);
        if self.tx_queue.len() >= self.cfg.tx_batch {
            self.flush_tx_batch();
        }
    }

    /// Shared stale-reference check for deferred TX descriptors and
    /// pacing-wheel entries: a queued [`ClientSeq`] may transmit only
    /// while the slot still carries that exact request incarnation.
    /// Rollback and completion bump `tx_epoch`; session teardown empties
    /// the entry or flips its state — each path makes every outstanding
    /// reference fail here, never reaching a msgbuf. Keep this the single
    /// definition: the two queues must agree on staleness or a rolled-back
    /// packet could still reach the wire. Returns the live slot with its
    /// session's remote number.
    fn client_seq_slot(
        sessions: &mut [Option<Session>],
        r: ClientSeq,
    ) -> Option<(u16, &mut ClientSlot)> {
        let s = sessions[r.sess as usize].as_mut()?;
        if s.role != Role::Client || s.state != SessionState::Connected {
            return None;
        }
        let c = s.slots[r.slot as usize].client_mut();
        // Within one epoch `num_tx` only grows, so a live first sequence
        // vouches for the descriptor's whole count.
        let live = c.active && c.req_num == r.req_num && c.tx_epoch == r.epoch && r.seq < c.num_tx;
        live.then_some((s.remote_num, c))
    }

    /// Drain the deferred TX queue into `Transport::tx_burst`.
    ///
    /// Two passes over the queue:
    /// 1. *Validate*: client descriptors are checked against live slot
    ///    state exactly like reaped wheel entries — a rollback (epoch
    ///    bump), completion, or session teardown since enqueue marks the
    ///    descriptor stale and it is dropped, never sent — and get their
    ///    TX timestamps, so this pass borrows the slots mutably; RFR
    ///    headers are encoded.
    /// 2. *Build views + burst*: borrow each surviving packet's bytes
    ///    (msgbuf views for data, owned bytes for ctrl/mgmt) and hand the
    ///    batch to the transport — one doorbell per `tx_batch` packets. A
    ///    server response writes nothing at drain, so it is validated here,
    ///    where its view is taken: one slot lookup, not two.
    ///
    /// A counted client descriptor is validated and resolved once, and
    /// stamped and counted per sequence; only pass 2 sees its packets.
    pub(super) fn flush_tx_batch(&mut self) {
        if self.tx_queue.is_empty() {
            return;
        }
        let mut queue = std::mem::take(&mut self.tx_queue);
        let mut resolved = std::mem::take(&mut self.tx_resolved);
        resolved.clear();
        let sent = self.work.tx_pkts;
        for d in queue.iter() {
            let mut pkts = 1;
            let r = match *d {
                TxDesc::Ctrl { .. } => {
                    self.stats.ctrl_pkts_tx += 1;
                    TxResolved::Send
                }
                TxDesc::Mgmt { .. } => {
                    self.stats.mgmt_pkts_tx += 1;
                    TxResolved::Send
                }
                TxDesc::Client(r) => {
                    // TX timestamp for RTT sampling: the descriptor's
                    // packets reach the transport together.
                    let t = self.pkt_now();
                    pkts = r.count as usize;
                    match Self::client_seq_slot(&mut self.sessions, r) {
                        None => TxResolved::Skip,
                        Some((remote, c)) => {
                            (r.seq..r.seq + r.count).for_each(|seq| c.stamp_tx(seq, t));
                            if r.seq < c.req_total {
                                self.stats.data_pkts_tx += r.count as u64;
                                TxResolved::Send
                            } else {
                                self.stats.ctrl_pkts_tx += 1;
                                let p = (r.seq - c.req_total + 1) as u16;
                                let hdr = PktHdr::control(PktType::Rfr, remote, r.req_num, p);
                                TxResolved::Rfr(hdr.encode())
                            }
                        }
                    }
                }
                TxDesc::SrvResp(..) => {
                    // Validated in pass 2, where its view is taken (nothing
                    // here writes a server slot, so one lookup does both):
                    // counted as sent now, uncounted there if stale.
                    self.stats.data_pkts_tx += 1;
                    TxResolved::Send
                }
            };
            match r {
                TxResolved::Skip => self.stats.tx_stale_dropped += pkts as u64,
                _ => self.work.tx_pkts += pkts as u64,
            }
            resolved.push(r);
        }
        // Pass 2: packet views into bursts. Borrows are per-field
        // (sessions immutably, transport mutably), so the batch can
        // reference msgbufs in place — no copies on the egress path.
        // Views accumulate in a stack chunk (`TxPacket` is `Copy`), not a
        // heap Vec: no allocation on the per-pass hot path. Batches larger
        // than the chunk ring the doorbell once per chunk.
        const TX_CHUNK: usize = 64;
        let empty = TxPacket {
            dst: Addr::new(0, 0),
            hdr: &[],
            data: &[],
        };
        // The chunk is the doorbell: at most `tx_batch` of the packets
        // pass 1 let through, backed by an array of 1 / 8 / 64 so that the
        // common small batch (a handful of packets per event-loop pass)
        // does not pay the full 64-entry initialization, and `tx_batch = 1`
        // pays for exactly one.
        let size = ((self.work.tx_pkts - sent) as usize).min(self.cfg.tx_batch);
        let (mut chunk1, mut chunk8, mut chunk64);
        let chunk: &mut [TxPacket<'_>] = match size {
            0..=1 => {
                chunk1 = [empty; 1];
                &mut chunk1
            }
            2..=8 => {
                chunk8 = [empty; 8];
                &mut chunk8[..size]
            }
            _ => {
                chunk64 = [empty; TX_CHUNK];
                &mut chunk64[..size.min(TX_CHUNK)]
            }
        };
        let mut n = 0usize;
        for (d, r) in queue.iter().zip(resolved.iter()) {
            let pkt = match (d, r) {
                (_, TxResolved::Skip) => continue,
                (TxDesc::Client(c), TxResolved::Send) if c.count > 1 => {
                    let (sessions, transport) = (&self.sessions, &mut self.transport);
                    n = Self::push_window(sessions, transport, &mut self.stats, chunk, n, c);
                    continue;
                }
                _ => Self::tx_packet(&self.sessions, d, r),
            };
            let Some(pkt) = pkt else {
                if let TxDesc::SrvResp(..) = d {
                    // Stale: the slot moved on since the enqueue.
                    self.stats.data_pkts_tx -= 1;
                    self.stats.tx_stale_dropped += 1;
                    self.work.tx_pkts -= 1;
                } else {
                    Self::invariant_breach(&mut self.stats, "validated packet lost its buffer");
                }
                continue;
            };
            chunk[n] = pkt;
            n += 1;
            if n == chunk.len() {
                Self::ring_doorbell(&mut self.transport, &mut self.stats, chunk);
                n = 0;
            }
        }
        if n > 0 {
            Self::ring_doorbell(&mut self.transport, &mut self.stats, &chunk[..n]);
        }
        queue.clear();
        self.tx_queue = queue;
        self.tx_resolved = resolved;
    }

    /// The packets of a validated client window `c` (count > 1), appended
    /// to the `n` views already in `chunk`, ringing the doorbell whenever
    /// it is full: one slot lookup for the window, then one view per
    /// sequence. Out of line: a single-packet descriptor never comes here.
    /// Returns the views left in `chunk`.
    #[inline(never)]
    fn push_window<'a>(
        sessions: &'a [Option<Session>],
        transport: &mut T,
        stats: &mut RpcStats,
        chunk: &mut [TxPacket<'a>],
        mut n: usize,
        c: &ClientSeq,
    ) -> usize {
        let s = sessions[c.sess as usize].as_ref();
        let Some((dst, req)) =
            s.and_then(|s| Some((s.peer, s.slots[c.slot as usize].client().req.as_ref()?)))
        else {
            Self::invariant_breach(stats, "validated packet lost its buffer");
            return n;
        };
        for seq in c.seq..c.seq + c.count {
            let (hdr, data) = req.tx_view(seq as usize);
            chunk[n] = TxPacket { dst, hdr, data };
            n += 1;
            if n == chunk.len() {
                Self::ring_doorbell(transport, stats, chunk);
                n = 0;
            }
        }
        n
    }

    /// The wire bytes of a validated descriptor of one packet, borrowed in
    /// place.
    fn tx_packet<'a>(
        sessions: &'a [Option<Session>],
        d: &'a TxDesc,
        r: &'a TxResolved,
    ) -> Option<TxPacket<'a>> {
        let (dst, (hdr, data)): (Addr, (&[u8], &[u8])) = match (d, r) {
            (TxDesc::Ctrl { dst, hdr }, _) => (*dst, (hdr, &[])),
            (TxDesc::Mgmt { dst, hdr, body }, _) => (*dst, (hdr, body)),
            (TxDesc::Client(c), TxResolved::Rfr(bytes)) => {
                (sessions[c.sess as usize].as_ref()?.peer, (bytes, &[]))
            }
            (TxDesc::Client(c), _) => {
                let s = sessions[c.sess as usize].as_ref()?;
                let req = s.slots[c.slot as usize].client().req.as_ref()?;
                (s.peer, req.tx_view(c.seq as usize))
            }
            (TxDesc::SrvResp(h, pkt), _) => {
                // Live only while the slot still responds to `req_num`.
                let s = sessions[h.sess as usize].as_ref()?;
                let Slot::Server(srv) = &s.slots[h.slot as usize] else {
                    return None;
                };
                let resp = srv.resp.as_ref()?;
                let live = srv.req_num == h.req_num && srv.phase == SrvPhase::Responding;
                if !live || *pkt as usize >= resp.num_pkts() {
                    return None;
                }
                (s.peer, resp.tx_view(*pkt as usize))
            }
        };
        Some(TxPacket { dst, hdr, data })
    }

    /// One `tx_burst`: one DMA doorbell.
    fn ring_doorbell(transport: &mut T, stats: &mut RpcStats, pkts: &[TxPacket<'_>]) {
        transport.tx_burst(pkts);
        stats.tx_bursts += 1;
        stats.tx_batch_hist.record(pkts.len() as u64);
    }

    pub(super) fn tx_ctrl(&mut self, dst: Addr, hdr: PktHdr) {
        self.queue_tx(TxDesc::Ctrl {
            dst,
            hdr: hdr.encode(),
        });
    }

    pub(super) fn tx_mgmt(&mut self, dst: Addr, hdr: PktHdr, body: Vec<u8>) {
        self.queue_tx(TxDesc::Mgmt {
            dst,
            hdr: hdr.encode(),
            body,
        });
    }

    /// Queue response packet `pkt` of a server slot (unpaced: servers are
    /// passive, §5). The msgbuf view is taken at drain time, so a slot
    /// reused before the drain drops the packet.
    pub(super) fn tx_resp_pkt(&mut self, sess: u16, slot_idx: usize, req_num: u64, pkt: u16) {
        let h = DeferredHandle {
            sess,
            slot: slot_idx as u8,
            req_num,
        };
        self.queue_tx(TxDesc::SrvResp(h, pkt));
    }

    /// Let a connected client session send what it may now: start waiting
    /// requests in free slots (the backlog head into the lowest slot), then
    /// kick the slots in `wants_tx`, lowest first. Every event that can
    /// unblock transmission ends here — request started, ack, rollback,
    /// completion, connect — having added its slot to that set.
    pub(super) fn kick_session(&mut self, sess_idx: u16) {
        let now = self.now_cache;
        let Some(sess) = self.sessions[sess_idx as usize].as_mut() else {
            return;
        };
        if sess.state != SessionState::Connected {
            return;
        }
        while !sess.backlog.is_empty() {
            let Some(slot_idx) = sess.free.pop_lowest() else {
                break;
            };
            if let Some(p) = sess.backlog.pop_front() {
                Self::start_request(sess, slot_idx, p, now);
            }
        }
        let mut todo = std::mem::take(&mut sess.wants_tx);
        while let Some(slot_idx) = todo.pop_lowest() {
            self.kick(sess_idx, slot_idx);
        }
    }

    /// Send what client slot `slot_idx` may send now — its next request
    /// packets or RFRs, as far as the session's credits reach: one slot
    /// borrow and one credit/counter update for the whole window, then the
    /// descriptors. In the common case the pacer is bypassed (§5.2.2
    /// opt 2) and the window's request packets leave as one counted
    /// descriptor; RFRs go one per descriptor, and only the paced path
    /// pays the per-sequence reservation arithmetic. A slot left wanting
    /// goes back into `wants_tx`.
    fn kick(&mut self, sess_idx: u16, slot_idx: usize) {
        let Some(sess) = self.sessions[sess_idx as usize].as_mut() else {
            return;
        };
        let c = sess.slots[slot_idx].client_mut();
        if !c.active {
            return;
        }
        let first = c.num_tx;
        let want = c.tx_target().saturating_sub(first);
        let n = want.min(sess.credits);
        c.num_tx += n;
        sess.credits -= n;
        if n < want {
            sess.wants_tx.insert(slot_idx);
        }
        let mut r = ClientSeq {
            sess: sess_idx,
            slot: slot_idx as u8,
            req_num: c.req_num,
            epoch: c.tx_epoch,
            seq: first,
            count: 1,
        };
        let req_end = (first + n).min(c.req_total);
        let bypass = matches!(self.cfg.cc, CcAlgorithm::None)
            || (self.cfg.opt_rate_limiter_bypass && sess.cc.is_uncongested());
        while r.seq < first + n {
            if bypass {
                r.count = if r.seq < req_end { req_end - r.seq } else { 1 };
                self.stats.pkts_bypassed_pacer += r.count as u64;
                self.queue_tx(TxDesc::Client(r));
            } else {
                self.pace_or_send(r);
            }
            r.seq += r.count;
        }
    }

    /// Start a request in slot `slot_idx`, just taken from the free set.
    /// Every field of every request packet's header is known right here,
    /// so the header template (§5.2) is written once: transmission and
    /// go-back-N retransmission then touch no header bytes at all.
    #[inline]
    pub(super) fn start_request(sess: &mut Session, slot_idx: usize, p: PendingReq, now: u64) {
        let c = sess.slots[slot_idx].client_mut();
        debug_assert!(!c.active);
        let mut req = p.req;
        req.write_hdr_template(&PktHdr {
            pkt_type: PktType::Req,
            ecn: false,
            req_type: p.req_type,
            dest_session: sess.remote_num,
            msg_size: req.len() as u32,
            req_num: c.req_num,
            pkt_num: 0,
        });
        c.active = true;
        c.req_type = p.req_type;
        c.req_total = req.num_pkts() as u32;
        c.req = Some(req);
        c.resp = Some(p.resp);
        c.cont = Some(p.cont);
        // Latency is documented as enqueue → continuation: a request that
        // waited in the backlog keeps its original enqueue stamp, so
        // queueing time is not silently excluded.
        c.start_ns = p.enqueue_ns;
        c.num_tx = 0;
        c.num_rx = 0;
        c.resp_rcvd = 0;
        c.resp_total = 0;
        c.last_progress_ns = now;
        c.retries = 0;
        sess.wants_tx.insert(slot_idx);
    }

    /// Send a client TX sequence now, or schedule it in the pacing wheel
    /// (§5.2's rate limiter; sessions that bypass it never get here).
    fn pace_or_send(&mut self, r: ClientSeq) {
        let now = self.pkt_now();
        let Some(sess) = self.sessions[r.sess as usize].as_mut() else {
            Self::invariant_breach(&mut self.stats, "pace_or_send on missing session");
            return;
        };
        // Reserve wire time at the session's allowed rate. Reservations
        // are bounded to a wide safety horizon (16× the wheel span):
        // deadlines past the wheel re-insert correctly, but an unbounded
        // reservation backlog — e.g. repeated rollbacks at the minimum
        // rate — must not be able to push a slot past its RTO budget
        // forever. (Rollback also releases its reservations.)
        let horizon = 16 * self.cfg.wheel_slots as u64 * self.cfg.wheel_granularity_ns;
        let rate = sess.cc.rate_bps().unwrap_or(self.cfg.link_bps);
        let c = sess.slots[r.slot as usize].client();
        let bytes = PKT_HDR_SIZE
            + match &c.req {
                Some(req) if r.seq < c.req_total => req.pkt_data_len(r.seq as usize),
                _ => 0, // an RFR is header-only
            };
        let t = sess.cc.next_tx_ns.max(now);
        sess.cc.next_tx_ns = (t + (bytes as f64 * ns_per_byte(rate)) as u64).min(now + horizon);
        self.stats.pkts_paced += 1;
        if t <= now {
            self.queue_tx(TxDesc::Client(r));
        } else {
            self.wheel.insert(t, r);
        }
    }

    // ── Pacing wheel ───────────────────────────────────────────────────

    pub(super) fn reap_wheel(&mut self) {
        if self.wheel.is_empty() {
            return;
        }
        let now = self.now_cache;
        let mut scratch = std::mem::take(&mut self.wheel_scratch);
        self.wheel.reap(now, |e| scratch.push(e));
        for e in scratch.drain(..) {
            // Stale epochs (rollback) and reused slots are silently
            // skipped (same rule as the deferred TX queue's drain).
            if Self::client_seq_slot(&mut self.sessions, e).is_some() {
                self.queue_tx(TxDesc::Client(e));
            }
        }
        self.wheel_scratch = scratch;
    }
}
