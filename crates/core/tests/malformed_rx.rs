//! Malformed-packet hardening (regression): an RX data packet whose
//! payload length disagrees with what its header implies used to panic
//! the receiver — `MsgBuf::write_pkt_data` slices `buf[off..off+len]`, so
//! a forged packet claiming a small `msg_size` while carrying a large
//! payload indexed out of the assembly buffer's range. Such packets must
//! be dropped and counted as `rx_dropped_stale` instead, and the protocol
//! must recover when the correct packet later arrives.
//!
//! The tests run a *raw* fake peer on the MemFabric: it speaks the
//! connect handshake with real `mgmt` bodies, then injects hand-crafted
//! data packets at the real endpoint.

use std::cell::Cell;
use std::rc::Rc;

use erpc::{PktHdr, PktType, Rpc};
use erpc_transport::{Addr, MemFabric, MemFabricConfig, Transport, TxPacket};

mod fake_peer;
use fake_peer::{cfg, fake_client_connect, fake_server_accept, pump_until, recv_all, send};

/// Forged *response* packets at a real client: oversized first packet,
/// then (multi-packet flow) an oversized continuation packet that used to
/// index out of the response buffer's backing allocation.
#[test]
fn client_drops_forged_response_payloads() {
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg());
    let fake_addr = Addr::new(9, 0);
    let mut fake = fabric.create_transport(fake_addr);

    let sess = fake_server_accept(&mut client, &mut fake);

    // One 32 B request; response buffer sized for a 1500 B response.
    let mut req = client.alloc_msg_buffer(32);
    req.fill(&[7u8; 32]);
    let resp = client.alloc_msg_buffer(1500);
    let done: Rc<Cell<Option<usize>>> = Rc::new(Cell::new(None));
    let done2 = done.clone();
    client
        .enqueue_request(sess, 3, req, resp, move |ctx, comp| {
            comp.result.expect("rpc must succeed after recovery");
            done2.set(Some(comp.resp.len()));
            ctx.free_msg_buffer(comp.req);
            ctx.free_msg_buffer(comp.resp);
        })
        .unwrap();
    pump_until(&mut client, &mut fake, |h| h.pkt_type == PktType::Req);
    let client_sess = sess.num();

    // Forged pkt 0: msg_size claims 64 B, payload carries 1000 B. Without
    // validation this writes 1000 B into a 64 B-class region.
    let forged0 = PktHdr {
        pkt_type: PktType::Resp,
        ecn: false,
        req_type: 3,
        dest_session: client_sess,
        msg_size: 64,
        req_num: 0,
        pkt_num: 0,
    };
    let dropped_before = client.stats().rx_dropped_stale;
    send(&mut fake, client.addr(), &forged0, &[0xEE; 1000]);
    // Undersized variant too: claims 64 B, carries 10.
    send(&mut fake, client.addr(), &forged0, &[0xEE; 10]);
    // Inconsistent packet whose msg_size also exceeds the response
    // capacity (1500 B): it must be *dropped as malformed*, not trusted
    // into aborting the in-flight call with MsgTooLarge.
    let forged_big = PktHdr {
        msg_size: 2000,
        ..forged0
    };
    send(&mut fake, client.addr(), &forged_big, &[0xEE; 10]);
    for _ in 0..10 {
        client.run_event_loop_once();
    }
    assert!(
        client.stats().rx_dropped_stale >= dropped_before + 3,
        "forged first response packets must be dropped and counted"
    );
    assert!(
        done.get().is_none(),
        "call must still be pending (no forged MsgTooLarge abort)"
    );

    // Correct pkt 0 of a 1500 B response (2 packets at 1024 B/pkt).
    let good0 = PktHdr {
        msg_size: 1500,
        ..forged0
    };
    send(&mut fake, client.addr(), &good0, &[0xAB; 1024]);
    // The client now RFRs for packet 1.
    pump_until(&mut client, &mut fake, |h| h.pkt_type == PktType::Rfr);

    // Forged pkt 1: carries a full 1024 B where 476 B are expected —
    // offset 1040 + 1024 overruns the 2048 B backing class (the old
    // panic).
    let pkt1 = PktHdr {
        pkt_num: 1,
        ..good0
    };
    let dropped_before = client.stats().rx_dropped_stale;
    send(&mut fake, client.addr(), &pkt1, &[0xEE; 1024]);
    for _ in 0..10 {
        client.run_event_loop_once();
    }
    assert!(
        client.stats().rx_dropped_stale > dropped_before,
        "forged continuation packet must be dropped and counted"
    );
    assert!(done.get().is_none());

    // Correct pkt 1 completes the call.
    send(&mut fake, client.addr(), &pkt1, &[0xCD; 476]);
    for _ in 0..100 {
        client.run_event_loop_once();
        if done.get().is_some() {
            break;
        }
    }
    assert_eq!(done.get(), Some(1500), "call completes after recovery");
}

/// Up-front checks (§5.2): malformed packets — bad magic, short header,
/// unknown type, payload inconsistent with the header — are rejected by
/// the dispatcher's single validity check or the request routine's
/// checks-before-commit, land in `rx_dropped_stale`, and never count as
/// straight-line hits; a well-formed request right after still does.
#[test]
fn malformed_packets_dropped_by_fast_path_upfront_check() {
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), cfg());
    server.register_request_handler(3, Box::new(|ctx, req| ctx.respond(req)));
    let fake_addr = Addr::new(9, 0);
    let mut fake = fabric.create_transport(fake_addr);

    let srv_sess = fake_client_connect(&mut server, &mut fake);

    let good = PktHdr {
        pkt_type: PktType::Req,
        ecn: false,
        req_type: 3,
        dest_session: srv_sess,
        msg_size: 8,
        req_num: 0,
        pkt_num: 0,
    };
    let dropped_before = server.stats().rx_dropped_stale;
    let hits_before = server.stats().fast_path_hits;

    // (1) Bad magic: a valid header whose magic bits are zeroed.
    let mut bad_magic = good.encode();
    bad_magic[0] &= 0x1F;
    fake.tx_burst(&[TxPacket {
        dst: server.addr(),
        hdr: &bad_magic,
        data: &[0xAA; 8],
    }]);
    // (2) Short header: fewer than 16 bytes on the wire.
    fake.tx_burst(&[TxPacket {
        dst: server.addr(),
        hdr: &good.encode()[..7],
        data: &[],
    }]);
    // (3) Unknown packet type with intact magic.
    let mut bad_type = good.encode();
    bad_type[0] = (bad_type[0] & 0xF0) | 0x0F;
    fake.tx_burst(&[TxPacket {
        dst: server.addr(),
        hdr: &bad_type,
        data: &[0xAA; 8],
    }]);
    // (4) Inconsistent length: msg_size says 8, payload carries 100.
    send(&mut fake, server.addr(), &good, &[0xAA; 100]);
    for _ in 0..10 {
        server.run_event_loop_once();
    }
    assert_eq!(
        server.stats().rx_dropped_stale,
        dropped_before + 4,
        "all four malformed shapes must land in rx_dropped_stale"
    );
    assert_eq!(
        server.stats().fast_path_hits,
        hits_before,
        "malformed packets must never count as fast-path hits"
    );
    assert_eq!(server.stats().handlers_invoked, 0);

    // A well-formed request right after is served — straight-line, and on
    // the very slot the inconsistent-length packet named: that packet was
    // dropped before it could claim anything.
    let good2 = good;
    send(&mut fake, server.addr(), &good2, &[0xAB; 8]);
    loop {
        server.run_event_loop_once();
        let pkts = recv_all(&mut fake);
        if let Some((h, body)) = pkts.iter().find(|(h, _)| h.pkt_type == PktType::Resp) {
            assert_eq!(h.msg_size, 8);
            assert_eq!(body, &[0xAB; 8]);
            break;
        }
    }
    assert_eq!(server.stats().fast_path_hits, hits_before + 1);
    assert_eq!(server.stats().handlers_invoked, 1);
}

/// Forged *request* packets at a real server: a continuation packet whose
/// payload exceeds the expected chunk used to overrun the request
/// assembly buffer; single-packet requests with payload ≠ msg_size are
/// dropped before the handler can see an inconsistent slice.
#[test]
fn server_drops_forged_request_payloads() {
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), cfg());
    let handled: Rc<Cell<u64>> = Rc::new(Cell::new(0));
    let handled2 = handled.clone();
    server.register_request_handler(
        3,
        Box::new(move |ctx, req| {
            handled2.set(handled2.get() + 1);
            ctx.respond(&req.len().to_le_bytes());
        }),
    );
    let fake_addr = Addr::new(9, 0);
    let mut fake = fabric.create_transport(fake_addr);

    let srv_sess = fake_client_connect(&mut server, &mut fake);

    // Single-packet request with payload ≠ msg_size (both directions).
    let req_hdr = PktHdr {
        pkt_type: PktType::Req,
        ecn: false,
        req_type: 3,
        dest_session: srv_sess,
        msg_size: 64,
        req_num: 0,
        pkt_num: 0,
    };
    let dropped_before = server.stats().rx_dropped_stale;
    send(&mut fake, server.addr(), &req_hdr, &[0xEE; 1000]); // oversized
    send(&mut fake, server.addr(), &req_hdr, &[0xEE; 10]); // undersized
    for _ in 0..10 {
        server.run_event_loop_once();
    }
    assert!(
        server.stats().rx_dropped_stale >= dropped_before + 2,
        "inconsistent single-packet requests must be dropped"
    );
    assert_eq!(handled.get(), 0, "handler must not see forged requests");

    // Multi-packet request (1500 B = 2 packets): legit pkt 0, then a
    // forged pkt 1 carrying 1024 B where 476 B are expected — offset
    // 1040 + 1024 overruns the 2048 B backing class (the old panic).
    let multi_hdr = PktHdr {
        msg_size: 1500,
        req_num: 1,
        ..req_hdr
    };
    send(&mut fake, server.addr(), &multi_hdr, &[0xAB; 1024]);
    for _ in 0..10 {
        server.run_event_loop_once();
    }
    let pkt1 = PktHdr {
        pkt_num: 1,
        ..multi_hdr
    };
    let dropped_before = server.stats().rx_dropped_stale;
    send(&mut fake, server.addr(), &pkt1, &[0xEE; 1024]);
    for _ in 0..10 {
        server.run_event_loop_once();
    }
    assert!(
        server.stats().rx_dropped_stale > dropped_before,
        "forged continuation packet must be dropped and counted"
    );
    assert_eq!(handled.get(), 0);

    // The correct pkt 1 assembles the request; the handler runs once and
    // the response comes back to the fake client.
    send(&mut fake, server.addr(), &pkt1, &[0xCD; 476]);
    let resp = loop {
        server.run_event_loop_once();
        let pkts = recv_all(&mut fake);
        if let Some(p) = pkts.into_iter().find(|(h, _)| h.pkt_type == PktType::Resp) {
            break p;
        }
    };
    assert_eq!(handled.get(), 1, "handler runs exactly once after recovery");
    assert_eq!(
        u64::from_le_bytes(resp.1[..8].try_into().unwrap()),
        1500,
        "handler saw the fully assembled 1500 B request"
    );
}

/// Slot takeover (regression): a peer sends packet 0 of a 3-packet request
/// and then — without finishing it — a higher-numbered *single-packet*
/// request of exactly one packet's worth of bytes on the same slot. The
/// abandoned assembly buffer used to stay in the slot: the new packet
/// passed its length check against the *old* buffer and the handler was
/// handed that buffer (2500 B, partly unwritten pooled memory) instead of
/// the request's own payload. The new request number must take the slot
/// clean, and the abandoned buffer must go back to the pool.
#[test]
fn new_request_takes_over_a_half_assembled_slot() {
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), cfg());
    let dpp = server.data_per_pkt();
    let seen: Rc<std::cell::RefCell<Vec<Vec<u8>>>> = Rc::default();
    let seen2 = seen.clone();
    server.register_request_handler(
        3,
        Box::new(move |ctx, req| {
            seen2.borrow_mut().push(req.to_vec());
            ctx.respond(req);
        }),
    );
    let mut fake = fabric.create_transport(Addr::new(9, 0));
    let srv_sess = fake_client_connect(&mut server, &mut fake);

    // Slot 0 carries request numbers 0, 8, 16, …: each round abandons a
    // 3-packet request after its first packet, then takes the slot over.
    let mut allocs_after_first_round = 0;
    for round in 0..4u64 {
        let abandoned = PktHdr {
            pkt_type: PktType::Req,
            ecn: false,
            req_type: 3,
            dest_session: srv_sess,
            msg_size: 2500,
            req_num: round * 16,
            pkt_num: 0,
        };
        send(&mut fake, server.addr(), &abandoned, &vec![0xAA; dpp]);
        pump_until(&mut server, &mut fake, |h| {
            h.pkt_type == PktType::CreditReturn
        });

        let takeover = PktHdr {
            msg_size: dpp as u32,
            req_num: round * 16 + 8,
            ..abandoned
        };
        let payload = vec![0xB0 + round as u8; dpp];
        send(&mut fake, server.addr(), &takeover, &payload);
        let pkts = pump_until(&mut server, &mut fake, |h| h.pkt_type == PktType::Resp);
        let (h, body) = pkts
            .iter()
            .find(|(h, _)| h.pkt_type == PktType::Resp)
            .unwrap();
        assert_eq!(h.req_num, takeover.req_num);
        // (`assert!`, not `assert_eq!`: a failure must not dump 2 × 1 kB.)
        assert!(body == &payload, "echo of the second request, nothing else");
        assert!(
            seen.borrow().last() == Some(&payload),
            "handler must see exactly the second request's payload"
        );
        if round == 0 {
            allocs_after_first_round = server.stats().pool_allocs_new;
        }
    }
    assert_eq!(seen.borrow().len(), 4, "one handler run per takeover");
    assert_eq!(server.stats().rx_invariant_breach, 0);
    assert_eq!(
        server.stats().pool_allocs_new,
        allocs_after_first_round,
        "abandoned assembly buffers must recycle through the pool"
    );
}

/// A response that arrives before the request was fully transmitted
/// answers something the client never sent: a misbehaving server must not
/// be able to complete the RPC with it, let alone be credited for the
/// untransmitted packets (which used to mint credits beyond `C`).
#[test]
fn early_response_cannot_mint_credits() {
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg());
    let fake_addr = Addr::new(9, 0);
    let mut fake = fabric.create_transport(fake_addr);
    let sess = fake_server_accept(&mut client, &mut fake);

    // A 40-packet request under C = 32: the first window is 32 packets.
    let size = 40 * client.data_per_pkt();
    let mut req = client.alloc_msg_buffer(size);
    req.resize(size);
    let resp = client.alloc_msg_buffer(64);
    let done: Rc<Cell<Option<usize>>> = Rc::new(Cell::new(None));
    let done2 = done.clone();
    client
        .enqueue_request(sess, 3, req, resp, move |ctx, comp| {
            comp.result.expect("rpc must succeed");
            done2.set(Some(comp.resp.len()));
            ctx.free_msg_buffer(comp.req);
            ctx.free_msg_buffer(comp.resp);
        })
        .unwrap();
    pump_until(&mut client, &mut fake, |h| h.pkt_type == PktType::Req);
    assert_eq!(client.session_credits_available(sess), Some(0));

    let early = PktHdr {
        pkt_type: PktType::Resp,
        ecn: false,
        req_type: 3,
        dest_session: sess.num(),
        msg_size: 8,
        req_num: 0,
        pkt_num: 0,
    };
    let dropped_before = client.stats().rx_dropped_stale;
    send(&mut fake, client.addr(), &early, &[1; 8]);
    for _ in 0..10 {
        client.run_event_loop_once();
    }
    assert!(done.get().is_none(), "8 of 40 packets were never sent");
    assert_eq!(client.stats().rx_dropped_stale, dropped_before + 1);
    assert_eq!(client.session_credits_available(sess), Some(0));

    // The protocol proper still completes the call: a cumulative CR for
    // the first window releases the last 8 packets, then the response.
    let cr = PktHdr::control(PktType::CreditReturn, sess.num(), 0, 31);
    send(&mut fake, client.addr(), &cr, &[]);
    for _ in 0..10 {
        client.run_event_loop_once();
    }
    send(&mut fake, client.addr(), &early, &[1; 8]);
    for _ in 0..10 {
        client.run_event_loop_once();
    }
    assert_eq!(done.get(), Some(8));
    assert_eq!(client.session_credits_available(sess), Some(32));
    assert_eq!(client.stats().rx_invariant_breach, 0);
}

/// A credit return naming the *last* request packet (regression). No
/// correct server sends one — request packet N−1 is acknowledged by
/// response packet 0 — so a corrupted or hostile CR with `pkt_num = N−1`
/// must be dropped as stale. Accepted, it moved `num_rx` to N: the genuine
/// response packet 0 (RX sequence N−1) was then stale forever, and with
/// nothing in flight the RTO scan never fired again — a hung caller.
#[test]
fn cr_for_the_last_request_packet_is_dropped() {
    for n_pkts in [1u32, 3] {
        let fabric = MemFabric::new(MemFabricConfig::default());
        let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg());
        let mut fake = fabric.create_transport(Addr::new(9, 0));
        let sess = fake_server_accept(&mut client, &mut fake);

        let size = if n_pkts == 1 {
            32
        } else {
            (n_pkts as usize - 1) * client.data_per_pkt() + 1
        };
        let mut req = client.alloc_msg_buffer(size);
        req.resize(size);
        let resp = client.alloc_msg_buffer(64);
        let done: Rc<Cell<Option<usize>>> = Rc::new(Cell::new(None));
        let done2 = done.clone();
        client
            .enqueue_request(sess, 3, req, resp, move |ctx, comp| {
                comp.result.expect("rpc must succeed");
                done2.set(Some(comp.resp.len()));
                ctx.free_msg_buffer(comp.req);
                ctx.free_msg_buffer(comp.resp);
            })
            .unwrap();
        pump_until(&mut client, &mut fake, |h| {
            h.pkt_type == PktType::Req && h.pkt_num as u32 == n_pkts - 1
        });
        let credits = client.session_credits_available(sess);
        assert_eq!(credits, Some(32 - n_pkts));

        let dropped_before = client.stats().rx_dropped_stale;
        let bogus = PktHdr::control(PktType::CreditReturn, sess.num(), 0, n_pkts as u16 - 1);
        send(&mut fake, client.addr(), &bogus, &[]);
        for _ in 0..10 {
            client.run_event_loop_once();
        }
        assert_eq!(client.stats().rx_dropped_stale, dropped_before + 1);
        assert_eq!(client.session_credits_available(sess), credits);
        assert!(done.get().is_none());

        // The real response still completes the call.
        let good = PktHdr {
            pkt_type: PktType::Resp,
            ecn: false,
            req_type: 3,
            dest_session: sess.num(),
            msg_size: 8,
            req_num: 0,
            pkt_num: 0,
        };
        send(&mut fake, client.addr(), &good, &[5; 8]);
        for _ in 0..10 {
            client.run_event_loop_once();
        }
        assert_eq!(done.get(), Some(8), "{n_pkts}-packet request completes");
        assert_eq!(client.session_credits_available(sess), Some(32));
        assert_eq!(client.stats().rx_invariant_breach, 0);
    }
}
