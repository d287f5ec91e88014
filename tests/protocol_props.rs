//! Property-style tests (seeded-RNG case generation; the workspace
//! builds offline, so no proptest) of the end-to-end protocol and the
//! codec layers, spanning crates.
//!
//! The headline property, mirroring §5.3's at-most-once + go-back-N
//! claims: **for any message size, any loss probability up to 30 %, and
//! any RNG seed, every RPC completes exactly once with intact data, the
//! server runs each handler exactly once, and session credits are fully
//! restored.**

use std::cell::Cell;
use std::rc::Rc;

use erpc::pkthdr::{patch_ecn, patch_pkt_num, PktHdr, PktHdrView, PktType, ECN_MASK};
use erpc::{Rpc, RpcConfig};
use erpc_transport::codec::{ByteReader, ByteWriter};
use erpc_transport::{Addr, MemFabric, MemFabricConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ECHO: u8 = 1;

fn lossy_roundtrips(loss: f64, seed: u64, sizes: Vec<usize>) {
    let fabric = MemFabric::new(MemFabricConfig {
        loss_prob: loss,
        seed,
        ..Default::default()
    });
    let cfg = RpcConfig {
        rto_ns: 300_000, // quick wall-clock retransmits for the test
        timer_scan_interval_ns: 20_000,
        ping_interval_ns: 0,
        ..RpcConfig::default()
    };
    let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), cfg.clone());
    server.register_request_handler(
        ECHO,
        Box::new(|ctx, req| {
            let mut v = req.to_vec();
            v.reverse();
            ctx.respond(&v);
        }),
    );
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg);
    let sess = client.create_session(Addr::new(0, 0)).unwrap();
    let start = std::time::Instant::now();
    while !client.is_connected(sess) {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(start.elapsed().as_secs() < 30, "connect stalled");
    }
    let credits_before = client.session_credits_available(sess).unwrap();

    let done = Rc::new(Cell::new(0usize));
    let payload_ok = Rc::new(Cell::new(true));
    let n = sizes.len();
    for &size in sizes.iter() {
        let mut req = client.alloc_msg_buffer(size);
        let payload: Vec<u8> = (0..size).map(|j| (j % 251) as u8).collect();
        req.fill(&payload);
        let resp = client.alloc_msg_buffer(size.max(1));
        let (d2, p2) = (done.clone(), payload_ok.clone());
        client
            .enqueue_request(sess, ECHO, req, resp, move |ctx, comp| {
                if comp.result.is_err() {
                    p2.set(false);
                } else {
                    let expect: Vec<u8> =
                        (0..comp.req.len()).map(|i| (i % 251) as u8).rev().collect();
                    if comp.resp.data() != &expect[..] {
                        p2.set(false);
                    }
                }
                ctx.free_msg_buffer(comp.req);
                ctx.free_msg_buffer(comp.resp);
                d2.set(d2.get() + 1);
            })
            .unwrap();
    }
    let start = std::time::Instant::now();
    while done.get() < n {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(
            start.elapsed().as_secs() < 60,
            "stalled: {}/{n}",
            done.get()
        );
    }
    // Exactly-once completion, at-most-once execution, intact payloads.
    assert!(payload_ok.get(), "payload corrupted");
    assert_eq!(done.get(), n);
    assert_eq!(server.stats().handlers_invoked as usize, n);
    // No credit leaks after everything quiesces.
    assert_eq!(
        client.session_credits_available(sess).unwrap(),
        credits_before
    );
}

#[test]
fn rpcs_complete_exactly_once_under_loss() {
    for case in 0u64..12 {
        let mut rng = SmallRng::seed_from_u64(0x10551 ^ case);
        let loss = rng.gen_range(0.0f64..0.3);
        let seed = rng.gen::<u64>();
        let n = rng.gen_range(1usize..8);
        let sizes: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..6000)).collect();
        lossy_roundtrips(loss, seed, sizes);
    }
}

#[test]
fn pkthdr_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x9EADE7);
    for _ in 0..2000 {
        let pkt_type = match rng.gen_range(0u8..10) {
            0 => PktType::Req,
            1 => PktType::Resp,
            2 => PktType::CreditReturn,
            3 => PktType::Rfr,
            4 => PktType::ConnectReq,
            5 => PktType::ConnectResp,
            6 => PktType::DisconnectReq,
            7 => PktType::DisconnectResp,
            8 => PktType::Ping,
            _ => PktType::Pong,
        };
        let hdr = PktHdr {
            pkt_type,
            ecn: rng.gen::<bool>(),
            req_type: rng.gen::<u8>(),
            dest_session: rng.gen::<u16>(),
            msg_size: rng.gen_range(0u32..=(8 << 20)),
            req_num: rng.gen_range(0u64..(1 << 48)),
            pkt_num: rng.gen::<u16>(),
        };
        assert_eq!(PktHdr::decode(&hdr.encode()).unwrap(), hdr);
    }
}

fn random_hdr(rng: &mut SmallRng) -> PktHdr {
    let pkt_type = match rng.gen_range(0u8..10) {
        0 => PktType::Req,
        1 => PktType::Resp,
        2 => PktType::CreditReturn,
        3 => PktType::Rfr,
        4 => PktType::ConnectReq,
        5 => PktType::ConnectResp,
        6 => PktType::DisconnectReq,
        7 => PktType::DisconnectResp,
        8 => PktType::Ping,
        _ => PktType::Pong,
    };
    PktHdr {
        pkt_type,
        ecn: rng.gen::<bool>(),
        req_type: rng.gen::<u8>(),
        dest_session: rng.gen::<u16>(),
        msg_size: rng.gen_range(0u32..=(8 << 20)),
        req_num: rng.gen_range(0u64..(1 << 48)),
        pkt_num: rng.gen::<u16>(),
    }
}

/// §5.2 header-template property: for any header and any sequence of
/// per-packet patches (pkt_num pokes, ECN pokes), the patched template
/// bytes are *identical* to a fresh full `encode` of the equivalently
/// mutated struct. This is what lets the TX path write headers once and
/// never re-encode.
#[test]
fn hdr_template_patch_equals_fresh_encode() {
    let mut rng = SmallRng::seed_from_u64(0x7E391A7E);
    for _ in 0..2000 {
        let mut hdr = random_hdr(&mut rng);
        let mut bytes = hdr.encode();
        for _ in 0..rng.gen_range(1usize..8) {
            if rng.gen::<bool>() {
                let p = rng.gen::<u16>();
                patch_pkt_num(&mut bytes, p);
                hdr.pkt_num = p;
            } else {
                let e = rng.gen::<bool>();
                patch_ecn(&mut bytes, e);
                hdr.ecn = e;
            }
            assert_eq!(bytes, hdr.encode(), "patched bytes diverged for {hdr:?}");
        }
    }
}

/// Whole-msgbuf variant: `write_hdr_template` across a multi-packet
/// message must byte-for-byte equal a fresh `PktHdr::encode` per packet
/// with `pkt_num` set (the real reference), and per-packet ECN pokes must
/// stay equivalent to re-encodes.
#[test]
fn msgbuf_template_equals_per_packet_encodes() {
    let mut rng = SmallRng::seed_from_u64(0x7E3B0F);
    for _ in 0..300 {
        let dpp = *[512usize, 1024, 4096]
            .get(rng.gen_range(0usize..3))
            .unwrap();
        let size = rng.gen_range(0usize..20_000);
        let mut pool = erpc::BufPool::new(dpp);
        let mut a = pool.alloc(size);
        let payload: Vec<u8> = (0..size).map(|i| (i % 253) as u8).collect();
        a.fill(&payload);
        let mut hdr = random_hdr(&mut rng);
        hdr.msg_size = size as u32;
        a.write_hdr_template(&hdr);
        for i in 0..a.num_pkts() {
            hdr.pkt_num = i as u16;
            assert_eq!(a.hdr_bytes(i), &hdr.encode()[..], "pkt {i} of {size} B");
        }
        // Random ECN pokes stay equivalent.
        for _ in 0..4 {
            let i = rng.gen_range(0usize..a.num_pkts());
            let e = rng.gen::<bool>();
            a.patch_hdr_ecn(i, e);
            hdr.pkt_num = i as u16;
            hdr.ecn = e;
            assert_eq!(a.hdr_bytes(i), &hdr.encode()[..]);
        }
        assert_eq!(a.data(), &payload[..], "templates must not touch data");
    }
}

/// Zero-decode RX view property: for any encoded header — including ones
/// whose ECN bit a switch flipped in flight — every lazy accessor agrees
/// with the eager `PktHdr::decode`, and the view's up-front validity
/// check accepts exactly what `decode` accepts.
#[test]
fn hdr_view_agrees_with_decode() {
    let mut rng = SmallRng::seed_from_u64(0x71E3D0DE);
    for _ in 0..2000 {
        let hdr = random_hdr(&mut rng);
        let mut bytes = hdr.encode();
        if rng.gen::<bool>() {
            bytes[0] |= ECN_MASK; // switch marks the packet in flight
        }
        let decoded = PktHdr::decode(&bytes).unwrap();
        let (v, ty) = PktHdrView::parse(&bytes).expect("valid header must parse");
        assert_eq!(ty, decoded.pkt_type);
        assert_eq!(v.pkt_type(), decoded.pkt_type);
        assert_eq!(v.ecn(), decoded.ecn);
        assert_eq!(v.req_type(), decoded.req_type);
        assert_eq!(v.dest_session(), decoded.dest_session);
        assert_eq!(v.msg_size(), decoded.msg_size);
        assert_eq!(v.req_num(), decoded.req_num);
        assert_eq!(v.pkt_num(), decoded.pkt_num);
        assert_eq!(v.to_hdr(), decoded);
    }
    // Garbage agreement: the view's single up-front check rejects exactly
    // the inputs the eager decode rejects (short, bad magic, bad type).
    for _ in 0..5000 {
        let len = rng.gen_range(0usize..64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        assert_eq!(
            PktHdrView::parse(&bytes).is_some(),
            PktHdr::decode(&bytes).is_ok(),
            "view/decode validity disagreement on {bytes:?}"
        );
    }
}

#[test]
fn pkthdr_never_panics_on_garbage() {
    let mut rng = SmallRng::seed_from_u64(0x6A7BA6E);
    for _ in 0..5000 {
        let len = rng.gen_range(0usize..64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let _ = PktHdr::decode(&bytes); // must not panic
    }
}

#[test]
fn codec_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xC0DEC);
    for _ in 0..1000 {
        let a = rng.gen::<u8>();
        let b = rng.gen::<u16>();
        let c = rng.gen::<u32>();
        let d = rng.gen::<u64>();
        let e = rng.gen::<i64>();
        let f = rng.gen::<bool>();
        let blob: Vec<u8> = (0..rng.gen_range(0usize..256))
            .map(|_| rng.gen::<u8>())
            .collect();
        let mut buf = Vec::new();
        ByteWriter::new(&mut buf)
            .u8(a)
            .u16(b)
            .u32(c)
            .u64(d)
            .i64(e)
            .bool(f)
            .bytes(&blob);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), a);
        assert_eq!(r.u16().unwrap(), b);
        assert_eq!(r.u32().unwrap(), c);
        assert_eq!(r.u64().unwrap(), d);
        assert_eq!(r.i64().unwrap(), e);
        assert_eq!(r.bool().unwrap(), f);
        assert_eq!(r.bytes().unwrap(), &blob[..]);
        assert_eq!(r.remaining(), 0);
    }
}

#[test]
fn msgbuf_layout_invariants() {
    let mut rng = SmallRng::seed_from_u64(0x35_6B0F);
    for _ in 0..300 {
        let size = rng.gen_range(0usize..20_000);
        let dpp = *[512usize, 1024, 4096]
            .get(rng.gen_range(0usize..3))
            .unwrap();
        let mut pool = erpc::BufPool::new(dpp);
        let mut m = pool.alloc(size);
        let payload: Vec<u8> = (0..size).map(|i| (i % 253) as u8).collect();
        m.fill(&payload);
        // Invariant 1: data region contiguous & intact.
        assert_eq!(m.data(), &payload[..]);
        // Invariant 2: per-packet views partition the data.
        let mut reassembled = Vec::new();
        for p in 0..m.num_pkts() {
            let (h, d) = m.tx_view(p);
            if p == 0 {
                assert!(d.is_empty(), "first packet is one contiguous DMA");
                reassembled.extend_from_slice(&h[erpc::PKT_HDR_SIZE..]);
            } else {
                assert_eq!(h.len(), erpc::PKT_HDR_SIZE);
                reassembled.extend_from_slice(d);
            }
        }
        assert_eq!(reassembled, payload);
    }
}

#[test]
fn timing_wheel_releases_everything_in_order() {
    let mut rng = SmallRng::seed_from_u64(0x77EE1);
    for _ in 0..60 {
        let n = rng.gen_range(1usize..200);
        let deadlines: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..100_000)).collect();
        let granularity = *[64u64, 100, 1000].get(rng.gen_range(0usize..3)).unwrap();
        let mut wheel = erpc_congestion::TimingWheel::new(256, granularity, 0);
        for (i, &d) in deadlines.iter().enumerate() {
            wheel.insert(d, (d, i));
        }
        let mut released = Vec::new();
        let mut now = 0;
        while !wheel.is_empty() {
            now += granularity;
            wheel.reap(now, |(d, i)| {
                // Never released before its deadline.
                assert!(d <= now, "released early: deadline {d} at {now}");
                released.push((d, i));
            });
            assert!(now < 10_000_000, "wheel failed to drain");
        }
        assert_eq!(released.len(), deadlines.len());
    }
}
