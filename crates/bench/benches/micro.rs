//! Criterion micro-benchmarks for the hot datapath pieces: header codec,
//! msgbuf pool, timing wheel, packet ring, Timely, and the stores —
//! plus the per-RPC allocation/copy accounting rows (the binary registers
//! the counting global allocator, so `rpc_path_costs` measures real heap
//! traffic per small RPC on the dispatch, worker, and Channel paths) and
//! the issue-path ledger (ns per enqueue / completion / CR at 1, 8 and 64
//! slots per session), and the large-message ledger (ns per packet of a
//! 1 MiB request on each side, CRs per request).
//!
//! These are sanity gauges for the common-case-optimization story (§4/§5):
//! everything on the per-packet path should be tens of nanoseconds, and
//! steady state should allocate nothing.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use erpc::alloc_count::{snapshot, CountingAlloc};
use erpc::msgbuf::BufPool;
use erpc::pkthdr::{PktHdr, PktType};
use erpc::{CcAlgorithm, Completion, ContContext, MsgBuf, Rpc, RpcConfig, SessionHandle};
use erpc_congestion::{Timely, TimelyConfig, TimingWheel};
use erpc_store::{Masstree, Mica};
use erpc_transport::{
    Addr, MemFabric, MemFabricConfig, MemTransport, PacketRing, Transport, TxPacket,
};

#[path = "../../core/tests/fake_peer/mod.rs"]
mod fake_peer;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn bench_pkthdr(c: &mut Criterion) {
    let hdr = PktHdr {
        pkt_type: PktType::Req,
        ecn: false,
        req_type: 3,
        dest_session: 77,
        msg_size: 32,
        req_num: 1234,
        pkt_num: 0,
    };
    c.bench_function("pkthdr_encode", |b| b.iter(|| black_box(hdr).encode()));
    let bytes = hdr.encode();
    c.bench_function("pkthdr_decode", |b| {
        b.iter(|| PktHdr::decode(black_box(&bytes)).unwrap())
    });
    // The §5.2 header-template fast path: per-packet TX cost is *patching*
    // an already-encoded template (pkt_num poke + ECN poke), not a full
    // construct-and-encode. Regressions here show directly in BENCH
    // output next to the full-encode row above.
    c.bench_function("pkthdr_template_patch", |b| {
        let mut tmpl = hdr.encode();
        let mut i = 0u16;
        b.iter(|| {
            i = i.wrapping_add(1);
            erpc::pkthdr::patch_pkt_num(&mut tmpl, i);
            erpc::pkthdr::patch_ecn(&mut tmpl, i & 1 == 0);
            black_box(&tmpl);
        })
    });
    // RX counterpart: the zero-decode view's per-field reads vs the eager
    // full decode above.
    c.bench_function("pkthdr_view_fields", |b| {
        b.iter(|| {
            let (v, ty) = erpc::pkthdr::PktHdrView::parse(black_box(&bytes)).unwrap();
            black_box((ty, v.dest_session(), v.req_num(), v.msg_size(), v.pkt_num()));
        })
    });
}

fn bench_bufpool(c: &mut Criterion) {
    let mut pool = BufPool::new(1024);
    c.bench_function("bufpool_alloc_free_32B", |b| {
        b.iter(|| {
            let m = pool.alloc(black_box(32));
            pool.free(m);
        })
    });
}

fn bench_wheel(c: &mut Criterion) {
    c.bench_function("timing_wheel_insert_reap", |b| {
        let mut wheel = TimingWheel::new(4096, 100, 0);
        let mut now = 0u64;
        b.iter(|| {
            now += 50;
            wheel.insert(now + 500, black_box(1u32));
            wheel.reap(now, |v| {
                black_box(v);
            });
        })
    });
}

fn bench_ring(c: &mut Criterion) {
    let ring = PacketRing::new(1024, 128);
    let payload = [7u8; 92];
    let pkt = TxPacket {
        dst: Addr::new(0, 0),
        hdr: &payload,
        data: &[],
    };
    let mut toks = Vec::with_capacity(1);
    c.bench_function("packet_ring_push_claim_release", |b| {
        b.iter(|| {
            assert_eq!(ring.push_run(&[black_box(pkt)]), 1);
            toks.clear();
            assert_eq!(ring.claim_run(1, &mut toks), 1);
            black_box(ring.claimed_bytes(&toks[0]));
            ring.release(toks[0].slot(), 1);
        })
    });
    ring_run_ledger();
}

/// ns/pkt of each side of the MemFabric ring at its default geometry
/// (4096 slots, 1040 B MTU), the producer pushing runs of 1 or 32 packets
/// and the consumer claiming and releasing 32 at a time — what one
/// reservation per run buys over one per packet. Each round pushes 1024
/// packets before it claims any, so all but the first 64 of a round land
/// in positional slots and the arena is walked FIFO as in a deep ring.
/// Then the two kinds of slot side by side: 32-packet runs pushed,
/// claimed and released in turn, with the ring otherwise empty (every
/// packet in the hot window) or held 512 packets deep (every packet in
/// its positional slot).
fn ring_run_ledger() {
    const ROUNDS: usize = 1000;
    const PER_ROUND: usize = 1024;
    println!("\npacket ring, ns/pkt (4096 x 1040 B slots, claims of 32):");
    println!(
        "{:<8} {:>8} {:>10} {:>15}",
        "packet", "run", "push", "claim+release"
    );
    let body = [7u8; 1040];
    let mut toks = Vec::with_capacity(32);
    for (hdr, data) in [(48, 0), (16, 1024)] {
        for run_len in [1, 32] {
            let ring = PacketRing::new(4096, 1040);
            let pkt = TxPacket {
                dst: Addr::new(0, 0),
                hdr: &body[..hdr],
                data: &body[..data],
            };
            let run = [pkt; 32];
            let (mut push_ns, mut claim_ns) = (0u128, 0u128);
            for _ in 0..ROUNDS {
                let t0 = std::time::Instant::now();
                for _ in 0..PER_ROUND / run_len {
                    assert_eq!(ring.push_run(black_box(&run[..run_len])), run_len);
                }
                let t1 = std::time::Instant::now();
                for _ in 0..PER_ROUND / 32 {
                    toks.clear();
                    assert_eq!(ring.claim_run(32, &mut toks), 32);
                    black_box(ring.claimed_bytes(&toks[31]));
                    ring.release(toks[0].slot(), 32);
                }
                push_ns += (t1 - t0).as_nanos();
                claim_ns += t1.elapsed().as_nanos();
            }
            let pkts = (ROUNDS * PER_ROUND) as f64;
            println!(
                "{:<8} {:>8} {:>10.1} {:>15.1}",
                format!("{} B", hdr + data),
                run_len,
                push_ns as f64 / pkts,
                claim_ns as f64 / pkts
            );
        }
    }
    println!("\n1040 B runs of 32, push then claim+release, ns/pkt:");
    let run = [TxPacket {
        dst: Addr::new(0, 0),
        hdr: &body[..16],
        data: &body[16..],
    }; 32];
    for (slots, depth) in ["shallow ring (hot window)", "512 held (positional slots)"]
        .into_iter()
        .zip([0, 512])
    {
        let ring = PacketRing::new(4096, 1040);
        for _ in 0..depth / 32 {
            assert_eq!(ring.push_run(&run), 32);
        }
        let (mut push_ns, mut claim_ns) = (0u128, 0u128);
        for _ in 0..ROUNDS * PER_ROUND / 32 {
            let t0 = std::time::Instant::now();
            assert_eq!(ring.push_run(black_box(&run)), 32);
            let t1 = std::time::Instant::now();
            toks.clear();
            assert_eq!(ring.claim_run(32, &mut toks), 32);
            black_box(ring.claimed_bytes(&toks[31]));
            ring.release(toks[0].slot(), 32);
            push_ns += (t1 - t0).as_nanos();
            claim_ns += t1.elapsed().as_nanos();
        }
        let pkts = (ROUNDS * PER_ROUND) as f64;
        println!(
            "{:<30} {:>10.1} {:>15.1}",
            slots,
            push_ns as f64 / pkts,
            claim_ns as f64 / pkts
        );
    }
}

fn bench_timely(c: &mut Criterion) {
    let mut t = Timely::new(TimelyConfig::for_link(25e9));
    let mut now = 0u64;
    c.bench_function("timely_update", |b| {
        b.iter(|| {
            now += 1000;
            t.update(black_box(60_000), now);
        })
    });
    c.bench_function("timely_bypass_check", |b| {
        b.iter(|| t.can_bypass_update(black_box(10_000)))
    });
}

fn bench_stores(c: &mut Criterion) {
    let mut mica = Mica::new(1 << 16);
    for i in 0..10_000u64 {
        mica.put(&i.to_le_bytes(), &[0u8; 64]);
    }
    let mut i = 0u64;
    c.bench_function("mica_get", |b| {
        b.iter(|| {
            i = (i + 7) % 10_000;
            black_box(mica.get(&i.to_le_bytes()))
        })
    });
    let mut tree: Masstree<u64> = Masstree::new();
    for i in 0..100_000u64 {
        tree.put(&i.to_be_bytes(), i);
    }
    let mut j = 0u64;
    c.bench_function("masstree_get", |b| {
        b.iter(|| {
            j = (j + 13) % 100_000;
            black_box(tree.get(&j.to_be_bytes()))
        })
    });
    c.bench_function("masstree_scan_128", |b| {
        b.iter(|| {
            j = (j + 13) % 100_000;
            let mut n = 0u32;
            let mut sum = 0u64;
            tree.scan_from(&j.to_be_bytes(), |_k, v| {
                sum = sum.wrapping_add(*v);
                n += 1;
                n < 128
            });
            black_box(sum)
        })
    });
}

// ── Per-RPC allocation/copy accounting (fig4/tab2's "before/after") ─────

const PATH_ECHO: u8 = 1;
const PATH_WARMUP: u64 = 512;
const PATH_MEASURE: u64 = 4096;

thread_local! {
    static DONE: Cell<u64> = const { Cell::new(0) };
    static PAIR: RefCell<Option<(MsgBuf, MsgBuf)>> = const { RefCell::new(None) };
}

// Zero-sized fn item: boxing it allocates nothing, so the client side of
// the measurement adds no allocator traffic of its own.
fn path_cont(_ctx: &mut ContContext<'_>, comp: Completion) {
    assert!(comp.result.is_ok());
    DONE.with(|c| c.set(c.get() + 1));
    PAIR.with(|b| *b.borrow_mut() = Some((comp.req, comp.resp)));
}

fn path_cfg() -> RpcConfig {
    RpcConfig {
        ping_interval_ns: 0,
        cc: CcAlgorithm::None,
        ..RpcConfig::default()
    }
}

fn drive_path(
    client: &mut Rpc<MemTransport>,
    server: &mut Rpc<MemTransport>,
    sess: SessionHandle,
    n: u64,
) {
    let target = DONE.with(|c| c.get()) + n;
    while DONE.with(|c| c.get()) < target {
        if let Some((mut req, resp)) = PAIR.with(|b| b.borrow_mut().take()) {
            req.resize(32);
            client
                .enqueue_request(sess, PATH_ECHO, req, resp, path_cont)
                .unwrap();
        }
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
}

/// One closed-loop scenario: returns (allocs/RPC, frees/RPC, pool
/// misses/RPC, pool hits/RPC) over the measured window.
fn measure_path(
    mut server: Rpc<MemTransport>,
    mut client: Rpc<MemTransport>,
) -> (f64, f64, f64, f64) {
    let sess = client.create_session(server.addr()).unwrap();
    while !client.is_connected(sess) {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    PAIR.with(|b| {
        *b.borrow_mut() = Some((client.alloc_msg_buffer(32), client.alloc_msg_buffer(64)));
    });
    drive_path(&mut client, &mut server, sess, PATH_WARMUP);
    let a0 = snapshot();
    let pool0 = (
        client.stats().pool_allocs_new + server.stats().pool_allocs_new,
        client.stats().pool_allocs_reused + server.stats().pool_allocs_reused,
    );
    drive_path(&mut client, &mut server, sess, PATH_MEASURE);
    let d = snapshot().since(&a0);
    let n = PATH_MEASURE as f64;
    let misses = client.stats().pool_allocs_new + server.stats().pool_allocs_new - pool0.0;
    let hits = client.stats().pool_allocs_reused + server.stats().pool_allocs_reused - pool0.1;
    PAIR.with(|b| b.borrow_mut().take());
    (
        d.allocs as f64 / n,
        d.deallocs as f64 / n,
        misses as f64 / n,
        hits as f64 / n,
    )
}

/// Allocs/copies per small RPC for the three application paths. The
/// "copies" column is the structural count for a single-packet 32 B
/// RPC: dispatch = respond-into-prealloc + client RX assemble; worker
/// adds the one unavoidable cross-thread copy of the request (§4.2.3).
fn bench_rpc_path_costs(_c: &mut Criterion) {
    let fabric = MemFabric::new(MemFabricConfig::default());

    let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), path_cfg());
    server.register_request_handler(
        PATH_ECHO,
        Box::new(|ctx, req| {
            let mut out = [0u8; 64];
            let n = req.len().min(64);
            out[..n].copy_from_slice(&req[..n]);
            ctx.respond(&out[..n]);
        }),
    );
    let client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), path_cfg());
    let dispatch = measure_path(server, client);

    let mut wcfg = path_cfg();
    wcfg.num_worker_threads = 1;
    let mut server = Rpc::new(fabric.create_transport(Addr::new(2, 0)), wcfg);
    server.register_worker_handler(
        PATH_ECHO,
        std::sync::Arc::new(|req: &[u8], out: &mut MsgBuf| out.append(req)),
    );
    let client = Rpc::new(fabric.create_transport(Addr::new(3, 0)), path_cfg());
    let worker = measure_path(server, client);

    println!(
        "
per-RPC datapath cost (32 B echo, {PATH_MEASURE} RPCs after {PATH_WARMUP} warmup):"
    );
    println!(
        "{:<18} {:>11} {:>10} {:>13} {:>12} {:>14}",
        "path", "allocs/RPC", "frees/RPC", "pool miss/RPC", "pool hit/RPC", "copies (anal.)"
    );
    for (name, m, copies) in [
        ("rpc_dispatch", dispatch, "2 (1/dir)"),
        ("rpc_worker", worker, "3 (req ×2)"),
    ] {
        println!(
            "{:<18} {:>11.4} {:>10.4} {:>13.4} {:>12.4} {:>14}",
            name, m.0, m.1, m.2, m.3, copies
        );
    }
    assert_eq!(dispatch.0, 0.0, "dispatch path must not allocate");
    assert_eq!(worker.0, 0.0, "worker path must not allocate");
}

// ── Issue-path ledger (slot scheduling, DESIGN.md § "Slot scheduling") ──

/// A scripted server on a raw `MemTransport` (the test suites' fake peer):
/// remembers the request numbers it has seen, answers on demand.
struct FakeServer {
    t: MemTransport,
    client: Addr,
    client_sess: u16,
    /// Request numbers received and not yet answered.
    seen: Vec<u64>,
}

impl FakeServer {
    /// Drain the ring, noting first request packets.
    fn recv(&mut self) {
        let pkts = fake_peer::recv_all(&mut self.t);
        let first = pkts
            .iter()
            .filter(|(h, _)| h.pkt_type == PktType::Req && h.pkt_num == 0);
        self.seen.extend(first.map(|(h, _)| h.req_num));
    }

    /// Answer the oldest `n` requests seen with an 8 B response.
    fn respond(&mut self, n: usize) {
        for req_num in self.seen.drain(..n) {
            let hdr = PktHdr {
                pkt_type: PktType::Resp,
                ecn: false,
                req_type: PATH_ECHO,
                dest_session: self.client_sess,
                msg_size: 8,
                req_num,
                pkt_num: 0,
            };
            fake_peer::send(&mut self.t, self.client, &hdr, &[0; 8]);
        }
    }
}

thread_local! {
    static LEDGER_FREE: RefCell<Vec<(MsgBuf, MsgBuf)>> = const { RefCell::new(Vec::new()) };
}

fn ledger_cont(_ctx: &mut ContContext<'_>, comp: Completion) {
    DONE.with(|c| c.set(c.get() + 1));
    LEDGER_FREE.with(|f| f.borrow_mut().push((comp.req, comp.resp)));
}

fn ledger_enqueue(client: &mut Rpc<MemTransport>, sess: SessionHandle) {
    let (req, resp) = LEDGER_FREE.with(|f| f.borrow_mut().pop()).unwrap();
    client
        .enqueue_request(sess, PATH_ECHO, req, resp, ledger_cont)
        .unwrap();
}

/// ns per operation of the issue path at 1, 8 and 64 slots per session —
/// the point being that none of them depends on the slot count: a request
/// enqueued into the one free slot of an otherwise busy session, a request
/// enqueued with every slot busy (it waits), a completion that hands its
/// slot to the backlog head (one pass over a burst of responses, per
/// response), and a credit return that lets a 40-packet request send its
/// next packet (per CR). A scripted server keeps the client side alone on
/// the clock; each figure includes its share of the pass's `rx_burst` and
/// TX flush; the one-free-slot enqueue is timed call by call, with the
/// `Instant` overhead subtracted.
fn issue_path_ledger() {
    const ROUNDS: usize = 400;
    const BACKLOG: usize = 32;
    println!("\nissue path, ns per operation (scripted server, {ROUNDS} rounds):");
    println!(
        "{:<6} {:>18} {:>18} {:>22} {:>16}",
        "slots", "enqueue, 1 free", "enqueue, all busy", "completion+promotion", "CR-driven kick"
    );
    let timer_ns = {
        let t0 = Instant::now();
        for _ in 0..100_000 {
            black_box(Instant::now());
        }
        t0.elapsed().as_nanos() as f64 / 100_000.0
    };
    for slots in [1usize, 8, 64] {
        // Credits for every slot's packet, so that the slots, not the
        // credits, are what a waiting request waits for.
        let (mut client, mut srv, sess) = ledger_rig(slots, 2 * slots as u32);
        LEDGER_FREE.with(|f| {
            let mut f = f.borrow_mut();
            f.clear();
            for _ in 0..slots + BACKLOG {
                f.push((client.alloc_msg_buffer(32), client.alloc_msg_buffer(32)));
            }
        });
        let (mut free_ns, mut busy_ns, mut promo_ns, mut cr_ns) = (0.0f64, 0u128, 0u128, 0u128);
        let (mut promos, mut crs) = (0u64, 0u64);
        for _ in 0..slots {
            ledger_enqueue(&mut client, sess);
        }
        for _ in 0..ROUNDS {
            // Every slot busy: these wait.
            let t0 = Instant::now();
            for _ in 0..BACKLOG {
                ledger_enqueue(&mut client, sess);
            }
            busy_ns += t0.elapsed().as_nanos();
            // Completions, each handing its slot to the backlog head.
            loop {
                client.run_event_loop_once();
                srv.recv();
                let waiting = client.session_info(sess).unwrap().backlogged;
                if waiting == 0 {
                    break;
                }
                let n = waiting.min(srv.seen.len());
                srv.respond(n);
                let t0 = Instant::now();
                client.run_event_loop_once();
                promo_ns += t0.elapsed().as_nanos();
                promos += n as u64;
            }
            // One slot free, the rest busy: straight into the slot.
            srv.respond(1);
            client.run_event_loop_once();
            let t0 = Instant::now();
            ledger_enqueue(&mut client, sess);
            free_ns += t0.elapsed().as_nanos() as f64 - timer_ns;
        }
        assert_eq!(client.stats().retransmissions, 0);
        // One 40-packet request at a time on an otherwise idle session of
        // 32 credits: 32 packets leave at once, CRs release the rest.
        let (mut client, mut srv, sess) = ledger_rig(slots, 32);
        let big = 40 * client.data_per_pkt();
        let mut big_pair = Some((client.alloc_msg_buffer(big), client.alloc_msg_buffer(32)));
        for _ in 0..ROUNDS {
            let (mut req, resp) = big_pair.take().unwrap();
            req.resize(big);
            let req_num = {
                client
                    .enqueue_request(sess, PATH_ECHO, req, resp, |_ctx, comp| {
                        PAIR.with(|p| *p.borrow_mut() = Some((comp.req, comp.resp)));
                    })
                    .unwrap();
                client.run_event_loop_once();
                srv.recv();
                srv.seen.pop().unwrap()
            };
            for burst in [0..32u16, 32..39] {
                for pkt in burst.clone() {
                    let cr = PktHdr::control(PktType::CreditReturn, srv.client_sess, req_num, pkt);
                    fake_peer::send(&mut srv.t, srv.client, &cr, &[]);
                }
                let t0 = Instant::now();
                client.run_event_loop_once();
                cr_ns += t0.elapsed().as_nanos();
                crs += burst.len() as u64;
            }
            srv.seen.push(req_num);
            srv.respond(1);
            client.run_event_loop_once();
            srv.recv();
            big_pair = PAIR.with(|p| p.borrow_mut().take());
            assert!(big_pair.is_some(), "40-packet request completed");
        }
        assert_eq!(client.stats().retransmissions, 0);
        println!(
            "{:<6} {:>18.1} {:>18.1} {:>22.1} {:>16.1}",
            slots,
            free_ns / ROUNDS as f64,
            busy_ns as f64 / (ROUNDS * BACKLOG) as f64,
            promo_ns as f64 / promos as f64,
            cr_ns as f64 / crs as f64
        );
    }
}

/// A client with one session of `slots` slots and `credits` credits to a
/// scripted server.
fn ledger_rig(slots: usize, credits: u32) -> (Rpc<MemTransport>, FakeServer, SessionHandle) {
    let fabric = MemFabric::new(MemFabricConfig::default());
    let cfg = RpcConfig {
        slots_per_session: slots,
        session_credits: credits,
        // The script answers when it answers: no timed retransmissions.
        rto_ns: 60_000_000_000,
        opt_adaptive_rto: false,
        ..path_cfg()
    };
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg);
    let mut t = fabric.create_transport(Addr::new(9, 0));
    let sess = fake_peer::fake_server_accept(&mut client, &mut t);
    let srv = FakeServer {
        t,
        client: client.addr(),
        client_sess: sess.num(),
        seen: Vec::new(),
    };
    (client, srv, sess)
}

fn bench_issue_path(_c: &mut Criterion) {
    issue_path_ledger();
}

// ── Large-message ledger (DESIGN.md § "Large messages move as runs") ────

/// 1 MiB = 1024 packets: 32 windows of the default 32 credits.
const BIG_PKTS: usize = 1024;
const BIG_ROUNDS: usize = 100;

/// Claim and release everything in `t`'s ring (untimed script upkeep).
fn drain(t: &mut MemTransport) {
    let mut toks = Vec::with_capacity(64);
    while t.rx_burst(64, &mut toks) > 0 {
        toks.clear();
        t.rx_release();
    }
}

/// ns per packet of each side of a 1 MiB request, and the CRs it draws.
/// Server: a scripted client puts 32 request packets in the server's ring
/// — one window, as one burst — and one pass consumes them (one run,
/// answered by one CR); the last burst of each request, which also runs
/// the handler, is not timed. Client: a scripted server returns each
/// 32-credit window with one cumulative CR, and one pass takes it and
/// flushes the next window (kick, descriptor, the 32 packets' ring push).
/// CRs per request: a real client and server, one pass each in turn, so
/// every window reaches the server as one burst. Beside them, the floors
/// under the server's figure: the 1 KiB copy alone into a 1 MiB buffer,
/// slot after slot out of a ring-sized arena (4096 slots of 1040 B: a deep
/// ring's positional slots) and out of 64 slots (the hot window a shallow
/// ring reuses, as in this server's). The client's floor, the 1040 B ring
/// push, is in the packet-ring ledger.
fn large_path_ledger() {
    println!("\nlarge-message path (1 MiB requests = {BIG_PKTS} packets, 32 credits, {BIG_ROUNDS} requests):");
    // Server RX: one run per 32-packet burst.
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), fake_peer::cfg());
    server.register_request_handler(PATH_ECHO, Box::new(|ctx, _req| ctx.respond(&[0; 32])));
    let mut fake = fabric.create_transport(Addr::new(9, 0));
    let sess = fake_peer::fake_client_connect(&mut server, &mut fake);
    let dpp = server.data_per_pkt();
    let body = vec![7u8; dpp];
    let (mut srv_ns, mut srv_pkts) = (0u128, 0usize);
    for r in 0..BIG_ROUNDS {
        let hdrs: Vec<[u8; 16]> = (0..BIG_PKTS)
            .map(|k| {
                PktHdr {
                    pkt_type: PktType::Req,
                    ecn: false,
                    req_type: PATH_ECHO,
                    dest_session: sess,
                    msg_size: (BIG_PKTS * dpp) as u32,
                    req_num: 8 * r as u64,
                    pkt_num: k as u16,
                }
                .encode()
            })
            .collect();
        for (w, window) in hdrs.chunks(32).enumerate() {
            let burst: Vec<TxPacket<'_>> = window
                .iter()
                .map(|h| TxPacket {
                    dst: server.addr(),
                    hdr: h,
                    data: &body,
                })
                .collect();
            fake.tx_burst(&burst);
            let t0 = Instant::now();
            server.run_event_loop_once();
            if w + 1 < BIG_PKTS / 32 {
                srv_ns += t0.elapsed().as_nanos();
                srv_pkts += 32;
            }
            drain(&mut fake);
        }
    }
    assert_eq!(server.stats().handlers_invoked, BIG_ROUNDS as u64);
    // Client: CR → kick → flush, one 32-packet window per pass.
    let (mut client, mut srv, csess) = ledger_rig(8, 32);
    let big = BIG_PKTS * client.data_per_pkt();
    let mut big_pair = Some((client.alloc_msg_buffer(big), client.alloc_msg_buffer(32)));
    let (mut cli_ns, mut cli_pkts) = (0u128, 0usize);
    for _ in 0..BIG_ROUNDS {
        let (req, resp) = big_pair.take().unwrap();
        client
            .enqueue_request(csess, PATH_ECHO, req, resp, |_ctx, comp| {
                PAIR.with(|p| *p.borrow_mut() = Some((comp.req, comp.resp)));
            })
            .unwrap();
        client.run_event_loop_once();
        srv.recv();
        let req_num = srv.seen.pop().unwrap();
        for w in 1..BIG_PKTS / 32 {
            let cr = PktHdr::control(
                PktType::CreditReturn,
                srv.client_sess,
                req_num,
                (32 * w - 1) as u16,
            );
            fake_peer::send(&mut srv.t, srv.client, &cr, &[]);
            let t0 = Instant::now();
            client.run_event_loop_once();
            cli_ns += t0.elapsed().as_nanos();
            cli_pkts += 32;
            drain(&mut srv.t);
        }
        srv.seen.push(req_num);
        srv.respond(1);
        client.run_event_loop_once();
        big_pair = PAIR.with(|p| p.borrow_mut().take());
        assert!(big_pair.is_some(), "1 MiB request completed");
    }
    assert_eq!(client.stats().data_pkts_tx, (BIG_ROUNDS * BIG_PKTS) as u64);
    // CRs per request between a real client and server.
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), fake_peer::cfg());
    server.register_request_handler(PATH_ECHO, Box::new(|ctx, _req| ctx.respond(&[0; 32])));
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), fake_peer::cfg());
    let sess = client.create_session(server.addr()).unwrap();
    while !client.is_connected(sess) {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    let mut pair = Some((client.alloc_msg_buffer(big), client.alloc_msg_buffer(32)));
    let crs0 = server.stats().ctrl_pkts_tx;
    for _ in 0..BIG_ROUNDS {
        let (req, resp) = pair.take().unwrap();
        client
            .enqueue_request(sess, PATH_ECHO, req, resp, |_ctx, comp| {
                PAIR.with(|p| *p.borrow_mut() = Some((comp.req, comp.resp)));
            })
            .unwrap();
        while pair.is_none() {
            client.run_event_loop_once();
            server.run_event_loop_once();
            pair = PAIR.with(|p| p.borrow_mut().take());
        }
    }
    assert_eq!(client.stats().retransmissions, 0);
    let crs_per_req = (server.stats().ctrl_pkts_tx - crs0) / BIG_ROUNDS as u64;
    println!(
        "{:<48} {:>10.1} ns/pkt",
        "server RX, 32-packet run -> 1 CR",
        srv_ns as f64 / srv_pkts as f64
    );
    println!(
        "{:<48} {:>10.1} ns/pkt",
        "client CR -> kick -> flush, 32-packet window",
        cli_ns as f64 / cli_pkts as f64
    );
    println!("{:<48} {:>10}", "CRs per 1 MiB request", crs_per_req);
    let arena = vec![7u8; 4096 * 1040];
    let mut dst = vec![0u8; BIG_PKTS * dpp];
    for (label, slots) in [
        ("floor: 1 KiB RX copy, positional (4096 slots)", 4096),
        ("floor: 1 KiB RX copy, hot window (64 slots)", 64),
    ] {
        let t0 = Instant::now();
        for r in 0..BIG_ROUNDS {
            for (k, chunk) in dst.chunks_exact_mut(dpp).enumerate() {
                let at = (r * BIG_PKTS + k) % slots * 1040 + 16;
                chunk.copy_from_slice(black_box(&arena[at..at + dpp]));
            }
            black_box(&mut dst);
        }
        println!(
            "{:<48} {:>10.1} ns/pkt",
            label,
            t0.elapsed().as_nanos() as f64 / (BIG_ROUNDS * BIG_PKTS) as f64
        );
    }
    assert_eq!(crs_per_req, (BIG_PKTS / 32) as u64, "one CR per window");
}

fn bench_large_path(_c: &mut Criterion) {
    large_path_ledger();
}

criterion_group! {
    name = micro;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(500))
        .warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_pkthdr, bench_bufpool, bench_wheel, bench_ring, bench_timely, bench_stores, bench_rpc_path_costs, bench_issue_path, bench_large_path
}
criterion_main!(micro);
