//! Allocation-regression gate: the steady-state small-RPC datapath must
//! perform **zero heap allocations per RPC** after warmup (§4.2.1 msgbuf
//! pools, §4.2.3 zero-copy RX, §4.3 preallocated responses), on all three
//! paths an application can take:
//!
//! 1. **dispatch** — raw `enqueue_request` + dispatch-mode handler,
//! 2. **worker**  — worker-thread handler (pooled msgbufs across the
//!    thread hop; allocations on the worker thread count too),
//! 3. **channel** — the typed `Channel` facade (slice-writer encode,
//!    recycled outcome cells, borrow-decode),
//!
//! and on the dispatch path again over a lossy link
//! (`FaultTransport` dropping 1 % of packets each way), where the
//! retransmission machinery and the fault wrapper run too.
//!
//! One `#[test]` drives all scenarios so the process-wide counting
//! allocator sees no concurrent test noise. CI runs this file as a
//! dedicated step: a new per-RPC allocation anywhere in the stack fails
//! here, not in a profiler six PRs later.

use std::cell::{Cell, RefCell};

use erpc::alloc_count::{snapshot, CountingAlloc};
use erpc::{
    CcAlgorithm, Channel, Completion, ContContext, MsgBuf, Rpc, RpcCall, RpcConfig, RpcError,
    RpcMessage, SessionHandle,
};
use erpc_transport::codec::ByteSink;
use erpc_transport::{
    Addr, FaultConfig, FaultTransport, MemFabric, MemFabricConfig, MemTransport, Transport,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ECHO: u8 = 1;
const SLOW: u8 = 2;
/// In-flight window per scenario (≤ slots_per_session, so no backlog
/// churn obscures the measurement).
const WINDOW: usize = 4;
const WARMUP: u64 = 512;
const MEASURE: u64 = 2048;

// The continuation must be a zero-sized fn item (boxing a ZST allocates
// nothing), so completion state lives in thread-locals instead of
// captures.
thread_local! {
    static COMPLETED: Cell<u64> = const { Cell::new(0) };
    static BUFS: RefCell<Vec<(MsgBuf, MsgBuf)>> = const { RefCell::new(Vec::new()) };
}

fn count_cont(_ctx: &mut ContContext<'_>, comp: Completion) {
    assert!(comp.result.is_ok(), "rpc failed: {:?}", comp.result);
    COMPLETED.with(|c| c.set(c.get() + 1));
    BUFS.with(|b| b.borrow_mut().push((comp.req, comp.resp)));
}

fn cfg() -> RpcConfig {
    RpcConfig {
        // Quiet control plane: the measurement isolates the datapath.
        ping_interval_ns: 0,
        cc: CcAlgorithm::None,
        ..RpcConfig::default()
    }
}

fn connect<T: Transport>(client: &mut Rpc<T>, server: &mut Rpc<T>) -> SessionHandle {
    let sess = client.create_session(server.addr()).unwrap();
    while !client.is_connected(sess) {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    sess
}

/// Drive `n` closed-loop RPCs through the raw continuation API.
fn drive_raw<T: Transport>(
    client: &mut Rpc<T>,
    server: &mut Rpc<T>,
    sess: SessionHandle,
    req_type: u8,
    n: u64,
) {
    let target = COMPLETED.with(|c| c.get()) + n;
    while COMPLETED.with(|c| c.get()) < target {
        loop {
            let pair = BUFS.with(|b| b.borrow_mut().pop());
            let Some((mut req, resp)) = pair else { break };
            req.resize(32);
            client
                .enqueue_request(sess, req_type, req, resp, count_cont)
                .unwrap();
        }
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
}

/// Measure one raw-API scenario: warm up, then assert the measured window
/// performed zero allocator traffic and zero pool misses.
fn assert_raw_path_alloc_free<T: Transport>(
    client: &mut Rpc<T>,
    server: &mut Rpc<T>,
    sess: SessionHandle,
    req_type: u8,
    label: &str,
) {
    // Seed the closed loop with pooled buffer pairs.
    BUFS.with(|b| {
        let mut b = b.borrow_mut();
        for _ in 0..WINDOW {
            b.push((client.alloc_msg_buffer(32), client.alloc_msg_buffer(64)));
        }
    });
    drive_raw(client, server, sess, req_type, WARMUP);

    let alloc0 = snapshot();
    let pool0 = (
        client.stats().pool_allocs_new + server.stats().pool_allocs_new,
        client.stats().pool_allocs_reused + server.stats().pool_allocs_reused,
    );
    drive_raw(client, server, sess, req_type, MEASURE);
    let delta = snapshot().since(&alloc0);
    let pool_new = client.stats().pool_allocs_new + server.stats().pool_allocs_new - pool0.0;
    let pool_reused =
        client.stats().pool_allocs_reused + server.stats().pool_allocs_reused - pool0.1;

    assert_eq!(
        delta.allocs, 0,
        "{label}: {} heap allocations over {MEASURE} RPCs ({} bytes)",
        delta.allocs, delta.bytes
    );
    assert_eq!(
        delta.deallocs, 0,
        "{label}: {} heap frees over {MEASURE} RPCs",
        delta.deallocs
    );
    assert_eq!(pool_new, 0, "{label}: pool grew mid-measurement");
    // The scenario actually exercised the pool (or the preallocated-
    // response path, which bypasses it entirely on the dispatch path).
    let _ = pool_reused;

    // Return the seed buffers so the next scenario starts clean.
    BUFS.with(|b| {
        for (req, resp) in b.borrow_mut().drain(..) {
            client.free_msg_buffer(req);
            client.free_msg_buffer(resp);
        }
    });
}

// ── A tiny typed protocol for the Channel scenario ──────────────────────

struct Sum {
    a: u32,
    b: u32,
}

struct SumResp {
    v: u32,
}

impl RpcMessage for Sum {
    fn encode<S: ByteSink>(&self, out: &mut S) {
        out.put(&self.a.to_le_bytes());
        out.put(&self.b.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Result<Self, RpcError> {
        if bytes.len() != 8 {
            return Err(RpcError::Decode);
        }
        Ok(Self {
            a: u32::from_le_bytes(bytes[..4].try_into().unwrap()),
            b: u32::from_le_bytes(bytes[4..].try_into().unwrap()),
        })
    }

    fn encoded_len_hint(&self) -> usize {
        8
    }
}

impl RpcCall for Sum {
    const REQ_TYPE: u8 = 7;
    type Resp = SumResp;
}

impl RpcMessage for SumResp {
    fn encode<S: ByteSink>(&self, out: &mut S) {
        out.put(&self.v.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Result<Self, RpcError> {
        if bytes.len() != 4 {
            return Err(RpcError::Decode);
        }
        Ok(Self {
            v: u32::from_le_bytes(bytes.try_into().unwrap()),
        })
    }

    fn encoded_len_hint(&self) -> usize {
        4
    }
}

/// Drive `n` sequential typed calls over a channel.
fn drive_channel(
    client: &mut Rpc<MemTransport>,
    server: &mut Rpc<MemTransport>,
    chan: &Channel,
    n: u64,
) {
    for i in 0..n {
        let call = chan.call_typed(client, &Sum { a: i as u32, b: 1 }).unwrap();
        let resp = loop {
            if let Some(out) = call.try_take(client) {
                break out.unwrap();
            }
            client.run_event_loop_once();
            server.run_event_loop_once();
        };
        assert_eq!(resp.v, i as u32 + 1);
    }
}

#[test]
fn steady_state_is_allocation_free() {
    let fabric = MemFabric::new(MemFabricConfig::default());
    assert!(
        snapshot().allocs > 0,
        "counting allocator must be registered, or this gate is vacuous"
    );

    // ── Set-up pays for what it touches: the pacing wheel and the
    // histograms are built on first use, so a default endpoint is small ──
    {
        let transport = fabric.create_transport(Addr::new(8, 0));
        let before = snapshot();
        let rpc = Rpc::new(transport, RpcConfig::default());
        let bytes = snapshot().since(&before).bytes;
        assert!(bytes < 64 * 1024, "Rpc::new allocated {bytes} B");
        drop(rpc);
    }

    // ── Scenario 1: dispatch path (zero-copy RX + preallocated resp) ──
    {
        let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), cfg());
        server.register_request_handler(
            ECHO,
            Box::new(|ctx, req| {
                let mut out = [0u8; 64];
                let n = req.len().min(64);
                out[..n].copy_from_slice(&req[..n]);
                out[..n].reverse();
                ctx.respond(&out[..n]);
            }),
        );
        let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg());
        let sess = connect(&mut client, &mut server);
        assert_raw_path_alloc_free(&mut client, &mut server, sess, ECHO, "dispatch");
    }

    // ── Scenario 2: worker path (pooled msgbufs across the thread hop) ──
    {
        let mut scfg = cfg();
        scfg.num_worker_threads = 1;
        let mut server = Rpc::new(fabric.create_transport(Addr::new(2, 0)), scfg);
        server.register_worker_handler(
            SLOW,
            std::sync::Arc::new(|req: &[u8], out: &mut MsgBuf| {
                out.append(req);
                out.data_mut().reverse();
            }),
        );
        let mut client = Rpc::new(fabric.create_transport(Addr::new(3, 0)), cfg());
        let sess = connect(&mut client, &mut server);
        assert_raw_path_alloc_free(&mut client, &mut server, sess, SLOW, "worker");
    }

    // ── Scenario 1 again, 1 % of packets dropped each way: the fault
    // wrapper, RTO scan and go-back-N retransmission allocate nothing ──
    {
        let lossy = |addr| {
            let faults = FaultConfig {
                drop_prob: 0.01,
                ..FaultConfig::default()
            };
            FaultTransport::new(fabric.create_transport(addr), faults)
        };
        let mut server = Rpc::new(lossy(Addr::new(6, 0)), cfg());
        server.register_request_handler(ECHO, Box::new(|ctx, req| ctx.respond(req)));
        let mut client = Rpc::new(lossy(Addr::new(7, 0)), cfg());
        let sess = connect(&mut client, &mut server);
        assert_raw_path_alloc_free(&mut client, &mut server, sess, ECHO, "lossy dispatch");
        let dropped =
            |rpc: &Rpc<FaultTransport<MemTransport>>| rpc.transport().fault_stats().dropped;
        assert!(
            dropped(&client) + dropped(&server) > 0,
            "no packet was dropped, the lossy scenario measured nothing"
        );
        assert!(client.stats().retransmissions > 0);
    }

    // ── Scenario 3: typed Channel facade ──
    {
        let mut server = Rpc::new(fabric.create_transport(Addr::new(4, 0)), cfg());
        server.register_typed_handler::<Sum, _>(|m| SumResp { v: m.a + m.b });
        let mut client = Rpc::new(fabric.create_transport(Addr::new(5, 0)), cfg());
        let chan = Channel::new(connect(&mut client, &mut server)).with_resp_capacity(64);
        drive_channel(&mut client, &mut server, &chan, WARMUP);

        let alloc0 = snapshot();
        drive_channel(&mut client, &mut server, &chan, MEASURE);
        let delta = snapshot().since(&alloc0);
        assert_eq!(
            delta.allocs, 0,
            "channel: {} heap allocations over {MEASURE} typed calls ({} bytes)",
            delta.allocs, delta.bytes
        );
        assert_eq!(delta.deallocs, 0, "channel: heap frees in steady state");
    }
}
