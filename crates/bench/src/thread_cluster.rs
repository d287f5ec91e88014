//! Wall-clock harnesses: several `Rpc` endpoints over the lock-free
//! in-process fabric, polled round-robin by **one** OS thread.
//!
//! Why single-threaded: the paper's unit of measurement is *one CPU core*
//! (per-thread rate, one-core bandwidth). Running every endpoint on one
//! core makes our numbers per-core numbers too — each RPC's client *and*
//! server work is on the measured core, exactly like the paper's
//! symmetric workload where each thread is both client and server — and
//! it makes the factor analysis deterministic (no scheduler noise).
//! Worker threads (§3.2) remain real threads.
//!
//! * [`run_symmetric`] — the §6.2 workload shape: E endpoints, all-to-all
//!   sessions, batches of B small RPCs to uniformly random peers, a fixed
//!   in-flight window (paper: 60). Used by Figure 4 and Table 3.
//! * [`run_bandwidth`] — the §6.4 shape: one client streams R-byte
//!   requests (32 B responses) to one server, one request outstanding.
//!   Used by Figure 6 and Table 4 (with injected loss).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use erpc::{LatencyHistogram, MsgBuf, Rpc, RpcConfig, RpcStats};
use erpc_transport::{Addr, MemFabric, MemFabricConfig, MemTransport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ECHO: u8 = 1;

/// Options for the symmetric small-RPC workload.
#[derive(Clone)]
pub struct SymmetricOpts {
    /// Rpc endpoints (the paper's "threads"); all share the measured core.
    pub endpoints: usize,
    /// Requests issued per batch (Figure 4's B).
    pub batch: usize,
    pub req_size: usize,
    pub resp_size: usize,
    /// Target in-flight requests per endpoint (paper: 60).
    pub window: usize,
    pub warmup_ms: u64,
    pub measure_ms: u64,
    pub rpc_cfg: RpcConfig,
    pub fabric_cfg: MemFabricConfig,
}

impl Default for SymmetricOpts {
    fn default() -> Self {
        Self {
            endpoints: 4,
            batch: 3,
            req_size: 32,
            resp_size: 32,
            window: 60,
            warmup_ms: 100,
            measure_ms: 500,
            rpc_cfg: RpcConfig {
                ping_interval_ns: 0,
                ..RpcConfig::default()
            },
            fabric_cfg: MemFabricConfig::default(),
        }
    }
}

/// Result of a symmetric run.
pub struct SymmetricResult {
    /// RPCs completed per second on the measured core. Each completion
    /// implies a client-side *and* a server-side share of work on this
    /// core, so this is directly comparable to the paper's per-thread
    /// rate in the symmetric workload.
    pub per_core_rate: f64,
    /// Total requests completed in the measure window.
    pub total_completed: u64,
    /// Completion latencies (measure window only).
    pub latency: LatencyHistogram,
    /// Total go-back-N retransmissions observed.
    pub retransmissions: u64,
    /// Endpoint counters merged across all endpoints (whole run, incl.
    /// warmup) — the tables print pool hit/miss behavior from this.
    pub stats: RpcStats,
}

struct EpState {
    outstanding: Rc<Cell<usize>>,
    freelist: Rc<RefCell<Vec<(MsgBuf, MsgBuf)>>>,
    sessions: Vec<erpc::SessionHandle>,
    rng: SmallRng,
}

/// Run the symmetric workload; see module docs.
pub fn run_symmetric(opts: SymmetricOpts) -> SymmetricResult {
    assert!(opts.endpoints >= 2);
    let fabric = MemFabric::new(opts.fabric_cfg.clone());
    let completed = Rc::new(Cell::new(0u64));
    let measuring = Rc::new(Cell::new(false));
    let hist = Rc::new(RefCell::new(LatencyHistogram::new()));

    let mut rpcs: Vec<Rpc<MemTransport>> = Vec::with_capacity(opts.endpoints);
    let mut states: Vec<EpState> = Vec::with_capacity(opts.endpoints);
    for i in 0..opts.endpoints {
        let mut rpc = Rpc::new(
            fabric.create_transport(Addr::new(i as u16, 0)),
            opts.rpc_cfg.clone(),
        );
        let resp_size = opts.resp_size;
        rpc.register_request_handler(
            ECHO,
            Box::new(move |ctx, _req| {
                let resp = [0x5Au8; 4096];
                ctx.respond(&resp[..resp_size]);
            }),
        );
        let outstanding = Rc::new(Cell::new(0usize));
        let freelist: Rc<RefCell<Vec<(MsgBuf, MsgBuf)>>> = Rc::new(RefCell::new(Vec::new()));
        rpcs.push(rpc);
        states.push(EpState {
            outstanding,
            freelist,
            sessions: Vec::new(),
            rng: SmallRng::seed_from_u64(0xBEEF ^ i as u64),
        });
    }

    // All-to-all sessions.
    for i in 0..opts.endpoints {
        for j in 0..opts.endpoints {
            if i != j {
                let s = rpcs[i]
                    .create_session(Addr::new(j as u16, 0))
                    .expect("session");
                states[i].sessions.push(s);
            }
        }
    }
    loop {
        let mut all = true;
        for (rpc, st) in rpcs.iter_mut().zip(&states) {
            rpc.run_event_loop_once();
            all &= st.sessions.iter().all(|&s| rpc.is_connected(s));
        }
        if all {
            break;
        }
    }

    let issue_batch = |rpc: &mut Rpc<MemTransport>, st: &mut EpState| {
        for _ in 0..opts.batch {
            // `unwrap_or_else`, not `unwrap_or`: the eager variant
            // allocated two fresh buffers per issued RPC and dropped them
            // (caught by the pool-miss counters — ~2.3 misses/RPC).
            let (mut req, resp) = st.freelist.borrow_mut().pop().unwrap_or_else(|| {
                (
                    rpc.alloc_msg_buffer(opts.req_size),
                    rpc.alloc_msg_buffer(opts.resp_size.max(1)),
                )
            });
            req.resize(opts.req_size);
            let sess = st.sessions[st.rng.gen_range(0..st.sessions.len())];
            let (o, c, m, h, fl) = (
                st.outstanding.clone(),
                completed.clone(),
                measuring.clone(),
                hist.clone(),
                st.freelist.clone(),
            );
            let cont = move |_ctx: &mut erpc::ContContext<'_>, comp: erpc::Completion| {
                assert!(comp.result.is_ok(), "rpc failed: {:?}", comp.result);
                o.set(o.get() - 1);
                if m.get() {
                    c.set(c.get() + 1);
                    h.borrow_mut().record(comp.latency_ns);
                }
                fl.borrow_mut().push((comp.req, comp.resp));
            };
            match rpc.enqueue_request(sess, ECHO, req, resp, cont) {
                Ok(()) => st.outstanding.set(st.outstanding.get() + 1),
                Err(e) => {
                    st.freelist.borrow_mut().push((e.req, e.resp));
                    break;
                }
            }
        }
    };

    let phase = |deadline: Instant, rpcs: &mut [Rpc<MemTransport>], states: &mut [EpState]| {
        // Check the clock every few rounds to keep Instant::now() off the
        // inner loop.
        loop {
            for _ in 0..64 {
                for (rpc, st) in rpcs.iter_mut().zip(states.iter_mut()) {
                    while st.outstanding.get() + opts.batch <= opts.window {
                        issue_batch(rpc, st);
                    }
                    rpc.run_event_loop_once();
                }
            }
            if Instant::now() >= deadline {
                return;
            }
        }
    };

    phase(
        Instant::now() + Duration::from_millis(opts.warmup_ms),
        &mut rpcs,
        &mut states,
    );
    measuring.set(true);
    let t0 = Instant::now();
    phase(
        t0 + Duration::from_millis(opts.measure_ms),
        &mut rpcs,
        &mut states,
    );
    let secs = t0.elapsed().as_secs_f64();
    measuring.set(false);

    let retransmissions = rpcs.iter().map(|r| r.stats().retransmissions).sum();
    let mut stats = RpcStats::default();
    for r in &rpcs {
        stats.merge(r.stats());
    }
    let latency = hist.borrow().clone();
    SymmetricResult {
        per_core_rate: completed.get() as f64 / secs,
        total_completed: completed.get(),
        latency,
        retransmissions,
        stats,
    }
}

/// Options for the one-way bandwidth workload (§6.4).
#[derive(Clone)]
pub struct BandwidthOpts {
    pub req_size: usize,
    /// Transfers to time (after one warmup transfer).
    pub transfers: usize,
    pub rpc_cfg: RpcConfig,
    pub fabric_cfg: MemFabricConfig,
}

impl Default for BandwidthOpts {
    fn default() -> Self {
        Self {
            req_size: 8 << 20,
            transfers: 8,
            rpc_cfg: RpcConfig {
                ping_interval_ns: 0,
                ..RpcConfig::default()
            },
            // Large-MTU fabric, like the 100 Gb InfiniBand rewire (§6.4):
            // 4096 B data + 16 B header per packet.
            fabric_cfg: MemFabricConfig {
                mtu: 4112,
                ring_capacity: 8192,
                ..MemFabricConfig::default()
            },
        }
    }
}

/// Result of a bandwidth run.
pub struct BandwidthResult {
    pub goodput_bps: f64,
    pub retransmissions: u64,
}

/// One client streams `req_size`-byte requests to one server (both on the
/// measured core); 32 B responses; one request outstanding.
pub fn run_bandwidth(opts: BandwidthOpts) -> BandwidthResult {
    let fabric = MemFabric::new(opts.fabric_cfg.clone());
    let mut server = Rpc::new(
        fabric.create_transport(Addr::new(0, 0)),
        opts.rpc_cfg.clone(),
    );
    server.register_request_handler(
        ECHO,
        Box::new(|ctx, req| {
            // Touch the request (checksum) so reception is real work, then
            // send the tiny response.
            let sum = req.iter().fold(0u8, |a, &b| a.wrapping_add(b));
            ctx.respond(&[sum; 32]);
        }),
    );
    let mut client = Rpc::new(
        fabric.create_transport(Addr::new(1, 0)),
        opts.rpc_cfg.clone(),
    );
    let sess = client.create_session(Addr::new(0, 0)).expect("session");
    while !client.is_connected(sess) {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    let completed = Rc::new(Cell::new(0usize));
    let bufs: Rc<RefCell<Option<(MsgBuf, MsgBuf)>>> = Rc::new(RefCell::new(None));
    let issue = |client: &mut Rpc<MemTransport>| {
        let (mut req, resp) = bufs.borrow_mut().take().unwrap_or_else(|| {
            (
                client.alloc_msg_buffer(opts.req_size),
                client.alloc_msg_buffer(64),
            )
        });
        req.resize(opts.req_size);
        let (c2, b2) = (completed.clone(), bufs.clone());
        client
            .enqueue_request(sess, ECHO, req, resp, move |_ctx, comp| {
                assert!(comp.result.is_ok());
                c2.set(c2.get() + 1);
                *b2.borrow_mut() = Some((comp.req, comp.resp));
            })
            .map_err(|_| ())
            .expect("enqueue");
    };

    // Warmup transfer.
    issue(&mut client);
    while completed.get() < 1 {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    // Timed transfers, one outstanding.
    let t0 = Instant::now();
    for i in 0..opts.transfers {
        issue(&mut client);
        while completed.get() < 2 + i {
            client.run_event_loop_once();
            server.run_event_loop_once();
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    BandwidthResult {
        goodput_bps: (opts.transfers * opts.req_size) as f64 * 8.0 / secs,
        retransmissions: client.stats().retransmissions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_smoke() {
        let r = run_symmetric(SymmetricOpts {
            endpoints: 2,
            warmup_ms: 20,
            measure_ms: 50,
            ..Default::default()
        });
        assert!(r.total_completed > 100, "completed {}", r.total_completed);
        assert!(r.per_core_rate > 1_000.0);
        assert!(r.latency.count() > 0);
    }

    #[test]
    fn bandwidth_smoke() {
        let r = run_bandwidth(BandwidthOpts {
            req_size: 1 << 20,
            transfers: 3,
            ..Default::default()
        });
        // Smoke threshold only: the suite runs many test binaries in
        // parallel, so absolute wall-clock goodput can dip well below the
        // uncontended figure. Real numbers come from the bench targets.
        assert!(r.goodput_bps > 1e7, "goodput {:.2e}", r.goodput_bps);
    }

    #[test]
    fn bandwidth_with_loss_recovers() {
        let r = run_bandwidth(BandwidthOpts {
            req_size: 1 << 20,
            transfers: 2,
            fabric_cfg: MemFabricConfig {
                mtu: 4112,
                ring_capacity: 8192,
                loss_prob: 1e-3,
                ..MemFabricConfig::default()
            },
            rpc_cfg: RpcConfig {
                ping_interval_ns: 0,
                rto_ns: 1_000_000,
                ..RpcConfig::default()
            },
        });
        assert!(r.retransmissions > 0);
        assert!(r.goodput_bps > 1e6);
    }
}
