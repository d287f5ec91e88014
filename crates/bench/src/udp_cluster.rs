//! Real-socket symmetric harness: the fig4 workload shape over
//! [`erpc_transport::UdpTransport`] instead of the in-process fabric.
//!
//! Same single-threaded discipline as [`crate::thread_cluster`]: every
//! endpoint is polled round-robin on the measured core, so rates are
//! per-core numbers. What changes is the substrate — packets cross the
//! kernel's loopback stack — which is exactly what the transport
//! ablation wants to price: syscalls per RPC and packets per kernel
//! message across the rungs of [`UdpBatching`] (per-packet loop,
//! `sendmmsg` batch, segmented runs), read from measure-window deltas of
//! the transport counters.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use erpc::{LatencyHistogram, MsgBuf, Rpc, RpcConfig};
use erpc_transport::{Addr, Transport, TransportStats, UdpBatching, UdpConfig, UdpTransport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ECHO: u8 = 1;

/// Options for the real-socket symmetric workload.
#[derive(Clone)]
pub struct UdpSymmetricOpts {
    /// Rpc endpoints, each on its own loopback socket (≥ 2).
    pub endpoints: usize,
    /// Requests issued per batch.
    pub batch: usize,
    pub req_size: usize,
    pub resp_size: usize,
    /// Target in-flight requests per endpoint.
    pub window: usize,
    pub warmup_ms: u64,
    pub measure_ms: u64,
    pub rpc_cfg: RpcConfig,
}

impl Default for UdpSymmetricOpts {
    fn default() -> Self {
        Self {
            endpoints: 2,
            batch: 3,
            req_size: 32,
            resp_size: 32,
            window: 16,
            warmup_ms: 100,
            measure_ms: 500,
            rpc_cfg: RpcConfig {
                ping_interval_ns: 0,
                ..RpcConfig::default()
            },
        }
    }
}

/// Result of a real-socket symmetric run. The syscall counters are
/// **measure-window deltas** summed across endpoints, so syscalls per RPC
/// is a steady-state figure (warmup and connection setup excluded).
pub struct UdpSymmetricResult {
    /// RPCs completed per second on the measured core.
    pub per_core_rate: f64,
    /// Requests completed in the measure window.
    pub total_completed: u64,
    pub latency: LatencyHistogram,
    /// Event-loop passes (all endpoints) in the measure window.
    pub passes: u64,
    /// Measure-window transport counter deltas (summed over endpoints).
    pub tx_syscalls: u64,
    pub rx_syscalls: u64,
    pub tx_pkts: u64,
    /// Kernel messages sent.
    pub tx_msgs: u64,
    /// `Segmented` only: probe refusals over the whole run (a fallback
    /// happens at bind or on the first send, before the measure window).
    pub gso_fallbacks: u64,
}

impl UdpSymmetricResult {
    /// Kernel crossings per completed RPC: every send and recv syscall.
    pub fn syscalls_per_rpc(&self) -> f64 {
        (self.tx_syscalls + self.rx_syscalls) as f64 / self.total_completed.max(1) as f64
    }

    /// Packets per kernel message sent: the amortisation factor of the
    /// segmented rung (1 on the other rungs; `None` if nothing was sent).
    pub fn pkts_per_msg(&self) -> Option<f64> {
        (self.tx_msgs > 0).then(|| self.tx_pkts as f64 / self.tx_msgs as f64)
    }
}

fn sum_stats(rpcs: &[Rpc<UdpTransport>]) -> TransportStats {
    let mut acc = TransportStats::default();
    for r in rpcs {
        let s = r.transport().stats();
        acc.tx_syscalls += s.tx_syscalls;
        acc.rx_syscalls += s.rx_syscalls;
        acc.tx_pkts += s.tx_pkts;
        acc.tx_msgs += s.tx_msgs;
        acc.gso_fallbacks += s.gso_fallbacks;
    }
    acc
}

/// Run the symmetric workload over loopback `UdpTransport`s on the given
/// rung of the kernel-boundary ladder.
pub fn run_udp_symmetric(opts: &UdpSymmetricOpts, batching: UdpBatching) -> UdpSymmetricResult {
    assert!(opts.endpoints >= 2);
    // Build every transport, then wire all-to-all routes before handing
    // them to their Rpc endpoints.
    let local: std::net::SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    let cfg = UdpConfig {
        batching,
        ..UdpConfig::default()
    };
    let mut transports: Vec<UdpTransport> = (0..opts.endpoints)
        .map(|i| UdpTransport::bind(Addr::new(i as u16, 0), local, cfg.clone()).expect("udp bind"))
        .collect();
    let locals: Vec<std::net::SocketAddr> = transports
        .iter()
        .map(|t| t.local_addr().expect("local_addr"))
        .collect();
    for (i, t) in transports.iter_mut().enumerate() {
        for (j, at) in locals.iter().enumerate() {
            if i != j {
                t.add_route(Addr::new(j as u16, 0), *at);
            }
        }
    }

    let completed = Rc::new(Cell::new(0u64));
    let measuring = Rc::new(Cell::new(false));
    let hist = Rc::new(RefCell::new(LatencyHistogram::new()));

    struct EpState {
        outstanding: Rc<Cell<usize>>,
        freelist: Rc<RefCell<Vec<(MsgBuf, MsgBuf)>>>,
        sessions: Vec<erpc::SessionHandle>,
        rng: SmallRng,
    }

    let mut rpcs: Vec<Rpc<UdpTransport>> = Vec::with_capacity(opts.endpoints);
    let mut states: Vec<EpState> = Vec::with_capacity(opts.endpoints);
    for (i, t) in transports.into_iter().enumerate() {
        let mut rpc = Rpc::new(t, opts.rpc_cfg.clone());
        let resp_size = opts.resp_size;
        rpc.register_request_handler(
            ECHO,
            Box::new(move |ctx, _req| {
                let resp = [0x5Au8; 4096];
                ctx.respond(&resp[..resp_size]);
            }),
        );
        rpcs.push(rpc);
        states.push(EpState {
            outstanding: Rc::new(Cell::new(0)),
            freelist: Rc::new(RefCell::new(Vec::new())),
            sessions: Vec::new(),
            rng: SmallRng::seed_from_u64(0xD06 ^ i as u64),
        });
    }
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

    let issue_batch = |rpc: &mut Rpc<UdpTransport>, st: &mut EpState| {
        for _ in 0..opts.batch {
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

    let passes = Cell::new(0u64);
    let phase = |deadline: Instant, rpcs: &mut [Rpc<UdpTransport>], states: &mut [EpState]| {
        let mut last_done = u64::MAX;
        loop {
            for _ in 0..16 {
                for (rpc, st) in rpcs.iter_mut().zip(states.iter_mut()) {
                    while st.outstanding.get() + opts.batch <= opts.window {
                        issue_batch(rpc, st);
                    }
                    rpc.run_event_loop_once();
                    passes.set(passes.get() + 1);
                }
            }
            // Unlike the in-process fabric, progress here needs the
            // kernel side (softirq loopback delivery) to get CPU time. On
            // a host with fewer cores than spinning threads, yield instead
            // of burning the whole scheduler slice re-polling an empty
            // socket.
            let done = completed.get();
            if done == last_done {
                std::thread::yield_now();
            }
            last_done = done;
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
    // Measure-window snapshot: everything before this line (connection
    // setup, warmup) is excluded from the syscall accounting.
    let base = sum_stats(&rpcs);
    let passes0 = passes.get();
    measuring.set(true);
    let t0 = Instant::now();
    phase(
        t0 + Duration::from_millis(opts.measure_ms),
        &mut rpcs,
        &mut states,
    );
    let secs = t0.elapsed().as_secs_f64();
    measuring.set(false);
    let end = sum_stats(&rpcs);

    let latency = hist.borrow().clone();
    UdpSymmetricResult {
        per_core_rate: completed.get() as f64 / secs,
        total_completed: completed.get(),
        latency,
        passes: passes.get() - passes0,
        tx_syscalls: end.tx_syscalls - base.tx_syscalls,
        rx_syscalls: end.rx_syscalls - base.rx_syscalls,
        tx_pkts: end.tx_pkts - base.tx_pkts,
        tx_msgs: end.tx_msgs - base.tx_msgs,
        gso_fallbacks: end.gso_fallbacks,
    }
}

#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;

    #[test]
    fn udp_symmetric_smoke() {
        let opts = UdpSymmetricOpts {
            warmup_ms: 20,
            measure_ms: 60,
            ..Default::default()
        };
        let r = run_udp_symmetric(&opts, UdpBatching::Mmsg);
        assert!(r.total_completed > 50, "completed {}", r.total_completed);
        assert!(r.passes > 0);
        assert!(
            r.tx_syscalls + r.rx_syscalls > 0,
            "udp path must cross the kernel"
        );
    }
}
