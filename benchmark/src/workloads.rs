//! The five workloads and the single-threaded driver that runs them.
//!
//! Every endpoint of a workload is polled round-robin by the one
//! measuring thread, so each RPC's client *and* server work lands on the
//! measured core and the numbers are per-core numbers that do not depend
//! on the scheduler. The library sees only generated inputs: the seed
//! drives peer choice, the arrival schedule, injected faults and payload
//! bytes from here.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use erpc::{alloc_count, CcAlgorithm, Completion, ContContext, DispatchFn, MsgBuf, ReqContext};
use erpc::{Rpc, RpcConfig, SessionHandle};
use erpc_congestion::TimelyConfig;
use erpc_transport::{
    Addr, FaultConfig, FaultTransport, MemFabric, MemFabricConfig, MemTransport, Transport,
    UdpConfig, UdpTransport,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::arrivals::{sub_seed, Poisson};
use crate::hostspeed::Calibrator;
use crate::stats::{self, Summary};
use crate::trace::{self, span, Off, On, Probe, SpanName};

/// Which transport carries a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricKind {
    /// In-process lock-free rings (`MemFabric`).
    Mem,
    /// Kernel UDP over loopback sockets, `sendmmsg`/`recvmmsg`.
    Udp,
    /// `FaultTransport<MemTransport>` dropping 1 % of packets each way.
    LossyMem,
}

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Closed loop: each client keeps `window` requests in flight and
    /// issues `batch` more whenever that many have completed.
    Closed,
    /// Open loop: Poisson arrivals at a fixed rate, each request timed
    /// from when it was due.
    Poisson { per_s: f64 },
}

/// Whether a workload's rate (and goodput), median latency and 99th-
/// percentile latency move with the core's clock, and so are reported at
/// the reference host speed. Measured, not assumed: scaling a value the
/// core does not set only adds the host's wander to it.
#[derive(Debug, Clone, Copy)]
pub struct Scaled {
    pub rate: bool,
    pub p50: bool,
    pub p99: bool,
}

impl Scaled {
    const ALL: Self = Self {
        rate: true,
        p50: true,
        p99: true,
    };
}

pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    pub fabric: FabricKind,
    pub endpoints: usize,
    /// Every endpoint is client to every other; otherwise endpoint 0 is
    /// the only client and endpoint 1 the only server.
    pub all_to_all: bool,
    pub req_bytes: usize,
    pub batch: usize,
    /// In-flight requests per client (closed loop), or the cap on them
    /// (open loop; reaching it delays the generator, which is reported).
    pub window: usize,
    pub arrivals: Arrivals,
    /// Length of one measured slice. Every timing metric is the median of
    /// its per-slice values, so slices are kept short — a disturbance
    /// (a descheduled vCPU, a retransmission stall) then spoils few of
    /// them — but long enough to hold the 1000 latency samples a 99th
    /// percentile needs.
    pub slice_ms: u64,
    /// Which timing metrics are scaled to the reference host speed
    /// (`hostspeed`): those the core's clock sets on this workload.
    pub scaled: Scaled,
    /// One request in this many carries a timestamp. 1 on every workload
    /// but the fastest, where two clock reads per RPC would be a tenth
    /// of the work measured.
    pub stamp_stride: u64,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "small_mem_closed",
        why: "Fig. 4 shape, 4 endpoints all-to-all over in-process rings: erpc's fast path does most of the work, the transport little, the kernel none",
        fabric: FabricKind::Mem,
        endpoints: 4,
        all_to_all: true,
        req_bytes: 32,
        batch: 3,
        window: 60,
        arrivals: Arrivals::Closed,
        slice_ms: 100,
        scaled: Scaled::ALL,
        stamp_stride: 8,
    },
    Spec {
        name: "small_udp_closed",
        why: "same loop over 2 loopback UDP sockets, window 16: the kernel boundary in the transport dominates, so a core-only change should move nothing here",
        fabric: FabricKind::Udp,
        endpoints: 2,
        all_to_all: true,
        req_bytes: 32,
        batch: 1,
        window: 16,
        arrivals: Arrivals::Closed,
        slice_ms: 100,
        scaled: Scaled::ALL,
        stamp_stride: 1,
    },
    Spec {
        name: "large_mem_closed",
        why: "Fig. 6 shape, 1 MiB requests one at a time: multi-packet slow path, credits, copies; the fast path is bypassed, so its gains must not cost this",
        fabric: FabricKind::Mem,
        endpoints: 2,
        all_to_all: false,
        req_bytes: 1 << 20,
        batch: 1,
        window: 1,
        arrivals: Arrivals::Closed,
        slice_ms: 1000,
        scaled: Scaled::ALL,
        stamp_stride: 1,
    },
    Spec {
        name: "small_mem_open",
        why: "open loop, Poisson 500 krps (about a quarter of capacity), timed from due time: light-load latency (Tab. 2) free of coordinated omission",
        fabric: FabricKind::Mem,
        endpoints: 2,
        all_to_all: false,
        req_bytes: 32,
        batch: 1,
        window: 512,
        arrivals: Arrivals::Poisson { per_s: 500_000.0 },
        slice_ms: 10,
        scaled: Scaled { rate: false, p50: true, p99: true },
        stamp_stride: 1,
    },
    Spec {
        name: "small_mem_lossy",
        why: "1 % seeded packet drop each way: RTO scan, go-back-N and adaptive RTO do work that is idle in every other workload",
        fabric: FabricKind::LossyMem,
        endpoints: 2,
        all_to_all: false,
        req_bytes: 32,
        batch: 1,
        window: 8,
        arrivals: Arrivals::Closed,
        slice_ms: 100,
        scaled: Scaled { rate: false, p50: true, p99: false },
        stamp_stride: 1,
    },
];

/// Every endpoint's configuration: the default, with Timely's RTT
/// thresholds raised from the paper's datacenter values (50 µs / 1 ms)
/// above anything this harness can produce without real congestion
/// (50 ms / 500 ms).
///
/// With every endpoint polled on one core, a request waits in its
/// peer's RX ring until the round-robin reaches the peer — polling
/// delay, not network queueing — and a shared host adds scheduling
/// stalls of a few milliseconds several times a second. Default Timely
/// reads both as congestion. Measured on the host that defined this
/// benchmark, it paced 1 MiB transfers down to 0.4 Gb/s with the core
/// 99 % idle (18 Gb/s with the thresholds raised) and stayed engaged on
/// every packet of the closed-loop small-RPC workloads (1.6 vs 2.1 Mrps).
/// Worse for a benchmark, each time a stall engages the pacer after it
/// sat idle, `TimingWheel::reap` walks its cursor over every 200 ns slot
/// of the idle period — about 3 % of it, a 130 ms freeze after 4 s — so
/// the open-loop tail measured how long ago the host last stalled. (The
/// repo's Fig. 6 experiment raises the thresholds for the first reason;
/// its 2 ms / 20 ms still let a 3 ms stall through.)
///
/// The raised thresholds keep Timely and the pacer in the datapath in
/// the state the paper measures — uncongested, taking both bypasses —
/// so the workloads see the CPU cost of the code they exist to guard.
/// No workload here exercises a congested session; that needs a fabric
/// with real queueing and is left to a later benchmark issue.
fn rpc_config() -> RpcConfig {
    RpcConfig {
        cc: CcAlgorithm::Timely(TimelyConfig {
            t_low_ns: 50_000_000,
            t_high_ns: 500_000_000,
            ..TimelyConfig::default()
        }),
        ..RpcConfig::default()
    }
}

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long one run warms up and measures.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub warmup_s: f64,
    /// Length of the measured window; it is cut into slices of the
    /// workload's `slice_ms` (at least two).
    pub measure_s: f64,
}

// ── Payloads and their check ───────────────────────────────────────────

const REQ_TYPE: u8 = 1;
const RESP_BYTES: usize = 32;
/// Request words 0..3: sequence number, issue stamp (0 = not sampled),
/// issuing endpoint. The rest is a seeded body.
const HDR_BYTES: usize = 24;

// Seed streams (see `sub_seed`).
const STREAM_BODY: u64 = 1;
const STREAM_ARRIVALS: u64 = 2;
const STREAM_FAULTS: u64 = 3;
const STREAM_PEERS: u64 = 16;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn word(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8-byte word"))
}

fn put_word(bytes: &mut [u8], i: usize, v: u64) {
    bytes[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
}

/// Position-sensitive checksum over 8-byte words (rotate, then XOR): a
/// dropped, repeated or misplaced packet of a multi-packet request
/// changes it. Linear over XOR, so the client can predict the server's
/// value for a 1 MiB request from the three words it rewrites per
/// request ([`expected_fold`]) without touching the body again.
fn fold(bytes: &[u8]) -> u64 {
    bytes.chunks_exact(8).fold(0u64, |acc, w| {
        acc.rotate_left(1) ^ u64::from_le_bytes(w.try_into().expect("8-byte word"))
    })
}

/// `fold(header ++ body)` from `fold(header)` and `fold(body)`.
fn expected_fold(hdr_fold: u64, body_fold: u64, body_words: usize) -> u64 {
    hdr_fold.rotate_left((body_words % 64) as u32) ^ body_fold
}

// ── Fabrics ────────────────────────────────────────────────────────────

fn addr(ep: usize) -> Addr {
    Addr::new(ep as u16, 0)
}

/// Builds a workload's transports, one per endpoint, routed to each other.
pub trait Fabric {
    type T: Transport;
    fn transports(n: usize, seed: u64) -> Vec<Self::T>;
}

pub struct Mem;
pub struct Udp;
pub struct LossyMem;

impl Fabric for Mem {
    type T = MemTransport;
    fn transports(n: usize, _seed: u64) -> Vec<MemTransport> {
        let fabric = MemFabric::new(MemFabricConfig::default());
        (0..n).map(|i| fabric.create_transport(addr(i))).collect()
    }
}

impl Fabric for Udp {
    type T = UdpTransport;
    fn transports(n: usize, _seed: u64) -> Vec<UdpTransport> {
        let any_port = "127.0.0.1:0".parse().expect("loopback address");
        let mut ts: Vec<UdpTransport> = (0..n)
            .map(|i| {
                UdpTransport::bind(addr(i), any_port, UdpConfig::default())
                    .expect("bind a loopback UDP socket")
            })
            .collect();
        let at: Vec<_> = ts
            .iter()
            .map(|t| t.local_addr().expect("bound socket has an address"))
            .collect();
        for (i, t) in ts.iter_mut().enumerate() {
            for (j, a) in at.iter().enumerate().filter(|&(j, _)| j != i) {
                t.add_route(addr(j), *a);
            }
        }
        ts
    }
}

impl Fabric for LossyMem {
    type T = FaultTransport<MemTransport>;
    fn transports(n: usize, seed: u64) -> Vec<Self::T> {
        let cfg = FaultConfig {
            seed: sub_seed(seed, STREAM_FAULTS),
            drop_prob: 0.01,
            ..FaultConfig::default()
        };
        Mem::transports(n, seed)
            .into_iter()
            .map(|t| FaultTransport::new(t, cfg.clone()))
            .collect()
    }
}

// ── Cluster set-up ─────────────────────────────────────────────────────

struct Cluster<T: Transport> {
    rpcs: Vec<Rpc<T>>,
    /// Client sessions of each endpoint.
    sessions: Vec<Vec<SessionHandle>>,
    /// Requests the benchmark's handlers have seen, all endpoints.
    handled: Rc<Cell<u64>>,
}

fn handler<P: Probe>(ep: usize, handled: Rc<Cell<u64>>) -> DispatchFn {
    Box::new(move |ctx: &mut ReqContext<'_>, req: &[u8]| {
        let seq = word(req, 0);
        let _h = span::<P>(SpanName::Handler, seq);
        handled.set(handled.get() + 1);
        let mut out = [0u8; RESP_BYTES];
        put_word(&mut out, 0, seq);
        put_word(&mut out, 1, fold(req));
        put_word(&mut out, 2, ep as u64);
        let _r = span::<P>(SpanName::Respond, seq);
        ctx.respond(&out);
    })
}

/// Build every endpoint, open the workload's sessions and poll until all
/// are connected. This (plus dropping the result) is what `setup_s` times.
fn build<F: Fabric, P: Probe>(spec: &Spec, seed: u64) -> Cluster<P::Wrap<F::T>> {
    let handled = Rc::new(Cell::new(0u64));
    let mut rpcs: Vec<_> = F::transports(spec.endpoints, seed)
        .into_iter()
        .enumerate()
        .map(|(ep, t)| {
            let mut rpc = Rpc::new(P::wrap(t), rpc_config());
            rpc.register_request_handler(REQ_TYPE, handler::<P>(ep, handled.clone()));
            rpc
        })
        .collect();
    let sessions: Vec<Vec<SessionHandle>> = (0..spec.endpoints)
        .map(|i| {
            let peers: Vec<usize> = if spec.all_to_all {
                (0..spec.endpoints).filter(|&j| j != i).collect()
            } else if i == 0 {
                vec![1]
            } else {
                vec![]
            };
            peers
                .into_iter()
                .map(|j| rpcs[i].create_session(addr(j)).expect("create session"))
                .collect()
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut connected = true;
        for (rpc, sess) in rpcs.iter_mut().zip(&sessions) {
            rpc.run_event_loop_once();
            connected &= sess.iter().all(|&s| rpc.is_connected(s));
        }
        if connected {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sessions did not connect in 10 s"
        );
    }
    Cluster {
        rpcs,
        sessions,
        handled,
    }
}

/// Seconds for each of `cycles` build → connected → teardown rounds,
/// scaled to the reference host speed measured just before and after.
pub fn setup_seconds(spec: &Spec, seed: u64, cycles: usize) -> (Vec<f64>, f64) {
    fn cycle<F: Fabric>(spec: &Spec, seed: u64) -> f64 {
        let t0 = Instant::now();
        drop(build::<F, Off>(spec, seed));
        t0.elapsed().as_secs_f64()
    }
    let mut cal = Calibrator::new(0.0);
    cal.burst(5);
    let raw: Vec<f64> = (0..cycles)
        .map(|_| match spec.fabric {
            FabricKind::Mem => cycle::<Mem>(spec, seed),
            FabricKind::Udp => cycle::<Udp>(spec, seed),
            FabricKind::LossyMem => cycle::<LossyMem>(spec, seed),
        })
        .collect();
    cal.burst(5);
    let speed = cal.speed(0, 0);
    (raw.iter().map(|s| s * speed).collect(), speed)
}

// ── Client-side state ──────────────────────────────────────────────────

/// Latency samples kept per measured second; a slice that produces more
/// than its share drops the excess (reported).
const SAMPLES_PER_SECOND: usize = 1 << 20;

struct Ep {
    /// Request/response buffer pairs not in flight.
    free: Vec<(MsgBuf, MsgBuf)>,
    outstanding: usize,
    sessions: Vec<SessionHandle>,
    /// Peer choice.
    rng: SmallRng,
}

/// Everything the continuation touches. It lives in a thread-local
/// because the continuation must be a capture-free `fn` item: boxing a
/// zero-sized closure allocates nothing, which keeps the benchmark's own
/// allocations out of `core.allocs_per_rpc`.
struct State {
    clock: Instant,
    eps: Vec<Ep>,
    body_fold: u64,
    body_words: usize,
    stamp_stride: u64,
    next_seq: u64,
    measuring: bool,
    issued: u64,
    /// Completed with the right response.
    completed: u64,
    /// Continuation got an error, or the enqueue was refused.
    errored: u64,
    /// Completed with a response that fails the check.
    wrong: u64,
    lat_ns: Vec<u32>,
    lat_limit: usize,
    lat_dropped: u64,
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    STATE.with(|s| f(s.borrow_mut().as_mut().expect("no run in progress")))
}

impl State {
    fn now_ns(&self) -> u64 {
        ns_since(self.clock)
    }

    /// Take a free buffer pair of `ep`, stamp the next request into it
    /// and pick its session.
    fn prepare(&mut self, ep: usize, due_ns: Option<u64>) -> (MsgBuf, MsgBuf, SessionHandle, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // 0 means "not sampled", so a real stamp is at least 1.
        let stamp = match due_ns {
            Some(due) => due.max(1),
            None if seq.is_multiple_of(self.stamp_stride) => self.now_ns().max(1),
            None => 0,
        };
        let e = &mut self.eps[ep];
        let (mut req, resp) = e.free.pop().expect("a free buffer pair per window slot");
        put_word(req.data_mut(), 0, seq);
        put_word(req.data_mut(), 1, stamp);
        let sess = match e.sessions[..] {
            [only] => only,
            _ => e.sessions[e.rng.gen_range(0..e.sessions.len())],
        };
        e.outstanding += 1;
        self.issued += 1;
        (req, resp, sess, seq)
    }

    fn give_back(&mut self, ep: usize, req: MsgBuf, resp: MsgBuf) {
        let e = &mut self.eps[ep];
        e.outstanding -= 1;
        e.free.push((req, resp));
    }

    fn complete(&mut self, comp: Completion) {
        let req = comp.req.data();
        let (seq, stamp, ep) = (word(req, 0), word(req, 1), word(req, 2) as usize);
        let resp = comp.resp.data();
        if comp.result.is_err() {
            self.errored += 1;
        } else if resp.len() == RESP_BYTES
            && word(resp, 0) == seq
            && word(resp, 1)
                == expected_fold(fold(&req[..HDR_BYTES]), self.body_fold, self.body_words)
        {
            self.completed += 1;
            if stamp != 0 && self.measuring {
                if self.lat_ns.len() < self.lat_limit {
                    let lat = self.now_ns().saturating_sub(stamp);
                    self.lat_ns.push(lat.min(u64::from(u32::MAX)) as u32);
                } else {
                    self.lat_dropped += 1;
                }
            }
        } else {
            self.wrong += 1;
        }
        self.give_back(ep, comp.req, comp.resp);
    }
}

fn on_complete<P: Probe>(_ctx: &mut ContContext<'_>, comp: Completion) {
    let _s = span::<P>(SpanName::Cont, word(comp.req.data(), 0));
    with_state(|s| s.complete(comp));
}

fn issue<T: Transport, P: Probe>(rpc: &mut Rpc<T>, ep: usize, due_ns: Option<u64>) {
    let (req, resp, sess, seq) = with_state(|s| s.prepare(ep, due_ns));
    let refused = {
        let _s = span::<P>(SpanName::Issue, seq);
        rpc.enqueue_request(sess, REQ_TYPE, req, resp, on_complete::<P>)
    };
    if let Err(e) = refused {
        with_state(|s| {
            s.errored += 1;
            s.give_back(ep, e.req, e.resp);
        });
    }
}

// ── Counters read at the window's edges ────────────────────────────────

/// Sums over all endpoints of the `RpcStats` / `TransportStats` fields
/// the layer metrics are deltas of.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub pkts_tx: u64,
    pub fast_path_hits: u64,
    pub slow_path_entries: u64,
    pub retransmissions: u64,
    pub rto_events: u64,
    pub pool_misses: u64,
    pub invariant_breaches: u64,
    pub timely_updates: u64,
    pub timely_bypasses: u64,
    pub pkts_paced: u64,
    pub pkts_unpaced: u64,
    pub syscalls: u64,
    pub drops: u64,
}

impl Counters {
    fn read<T: Transport>(rpcs: &[Rpc<T>]) -> Self {
        let mut c = Self::default();
        for rpc in rpcs {
            let s = rpc.stats();
            c.pkts_tx += s.data_pkts_tx + s.ctrl_pkts_tx;
            c.fast_path_hits += s.fast_path_hits;
            c.slow_path_entries += s.slow_path_entries;
            c.retransmissions += s.retransmissions;
            c.rto_events += s.rto_events;
            c.pool_misses += s.pool_allocs_new;
            c.invariant_breaches += s.rx_invariant_breach;
            c.timely_updates += s.timely_updates;
            c.timely_bypasses += s.timely_bypasses;
            c.pkts_paced += s.pkts_paced;
            c.pkts_unpaced += s.pkts_bypassed_pacer;
            let t = rpc.transport().stats();
            c.syscalls += t.tx_syscalls + t.rx_syscalls + t.ring_enters;
            c.drops += t.tx_drop_ring_full
                + t.tx_drop_fault
                + t.tx_drop_no_route
                + t.tx_drop_err
                + t.rx_drop_truncated;
        }
        c
    }

    fn since(&self, earlier: &Self) -> Self {
        Self {
            pkts_tx: self.pkts_tx - earlier.pkts_tx,
            fast_path_hits: self.fast_path_hits - earlier.fast_path_hits,
            slow_path_entries: self.slow_path_entries - earlier.slow_path_entries,
            retransmissions: self.retransmissions - earlier.retransmissions,
            rto_events: self.rto_events - earlier.rto_events,
            pool_misses: self.pool_misses - earlier.pool_misses,
            invariant_breaches: self.invariant_breaches - earlier.invariant_breaches,
            timely_updates: self.timely_updates - earlier.timely_updates,
            timely_bypasses: self.timely_bypasses - earlier.timely_bypasses,
            pkts_paced: self.pkts_paced - earlier.pkts_paced,
            pkts_unpaced: self.pkts_unpaced - earlier.pkts_unpaced,
            syscalls: self.syscalls - earlier.syscalls,
            drops: self.drops - earlier.drops,
        }
    }
}

// ── Results ────────────────────────────────────────────────────────────

/// How late the open-loop generator issued requests (issue − due).
#[derive(Debug, Default, Clone, Copy)]
pub struct Lateness {
    pub issued: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
}

pub struct Outcome {
    /// Host speed beside each slice, relative to the reference
    /// (`hostspeed`). CPU-bound metrics below are scaled to speed 1.
    pub host_speed: Summary,
    /// `rate_krps` before scaling, for the record.
    pub raw_rate_krps: f64,
    /// Slices whose rate fell below 0.8 of the median slice's, plus those
    /// whose p99 rose above 5 times the median slice's: how disturbed the
    /// run was. The medians ignore them; this line does not.
    pub disturbed_slices: usize,
    pub rate_krps: Summary,
    pub goodput_gbps: Summary,
    pub lat_p50_us: Summary,
    pub lat_p99_us: Summary,
    /// Fewest latency samples any slice had; p99 needs 1000.
    pub min_slice_samples: usize,
    pub lat_dropped: u64,
    /// The percentile rule applied to all slices' samples together:
    /// (percentile, µs, samples).
    pub tail: Option<(f64, f64, usize)>,
    /// Issued over the whole run, warm-up included.
    pub attempted: u64,
    pub completed: u64,
    pub errored: u64,
    pub wrong: u64,
    /// Still in flight after the drain.
    pub undrained: u64,
    /// Requests the handlers saw; equals `completed` when every request
    /// ran its handler exactly once.
    pub handled: u64,
    // The measured window only:
    pub window_s: f64,
    pub window_completed: u64,
    pub passes: u64,
    pub allocs: u64,
    pub counters: Counters,
    pub late: Option<Lateness>,
    pub trace: Option<trace::Report>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.errored + self.wrong + self.undrained
    }

    /// Every output was checked and right, every request ran its handler
    /// once and its continuation once, and `erpc` saw no broken invariant.
    pub fn correct(&self) -> bool {
        self.failed() == 0
            && self.completed == self.attempted
            && self.handled == self.completed
            && self.counters.invariant_breaches == 0
    }
}

// ── The driver ─────────────────────────────────────────────────────────

/// Spans kept for `--trace-out` (the accumulators see every span).
const SPAN_BUFFER: usize = 1 << 18;

struct Driver<'a, T: Transport, P: Probe> {
    spec: &'a Spec,
    cluster: Cluster<T>,
    clock: Instant,
    arrivals: Option<Poisson>,
    late: Lateness,
    passes: u64,
    cal: Calibrator,
    probe: std::marker::PhantomData<P>,
}

impl<T: Transport, P: Probe> Driver<'_, T, P> {
    fn now_ns(&self) -> u64 {
        ns_since(self.clock)
    }

    fn poll(&mut self, ep: usize) {
        let _s = span::<P>(SpanName::EventLoop, 0);
        self.cluster.rpcs[ep].run_event_loop_once();
        self.passes += 1;
    }

    /// One round: issue what the arrival process allows, then poll every
    /// endpoint once.
    fn step(&mut self, mut now: u64) {
        let spec = self.spec;
        if let Some(arrivals) = &mut self.arrivals {
            while arrivals.next_due_ns() <= now
                && with_state(|s| s.eps[0].outstanding) < spec.window
            {
                let due = arrivals.next_due_ns();
                issue::<T, P>(&mut self.cluster.rpcs[0], 0, Some(due));
                arrivals.advance();
                self.late.issued += 1;
                self.late.sum_ns += now - due;
                self.late.max_ns = self.late.max_ns.max(now - due);
                now = ns_since(self.clock);
            }
            for ep in 0..spec.endpoints {
                self.poll(ep);
            }
        } else {
            for ep in 0..spec.endpoints {
                if !self.cluster.sessions[ep].is_empty() {
                    while with_state(|s| s.eps[ep].outstanding) + spec.batch <= spec.window {
                        for _ in 0..spec.batch {
                            issue::<T, P>(&mut self.cluster.rpcs[ep], ep, None);
                        }
                    }
                }
                self.poll(ep);
            }
        }
    }

    fn run_until(&mut self, deadline_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= deadline_ns {
                return;
            }
            self.cal.tick(now);
            self.step(now);
        }
    }

    /// Stop issuing and poll until nothing is in flight (or 5 s pass).
    fn drain(&mut self) {
        let deadline = self.now_ns() + 5_000_000_000;
        while with_state(|s| s.eps.iter().any(|e| e.outstanding > 0)) && self.now_ns() < deadline {
            for ep in 0..self.spec.endpoints {
                self.cluster.rpcs[ep].run_event_loop_once();
            }
        }
    }
}

fn measure<F: Fabric, P: Probe>(spec: &Spec, opts: &RunOpts) -> Outcome {
    assert!(spec.req_bytes >= HDR_BYTES + 8 && spec.req_bytes.is_multiple_of(8));
    let mut cluster = build::<F, P>(spec, opts.seed);
    let clock = Instant::now();
    let slice_ns = spec.slice_ms * 1_000_000;
    let slices = ((opts.measure_s * 1e9) as u64 / slice_ns).max(2) as usize;
    let slice_sample_cap = SAMPLES_PER_SECOND * spec.slice_ms as usize / 1000;

    // One buffer pair per window slot, body written once from the seed.
    let mut body = vec![0u8; spec.req_bytes - HDR_BYTES];
    SmallRng::seed_from_u64(sub_seed(opts.seed, STREAM_BODY)).fill(&mut body[..]);
    let eps = cluster
        .sessions
        .iter()
        .enumerate()
        .map(|(ep, sessions)| {
            let pairs = if sessions.is_empty() { 0 } else { spec.window };
            let rpc = &mut cluster.rpcs[ep];
            let free = (0..pairs)
                .map(|_| {
                    let mut req = rpc.alloc_msg_buffer(spec.req_bytes);
                    req.resize(spec.req_bytes);
                    put_word(req.data_mut(), 2, ep as u64);
                    req.data_mut()[HDR_BYTES..].copy_from_slice(&body);
                    (req, rpc.alloc_msg_buffer(RESP_BYTES))
                })
                .collect();
            Ep {
                free,
                outstanding: 0,
                sessions: sessions.clone(),
                rng: SmallRng::seed_from_u64(sub_seed(opts.seed, STREAM_PEERS + ep as u64)),
            }
        })
        .collect();
    STATE.with(|s| {
        *s.borrow_mut() = Some(State {
            clock,
            eps,
            body_fold: fold(&body),
            body_words: body.len() / 8,
            stamp_stride: spec.stamp_stride,
            next_seq: 1,
            measuring: false,
            issued: 0,
            completed: 0,
            errored: 0,
            wrong: 0,
            lat_ns: Vec::with_capacity(slices * slice_sample_cap),
            lat_limit: 0,
            lat_dropped: 0,
        })
    });

    let mut d = Driver::<_, P> {
        spec,
        cluster,
        clock,
        arrivals: match spec.arrivals {
            Arrivals::Closed => None,
            Arrivals::Poisson { per_s } => Some(Poisson::new(
                sub_seed(opts.seed, STREAM_ARRIVALS),
                per_s,
                ns_since(clock),
            )),
        },
        late: Lateness::default(),
        passes: 0,
        cal: Calibrator::new(opts.warmup_s + opts.measure_s),
        probe: std::marker::PhantomData,
    };

    let warm_end = d.now_ns() + (opts.warmup_s * 1e9) as u64;
    d.run_until(warm_end);

    // The measured window: `slices` back-to-back slices.
    let passes0 = d.passes;
    let counters0 = Counters::read(&d.cluster.rpcs);
    d.late = Lateness::default();
    if P::ON {
        trace::start(SPAN_BUFFER);
    }
    let root = span::<P>(SpanName::Harness, 0);
    let t0 = d.now_ns();
    let mut cuts = Vec::with_capacity(slices + 1);
    cuts.push((t0, with_state(|s| s.completed), 0usize));
    let allocs0 = alloc_count::snapshot();
    for k in 1..=slices {
        with_state(|s| {
            s.measuring = true;
            s.lat_limit = s.lat_ns.len() + slice_sample_cap;
        });
        d.run_until(t0 + k as u64 * slice_ns);
        cuts.push(with_state(|s| (s.now_ns(), s.completed, s.lat_ns.len())));
    }
    let allocs = alloc_count::snapshot().since(&allocs0).allocs;
    drop(root);
    let trace = P::ON.then(trace::stop);
    with_state(|s| s.measuring = false);
    let counters = Counters::read(&d.cluster.rpcs).since(&counters0);
    let passes = d.passes - passes0;
    let late = d.arrivals.is_some().then_some(d.late);

    d.drain();
    let Driver { cluster, cal, .. } = d;
    let handled = cluster.handled.get();
    let invariant_breaches_total = Counters::read(&cluster.rpcs).invariant_breaches;
    drop(cluster);
    let mut st = STATE
        .with(|s| s.borrow_mut().take())
        .expect("state set above");

    // Per-slice values, then their medians. A slower host (speed < 1)
    // completes less and takes longer: rates are divided by the speed,
    // latencies multiplied, unless a clock sets them.
    let (mut speeds, mut raw_krps, mut krps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let mut min_slice_samples = usize::MAX;
    for w in cuts.windows(2) {
        let ((ta, ca, la), (tb, cb, lb)) = (w[0], w[1]);
        let speed = cal.speed(ta, tb);
        let raw = (cb - ca) as f64 / ((tb - ta) as f64 / 1e9) / 1e3;
        speeds.push(speed);
        raw_krps.push(raw);
        krps.push(if spec.scaled.rate { raw / speed } else { raw });
        let lat = &mut st.lat_ns[la..lb];
        lat.sort_unstable();
        min_slice_samples = min_slice_samples.min(lat.len());
        if !lat.is_empty() {
            let us = |p| f64::from(stats::percentile_sorted(lat, p)) / 1e3;
            p50.push(us(50.0) * if spec.scaled.p50 { speed } else { 1.0 });
            p99.push(us(99.0) * if spec.scaled.p99 { speed } else { 1.0 });
        }
    }
    st.lat_ns.sort_unstable();
    let tail = stats::highest_supported(st.lat_ns.len()).map(|p| {
        let v = stats::percentile_sorted(&st.lat_ns, p);
        (p, f64::from(v) / 1e3, st.lat_ns.len())
    });
    let gbps: Vec<f64> = krps
        .iter()
        .map(|r| r * (spec.req_bytes * 8) as f64 / 1e6)
        .collect();
    let (first, last) = (cuts[0], cuts[cuts.len() - 1]);
    let (rate_krps, lat_p99_us) = (Summary::of(&krps), Summary::of(&p99));
    let disturbed_slices = krps.iter().filter(|&&r| r < 0.8 * rate_krps.median).count()
        + p99.iter().filter(|&&l| l > 5.0 * lat_p99_us.median).count();

    Outcome {
        host_speed: Summary::of(&speeds),
        raw_rate_krps: Summary::of(&raw_krps).median,
        rate_krps,
        disturbed_slices,
        goodput_gbps: Summary::of(&gbps),
        lat_p50_us: Summary::of(&p50),
        lat_p99_us,
        min_slice_samples,
        lat_dropped: st.lat_dropped,
        tail,
        attempted: st.issued,
        completed: st.completed,
        errored: st.errored,
        wrong: st.wrong,
        undrained: st.eps.iter().map(|e| e.outstanding as u64).sum(),
        handled,
        window_s: (last.0 - first.0) as f64 / 1e9,
        window_completed: last.1 - first.1,
        passes,
        allocs,
        counters: Counters {
            invariant_breaches: invariant_breaches_total,
            ..counters
        },
        late,
        trace,
    }
}

/// Run one workload once: build, warm up, measure slice by slice,
/// drain, check.
pub fn run(spec: &Spec, opts: &RunOpts, traced: bool) -> Outcome {
    match (spec.fabric, traced) {
        (FabricKind::Mem, false) => measure::<Mem, Off>(spec, opts),
        (FabricKind::Mem, true) => measure::<Mem, On>(spec, opts),
        (FabricKind::Udp, false) => measure::<Udp, Off>(spec, opts),
        (FabricKind::Udp, true) => measure::<Udp, On>(spec, opts),
        (FabricKind::LossyMem, false) => measure::<LossyMem, Off>(spec, opts),
        (FabricKind::LossyMem, true) => measure::<LossyMem, On>(spec, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_of_whole_is_predictable_from_parts() {
        let mut rng = SmallRng::seed_from_u64(9);
        for body_words in [1usize, 5, 64, 131_069] {
            let mut msg = vec![0u8; HDR_BYTES + body_words * 8];
            rng.fill(&mut msg[..]);
            let (hdr, body) = msg.split_at(HDR_BYTES);
            assert_eq!(
                fold(&msg),
                expected_fold(fold(hdr), fold(body), body_words),
                "{body_words} body words"
            );
        }
    }

    #[test]
    fn fold_sees_misplaced_words() {
        let a: Vec<u8> = (0..64u8).collect();
        let mut b = a.clone();
        b.swap(0, 8); // exchange a byte between two words
        assert_ne!(fold(&a), fold(&b));
        let mut c = a.clone();
        c.rotate_left(8); // same words, shifted
        assert_ne!(fold(&a), fold(&c));
    }

    #[test]
    fn workload_names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.stamp_stride >= 1 && w.batch >= 1 && w.batch <= w.window);
            assert_eq!(find(w.name).map(|s| s.name), Some(w.name));
        }
    }

    /// Every workload runs, completes and checks out end to end (short).
    #[test]
    fn every_workload_is_correct_traced_and_untraced() {
        let opts = RunOpts {
            seed: 11,
            warmup_s: 0.02,
            measure_s: 0.2,
        };
        for w in &WORKLOADS {
            for traced in [false, true] {
                let o = run(w, &opts, traced);
                assert!(o.correct(), "{} traced={traced}", w.name);
                assert!(o.window_completed > 0, "{}", w.name);
                assert_eq!(o.trace.is_some(), traced);
            }
        }
    }
}
