//! Seeded chaos campaigns over real transports.
//!
//! A campaign drives a client/server [`erpc::Rpc`] pair over
//! [`FaultTransport`]`<`[`UdpTransport`]`>` — real kernel sockets with
//! deterministic, seeded loss / duplication / reordering / corruption and
//! a scheduled partition-heal cycle — and checks the robustness story
//! end-to-end:
//!
//! * **exactly-once**: every logical RPC completes `Ok` exactly once
//!   (duplicate completions panic in the continuation);
//! * **no protocol confusion**: zero `rx_invariant_breach` under any
//!   schedule the chaos layer can produce;
//! * **no hung callers**: a failed session surfaces typed errors, the
//!   harness reconnects and re-issues, and the campaign still converges;
//! * **post-heal convergence**: after the partition heals, every session
//!   is connected and the remaining RPCs drain.
//!
//! Campaigns are deterministic per `(seed, schedule)` on the fault side;
//! the kernel's delivery timing is not, which is the point — the chaos
//! layer must hold up under real interleavings, and CI prints the seed of
//! any failing campaign for replay.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use erpc::{MsgBuf, Rpc, RpcConfig, RpcStats, SessionHandle};
use erpc_transport::{Addr, FaultConfig, FaultStats, FaultTransport, UdpConfig, UdpTransport};

const ECHO: u8 = 1;

/// One chaos campaign's schedule.
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// Campaign seed: feeds both endpoints' fault RNGs (XORed with the
    /// endpoint address inside [`FaultTransport`], so the two directions
    /// draw independent streams).
    pub seed: u64,
    /// Logical RPCs that must complete `Ok` exactly once.
    pub total_rpcs: usize,
    /// Target in-flight RPCs.
    pub window: usize,
    pub req_size: usize,
    pub resp_size: usize,
    /// Fault mix applied symmetrically to both endpoints' TX paths.
    pub fault: FaultConfig,
    /// Partition the pair for this long (ns) once `partition_at` of the
    /// campaign has completed. 0 disables.
    pub partition_ns: u64,
    /// Fraction of `total_rpcs` after which the partition starts.
    pub partition_at: f64,
    /// Give up (panic) if the campaign has not converged by then.
    pub deadline: Duration,
    pub rpc_cfg: RpcConfig,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        Self {
            seed: 0xC4A0_5EED,
            total_rpcs: 400,
            window: 8,
            req_size: 64,
            resp_size: 64,
            fault: FaultConfig::lossy(0xC4A0_5EED),
            partition_ns: 120_000_000,
            partition_at: 0.4,
            deadline: Duration::from_secs(60),
            rpc_cfg: RpcConfig {
                // Pings on: failure detection and incarnation checks are
                // part of what the campaign exercises. The partition must
                // outlive several ping intervals but the campaign still
                // converges either way — a session failed by the timeout
                // is reconnected and its in-flight RPCs re-issued.
                ping_interval_ns: 10_000_000,
                failure_timeout_ns: 2_000_000_000,
                ..RpcConfig::default()
            },
        }
    }
}

/// What a campaign observed. All counters are summed over both endpoints.
pub struct ChaosReport {
    /// RPCs that completed `Ok` (exactly `total_rpcs` on success).
    pub completed_ok: u64,
    /// Typed-error completions the harness re-issued (session failures
    /// during the partition, backlog rejections, …). Not a failure: the
    /// guarantee is no *silent* loss and no duplicate `Ok`.
    pub completed_err: u64,
    /// Sessions the harness had to re-create after `fail_session`.
    pub reconnects: u64,
    /// Fault-layer injection totals (both directions).
    pub faults: FaultStats,
    /// Client+server `RpcStats` at the end of the campaign.
    pub stats: RpcStats,
    pub elapsed: Duration,
}

type Ft = FaultTransport<UdpTransport>;

fn bind_pair(opts: &ChaosOpts) -> (Ft, Ft) {
    let local: std::net::SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    let ucfg = UdpConfig::default();
    let fcfg = FaultConfig {
        seed: opts.seed,
        ..opts.fault
    };
    let mut a = FaultTransport::new(
        UdpTransport::bind(Addr::new(0, 0), local, ucfg.clone()).expect("udp bind"),
        fcfg.clone(),
    );
    let mut b = FaultTransport::new(
        UdpTransport::bind(Addr::new(1, 0), local, ucfg).expect("udp bind"),
        fcfg,
    );
    let at_a = a.inner().local_addr().expect("local_addr");
    let at_b = b.inner().local_addr().expect("local_addr");
    a.inner_mut().add_route(Addr::new(1, 0), at_b);
    b.inner_mut().add_route(Addr::new(0, 0), at_a);
    (a, b)
}

/// Run one campaign to convergence. Panics (with the seed in the message)
/// on any robustness violation: duplicate completion, silent RPC loss,
/// `rx_invariant_breach`, or missing the deadline.
pub fn run_chaos_campaign(opts: &ChaosOpts) -> ChaosReport {
    let (ta, tb) = bind_pair(opts);
    let seed = opts.seed;

    let mut server = Rpc::new(tb, opts.rpc_cfg.clone());
    let resp_size = opts.resp_size;
    server.register_request_handler(
        ECHO,
        Box::new(move |ctx, req| {
            // Echo the request's tag bytes back so the client can verify
            // payload integrity end-to-end.
            let mut resp = vec![0u8; resp_size.max(8)];
            let n = req.len().min(8);
            resp[..n].copy_from_slice(&req[..n]);
            ctx.respond(&resp);
        }),
    );
    let mut client = Rpc::new(ta, opts.rpc_cfg.clone());

    // Per-logical-RPC outcome tracking. `done[id]` flips exactly once —
    // a second `Ok` for the same id is a duplicate completion and panics.
    let done: Rc<RefCell<Vec<bool>>> = Rc::new(RefCell::new(vec![false; opts.total_rpcs]));
    let ok_count = Rc::new(Cell::new(0u64));
    let err_count = Rc::new(Cell::new(0u64));
    let retry: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    let freelist: Rc<RefCell<Vec<(MsgBuf, MsgBuf)>>> = Rc::new(RefCell::new(Vec::new()));
    let inflight = Rc::new(Cell::new(0usize));

    let mut sess = client.create_session(Addr::new(1, 0)).expect("session");
    let mut reconnects = 0u64;
    let connect = |client: &mut Rpc<Ft>, server: &mut Rpc<Ft>, s: SessionHandle| {
        let t0 = Instant::now();
        while !client.is_connected(s) {
            client.run_event_loop_once();
            server.run_event_loop_once();
            if client.session_state(s) == Some(erpc::SessionState::Failed) {
                return false;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "seed {seed:#x}: connect did not converge"
            );
        }
        true
    };
    assert!(
        connect(&mut client, &mut server, sess),
        "seed {seed:#x}: initial connect failed"
    );

    let issue = |client: &mut Rpc<Ft>, sess: SessionHandle, id: usize| -> bool {
        let (mut req, resp) = freelist.borrow_mut().pop().unwrap_or_else(|| {
            (
                client.alloc_msg_buffer(opts.req_size.max(8)),
                client.alloc_msg_buffer(opts.resp_size.max(8)),
            )
        });
        req.resize(opts.req_size.max(8));
        req.data_mut()[..8].copy_from_slice(&(id as u64).to_le_bytes());
        let (done, ok, err, retry_q, fl, infl) = (
            done.clone(),
            ok_count.clone(),
            err_count.clone(),
            retry.clone(),
            freelist.clone(),
            inflight.clone(),
        );
        let cont = move |_ctx: &mut erpc::ContContext<'_>, comp: erpc::Completion| {
            infl.set(infl.get() - 1);
            match comp.result {
                Ok(()) => {
                    let echoed = u64::from_le_bytes(comp.resp.data()[..8].try_into().unwrap());
                    assert_eq!(
                        echoed as usize, id,
                        "seed {seed:#x}: response payload for RPC {id} corrupted"
                    );
                    let mut d = done.borrow_mut();
                    assert!(!d[id], "seed {seed:#x}: duplicate completion for RPC {id}");
                    d[id] = true;
                    ok.set(ok.get() + 1);
                }
                Err(_) => {
                    // Typed error (session failed mid-flight): re-issue.
                    err.set(err.get() + 1);
                    retry_q.borrow_mut().push(id);
                }
            }
            fl.borrow_mut().push((comp.req, comp.resp));
        };
        match client.enqueue_request(sess, ECHO, req, resp, cont) {
            Ok(()) => {
                inflight.set(inflight.get() + 1);
                true
            }
            Err(e) => {
                freelist.borrow_mut().push((e.req, e.resp));
                retry.borrow_mut().push(id);
                false
            }
        }
    };

    let t0 = Instant::now();
    let mut next_id = 0usize;
    let mut partitioned = false;
    let partition_after = (opts.total_rpcs as f64 * opts.partition_at) as u64;
    while ok_count.get() < opts.total_rpcs as u64 {
        assert!(
            t0.elapsed() < opts.deadline,
            "seed {seed:#x}: campaign stalled at {}/{} ok ({} err, {} reconnects)",
            ok_count.get(),
            opts.total_rpcs,
            err_count.get(),
            reconnects,
        );
        // One partition-heal cycle mid-campaign, both directions.
        if !partitioned && opts.partition_ns > 0 && ok_count.get() >= partition_after {
            partitioned = true;
            client
                .transport_mut()
                .partition_for(Addr::new(1, 0), opts.partition_ns);
            server
                .transport_mut()
                .partition_for(Addr::new(0, 0), opts.partition_ns);
        }
        // A failed session (partition outlived the failure timeout) is
        // re-created; its in-flight RPCs came back as typed errors and sit
        // in `retry`.
        if client.session_state(sess) == Some(erpc::SessionState::Failed) {
            sess = client.create_session(Addr::new(1, 0)).expect("session");
            reconnects += 1;
            if !connect(&mut client, &mut server, sess) {
                continue; // failed again mid-partition; loop retries
            }
        }
        if client.is_connected(sess) {
            while inflight.get() < opts.window {
                let id = match retry.borrow_mut().pop() {
                    Some(id) => id,
                    None if next_id < opts.total_rpcs => {
                        let id = next_id;
                        next_id += 1;
                        id
                    }
                    None => break,
                };
                if !issue(&mut client, sess, id) {
                    break;
                }
            }
        }
        client.run_event_loop_once();
        server.run_event_loop_once();
        if t0.elapsed() > Duration::from_millis(2) {
            std::thread::yield_now();
        }
    }
    let elapsed = t0.elapsed();

    // Convergence checks beyond the exactly-once asserts above.
    assert!(
        done.borrow().iter().all(|&d| d),
        "seed {seed:#x}: silent RPC loss"
    );
    assert!(
        client.is_connected(sess),
        "seed {seed:#x}: session not reconnected after heal"
    );
    let mut stats = RpcStats::default();
    stats.merge(client.stats());
    stats.merge(server.stats());
    assert_eq!(
        stats.rx_invariant_breach, 0,
        "seed {seed:#x}: rx invariant breached under chaos"
    );
    let mut faults = client.transport().fault_stats().clone();
    faults.merge(server.transport().fault_stats());
    ChaosReport {
        completed_ok: ok_count.get(),
        completed_err: err_count.get(),
        reconnects,
        faults,
        stats,
        elapsed,
    }
}

/// Multi-seed chaos smoke: the CI gate. Runs `seeds` full campaigns over
/// `FaultTransport<UdpTransport>` (5 % loss plus dup, reorder, corruption,
/// and one partition-heal cycle each) and renders the robustness table.
/// Any violated guarantee panics inside [`run_chaos_campaign`] with the
/// seed in the message, so a CI failure is replayable.
pub fn run_smoke(seeds: &[u64]) -> String {
    let mut t = crate::table::Table::new(
        "Chaos smoke: seeded campaigns over FaultTransport<UdpTransport>",
        &[
            "seed",
            "ok",
            "err reissued",
            "reconnects",
            "faults injected",
            "retransmits",
            "RTO events",
            "incarnation resets",
            "elapsed",
        ],
    );
    for &seed in seeds {
        let r = run_chaos_campaign(&ChaosOpts {
            seed,
            fault: FaultConfig::lossy(seed),
            ..Default::default()
        });
        t.row(&[
            format!("{seed:#x}"),
            r.completed_ok.to_string(),
            r.completed_err.to_string(),
            r.reconnects.to_string(),
            format!(
                "{} (drop {}, dup {}, reorder {}, corrupt {}, partition {})",
                r.faults.total_injected(),
                r.faults.dropped,
                r.faults.duplicated,
                r.faults.reordered,
                r.faults.corrupted,
                r.faults.partition_dropped,
            ),
            r.stats.retransmissions.to_string(),
            r.stats.rto_events.to_string(),
            r.stats.sessions_reset_incarnation.to_string(),
            format!("{:.2}s", r.elapsed.as_secs_f64()),
        ]);
    }
    t.note(
        "every campaign: exactly-once completions, 0 rx_invariant_breach, reconnected after heal",
    );
    t.print();
    t.render()
}

/// Adaptive-vs-fixed RTO ablation under 1 % injected loss: the p99
/// completion-latency gate from the acceptance criteria. Fixed 5 ms RTO
/// stalls every lost packet's window for ≥ 5 ms; the adaptive estimator
/// retransmits at SRTT + 4·RTTVAR instead. Asserts adaptive p99 ≤ fixed
/// p99 and returns the rendered table.
pub fn run_rto_ablation(measure_ms: u64) -> String {
    use crate::thread_cluster::{run_symmetric, SymmetricOpts};
    use erpc_transport::MemFabricConfig;
    let fabric = MemFabricConfig {
        loss_prob: 0.01,
        ..MemFabricConfig::default()
    };
    let run = |adaptive: bool| {
        run_symmetric(SymmetricOpts {
            endpoints: 2,
            batch: 3,
            window: 8,
            measure_ms,
            rpc_cfg: RpcConfig {
                ping_interval_ns: 0,
                opt_adaptive_rto: adaptive,
                ..RpcConfig::default()
            },
            fabric_cfg: fabric.clone(),
            ..Default::default()
        })
    };
    let fixed = run(false);
    let adaptive = run(true);
    let mut t = crate::table::Table::new(
        "Adaptive RTO ablation: 1 % injected loss, in-process fabric",
        &["RTO policy", "p50", "p99", "p99.9", "rate", "retransmits"],
    );
    for (name, r) in [
        ("fixed 5 ms", &fixed),
        ("adaptive (SRTT+4·RTTVAR)", &adaptive),
    ] {
        t.row(&[
            name.to_string(),
            crate::table::us(r.latency.percentile(50.0)),
            crate::table::us(r.latency.percentile(99.0)),
            crate::table::us(r.latency.percentile(99.9)),
            crate::table::mrps(r.per_core_rate),
            r.retransmissions.to_string(),
        ]);
    }
    let (fp99, ap99) = (
        fixed.latency.percentile(99.0),
        adaptive.latency.percentile(99.0),
    );
    t.note(format!(
        "gate: adaptive p99 ({}) must not exceed fixed p99 ({})",
        crate::table::us(ap99),
        crate::table::us(fp99)
    ));
    t.print();
    assert!(
        ap99 <= fp99,
        "adaptive RTO must not regress p99 under loss: adaptive {ap99} ns vs fixed {fp99} ns"
    );
    t.render()
}

#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;

    fn campaign(seed: u64) -> ChaosReport {
        run_chaos_campaign(&ChaosOpts {
            seed,
            total_rpcs: 300,
            fault: FaultConfig::lossy(seed),
            ..Default::default()
        })
    }

    #[test]
    fn chaos_campaign_converges_seed_1() {
        let r = campaign(0xC4A0_0001);
        assert_eq!(r.completed_ok, 300);
        assert!(r.faults.total_injected() > 0, "campaign injected nothing");
    }

    #[test]
    fn chaos_campaign_converges_seed_2() {
        let r = campaign(0xC4A0_0002);
        assert_eq!(r.completed_ok, 300);
    }

    #[test]
    fn chaos_campaign_converges_seed_3() {
        let r = campaign(0xC4A0_0003);
        assert_eq!(r.completed_ok, 300);
    }
}
