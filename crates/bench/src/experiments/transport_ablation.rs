//! **Transport ablation** — the kernel-boundary cost ladder, measured.
//!
//! Companion to Table 3's software ablation and ROADMAP item 3: the same
//! symmetric small-RPC workload (fig4 shape, loopback sockets) over the
//! kernel datapaths, pricing each rung of kernel-boundary amortisation:
//!
//! 1. per-packet `send_to`/`recv_from` loop — O(packets) syscalls/pass,
//! 2. `sendmmsg`/`recvmmsg` (PR 5) — O(1) syscalls, one skb per packet,
//! 3. `sendmmsg`/`recvmmsg` + `UDP_SEGMENT`/`UDP_GRO` — O(1) syscalls,
//!    one skb per same-destination run of packets (pkts/msg > 1),
//! 4. io_uring SQ/CQ rings — at most one `io_uring_enter` per pass,
//! 5. io_uring + SQPOLL — O(0): the kernel polls the SQ.
//!
//! io_uring rows run only where the runtime probe succeeds (seccomp or
//! an old kernel yields a typed `Unavailable`), and the segmented row
//! runs as rung 2 where the kernel refuses UDP GSO/GRO; both probe
//! results are printed so CI logs show *why* a row is missing or flat.

use crate::table::{mrps, us, Table};
use crate::udp_cluster::{run_udp_symmetric, UdpBackend, UdpSymmetricOpts};

fn fmt_rate(v: f64) -> String {
    if v >= 0.095 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

pub fn run() -> String {
    let opts = UdpSymmetricOpts {
        measure_ms: crate::bench_millis(),
        ..Default::default()
    };
    let mut t = Table::new(
        format!(
            "Transport ablation: symmetric {} B RPCs over loopback sockets ({} endpoints, one core, window {})",
            opts.req_size, opts.endpoints, opts.window
        ),
        &[
            "backend",
            "Mrps",
            "p50",
            "p99",
            "syscalls/RPC",
            "pkts/msg",
            "enters/RPC",
            "enters/pass",
        ],
    );
    #[cfg(target_os = "linux")]
    {
        use erpc_transport::IoUringTransport;
        match IoUringTransport::probe() {
            Ok(()) => t.note("io_uring probe: ok"),
            Err(e) => t.note(format!("io_uring probe: {e}")),
        };
    }
    #[cfg(not(target_os = "linux"))]
    t.note("io_uring probe: skipped (Linux-only backend)");

    let backends = [
        UdpBackend::UdpLoop,
        UdpBackend::UdpMmsg,
        UdpBackend::UdpSegmented,
        UdpBackend::Uring { sqpoll: false },
        UdpBackend::Uring { sqpoll: true },
    ];
    let mut mmsg_syscalls_per_rpc = f64::INFINITY;
    for backend in backends {
        let Some(r) = run_udp_symmetric(&opts, backend) else {
            t.row(&[
                backend.label().to_string(),
                "—".into(),
                "—".into(),
                "—".into(),
                "—".into(),
                "—".into(),
                "—".into(),
                "—".into(),
            ]);
            continue;
        };
        t.row(&[
            backend.label().to_string(),
            mrps(r.per_core_rate),
            us(r.latency.percentile(50.0)),
            us(r.latency.percentile(99.0)),
            fmt_rate(r.syscalls_per_rpc()),
            r.pkts_per_msg().map_or("—".into(), |v| format!("{v:.2}")),
            fmt_rate(r.enters_per_rpc()),
            fmt_rate(r.enters_per_pass()),
        ]);
        // Acceptance gates (ROADMAP item 3): without SQPOLL at most one
        // enter per event-loop pass; with it, sub-syscall-per-RPC.
        match backend {
            UdpBackend::UdpMmsg => mmsg_syscalls_per_rpc = r.syscalls_per_rpc(),
            UdpBackend::UdpSegmented if r.gso_fallbacks > 0 => {
                t.note(
                    "UDP segmentation probe: refused by this kernel, row ran on the sendmmsg rung",
                );
            }
            UdpBackend::UdpSegmented => {
                t.note("UDP segmentation probe: ok");
                // Counts, not timings: runs must really share skbs, and
                // grouping must not cost extra kernel crossings (5 %
                // slack: the two rows are separate closed-loop runs).
                let ppm = r.pkts_per_msg().unwrap_or(0.0);
                assert!(ppm > 1.0, "segmented rung sent {ppm:.2} pkts/msg, want > 1");
                assert!(
                    r.syscalls_per_rpc() <= mmsg_syscalls_per_rpc * 1.05,
                    "segmented rung: {:.3} syscalls/RPC > sendmmsg rung's {:.3}",
                    r.syscalls_per_rpc(),
                    mmsg_syscalls_per_rpc
                );
            }
            UdpBackend::Uring { sqpoll: false } => {
                assert!(
                    r.enters_per_pass() <= 1.0 + 1e-9,
                    "io_uring must cost ≤ 1 enter per pass, got {:.3}",
                    r.enters_per_pass()
                );
            }
            UdpBackend::Uring { sqpoll: true } => {
                // Gate only on a meaningful sample: on a host without
                // spare cores for the SQ-polling threads, a short window
                // completes a handful of RPCs and the ratio is park-wakeup
                // noise, not steady state.
                if r.total_completed >= 200 {
                    assert!(
                        r.enters_per_rpc() < 1.0,
                        "SQPOLL steady state must beat 1 enter/RPC, got {:.3} ({} enters / {} RPCs)",
                        r.enters_per_rpc(),
                        r.ring_enters,
                        r.total_completed
                    );
                }
                // SQPOLL's polling threads (one per ring) need spare
                // cores; when the host can't grant them, throughput is
                // scheduler-rotation-bound — say so in the output rather
                // than leaving a mysteriously slow row.
                if crate::host_cores() < opts.endpoints + 1 {
                    t.note(format!(
                        "SQPOLL row is core-starved: {} endpoints want {} SQ-polling threads + 1 app core, host has {}",
                        opts.endpoints,
                        opts.endpoints,
                        crate::host_cores()
                    ));
                }
            }
            _ => {}
        }
    }
    t.note(
        "syscalls/RPC counts send+recv syscalls plus io_uring_enter, measure-window deltas only",
    );
    t.note("pkts/msg = packets per kernel message (skb) sent; the loop and sendmmsg rungs are the `UdpConfig::batching` ablations of the segmented default");
    t.note("SQPOLL trades one kernel polling thread for a zero-syscall submit path (idle → one wakeup enter)");
    t.print();
    t.render()
}
