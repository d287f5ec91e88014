//! **Transport ablation** — the kernel-boundary cost ladder, measured.
//!
//! Companion to Table 3's software ablation and ROADMAP item 3: the same
//! symmetric small-RPC workload (fig4 shape, loopback sockets) over the
//! kernel datapaths, pricing each rung of kernel-boundary amortisation:
//!
//! 1. per-packet `send_to`/`recv_from` loop — O(packets) syscalls/pass,
//! 2. `sendmmsg`/`recvmmsg` (PR 5) — O(1) syscalls, one skb per packet,
//! 3. `sendmmsg`/`recvmmsg` + `UDP_SEGMENT`/`UDP_GRO` — O(1) syscalls,
//!    one skb per same-destination run of packets (pkts/msg > 1).
//!
//! The segmented row runs as rung 2 where the kernel refuses UDP GSO/GRO.
//! The io_uring probe's answer is printed too: io_uring has no datapath
//! here (DESIGN.md § "Transport backends"), but whether this kernel
//! grants it is the first thing that ruling would be reopened on.

use crate::table::{mrps, us, Table};
use crate::udp_cluster::{run_udp_symmetric, UdpSymmetricOpts};
use erpc_transport::UdpBatching;

fn fmt_rate(v: f64) -> String {
    if v >= 0.095 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

fn label(rung: UdpBatching) -> &'static str {
    match rung {
        UdpBatching::PerPacket => "udp per-packet loop",
        UdpBatching::Mmsg => "udp sendmmsg/recvmmsg",
        UdpBatching::Segmented => "udp segmented (GSO/GRO)",
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
    t.note("io_uring probe: skipped (Linux-only)");

    let mut mmsg_syscalls_per_rpc = f64::INFINITY;
    for rung in [
        UdpBatching::PerPacket,
        UdpBatching::Mmsg,
        UdpBatching::Segmented,
    ] {
        let r = run_udp_symmetric(&opts, rung);
        t.row(&[
            label(rung).to_string(),
            mrps(r.per_core_rate),
            us(r.latency.percentile(50.0)),
            us(r.latency.percentile(99.0)),
            fmt_rate(r.syscalls_per_rpc()),
            r.pkts_per_msg().map_or("—".into(), |v| format!("{v:.2}")),
        ]);
        match rung {
            UdpBatching::Mmsg => mmsg_syscalls_per_rpc = r.syscalls_per_rpc(),
            UdpBatching::Segmented if r.gso_fallbacks > 0 => {
                t.note(
                    "UDP segmentation probe: refused by this kernel, row ran on the sendmmsg rung",
                );
            }
            UdpBatching::Segmented => {
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
            UdpBatching::PerPacket => {}
        }
    }
    t.note("syscalls/RPC counts send+recv syscalls, measure-window deltas only");
    t.note("pkts/msg = packets per kernel message (skb) sent; the loop and sendmmsg rungs are the `UdpConfig::batching` ablations of the segmented default");
    t.print();
    t.render()
}
