//! Loopback integration test for the socket transport backends (ISSUE 8,
//! satellite 1): the same symmetric fig4-style request/response body runs
//! over `UdpTransport` (all three rungs of its batching ladder) and, where
//! the runtime probe succeeds, over `IoUringTransport` with and without
//! SQPOLL.
//!
//! The io_uring rows are *skip-with-log*, never fail: on a kernel or
//! seccomp profile that can't grant rings, `run_udp_symmetric` prints the
//! typed `UringError::Unavailable` reason and returns `None`, and this
//! test records the skip instead of asserting.

use erpc_bench::udp_cluster::{run_udp_symmetric, UdpBackend, UdpSymmetricOpts};

/// One shared body per backend: short warmup + measure windows, then the
/// invariants every working backend must satisfy on loopback.
fn check_backend(backend: UdpBackend) -> bool {
    let opts = UdpSymmetricOpts {
        warmup_ms: 20,
        measure_ms: 80,
        ..Default::default()
    };
    let Some(r) = run_udp_symmetric(&opts, backend) else {
        println!(
            "[skip] {}: probe declined, backend unavailable here",
            backend.label()
        );
        return false;
    };
    assert!(
        r.total_completed > 0,
        "{}: no RPCs completed in the measure window",
        backend.label()
    );
    assert!(
        r.passes > 0,
        "{}: event loop recorded zero passes",
        backend.label()
    );
    assert!(
        r.latency.percentile(50.0) > 0,
        "{}: latency histogram is empty despite {} completions",
        backend.label(),
        r.total_completed
    );
    // Backend-specific syscall-shape invariants (the point of the ladder).
    match backend {
        UdpBackend::UdpLoop | UdpBackend::UdpMmsg | UdpBackend::UdpSegmented => {
            assert_eq!(r.ring_enters, 0, "UDP backends must not touch io_uring");
            assert!(
                r.tx_syscalls > 0,
                "{}: UDP datapath reported zero send syscalls",
                backend.label()
            );
            // One kernel message per packet, except where the segmented
            // rung's probe passed: there runs share messages.
            if backend == UdpBackend::UdpSegmented && r.gso_fallbacks == 0 {
                assert!(r.tx_msgs < r.tx_pkts, "segmented rung never built a run");
            } else {
                assert_eq!(r.tx_msgs, r.tx_pkts, "{}", backend.label());
            }
        }
        UdpBackend::Uring { sqpoll } => {
            assert_eq!(
                r.tx_syscalls + r.rx_syscalls,
                0,
                "{}: io_uring datapath must not fall back to send/recv syscalls",
                backend.label()
            );
            assert!(
                r.cqe_harvested > 0,
                "{}: completions arrived but no CQEs harvested",
                backend.label()
            );
            if !sqpoll {
                assert!(
                    r.enters_per_pass() <= 1.0 + 1e-9,
                    "{}: {:.3} enters/pass, want ≤ 1",
                    backend.label(),
                    r.enters_per_pass()
                );
            }
        }
    }
    println!(
        "[ok] {}: {} RPCs, {} passes, {:.3} syscalls/RPC",
        backend.label(),
        r.total_completed,
        r.passes,
        r.syscalls_per_rpc()
    );
    true
}

#[test]
fn udp_loop_backend_loopback() {
    assert!(
        check_backend(UdpBackend::UdpLoop),
        "plain UDP must always be available"
    );
}

#[test]
fn udp_mmsg_backend_loopback() {
    assert!(
        check_backend(UdpBackend::UdpMmsg),
        "sendmmsg/recvmmsg UDP must always be available"
    );
}

#[test]
fn udp_segmented_backend_loopback() {
    // Never skipped: a kernel that refuses UDP GSO/GRO runs this body on
    // the sendmmsg rung, which is the fallback under test.
    assert!(
        check_backend(UdpBackend::UdpSegmented),
        "segmented UDP must always be available (falls back to sendmmsg)"
    );
}

#[test]
fn uring_backend_loopback_or_skip() {
    // Same body as the UDP rows; skipping (false) is a pass — the probe
    // result was already logged with its typed reason.
    let _ran = check_backend(UdpBackend::Uring { sqpoll: false });
}

#[test]
fn uring_sqpoll_backend_loopback_or_skip() {
    let _ran = check_backend(UdpBackend::Uring { sqpoll: true });
}
