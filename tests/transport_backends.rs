//! Loopback integration test for the socket transport (ISSUE 8,
//! satellite 1): the same symmetric fig4-style request/response body runs
//! over `UdpTransport` on all three rungs of its batching ladder. The
//! in-process `MemTransport` is driven at the `Transport` trait the way
//! `crates/core` calls it (bottom of the file).

use erpc_bench::udp_cluster::{run_udp_symmetric, UdpSymmetricOpts};
use erpc_transport::{
    Addr, MemFabric, MemFabricConfig, MemTransport, Transport, TxPacket, UdpBatching,
};

/// One shared body per rung: short warmup + measure windows, then the
/// invariants every rung must satisfy on loopback.
fn check_rung(rung: UdpBatching) {
    let opts = UdpSymmetricOpts {
        warmup_ms: 20,
        measure_ms: 80,
        ..Default::default()
    };
    let r = run_udp_symmetric(&opts, rung);
    assert!(
        r.total_completed > 0,
        "{rung:?}: no RPCs completed in the measure window"
    );
    assert!(r.passes > 0, "{rung:?}: event loop recorded zero passes");
    assert!(
        r.latency.percentile(50.0) > 0,
        "{rung:?}: latency histogram is empty despite {} completions",
        r.total_completed
    );
    // Syscall-shape invariants (the point of the ladder).
    assert!(
        r.tx_syscalls > 0,
        "{rung:?}: UDP datapath reported zero send syscalls"
    );
    // One kernel message per packet, except where the segmented rung's
    // probe passed: there runs share messages.
    if rung == UdpBatching::Segmented && r.gso_fallbacks == 0 {
        assert!(r.tx_msgs < r.tx_pkts, "segmented rung never built a run");
    } else {
        assert_eq!(r.tx_msgs, r.tx_pkts, "{rung:?}");
    }
    println!(
        "[ok] {rung:?}: {} RPCs, {} passes, {:.3} syscalls/RPC",
        r.total_completed,
        r.passes,
        r.syscalls_per_rpc()
    );
}

#[test]
fn udp_loop_backend_loopback() {
    check_rung(UdpBatching::PerPacket);
}

#[test]
fn udp_mmsg_backend_loopback() {
    check_rung(UdpBatching::Mmsg);
}

#[test]
fn udp_segmented_backend_loopback() {
    // A kernel that refuses UDP GSO/GRO runs this body on the sendmmsg
    // rung, which is the fallback under test.
    check_rung(UdpBatching::Segmented);
}

// ── MemTransport under core's calling pattern ──────────────────────────
//
// `Rpc::process_rx` polls `rx_burst(rx_batch)`; on 0 it returns *without*
// `rx_release`; otherwise it reads every token in place, then calls
// `rx_release` once. The ring behind `MemTransport` claims and releases
// by range, so these pin what that pattern relies on.

/// A sender and a receiver on a fabric of `ring` RX descriptors.
fn mem_pair(ring: usize) -> (MemTransport, MemTransport) {
    let fabric = MemFabric::new(MemFabricConfig {
        ring_capacity: ring,
        ..MemFabricConfig::default()
    });
    (
        fabric.create_transport(Addr::new(0, 0)),
        fabric.create_transport(Addr::new(1, 0)),
    )
}

/// Send packets numbered `ids` to `to` in one burst; how many it took.
fn mem_send(from: &mut MemTransport, to: Addr, ids: std::ops::Range<u8>) -> u64 {
    let bodies: Vec<[u8; 1]> = ids.map(|i| [i]).collect();
    let burst: Vec<TxPacket<'_>> = bodies
        .iter()
        .map(|b| TxPacket {
            dst: to,
            hdr: b,
            data: b"-body",
        })
        .collect();
    let before = from.stats().tx_pkts;
    from.tx_burst(&burst);
    from.stats().tx_pkts - before
}

#[test]
fn mem_empty_rx_burst_needs_no_release() {
    let (mut a, mut b) = mem_pair(8);
    let mut toks = Vec::new();
    // Idle polls, never followed by rx_release, must not disturb what a
    // later burst claims and releases.
    for round in 0..3u8 {
        for _ in 0..4 {
            assert_eq!(b.rx_burst(32, &mut toks), 0);
        }
        assert_eq!(mem_send(&mut a, b.addr(), 8 * round..8 * round + 8), 8);
        assert_eq!(b.rx_burst(32, &mut toks), 8);
        for (i, tok) in toks.iter().enumerate() {
            assert_eq!(b.rx_bytes(tok)[0], 8 * round + i as u8);
        }
        toks.clear();
        b.rx_release();
    }
    assert_eq!(
        a.stats().tx_drop_ring_full,
        0,
        "every lap found its slots released"
    );
    assert_eq!(b.stats().rx_pkts, 24);
}

#[test]
fn mem_burst_larger_than_max_carries_over() {
    let (mut a, mut b) = mem_pair(16);
    assert_eq!(mem_send(&mut a, b.addr(), 0..10), 10);
    let mut toks = Vec::new();
    assert_eq!(b.rx_burst(4, &mut toks), 4);
    // A second claim before any release appends behind the first...
    assert_eq!(b.rx_burst(4, &mut toks), 4);
    let seen: Vec<u8> = toks.iter().map(|t| b.rx_bytes(t)[0]).collect();
    assert_eq!(seen, (0..8).collect::<Vec<u8>>());
    toks.clear();
    b.rx_release();
    // ...and the rest surfaces after it, in order.
    assert_eq!(b.rx_burst(4, &mut toks), 2);
    assert_eq!(b.rx_bytes(&toks[0]), b"\x08-body");
    assert_eq!(b.rx_bytes(&toks[1]), b"\x09-body");
    b.rx_release();
    assert_eq!(b.stats().rx_bytes, 10 * 6);
}

#[test]
fn mem_tokens_stay_readable_until_release_then_slots_are_reusable() {
    let (mut a, mut b) = mem_pair(4);
    assert_eq!(mem_send(&mut a, b.addr(), 0..6), 4, "ring of 4 takes 4");
    assert_eq!(a.stats().tx_drop_ring_full, 2);
    let mut toks = Vec::new();
    assert_eq!(b.rx_burst(3, &mut toks), 3);
    // Claimed is not released: the sender still finds the ring full, and
    // what it tried to write did not touch the claimed packets.
    assert_eq!(mem_send(&mut a, b.addr(), 10..13), 0);
    for (i, tok) in toks.iter().enumerate() {
        assert_eq!(b.rx_bytes(tok), [i as u8, b'-', b'b', b'o', b'd', b'y']);
    }
    toks.clear();
    b.rx_release();
    // Exactly the three released slots take new packets, behind packet 3.
    assert_eq!(mem_send(&mut a, b.addr(), 20..26), 3);
    assert_eq!(b.rx_burst(8, &mut toks), 4);
    let seen: Vec<u8> = toks.iter().map(|t| b.rx_bytes(t)[0]).collect();
    assert_eq!(seen, [3, 20, 21, 22]);
    b.rx_release();
    assert_eq!(a.stats().tx_pkts, 7);
    assert_eq!(a.stats().tx_drop_ring_full, 2 + 3 + 3);
}
