//! # erpc-transport
//!
//! Unreliable-datagram transports for the eRPC reproduction.
//!
//! eRPC (NSDI'19) layers a full RPC protocol over *basic unreliable packet
//! I/O* — UDP over lossy Ethernet, or InfiniBand's Unreliable Datagram
//! transport (§3). This crate defines that substrate as the [`Transport`]
//! trait and provides three implementations:
//!
//! * [`MemTransport`] — lock-free in-process packet rings between threads.
//!   The rings behave like NIC RX queues (fixed descriptors, producer-side
//!   drop on overrun, in-place zero-copy RX). Used by the wall-clock
//!   CPU-bound benchmarks (message rate, factor analysis, bandwidth).
//! * [`UdpTransport`] — real UDP sockets (kernel networking; for the
//!   runnable examples and cross-process use).
//! * `SimTransport` (in the `erpc-sim` crate) — attaches an endpoint to the
//!   deterministic discrete-event fabric for cluster-scale experiments.
//!
//! [`UdpTransport`] is the one kernel socket backend. The `uring` module
//! keeps only `IoUringTransport::probe` (Linux), which reports whether this
//! kernel grants io_uring; there is no io_uring datapath (DESIGN.md §
//! "Transport backends" records why).
//!
//! The transport also supplies the **clock** ([`Transport::now_ns`]):
//! wall-clock monotonic nanoseconds normally, virtual nanoseconds in the
//! simulator, so the protocol layer is oblivious to the difference.

// Every unsafe operation must sit in its own narrow `unsafe {}` block
// with a `// SAFETY:` comment, even inside unsafe fns (none today).
// The full site inventory lives in DESIGN.md's unsafe audit.
#![deny(unsafe_op_in_unsafe_fn)]
pub mod clock;
pub mod codec;
pub mod fault;
pub mod mem;
pub mod pkt;
#[cfg(target_os = "linux")]
pub mod rawsock;
pub mod ring;
pub mod udp;
#[cfg(target_os = "linux")]
pub mod uring;

pub use clock::MonoClock;
pub use fault::{FaultConfig, FaultStats, FaultTransport};
pub use mem::{MemFabric, MemFabricConfig, MemTransport};
pub use pkt::{Addr, RxToken, TransportStats, TxPacket};
pub use ring::PacketRing;
pub use udp::{UdpBatching, UdpConfig, UdpTransport};
#[cfg(target_os = "linux")]
pub use uring::{IoUringTransport, UringError};

/// Unreliable, connectionless, burst-oriented packet I/O — the substrate
/// eRPC runs on (§3: "a transport layer that provides basic unreliable
/// packet I/O").
///
/// Semantics every implementation must provide:
///
/// * **Unreliable**: packets may be dropped (receiver ring overrun, injected
///   loss, simulated switch-buffer overflow). They are never duplicated and
///   never corrupted silently (corruption faults drop the packet).
/// * **Poll-mode**: no blocking calls on the datapath; `rx_burst` returns
///   immediately with whatever has arrived.
/// * **Zero-copy RX**: received payloads are borrowed in place via
///   [`RxToken`]s and stay valid until [`Transport::rx_release`], which
///   re-posts the RX descriptors.
/// * **Unsignaled TX** (§4.2.2): `tx_burst` queues packets without
///   completion notifications; [`Transport::tx_flush`] is the rare-path
///   barrier that guarantees previously queued packets have left (used
///   before retransmissions and during node-failure handling so msgbuf
///   references are never live in a DMA queue when ownership returns to the
///   application).
pub trait Transport {
    /// This endpoint's address.
    fn addr(&self) -> Addr;

    /// Maximum bytes per packet at the eRPC layer (header + data).
    fn mtu(&self) -> usize;

    /// Monotonic nanoseconds (virtual in simulation).
    fn now_ns(&self) -> u64;

    /// Queue a burst of packets for transmission. Packets that cannot be
    /// delivered (full receiver ring, unknown route, injected fault) are
    /// silently dropped, with the reason counted in [`Transport::stats`].
    fn tx_burst(&mut self, pkts: &[TxPacket<'_>]);

    /// Barrier: returns only when every previously queued TX packet has been
    /// handed to the wire (NIC TX DMA queue flush, ≈2 µs in the paper).
    fn tx_flush(&mut self);

    /// Claim up to `max` received packets, appending their tokens to `out`.
    /// Returns how many were claimed. Claimed packets stay readable via
    /// [`Transport::rx_bytes`] until [`Transport::rx_release`].
    fn rx_burst(&mut self, max: usize, out: &mut Vec<RxToken>) -> usize;

    /// Borrow the payload bytes of a claimed token.
    fn rx_bytes(&self, tok: &RxToken) -> &[u8];

    /// Release every token claimed since the previous call (re-post RX
    /// descriptors). Invalidates all outstanding tokens of this transport.
    fn rx_release(&mut self);

    /// Datapath counters.
    fn stats(&self) -> &TransportStats;

    /// Number of RX descriptors (`|RQ|`): bounds how many packets may be in
    /// flight toward this endpoint across all sessions (§4.3.1 sizes session
    /// credits against this).
    fn rx_ring_size(&self) -> usize;
}
