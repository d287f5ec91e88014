//! Packet-level types shared by every transport.

/// Network address of one `Rpc` endpoint: a node (host) plus the endpoint's
/// id on that node (the paper's "Rpc object", one per user thread — in the
/// UDP transport this maps to a UDP port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr {
    /// Host identifier.
    pub node: u16,
    /// Rpc endpoint id on the host (one per dispatch thread).
    pub rpc: u8,
}

impl Addr {
    pub const fn new(node: u16, rpc: u8) -> Self {
        Self { node, rpc }
    }

    /// Dense encoding used as a routing key.
    #[inline]
    pub const fn key(self) -> u32 {
        ((self.node as u32) << 8) | self.rpc as u32
    }

    /// Inverse of [`Addr::key`].
    #[inline]
    pub const fn from_key(k: u32) -> Self {
        Self {
            node: (k >> 8) as u16,
            rpc: (k & 0xFF) as u8,
        }
    }
}

impl core::fmt::Display for Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}", self.node, self.rpc)
    }
}

/// One packet handed to [`crate::Transport::tx_burst`].
///
/// The header/data split mirrors eRPC's DMA model (§4.2.1): a small
/// single-packet message has header and payload contiguous in its msgbuf and
/// is passed entirely in `hdr` with an empty `data` (one DMA read); non-first
/// packets of large messages pass the detached trailing header in `hdr` and
/// the payload slice in `data` (two DMA reads).
#[derive(Debug, Clone, Copy)]
pub struct TxPacket<'a> {
    pub dst: Addr,
    pub hdr: &'a [u8],
    pub data: &'a [u8],
}

impl TxPacket<'_> {
    /// Total bytes on the wire at the eRPC layer (excl. Ethernet/IP/UDP).
    #[inline]
    pub fn len(&self) -> usize {
        self.hdr.len() + self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of DMA reads this packet costs the NIC.
    #[inline]
    pub fn dma_reads(&self) -> usize {
        1 + usize::from(!self.data.is_empty())
    }
}

/// Handle to one received packet whose bytes still live in the transport's
/// RX ring (zero-copy reception, §4.2.3).
///
/// Tokens are only valid with the transport that produced them, and only
/// until the next [`crate::Transport::rx_release`], which re-posts the
/// underlying RX descriptors to the (real or modelled) NIC.
#[derive(Debug, Clone, Copy)]
pub struct RxToken {
    /// Transport-private slot identifier.
    pub(crate) slot: u64,
    /// Payload length in bytes.
    pub(crate) len: u32,
    /// Where the bytes lie, resolved when the packet is claimed (the
    /// `PacketRing` arena offset; 0 for other transports).
    pub(crate) off: u32,
}

impl RxToken {
    /// Construct a token. Only [`crate::Transport`] implementations should
    /// call this; the `slot` meaning is transport-private.
    pub fn new(slot: u64, len: u32) -> Self {
        Self { slot, len, off: 0 }
    }

    /// Transport-private slot identifier (for `Transport` implementors).
    #[inline]
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Payload length of the received packet.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Counters every transport maintains. Drops on the TX side model NIC/ring
/// overflow at the *receiver* (an empty RX queue drops the packet, §4.1.1);
/// injected-fault drops model a lossy fabric.
#[derive(Debug, Default, Clone)]
pub struct TransportStats {
    pub tx_pkts: u64,
    pub tx_bytes: u64,
    /// Packets dropped because the destination RX ring had no free
    /// descriptors (receiver overrun).
    pub tx_drop_ring_full: u64,
    /// Packets dropped by injected fault (lossy-network emulation).
    pub tx_drop_fault: u64,
    /// Packets dropped because the destination address is unknown/failed.
    pub tx_drop_no_route: u64,
    /// Packets dropped by a transmit error that is neither backpressure nor
    /// a missing route (e.g. a kernel `send_to` failure on a known route).
    pub tx_drop_err: u64,
    pub rx_pkts: u64,
    pub rx_bytes: u64,
    /// Received datagrams dropped because they exceeded the transport MTU
    /// and would have been silently truncated by the RX buffer.
    pub rx_drop_truncated: u64,
    /// `tx_flush` invocations (rare path: retransmission / failure).
    pub tx_flushes: u64,
    /// Kernel send syscalls issued (socket transports only). With
    /// syscall batching one `sendmmsg` covers a whole TX burst, so this
    /// grows per *burst*, not per packet.
    pub tx_syscalls: u64,
    /// Kernel receive syscalls issued (socket transports only). With
    /// syscall batching one `recvmmsg` claims a whole RX burst.
    pub rx_syscalls: u64,
    /// Kernel messages (skbs) handed over by `UdpTransport`. With UDP
    /// segmentation one message carries a run of packets, so
    /// `tx_pkts / tx_msgs` is the amortisation factor; 1 without it.
    pub tx_msgs: u64,
    /// Kernel messages taken back by `UdpTransport`: with `UDP_GRO` one
    /// may be a coalesced train of `rx_pkts / rx_msgs` packets.
    pub rx_msgs: u64,
    /// Times `UdpTransport` left its segmented rung for `sendmmsg`
    /// because the kernel refused `UDP_GRO` at bind or a `UDP_SEGMENT`
    /// send (at most one of each per transport).
    pub gso_fallbacks: u64,
    /// `rx_burst` calls that stopped early because the transport's RX
    /// drain cap truncated the claim while more packets were (or may
    /// have been) pending — the fairness valve that keeps a flooding
    /// peer from starving TX/timers within one event-loop pass.
    pub rx_drain_capped: u64,
    /// `io_uring_enter` syscalls issued. No transport increments it any
    /// more (there is no io_uring datapath); it stays because the
    /// benchmark's `transport.syscalls_per_rpc` reads it.
    pub ring_enters: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_key_roundtrip() {
        for node in [0u16, 1, 99, u16::MAX] {
            for rpc in [0u8, 7, u8::MAX] {
                let a = Addr::new(node, rpc);
                assert_eq!(Addr::from_key(a.key()), a);
            }
        }
    }

    #[test]
    fn txpacket_dma_reads() {
        let hdr = [0u8; 16];
        let data = [0u8; 32];
        let one = TxPacket {
            dst: Addr::new(0, 0),
            hdr: &hdr,
            data: &[],
        };
        let two = TxPacket {
            dst: Addr::new(0, 0),
            hdr: &hdr,
            data: &data,
        };
        assert_eq!(one.dma_reads(), 1);
        assert_eq!(two.dma_reads(), 2);
        assert_eq!(two.len(), 48);
    }
}
