//! Message buffers (msgbufs) and their pool (§4.2.1, §4.2.2).
//!
//! A msgbuf holds one possibly-multi-packet message, laid out to satisfy
//! the paper's two requirements:
//!
//! 1. **The data region is contiguous**, so applications can use it as an
//!    opaque buffer.
//! 2. **The first packet's header and data are contiguous**, so the NIC
//!    can fetch small messages with one DMA read.
//!
//! ```text
//! [ H1 (16 B) | data ............................. | H2 | H3 | … | HN ]
//! ```
//!
//! Headers for packets 2..N live *after* the data region — placing H2
//! right after packet 1's data chunk would break requirement 1. Non-first
//! packets therefore need two DMA reads (header + data), which is fine:
//! the small header read amortizes against the large data read.
//!
//! In this Rust port, *ownership* enforces the paper's msgbuf-ownership
//! invariant (§4.2.2): the application hands the `MsgBuf` to
//! `enqueue_request` by value and receives it back in the continuation, so
//! it is statically impossible to touch a buffer the Rpc still references.

use erpc_transport::codec::{ByteSink, SliceSink};

use crate::pkthdr::{PktHdr, PKT_HDR_SIZE};

/// A DMA-capable message buffer. Create via [`BufPool::alloc`] (or
/// `Rpc::alloc_msg_buffer`).
#[derive(Debug)]
pub struct MsgBuf {
    buf: Box<[u8]>,
    /// Current message length (≤ `max_data`).
    data_len: u32,
    /// Capacity this msgbuf was requested with.
    max_data: u32,
    /// Data bytes carried per packet (transport MTU − 16).
    data_per_pkt: u32,
}

impl MsgBuf {
    fn required_size(max_data: usize, data_per_pkt: usize) -> usize {
        let max_pkts = Self::pkts_for(max_data, data_per_pkt);
        PKT_HDR_SIZE + max_data + (max_pkts - 1) * PKT_HDR_SIZE
    }

    fn pkts_for(data_len: usize, data_per_pkt: usize) -> usize {
        // The common case (§5.2) is a single packet: no division for it.
        if data_len <= data_per_pkt {
            1
        } else {
            data_len.div_ceil(data_per_pkt)
        }
    }

    /// Current message size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data_len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data_len == 0
    }

    /// Capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.max_data as usize
    }

    /// Packets needed for the current message size.
    #[inline]
    pub fn num_pkts(&self) -> usize {
        Self::pkts_for(self.data_len as usize, self.data_per_pkt as usize)
    }

    /// Shrink or grow the message within capacity (like eRPC's
    /// `resize_msg_buffer`; no reallocation).
    pub fn resize(&mut self, len: usize) {
        // lint:allow(hot-path-panic): this assert IS the API's bounds
        // check (documented panic, relied on by tests); resize is called
        // per message, not per packet.
        assert!(len <= self.max_data as usize, "resize beyond capacity");
        self.data_len = len as u32;
    }

    /// The contiguous application data region (current size).
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.buf[PKT_HDR_SIZE..PKT_HDR_SIZE + self.data_len as usize]
    }

    /// Mutable application data region.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.buf[PKT_HDR_SIZE..PKT_HDR_SIZE + self.data_len as usize]
    }

    /// Copy `src` into the buffer and set the length.
    pub fn fill(&mut self, src: &[u8]) {
        self.resize(src.len());
        self.data_mut().copy_from_slice(src);
    }

    /// Set the length to zero (e.g. before a handler appends a response).
    #[inline]
    pub fn clear(&mut self) {
        self.data_len = 0;
    }

    /// Append `src` after the current contents, growing the length within
    /// capacity (worker handlers build responses incrementally with this).
    pub fn append(&mut self, src: &[u8]) {
        let old = self.len();
        self.resize(old + src.len());
        self.data_mut()[old..].copy_from_slice(src);
    }

    /// Serialize directly into the data region: runs `f` over a
    /// [`SliceSink`] spanning the full capacity, then sets the message
    /// length to the bytes written — the no-copy encode path (typed
    /// requests and responses serialize straight into pooled buffers).
    pub fn fill_with<R>(&mut self, f: impl FnOnce(&mut SliceSink<'_>) -> R) -> R {
        let cap = self.capacity();
        self.resize(cap);
        let (r, n) = {
            let mut sink = SliceSink::new(self.data_mut());
            let r = f(&mut sink);
            let n = sink.written();
            (r, n)
        };
        self.resize(n);
        r
    }

    /// Byte offset of packet `i`'s header within the backing buffer.
    fn hdr_offset(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            PKT_HDR_SIZE + self.max_data as usize + (i - 1) * PKT_HDR_SIZE
        }
    }

    /// Data bytes carried by packet `i` at the current size.
    pub fn pkt_data_len(&self, i: usize) -> usize {
        let dpp = self.data_per_pkt as usize;
        let len = self.data_len as usize;
        debug_assert!(i < self.num_pkts());
        (len - i * dpp).min(dpp)
    }

    /// Write the message's header *template* into every packet-header slot
    /// at once: one encode, then a 16-byte copy per packet with only the
    /// per-packet `pkt_num` patched in place. Done once at enqueue/install
    /// time, it makes transmission — and every retransmission — free of
    /// header construction (§5.2's header-template optimization).
    ///
    /// `hdr.pkt_num` is ignored; each slot gets its own index.
    pub fn write_hdr_template(&mut self, hdr: &PktHdr) {
        let mut bytes = hdr.encode();
        for i in 0..self.num_pkts() {
            crate::pkthdr::patch_pkt_num(&mut bytes, i as u16);
            let off = self.hdr_offset(i);
            self.buf[off..off + PKT_HDR_SIZE].copy_from_slice(&bytes);
        }
    }

    /// Direct poke of packet `i`'s ECN bit in its already-written header
    /// (template patch path — no header re-encode).
    pub fn patch_hdr_ecn(&mut self, i: usize, ecn: bool) {
        let off = self.hdr_offset(i);
        crate::pkthdr::patch_ecn(&mut self.buf[off..off + PKT_HDR_SIZE], ecn);
    }

    /// Raw bytes of packet `i`'s header (tests verify template-write-then-
    /// patch against fresh encodes through this).
    pub fn hdr_bytes(&self, i: usize) -> &[u8] {
        let off = self.hdr_offset(i);
        &self.buf[off..off + PKT_HDR_SIZE]
    }

    /// TX view of packet `i`: `(hdr_slice, data_slice)`.
    ///
    /// For packet 0 the header and its data chunk are contiguous, so the
    /// whole packet is returned in `hdr_slice` with an empty `data_slice` —
    /// one DMA read (§4.2.1 requirement 2). Later packets return the
    /// detached trailing header and their data chunk — two DMA reads.
    pub fn tx_view(&self, i: usize) -> (&[u8], &[u8]) {
        let dpp = self.data_per_pkt as usize;
        let dlen = self.pkt_data_len(i);
        if i == 0 {
            (&self.buf[0..PKT_HDR_SIZE + dlen], &[])
        } else {
            let h = self.hdr_offset(i);
            let d = PKT_HDR_SIZE + i * dpp;
            (&self.buf[h..h + PKT_HDR_SIZE], &self.buf[d..d + dlen])
        }
    }

    /// Copy received payload `chunk` into the data region at packet index
    /// `i` (assembling a multi-packet message at the receiver).
    pub fn write_pkt_data(&mut self, i: usize, chunk: &[u8]) {
        let dpp = self.data_per_pkt as usize;
        let off = PKT_HDR_SIZE + i * dpp;
        self.buf[off..off + chunk.len()].copy_from_slice(chunk);
    }
}

/// Buffer pool with power-of-two size-class freelists.
///
/// Plays the role of eRPC's hugepage allocator: allocation on the datapath
/// is a freelist pop; `free` recycles. The *preallocated responses*
/// optimization (§4.3, Table 3) works by taking one msgbuf per server slot
/// on the slot's first request and never touching the pool for it again.
#[derive(Debug)]
pub struct BufPool {
    /// `classes[k]` holds buffers of exactly `1 << k` bytes.
    classes: Vec<Vec<Box<[u8]>>>,
    data_per_pkt: usize,
    /// Fresh allocations (stats).
    pub allocs_new: u64,
    /// Freelist hits (stats).
    pub allocs_reused: u64,
}

impl BufPool {
    /// `data_per_pkt` is the transport MTU minus the 16 B header.
    pub fn new(data_per_pkt: usize) -> Self {
        assert!(data_per_pkt > 0);
        Self {
            classes: (0..36).map(|_| Vec::new()).collect(),
            data_per_pkt,
            allocs_new: 0,
            allocs_reused: 0,
        }
    }

    pub fn data_per_pkt(&self) -> usize {
        self.data_per_pkt
    }

    fn class_of(size: usize) -> usize {
        size.next_power_of_two().trailing_zeros() as usize
    }

    /// Allocate a msgbuf able to hold `max_data` bytes; its length starts
    /// at `max_data` (call [`MsgBuf::resize`] to shrink).
    pub fn alloc(&mut self, max_data: usize) -> MsgBuf {
        let required = MsgBuf::required_size(max_data, self.data_per_pkt);
        let class = Self::class_of(required);
        let buf = if let Some(b) = self.classes[class].pop() {
            self.allocs_reused += 1;
            b
        } else {
            self.allocs_new += 1;
            // lint:allow(hot-path-alloc): pool-miss path — counted by
            // allocs_new and asserted zero in alloc_steady_state.
            vec![0u8; 1 << class].into_boxed_slice()
        };
        MsgBuf {
            buf,
            data_len: max_data as u32,
            max_data: max_data as u32,
            data_per_pkt: self.data_per_pkt as u32,
        }
    }

    /// Return a msgbuf to the pool.
    pub fn free(&mut self, m: MsgBuf) {
        let class = m.buf.len().trailing_zeros() as usize;
        debug_assert_eq!(1usize << class, m.buf.len(), "pool bufs are pow2-sized");
        // Bound per-class retention to avoid unbounded growth.
        if self.classes[class].len() < 1024 {
            self.classes[class].push(m.buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pkthdr::PktType;

    fn pool() -> BufPool {
        BufPool::new(1024)
    }

    #[test]
    fn single_packet_layout() {
        let mut p = pool();
        let mut m = p.alloc(32);
        assert_eq!(m.num_pkts(), 1);
        m.fill(b"hello world, this is a request!!");
        let hdr = PktHdr {
            pkt_type: PktType::Req,
            ecn: false,
            req_type: 1,
            dest_session: 2,
            msg_size: 32,
            req_num: 8,
            pkt_num: 0,
        };
        m.write_hdr_template(&hdr);
        let (h, d) = m.tx_view(0);
        // Single DMA: whole packet contiguous, no separate data slice.
        assert!(d.is_empty());
        assert_eq!(h.len(), PKT_HDR_SIZE + 32);
        assert_eq!(PktHdr::decode(h).unwrap(), hdr);
        assert_eq!(&h[PKT_HDR_SIZE..], m.data());
    }

    #[test]
    fn multi_packet_layout_partitions_data() {
        let mut p = pool();
        let total = 1024 * 2 + 500; // 3 packets
        let mut m = p.alloc(total);
        assert_eq!(m.num_pkts(), 3);
        let payload: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        m.fill(&payload);
        // Packet 0: contiguous hdr+data, 1024 data bytes.
        let (h0, d0) = m.tx_view(0);
        assert!(d0.is_empty());
        assert_eq!(&h0[PKT_HDR_SIZE..], &payload[..1024]);
        // Packets 1, 2: detached header + data chunk.
        let (h1, d1) = m.tx_view(1);
        assert_eq!(h1.len(), PKT_HDR_SIZE);
        assert_eq!(d1, &payload[1024..2048]);
        let (h2, d2) = m.tx_view(2);
        assert_eq!(h2.len(), PKT_HDR_SIZE);
        assert_eq!(d2, &payload[2048..]);
        assert_eq!(d2.len(), 500);
        // The data region stayed contiguous.
        assert_eq!(m.data(), &payload[..]);
    }

    #[test]
    fn trailing_headers_do_not_clobber_data() {
        let mut p = pool();
        let mut m = p.alloc(2048); // 2 packets exactly
        let payload = vec![0xAB; 2048];
        m.fill(&payload);
        m.write_hdr_template(&PktHdr::control(PktType::Req, 0, 8, 0));
        assert_eq!(m.data(), &payload[..]);
    }

    #[test]
    fn resize_changes_pkt_count() {
        let mut p = pool();
        let mut m = p.alloc(4096);
        assert_eq!(m.num_pkts(), 4);
        m.resize(1);
        assert_eq!(m.num_pkts(), 1);
        m.resize(0);
        assert_eq!(m.num_pkts(), 1); // zero-length message still is 1 packet
        m.resize(1025);
        assert_eq!(m.num_pkts(), 2);
        assert_eq!(m.pkt_data_len(1), 1);
    }

    #[test]
    #[should_panic(expected = "resize beyond capacity")]
    fn resize_beyond_capacity_panics() {
        let mut p = pool();
        let mut m = p.alloc(64);
        m.resize(65);
    }

    #[test]
    fn pool_reuses_buffers() {
        let mut p = pool();
        let m = p.alloc(100);
        p.free(m);
        let _m2 = p.alloc(80); // same class (128-byte-ish region rounds alike)
        assert_eq!(p.allocs_new, 1);
        assert_eq!(p.allocs_reused, 1);
    }

    #[test]
    fn pool_separates_classes() {
        let mut p = pool();
        let small = p.alloc(64);
        p.free(small);
        let _big = p.alloc(1 << 20);
        assert_eq!(p.allocs_new, 2, "1 MB alloc must not reuse the 64 B buffer");
    }

    #[test]
    fn required_size_landing_on_power_of_two() {
        // Single-packet msgbuf: required = 16 hdr + max_data. max_data=48
        // lands exactly on 64 — it must use the 64-byte class, and the
        // next byte up must move to the 128-byte class (no off-by-one at
        // the boundary in either direction).
        let mut p = pool();
        let exact = p.alloc(48);
        assert_eq!(exact.buf.len(), 64, "required==64 stays in the 64 class");
        p.free(exact);
        let _reuse = p.alloc(48);
        assert_eq!((p.allocs_new, p.allocs_reused), (1, 1));
        let bigger = p.alloc(49); // required = 65 → 128 class
        assert_eq!(bigger.buf.len(), 128);
        assert_eq!(p.allocs_new, 2, "65 bytes must not reuse the 64 class");
        // Multi-packet landing exactly on a power of two:
        // 2 pkts → 16 + max + 16 = pow2 at max = 2016 (2048).
        let multi = p.alloc(2016);
        assert_eq!(multi.num_pkts(), 2);
        assert_eq!(multi.buf.len(), 2048);
    }

    #[test]
    fn per_class_retention_cap_bounds_pool_growth() {
        let mut p = pool();
        let bufs: Vec<MsgBuf> = (0..1100).map(|_| p.alloc(32)).collect();
        assert_eq!(p.allocs_new, 1100);
        for b in bufs {
            p.free(b);
        }
        // Only 1024 were retained: re-allocating 1100 reuses exactly the
        // cap and heap-allocates the overflow.
        let _round2: Vec<MsgBuf> = (0..1100).map(|_| p.alloc(32)).collect();
        assert_eq!(p.allocs_reused, 1024);
        assert_eq!(p.allocs_new, 1100 + 76);
    }

    #[test]
    fn zero_length_messages_through_slice_writer() {
        let mut p = pool();
        let mut m = p.alloc(64);
        // Encoding nothing must produce a valid zero-length message…
        m.fill_with(|_sink| {});
        assert_eq!(m.len(), 0);
        assert_eq!(m.num_pkts(), 1); // …which still travels as one packet
        assert_eq!(m.pkt_data_len(0), 0);
        assert!(m.data().is_empty());
        // …and a zero-capacity msgbuf accepts the empty encode too.
        let mut z = p.alloc(0);
        z.fill_with(|_sink| {});
        assert_eq!(z.len(), 0);
        // Writing again after a zero-length pass works (len restored from
        // the sink, not left stale).
        m.fill_with(|sink| erpc_transport::codec::ByteSink::put(sink, b"abc"));
        assert_eq!(m.data(), b"abc");
    }

    #[test]
    fn hdr_template_equals_per_packet_encode() {
        let mut p = pool();
        let total = 1024 * 2 + 500; // 3 packets
        let mut a = p.alloc(total);
        let payload: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        a.fill(&payload);
        let mut hdr = PktHdr {
            pkt_type: PktType::Resp,
            ecn: true,
            req_type: 9,
            dest_session: 4,
            msg_size: total as u32,
            req_num: 1234,
            pkt_num: 0,
        };
        a.write_hdr_template(&hdr);
        // The reference is a fresh `PktHdr::encode` with `pkt_num` set.
        for i in 0..3 {
            hdr.pkt_num = i as u16;
            assert_eq!(a.hdr_bytes(i), &hdr.encode()[..], "packet {i} header");
        }
        // Patching ECN off matches a fresh encode with ecn = false.
        a.patch_hdr_ecn(1, false);
        hdr.pkt_num = 1;
        hdr.ecn = false;
        assert_eq!(a.hdr_bytes(1), &hdr.encode()[..]);
        // Data untouched by header writes.
        assert_eq!(a.data(), &payload[..]);
    }

    #[test]
    fn write_pkt_data_assembles_message() {
        let mut p = pool();
        let mut m = p.alloc(2500);
        let payload: Vec<u8> = (0..2500u32).map(|i| (i % 250) as u8).collect();
        // Assemble out of order, as a receiver might (conceptually).
        m.write_pkt_data(2, &payload[2048..]);
        m.write_pkt_data(0, &payload[..1024]);
        m.write_pkt_data(1, &payload[1024..2048]);
        assert_eq!(m.data(), &payload[..]);
    }
}
