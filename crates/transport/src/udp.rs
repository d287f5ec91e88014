//! Real-socket transport: UDP datagrams through the kernel stack.
//!
//! The paper's Ethernet transports send UDP packets via userspace NIC
//! drivers; without exotic NICs we use kernel UDP, which preserves the
//! semantics (unreliable, connectionless datagrams) at lower speed. Used by
//! the runnable examples, and by tests as a sanity check that the protocol
//! is not coupled to the in-process fabric. Lossy-fabric emulation is not
//! done here: wrap the transport in [`crate::FaultTransport`].
//!
//! **The kernel-boundary ladder** ([`UdpBatching`]; §4.3's transmit
//! batching and App. A's multi-packet RQ descriptors applied to the socket
//! API). Every `tx_burst` first gathers its packets contiguously into one
//! scratch buffer as *runs*; the rungs differ in what a run may be and how
//! runs reach the kernel:
//!
//! 1. `PerPacket` — every packet is its own run, one `send_to` /
//!    `recv_from` each. Portable; the only rung off Linux.
//! 2. `Mmsg` — still one packet per run, but all runs of a burst leave in
//!    one `sendmmsg` and a burst is claimed with one `recvmmsg`: O(1)
//!    syscalls per event-loop pass, one stack traversal per *packet*.
//! 3. `Segmented` (default) — the `Mmsg` rung with run-building in front:
//!    consecutive packets to the same destination with the same length (a
//!    shorter last one allowed) form one run, sent as one message with a
//!    `UDP_SEGMENT` cmsg, so the kernel builds one skb for the run. The
//!    socket sets `UDP_GRO`, `recvmmsg` posts 64 KiB buffers with cmsg
//!    room, and a coalesced datagram is split by its `gso_size` back into
//!    ordinary [`RxToken`]s: one stack traversal per *run*. Runs respect
//!    the kernel's limits (≤ 64 segments, ≤ 65 507 B, segment ≤ MTU),
//!    never reorder a burst, and a run of one carries no cmsg.
//!
//! The third rung is probed: if `setsockopt(UDP_GRO)` is refused at bind
//! the transport starts on the `Mmsg` rung; if the kernel refuses a
//! `UDP_SEGMENT` send (`EINVAL`/`EIO`/`ENOPROTOOPT`) TX drops to the
//! `Mmsg` rung for good and the refused run is resent per packet. Either
//! is counted in `TransportStats::gso_fallbacks`.
//!
//! RX buffers are one arena; a token's `slot` is a byte offset into it. A
//! coalesced datagram holding more packets than the caller asked for is
//! carried over: later `rx_burst` calls surface the rest (before any new
//! receive), across `rx_release`. Buffers are recycled as soon as every
//! packet in them has been surfaced and no token is lent out — with or
//! without an `rx_release`, so a burst that was dropped in full (nothing
//! to release) cannot pin them. `tx_pkts`/`rx_pkts` count eRPC packets,
//! `tx_msgs`/`rx_msgs` kernel messages, `tx_syscalls`/`rx_syscalls`
//! syscalls, so `tx_pkts / tx_msgs` is the amortisation factor.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};

use crate::clock::MonoClock;
use crate::pkt::{Addr, RxToken, TransportStats, TxPacket};
use crate::Transport;

/// How a [`UdpTransport`] crosses the kernel boundary; each rung is the
/// previous one plus one amortisation (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UdpBatching {
    /// One `send_to`/`recv_from` syscall per packet (portable; always
    /// used off Linux).
    PerPacket,
    /// `sendmmsg`/`recvmmsg`: one syscall per burst, one kernel message
    /// per packet.
    Mmsg,
    /// `sendmmsg`/`recvmmsg` carrying `UDP_SEGMENT`/`UDP_GRO` runs: one
    /// kernel message per same-destination, same-size run of packets.
    /// Falls back to `Mmsg` when the kernel refuses.
    Segmented,
}

/// Configuration for a [`UdpTransport`].
#[derive(Debug, Clone)]
pub struct UdpConfig {
    /// Max packet bytes at the eRPC layer. Keep ≤ 1472 so packets fit one
    /// Ethernet frame without IP fragmentation on a standard MTU.
    pub mtu: usize,
    /// RX "descriptors": sizes the RX arena (`ring_capacity` MTU-sized
    /// buffers, or the same bytes as 64 KiB buffers on the segmented rung,
    /// at least 64 of them).
    pub ring_capacity: usize,
    /// Highest rung of the kernel-boundary ladder to use (Linux; elsewhere
    /// always `PerPacket`). The lower rungs are the ablation.
    pub batching: UdpBatching,
    /// Fairness valve: max packets consumed per `rx_burst` call even if
    /// the caller asks for more, so a flooding peer cannot starve TX and
    /// timers within one event-loop pass. Early exits are counted in
    /// `TransportStats::rx_drain_capped`.
    pub rx_drain_cap: usize,
}

impl Default for UdpConfig {
    fn default() -> Self {
        Self {
            mtu: 1040,
            ring_capacity: 1024,
            batching: UdpBatching::Segmented,
            rx_drain_cap: 512,
        }
    }
}

/// Buffer posted per message on the segmented rung: a coalesced datagram
/// can be as large as UDP allows, and a shorter buffer would truncate it.
const GRO_BUF: usize = 64 * 1024;

/// Fewest buffers posted per receive on the segmented rung. Traffic that
/// does not coalesce (many peers, mixed sizes, peers on a lower rung)
/// lands one packet per buffer, so this bounds packets per `recvmmsg`;
/// it is kept at twice core's default `rx_batch`. The arena is virtual
/// memory until touched: a buffer costs the pages its datagrams fill.
const MIN_GRO_BUFS: usize = 64;

/// Kernel limits on one `UDP_SEGMENT` message: segments (64 until Linux
/// 6.9, 128 since; the lower bound is used) and payload bytes (65 535 −
/// 8 B UDP header − 20 B IPv4 header).
const MAX_RUN_SEGS: usize = 64;
const MAX_RUN_BYTES: usize = 65_507;

/// Messages per TX burst the scratch arrays hold before they grow.
const TX_RESERVE: usize = 64;

/// Test hook (`bind_inner`'s `fail_at`, as the io_uring probe has per
/// rung): pretend `setsockopt(UDP_GRO)` was refused.
const FAIL_GRO: u8 = 1;
/// Test hook: make the kernel refuse `UDP_SEGMENT` sends (the cmsg asks
/// for a segment size no route can carry, so the refusal is the real one).
#[cfg(test)]
const FAIL_SEGMENT_SEND: u8 = 2;

/// FFI scratch for Linux's multi-message socket syscalls; the struct
/// layouts and extern declarations live in [`crate::rawsock`].
#[cfg(target_os = "linux")]
mod mmsg {
    pub use crate::rawsock::{
        recvmmsg, sendmmsg, set_udp_gro, IoVec, MMsgHdr, MsgHdr, RawAddr, UdpCmsg, EINVAL, EIO,
        ENOPROTOOPT,
    };

    /// Reusable scratch arrays for one burst's FFI call, one entry per
    /// kernel message. The raw pointers inside are rebuilt from live
    /// buffers at the start of every burst and never dereferenced outside
    /// the call that wrote them, so moving the transport across threads
    /// *between* calls is sound.
    pub struct Scratch {
        pub tx_iov: Vec<IoVec>,
        pub tx_cmsg: Vec<UdpCmsg>,
        pub tx_msgs: Vec<MMsgHdr>,
        pub rx_iov: Vec<IoVec>,
        pub rx_cmsg: Vec<UdpCmsg>,
        pub rx_msgs: Vec<MMsgHdr>,
    }

    impl Scratch {
        /// Sized once at bind: `tx` messages per TX burst before the
        /// arrays grow, `rx` buffers posted per receive at most.
        pub fn with_capacity(tx: usize, rx: usize) -> Self {
            Self {
                tx_iov: Vec::with_capacity(tx),
                tx_cmsg: Vec::with_capacity(tx),
                tx_msgs: Vec::with_capacity(tx),
                rx_iov: Vec::with_capacity(rx),
                rx_cmsg: Vec::with_capacity(rx),
                rx_msgs: Vec::with_capacity(rx),
            }
        }
    }

    // SAFETY: the raw pointers in these arrays are scratch, not state —
    // each burst clears the arrays and rebuilds every pointer from
    // buffers owned by the same `UdpTransport` immediately before the
    // sendmmsg/recvmmsg call that consumes them, and nothing reads them
    // after that call returns. Moving `Scratch` to another thread between
    // bursts therefore never transports a live pointer, and the owning
    // transport is itself used from one thread at a time (`&mut self`).
    // The cmsg arrays hold plain integers.
    // COVERS: udp tx/rx burst tests (non-Miri; FFI)
    unsafe impl Send for Scratch {}
}

/// Largest packet RX hands up; anything longer is dropped and counted.
fn max_pkt(cfg: &UdpConfig) -> usize {
    cfg.mtu.max(64)
}

/// Where a peer's packets go, resolved once at `add_route`.
#[derive(Clone, Copy)]
struct Route {
    sock: SocketAddr,
    #[cfg(target_os = "linux")]
    raw: mmsg::RawAddr,
}

/// One kernel message of a TX burst: `pkts` packets to `dst`, contiguous
/// in `scratch` from `off`, each `seg` bytes except a possibly shorter
/// last one. On the lower rungs every run is one packet.
#[derive(Clone, Copy)]
struct Run {
    key: u32,
    dst: Route,
    off: usize,
    bytes: usize,
    seg: usize,
    pkts: usize,
}

impl Run {
    /// Byte length of packet `k`.
    #[inline]
    fn pkt_len(&self, k: usize) -> usize {
        if k + 1 < self.pkts {
            self.seg
        } else {
            self.bytes - k * self.seg
        }
    }
}

/// Run-building: append a gathered packet (`len` bytes at `off`, directly
/// behind the previous one) to the last run if the kernel can send the two
/// as one segmented message, else start a new run. Only *consecutive*
/// packets are grouped, so the order within a burst never changes.
/// `max_segs` is 1 below the segmented rung: every packet its own run.
#[inline]
fn run_push(
    runs: &mut Vec<Run>,
    key: u32,
    dst: &Route,
    off: usize,
    len: usize,
    max_segs: usize,
    mtu: usize,
) {
    if let Some(r) = runs.last_mut() {
        debug_assert_eq!(r.off + r.bytes, off, "runs are contiguous in scratch");
        if r.key == key
            && r.pkts < max_segs
            // A zero segment size means "do not segment" to the kernel,
            // and one above the MTU would be dropped by every receiver.
            && (1..=mtu).contains(&r.seg)
            // Same size, or a shorter last one — which closes the run.
            && len <= r.seg
            && r.bytes == r.pkts * r.seg
            && r.bytes + len <= MAX_RUN_BYTES
        {
            r.bytes += len;
            r.pkts += 1;
            return;
        }
    }
    runs.push(Run {
        key,
        dst: *dst,
        off,
        bytes: len,
        seg: len,
        pkts: 1,
    });
}

/// A [`Transport`] over a non-blocking UDP socket.
pub struct UdpTransport {
    addr: Addr,
    socket: UdpSocket,
    routes: HashMap<u32, Route>,
    cfg: UdpConfig,
    /// The rung TX runs on: `cfg.batching` lowered by the platform and by
    /// the probes.
    rung: UdpBatching,
    clock: MonoClock,
    /// RX buffers, one allocation: `rx_bufs` buffers of `rx_stride` bytes.
    /// Below the segmented rung a buffer is one byte larger than the
    /// largest packet so an oversized datagram is detectable (rather than
    /// silently truncated); with `UDP_GRO` on it is `GRO_BUF`.
    rx_arena: Box<[u8]>,
    rx_stride: usize,
    rx_bufs: usize,
    /// The socket has `UDP_GRO` on: receives carry cmsg room. Fixed at
    /// bind — peers may keep sending trains after our TX fell back.
    rx_gro: bool,
    /// `(len, segment size)` of each datagram received since the arena was
    /// last recycled; datagram `i` sits in buffer `i`.
    rx_dgrams: Vec<(u32, u32)>,
    /// Next packet to surface: datagram index and byte offset into it.
    /// Everything before it has been handed out as tokens or dropped.
    rx_cur: usize,
    rx_off: usize,
    /// Tokens handed out since the last `rx_release` may still be read.
    rx_lent: bool,
    /// One TX burst, gathered contiguously.
    scratch: Vec<u8>,
    runs: Vec<Run>,
    #[cfg(target_os = "linux")]
    mmsg: mmsg::Scratch,
    #[cfg(test)]
    fail_at: u8,
    stats: TransportStats,
}

impl UdpTransport {
    /// Bind `addr` to the given local socket address.
    pub fn bind(addr: Addr, local: SocketAddr, cfg: UdpConfig) -> std::io::Result<Self> {
        Self::bind_inner(addr, local, cfg, 0)
    }

    /// `fail_at` forces a probe stage to fail (`FAIL_*`; tests only).
    fn bind_inner(
        addr: Addr,
        local: SocketAddr,
        cfg: UdpConfig,
        fail_at: u8,
    ) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(local)?;
        socket.set_nonblocking(true)?;
        let mut stats = TransportStats::default();
        #[cfg(target_os = "linux")]
        let mut rung = cfg.batching;
        #[cfg(not(target_os = "linux"))]
        let (rung, _) = (UdpBatching::PerPacket, fail_at);
        #[allow(unused_mut)]
        let mut rx_gro = false;
        #[cfg(target_os = "linux")]
        if rung == UdpBatching::Segmented {
            use std::os::fd::AsRawFd;
            let refused = fail_at == FAIL_GRO || mmsg::set_udp_gro(socket.as_raw_fd()).is_err();
            if refused {
                rung = UdpBatching::Mmsg;
                stats.gso_fallbacks += 1;
            } else {
                rx_gro = true;
            }
        }
        let slot = max_pkt(&cfg) + 1;
        let (rx_stride, rx_bufs) = if rx_gro {
            // The same bytes as `ring_capacity` packet slots, but never so
            // few buffers that uncoalesced traffic starves a burst.
            let bufs = (cfg.ring_capacity * slot / GRO_BUF).max(MIN_GRO_BUFS);
            (GRO_BUF, bufs)
        } else {
            (slot, cfg.ring_capacity)
        };
        Ok(Self {
            addr,
            socket,
            routes: HashMap::new(),
            rung,
            clock: MonoClock::new(),
            rx_arena: vec![0u8; rx_stride * rx_bufs].into_boxed_slice(),
            rx_stride,
            rx_bufs,
            rx_gro,
            rx_dgrams: Vec::with_capacity(rx_bufs),
            rx_cur: 0,
            rx_off: 0,
            rx_lent: false,
            scratch: Vec::with_capacity(TX_RESERVE * cfg.mtu),
            runs: Vec::with_capacity(TX_RESERVE),
            #[cfg(target_os = "linux")]
            mmsg: mmsg::Scratch::with_capacity(TX_RESERVE, rx_bufs.min(cfg.rx_drain_cap)),
            #[cfg(test)]
            fail_at,
            cfg,
            stats,
        })
    }

    /// The socket address this transport is bound to.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// The ladder rung TX is on now: `UdpConfig::batching`, lowered off
    /// Linux and by a refused probe (`TransportStats::gso_fallbacks`).
    #[cfg(test)]
    fn rung(&self) -> UdpBatching {
        self.rung
    }

    /// Install the socket address for a peer endpoint id.
    pub fn add_route(&mut self, peer: Addr, at: SocketAddr) {
        let route = Route {
            sock: at,
            #[cfg(target_os = "linux")]
            raw: mmsg::RawAddr::from_sockaddr(&at),
        };
        self.routes.insert(peer.key(), route);
    }

    /// Remove a peer route (sends then count as `tx_drop_no_route`).
    pub fn remove_route(&mut self, peer: Addr) {
        self.routes.remove(&peer.key());
    }

    /// One `send_to` per packet of `run`, with per-packet error
    /// accounting: the whole `PerPacket` doorbell, and how the batched
    /// doorbell resolves a message the kernel refused.
    fn tx_run_per_packet(&mut self, run: &Run) {
        let mut off = run.off;
        for k in 0..run.pkts {
            let len = run.pkt_len(k);
            self.stats.tx_syscalls += 1;
            match self
                .socket
                .send_to(&self.scratch[off..off + len], run.dst.sock)
            {
                Ok(_) => {
                    self.stats.tx_pkts += 1;
                    self.stats.tx_msgs += 1;
                    self.stats.tx_bytes += len as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.stats.tx_drop_ring_full += 1;
                }
                Err(_) => {
                    // A route existed; the kernel refused the send for some
                    // other reason. Not a routing failure.
                    self.stats.tx_drop_err += 1;
                }
            }
            off += len;
        }
    }

    /// Portable doorbell: one `send_to` syscall per gathered packet.
    fn tx_doorbell_loop(&mut self) {
        for i in 0..self.runs.len() {
            let run = self.runs[i];
            self.tx_run_per_packet(&run);
        }
    }

    /// Batched doorbell: every run of the burst in one `sendmmsg`, one
    /// message per run, a multi-packet run carrying its `UDP_SEGMENT`
    /// size. A mid-batch failure is resolved with plain `send_to`s for
    /// that one run (precise per-packet error accounting), then the batch
    /// continues — the common case stays one syscall.
    #[cfg(target_os = "linux")]
    fn tx_doorbell_mmsg(&mut self) {
        use std::os::fd::AsRawFd;
        let n = self.runs.len();
        if n == 0 {
            return;
        }
        let sc = &mut self.mmsg;
        sc.tx_iov.clear();
        sc.tx_cmsg.clear();
        sc.tx_msgs.clear();
        for run in &self.runs {
            sc.tx_iov.push(mmsg::IoVec {
                base: self.scratch[run.off..].as_ptr() as *mut _,
                len: run.bytes,
            });
            let seg = run.seg as u16;
            // Test hook: a segment size no route can carry, so the kernel
            // itself refuses the message.
            #[cfg(test)]
            let seg = if self.fail_at == FAIL_SEGMENT_SEND {
                u16::MAX
            } else {
                seg
            };
            sc.tx_cmsg.push(mmsg::UdpCmsg::segment(seg));
        }
        // Pointer wiring only after every push: a reallocation above would
        // invalidate earlier element addresses.
        for (i, run) in self.runs.iter().enumerate() {
            let (control, controllen) = if run.pkts > 1 {
                (&mut sc.tx_cmsg[i] as *mut _ as *mut _, mmsg::UdpCmsg::SPACE)
            } else {
                (std::ptr::null_mut(), 0)
            };
            sc.tx_msgs.push(mmsg::MMsgHdr {
                hdr: mmsg::MsgHdr {
                    name: run.dst.raw.buf.as_ptr() as *mut _,
                    namelen: run.dst.raw.len,
                    iov: &mut sc.tx_iov[i] as *mut _,
                    iovlen: 1,
                    control,
                    controllen,
                    flags: 0,
                },
                len: 0,
            });
        }
        let fd = self.socket.as_raw_fd();
        let mut done = 0usize;
        while done < n {
            let msgs = &mut self.mmsg.tx_msgs[done..];
            // SAFETY: `fd` is the live socket; `msgs` was fully (re)built
            // above from buffers (`scratch`, `runs`, `tx_iov`, `tx_cmsg`)
            // that outlive the call and that nothing below this point
            // mutates — sendmmsg only reads through the name/iov/control
            // pointers and writes each message's `len`; vlen matches the
            // slice length.
            let r = unsafe {
                mmsg::sendmmsg(fd, msgs.as_mut_ptr(), msgs.len() as std::os::raw::c_uint, 0)
            };
            self.stats.tx_syscalls += 1;
            if r > 0 {
                for run in &self.runs[done..done + r as usize] {
                    self.stats.tx_pkts += run.pkts as u64;
                    self.stats.tx_bytes += run.bytes as u64;
                }
                self.stats.tx_msgs += r as u64;
                done += r as usize;
                continue;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() == ErrorKind::WouldBlock {
                // Send buffer full: every remaining packet would block.
                // Drop-and-count them all instead of paying a failing
                // sendmmsg + send_to pair per packet in exactly the
                // overload regime batching exists to relieve.
                let left: usize = self.runs[done..].iter().map(|r| r.pkts).sum();
                self.stats.tx_drop_ring_full += left as u64;
                break;
            }
            // The head message failed for a non-backpressure reason;
            // resolve its packets alone for precise accounting.
            let run = self.runs[done];
            if run.pkts > 1
                && self.rung == UdpBatching::Segmented
                && matches!(
                    err.raw_os_error(),
                    Some(mmsg::EINVAL | mmsg::EIO | mmsg::ENOPROTOOPT)
                )
            {
                // The kernel (or this route's device) cannot segment:
                // from the next burst on every packet is its own message.
                self.rung = UdpBatching::Mmsg;
                self.stats.gso_fallbacks += 1;
            }
            self.tx_run_per_packet(&run);
            done += 1;
        }
    }

    /// Portable receive: one `recv_from` syscall per datagram, at most
    /// `max` of them.
    fn rx_fill_loop(&mut self, max: usize) {
        // Budget is `max` *syscalls*, not `max` accepted packets: a flood
        // of dropped (oversized) datagrams must not let one burst drain
        // the socket unboundedly and stall the event-loop pass.
        for _ in 0..max {
            let buf = self.rx_dgrams.len();
            if buf >= self.rx_bufs {
                break;
            }
            let at = buf * self.rx_stride;
            self.stats.rx_syscalls += 1;
            match self
                .socket
                .recv_from(&mut self.rx_arena[at..at + self.rx_stride])
            {
                Ok((len, _src)) => {
                    self.stats.rx_msgs += 1;
                    self.rx_dgrams.push((len as u32, len as u32));
                }
                // WouldBlock (drained) or a socket error: stop either way.
                Err(_) => break,
            }
        }
    }

    /// Batched receive: one `recvmmsg` posting up to `max` free buffers,
    /// each landing one datagram — with `UDP_GRO` on, possibly a coalesced
    /// train whose segment size comes back in the message's cmsg.
    #[cfg(target_os = "linux")]
    fn rx_fill_mmsg(&mut self, max: usize) {
        use std::os::fd::AsRawFd;
        let first = self.rx_dgrams.len();
        let want = max.min(self.rx_bufs - first);
        if want == 0 {
            return;
        }
        let sc = &mut self.mmsg;
        sc.rx_iov.clear();
        sc.rx_cmsg.clear();
        sc.rx_msgs.clear();
        for k in 0..want {
            let at = (first + k) * self.rx_stride;
            sc.rx_iov.push(mmsg::IoVec {
                base: self.rx_arena[at..at + self.rx_stride].as_mut_ptr() as *mut _,
                len: self.rx_stride,
            });
            sc.rx_cmsg.push(mmsg::UdpCmsg::empty());
        }
        for k in 0..want {
            let (control, controllen) = if self.rx_gro {
                (&mut sc.rx_cmsg[k] as *mut _ as *mut _, mmsg::UdpCmsg::SPACE)
            } else {
                (std::ptr::null_mut(), 0)
            };
            sc.rx_msgs.push(mmsg::MMsgHdr {
                hdr: mmsg::MsgHdr {
                    // Sources are not consulted (routing is by eRPC
                    // address), so no name buffer.
                    name: std::ptr::null_mut(),
                    namelen: 0,
                    iov: &mut sc.rx_iov[k] as *mut _,
                    iovlen: 1,
                    control,
                    controllen,
                    flags: 0,
                },
                len: 0,
            });
        }
        let fd = self.socket.as_raw_fd();
        self.stats.rx_syscalls += 1;
        // SAFETY: `fd` is the live socket; `rx_msgs[..want]` was just
        // rebuilt to point one iovec each at distinct free `rx_stride`-byte
        // buffers of `rx_arena` (no token refers to them: they lie behind
        // every datagram received since the arena was recycled, which
        // happens only while no token is lent out) and, with
        // UDP_GRO on, one `UdpCmsg` each of `controllen` bytes; all stay
        // alive and unaliased for the duration of the call; a null timeout
        // is allowed by recvmmsg.
        let r = unsafe {
            mmsg::recvmmsg(
                fd,
                sc.rx_msgs.as_mut_ptr(),
                want as std::os::raw::c_uint,
                0,
                std::ptr::null_mut(),
            )
        };
        if r <= 0 {
            return; // WouldBlock or error: nothing received
        }
        for k in 0..r as usize {
            let len = sc.rx_msgs[k].len;
            let seg = sc.rx_cmsg[k]
                .gro_size(sc.rx_msgs[k].hdr.controllen)
                .map_or(len, |s| s as u32);
            self.rx_dgrams.push((len, seg));
        }
        self.stats.rx_msgs += r as u64;
    }

    /// Split received datagrams into packets: surface up to `max` tokens
    /// from the cursor on, a coalesced datagram yielding one per segment.
    /// What does not fit stays behind the cursor for the next call.
    fn rx_split(&mut self, max: usize, out: &mut Vec<RxToken>) -> usize {
        let seg_cap = max_pkt(&self.cfg);
        let mut n = 0;
        while n < max && self.rx_cur < self.rx_dgrams.len() {
            let (len, seg) = self.rx_dgrams[self.rx_cur];
            let (len, seg) = (len as usize, seg as usize);
            let take = seg.min(len - self.rx_off);
            if take > seg_cap {
                // Larger than the MTU (below the segmented rung: it filled
                // the whole mtu+1 buffer, so the kernel truncated it).
                // Handing it up would look like a corrupt packet; drop it
                // here and count it.
                self.stats.rx_drop_truncated += 1;
            } else {
                let at = self.rx_cur * self.rx_stride + self.rx_off;
                out.push(RxToken::new(at as u64, take as u32));
                self.stats.rx_pkts += 1;
                self.stats.rx_bytes += take as u64;
                n += 1;
            }
            self.rx_off += take;
            if self.rx_off >= len {
                self.rx_cur += 1;
                self.rx_off = 0;
            }
        }
        n
    }
}

impl Transport for UdpTransport {
    fn addr(&self) -> Addr {
        self.addr
    }

    fn mtu(&self) -> usize {
        self.cfg.mtu
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn tx_burst(&mut self, pkts: &[TxPacket<'_>]) {
        // Stage 1 — gather: resolve routes and copy every packet's
        // header+data into one contiguous scratch region, grouped into
        // runs. This mirrors a NIC driver building the whole descriptor
        // batch before ringing the doorbell: no syscall until the batch is
        // fully assembled.
        self.scratch.clear();
        self.runs.clear();
        let max_segs = if self.rung == UdpBatching::Segmented {
            MAX_RUN_SEGS
        } else {
            1
        };
        // Route lookup once per change of destination, not per packet.
        let mut resolved: Option<(u32, Route)> = None;
        for p in pkts {
            debug_assert!(p.len() <= self.cfg.mtu, "packet exceeds MTU");
            let key = p.dst.key();
            let route = match resolved {
                Some((k, route)) if k == key => route,
                _ => {
                    let Some(&route) = self.routes.get(&key) else {
                        self.stats.tx_drop_no_route += 1;
                        continue;
                    };
                    resolved = Some((key, route));
                    route
                }
            };
            let off = self.scratch.len();
            self.scratch.extend_from_slice(p.hdr);
            self.scratch.extend_from_slice(p.data);
            let len = self.scratch.len() - off;
            run_push(
                &mut self.runs,
                key,
                &route,
                off,
                len,
                max_segs,
                self.cfg.mtu,
            );
        }
        // Stage 2 — doorbell: one `sendmmsg` for the whole batch where the
        // kernel supports it, else per-packet syscalls back to back.
        #[cfg(target_os = "linux")]
        if self.rung != UdpBatching::PerPacket {
            self.tx_doorbell_mmsg();
            return;
        }
        self.tx_doorbell_loop();
    }

    fn tx_flush(&mut self) {
        // send_to is synchronous from userspace's point of view.
        self.stats.tx_flushes += 1;
    }

    fn rx_burst(&mut self, max: usize, out: &mut Vec<RxToken>) -> usize {
        // Fairness valve: never drain more than `rx_drain_cap` packets in
        // one call, no matter how large a burst the caller asks for.
        let effective = max.min(self.cfg.rx_drain_cap);
        // Packets carried over from an earlier receive go first; the
        // kernel is asked for more only once they are all handed out.
        if self.rx_cur == self.rx_dgrams.len() {
            // Recycle the arena unless a token still points into it. This
            // is the only place buffers are freed: a burst that yielded no
            // token (all dropped) is followed by no `rx_release`.
            if !self.rx_lent {
                self.rx_dgrams.clear();
                self.rx_cur = 0;
            }
            #[cfg(target_os = "linux")]
            if self.rung != UdpBatching::PerPacket {
                self.rx_fill_mmsg(effective);
            } else {
                self.rx_fill_loop(effective);
            }
            #[cfg(not(target_os = "linux"))]
            self.rx_fill_loop(effective);
        }
        let n = self.rx_split(effective, out);
        self.rx_lent |= n > 0;
        // The cap truncated a full drain: more datagrams may be queued,
        // but they wait for the next event-loop pass.
        if n == effective && effective < max {
            self.stats.rx_drain_capped += 1;
        }
        n
    }

    fn rx_bytes(&self, tok: &RxToken) -> &[u8] {
        &self.rx_arena[tok.slot as usize..][..tok.len as usize]
    }

    fn rx_release(&mut self) {
        // Every token is dead now. The next `rx_burst` recycles the arena
        // once all packets in it have been surfaced; a partly surfaced
        // datagram (and what lies behind it) stays until then.
        self.rx_lent = false;
    }

    fn stats(&self) -> &TransportStats {
        &self.stats
    }

    fn rx_ring_size(&self) -> usize {
        self.cfg.ring_capacity
    }
}

// Real sockets and `sendmmsg`/`recvmmsg` FFI — Miri cannot interpret
// foreign calls, so this module is compiled out under it (the ring and
// codec layers carry the Miri coverage instead).
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;

    const RUNGS: [UdpBatching; 3] = [
        UdpBatching::PerPacket,
        UdpBatching::Mmsg,
        UdpBatching::Segmented,
    ];

    fn on_rung(batching: UdpBatching) -> UdpConfig {
        UdpConfig {
            batching,
            ..UdpConfig::default()
        }
    }

    /// Node 0 with routes to nodes 1..=n, each with a route back.
    fn star(cfgs: &[UdpConfig], fail_at: u8) -> Vec<UdpTransport> {
        let mut ts: Vec<UdpTransport> = cfgs
            .iter()
            .enumerate()
            .map(|(i, cfg)| {
                UdpTransport::bind_inner(
                    Addr::new(i as u16, 0),
                    "127.0.0.1:0".parse().unwrap(),
                    cfg.clone(),
                    fail_at,
                )
                .unwrap()
            })
            .collect();
        let hub = ts[0].local_addr().unwrap();
        for i in 1..ts.len() {
            let at = ts[i].local_addr().unwrap();
            ts[0].add_route(Addr::new(i as u16, 0), at);
            ts[i].add_route(Addr::new(0, 0), hub);
        }
        ts
    }

    fn pair_with(cfg: UdpConfig) -> (UdpTransport, UdpTransport) {
        let mut ts = star(&[cfg.clone(), cfg], 0);
        let b = ts.pop().unwrap();
        (ts.pop().unwrap(), b)
    }

    fn loopback_pair() -> (UdpTransport, UdpTransport) {
        pair_with(UdpConfig::default())
    }

    /// Poll until `want` packets arrived (or give up), copying each out and
    /// releasing after every burst of at most `max`.
    fn drain(t: &mut UdpTransport, want: usize, max: usize) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        let mut toks = Vec::new();
        for _ in 0..20_000 {
            toks.clear();
            let n = t.rx_burst(max, &mut toks);
            assert!(n <= max, "rx_burst over-delivered: {n} > {max}");
            got.extend(toks.iter().map(|tok| t.rx_bytes(tok).to_vec()));
            t.rx_release();
            if got.len() >= want {
                break;
            }
            if n == 0 {
                std::thread::yield_now();
            }
        }
        got
    }

    fn pkts_to<'a>(dst: Addr, bodies: &'a [Vec<u8>]) -> Vec<TxPacket<'a>> {
        bodies
            .iter()
            .map(|body| TxPacket {
                dst,
                hdr: &body[..body.len().min(4)],
                data: &body[body.len().min(4)..],
            })
            .collect()
    }

    #[test]
    fn udp_pingpong() {
        let (mut a, mut b) = loopback_pair();
        a.tx_burst(&[TxPacket {
            dst: Addr::new(1, 0),
            hdr: b"hdr!",
            data: b"body",
        }]);
        // Loopback delivery is fast but not instant; poll briefly.
        let mut toks = Vec::new();
        for _ in 0..1000 {
            if b.rx_burst(8, &mut toks) > 0 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(toks.len(), 1, "datagram not delivered on loopback");
        assert_eq!(b.rx_bytes(&toks[0]), b"hdr!body");
        b.rx_release();
    }

    #[test]
    fn oversized_datagram_dropped_not_truncated() {
        for rung in RUNGS {
            let (a, mut b) = pair_with(on_rung(rung));
            let ba = b.local_addr().unwrap();
            drop(a);
            // Bypass the transport: a raw socket delivers a datagram larger
            // than the transport MTU (e.g. a mis-configured peer).
            let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
            let oversized = vec![0xEEu8; UdpConfig::default().mtu + 200];
            raw.send_to(&oversized, ba).unwrap();
            let mut toks = Vec::new();
            for _ in 0..1000 {
                if b.rx_burst(8, &mut toks) > 0 || b.stats().rx_drop_truncated > 0 {
                    break;
                }
                std::thread::yield_now();
            }
            assert_eq!(toks.len(), 0, "truncated datagram must not surface");
            assert_eq!(b.stats().rx_drop_truncated, 1);
            assert_eq!(b.stats().rx_pkts, 0);
            // No `rx_release`: core calls it only after a non-empty burst.
            // The transport still receives well-formed datagrams afterwards.
            let exact = vec![0x11u8; UdpConfig::default().mtu];
            raw.send_to(&exact, ba).unwrap();
            assert_eq!(drain(&mut b, 1, 8), vec![exact], "{rung:?}");
        }
    }

    /// Bursts that are dropped in full are followed by no `rx_release`
    /// (core's calling pattern); they must not pin RX buffers, or a few
    /// garbage datagrams would stop the transport receiving for good.
    #[test]
    fn dropped_bursts_do_not_pin_rx_buffers() {
        for rung in RUNGS {
            let cfg = UdpConfig {
                ring_capacity: 8,
                ..on_rung(rung)
            };
            let (a, mut b) = pair_with(cfg);
            let ba = b.local_addr().unwrap();
            drop(a);
            let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
            let oversized = vec![0xEEu8; UdpConfig::default().mtu + 200];
            let mut toks = Vec::new();
            // More garbage-only bursts than the transport has buffers.
            let rounds = b.rx_bufs as u64 + 8;
            for round in 1..=rounds {
                raw.send_to(&oversized, ba).unwrap();
                for _ in 0..10_000 {
                    assert_eq!(b.rx_burst(8, &mut toks), 0);
                    if b.stats().rx_drop_truncated == round {
                        break;
                    }
                    std::thread::yield_now();
                }
                assert_eq!(b.stats().rx_drop_truncated, round, "{rung:?}");
            }
            let good = vec![0x11u8; 64];
            raw.send_to(&good, ba).unwrap();
            assert_eq!(drain(&mut b, 1, 8), vec![good], "{rung:?}");
            // Tokens that were never released do pin their buffers.
            for i in 0..rounds {
                raw.send_to(&[i as u8; 32], ba).unwrap();
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
            let mut held = 0;
            for _ in 0..rounds {
                held += b.rx_burst(1, &mut toks);
            }
            assert_eq!(held, b.rx_bufs, "{rung:?}: every buffer lent, none reused");
            for (i, tok) in toks.iter().enumerate() {
                assert_eq!(b.rx_bytes(tok), &[i as u8; 32], "{rung:?}");
            }
        }
    }

    /// Traffic that never coalesces (here: one sender, every size
    /// different) costs the segmented rung no more RX syscalls per packet
    /// than the `recvmmsg` rung: one call claims twice core's `rx_batch`.
    #[cfg(target_os = "linux")]
    #[test]
    fn uncoalesced_flood_claimed_in_one_recvmmsg() {
        for rung in [UdpBatching::Mmsg, UdpBatching::Segmented] {
            let (a, mut b) = pair_with(on_rung(rung));
            let ba = b.local_addr().unwrap();
            drop(a);
            let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
            let bodies: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 20 + i as usize]).collect();
            for body in &bodies {
                raw.send_to(body, ba).unwrap();
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
            let mut toks = Vec::new();
            assert_eq!(b.rx_burst(64, &mut toks), 64, "{rung:?}");
            let got: Vec<Vec<u8>> = toks.iter().map(|t| b.rx_bytes(t).to_vec()).collect();
            assert_eq!(got, bodies, "{rung:?}");
            b.rx_release();
            let st = b.stats();
            assert_eq!((st.rx_syscalls, st.rx_msgs, st.rx_pkts), (1, 64, 64));
        }
    }

    #[test]
    fn tx_burst_gathers_batch() {
        let (mut a, mut b) = loopback_pair();
        let pkts: Vec<TxPacket<'_>> = (0..4)
            .map(|_| TxPacket {
                dst: Addr::new(1, 0),
                hdr: b"hdrX",
                data: b"body",
            })
            .collect();
        a.tx_burst(&pkts);
        assert_eq!(a.stats().tx_pkts, 4);
        let mut toks = Vec::new();
        for _ in 0..1000 {
            b.rx_burst(8, &mut toks);
            if toks.len() == 4 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(toks.len(), 4, "whole burst must be delivered");
        for t in &toks {
            assert_eq!(b.rx_bytes(t), b"hdrXbody");
        }
        b.rx_release();
    }

    #[test]
    fn udp_no_route() {
        let (mut a, _b) = loopback_pair();
        a.tx_burst(&[TxPacket {
            dst: Addr::new(9, 9),
            hdr: b"x",
            data: &[],
        }]);
        assert_eq!(a.stats().tx_drop_no_route, 1);
    }

    /// Deliver an 8-packet burst of growing sizes (no two can share a
    /// run) and return (tx stats, payloads).
    fn burst_roundtrip(cfg: UdpConfig) -> (TransportStats, Vec<Vec<u8>>) {
        let (mut a, mut b) = pair_with(cfg);
        let bodies: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 20 + i as usize]).collect();
        a.tx_burst(&pkts_to(Addr::new(1, 0), &bodies));
        assert_eq!(a.stats().tx_pkts, 8);
        let rx = drain(&mut b, 8, 32);
        assert_eq!(rx, bodies, "whole burst must arrive, in order");
        (a.stats().clone(), rx)
    }

    #[test]
    fn syscall_batched_burst_matches_per_packet_loop() {
        let (tx_l, data_l) = burst_roundtrip(on_rung(UdpBatching::PerPacket));
        // The loop pays one send syscall per packet.
        assert_eq!(tx_l.tx_syscalls, 8);
        for rung in [UdpBatching::Mmsg, UdpBatching::Segmented] {
            let (tx_b, data_b) = burst_roundtrip(on_rung(rung));
            // Identical bytes either way (UDP order is preserved on loopback).
            assert_eq!(data_b, data_l);
            assert_eq!(tx_b.tx_msgs, 8, "{rung:?}: unequal sizes never share a run");
            if cfg!(target_os = "linux") {
                assert_eq!(tx_b.tx_syscalls, 1, "sendmmsg must cover the whole burst");
            }
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn recvmmsg_claims_burst_in_one_syscall() {
        for rung in [UdpBatching::Mmsg, UdpBatching::Segmented] {
            let (mut a, mut b) = pair_with(on_rung(rung));
            let pkts: Vec<TxPacket<'_>> = (0..4)
                .map(|_| TxPacket {
                    dst: Addr::new(1, 0),
                    hdr: b"hdrX",
                    data: b"body",
                })
                .collect();
            a.tx_burst(&pkts);
            let mut toks = Vec::new();
            // Wait until all four datagrams are queued, then claim in one call.
            for _ in 0..10_000 {
                let before = b.stats().rx_syscalls;
                if b.rx_burst(32, &mut toks) == 4 {
                    assert_eq!(
                        b.stats().rx_syscalls,
                        before + 1,
                        "a full burst must cost one recvmmsg"
                    );
                    break;
                }
                b.rx_release();
                toks.clear();
                std::thread::yield_now();
            }
            assert_eq!(toks.len(), 4);
            for t in &toks {
                assert_eq!(b.rx_bytes(t), b"hdrXbody");
            }
            b.rx_release();
            if a.rung() == UdpBatching::Segmented {
                // Four equal packets to one peer: one skb each way.
                assert_eq!((a.stats().tx_msgs, a.stats().tx_pkts), (1, 4));
                assert_eq!((b.stats().rx_msgs, b.stats().rx_pkts), (1, 4));
            } else {
                assert_eq!(a.stats().tx_msgs, 4);
            }
        }
    }

    #[test]
    fn rx_drain_cap_bounds_one_burst() {
        for rung in RUNGS {
            let cfg = UdpConfig {
                rx_drain_cap: 2,
                ..on_rung(rung)
            };
            let (mut a, mut b) = pair_with(cfg);
            let pkts: Vec<TxPacket<'_>> = (0..6)
                .map(|_| TxPacket {
                    dst: Addr::new(1, 0),
                    hdr: b"dcap",
                    data: &[],
                })
                .collect();
            a.tx_burst(&pkts);
            // Wait until the flood is queued, then ask for far more than
            // the cap: one call must stop at 2 and count the early exit.
            let mut toks = Vec::new();
            let mut got = 0usize;
            let mut calls = 0usize;
            for _ in 0..10_000 {
                let n = b.rx_burst(32, &mut toks);
                assert!(n <= 2, "rx_drain_cap=2 exceeded: {n}");
                got += n;
                calls += 1;
                toks.clear();
                b.rx_release();
                if got == 6 {
                    break;
                }
                std::thread::yield_now();
            }
            assert_eq!(got, 6, "capped drain must still deliver everything");
            assert!(calls >= 3, "6 packets cannot fit fewer than 3 capped calls");
            assert!(
                b.stats().rx_drain_capped >= 2,
                "truncated drains must be counted ({rung:?})"
            );
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mmsg_oversized_datagram_dropped_mid_burst() {
        for rung in [UdpBatching::Mmsg, UdpBatching::Segmented] {
            let (a, mut b) = pair_with(on_rung(rung));
            let ba = b.local_addr().unwrap();
            drop(a);
            let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
            // good, oversized, good — the middle one must be skipped while
            // its neighbors still surface.
            raw.send_to(&[0x11u8; 64], ba).unwrap();
            raw.send_to(&vec![0xEEu8; UdpConfig::default().mtu + 200], ba)
                .unwrap();
            raw.send_to(&[0x22u8; 64], ba).unwrap();
            let got = drain(&mut b, 2, 32);
            assert_eq!(got, vec![vec![0x11u8; 64], vec![0x22u8; 64]]);
            assert_eq!(b.stats().rx_drop_truncated, 1);
        }
    }

    /// (a) Two destinations interleaved, three sizes, a short tail: every
    /// rung delivers the same bytes in the same per-destination order.
    #[test]
    fn mixed_burst_is_byte_identical_on_every_rung() {
        let body = |tag: u8, len: usize| -> Vec<u8> {
            (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
        };
        // (destination, body): runs of 3, 2 (short tail), 1, 2, 1, 1.
        let plan: Vec<(u16, Vec<u8>)> = vec![
            (1, body(1, 48)),
            (1, body(2, 48)),
            (1, body(3, 48)),
            (2, body(4, 48)),
            (2, body(5, 20)),
            (1, body(6, 300)),
            (2, body(7, 300)),
            (2, body(8, 300)),
            (1, body(9, 20)),
            (1, body(10, 48)),
        ];
        let mut reference: Option<[Vec<Vec<u8>>; 2]> = None;
        for rung in RUNGS {
            let cfg = on_rung(rung);
            let mut ts = star(&[cfg.clone(), cfg.clone(), cfg], 0);
            let pkts: Vec<TxPacket<'_>> = plan
                .iter()
                .map(|(node, body)| TxPacket {
                    dst: Addr::new(*node, 0),
                    hdr: &body[..16],
                    data: &body[16..],
                })
                .collect();
            ts[0].tx_burst(&pkts);
            let st = ts[0].stats().clone();
            assert_eq!(st.tx_pkts, 10, "{rung:?}");
            if ts[0].rung() == UdpBatching::Segmented {
                assert_eq!(st.tx_msgs, 6, "runs: 3+2+1+2+1+1");
                assert_eq!(st.tx_syscalls, 1);
            } else {
                assert_eq!(st.tx_msgs, 10, "{rung:?}");
            }
            let got = [drain(&mut ts[1], 6, 32), drain(&mut ts[2], 4, 32)];
            for (node, rx) in got.iter().enumerate() {
                let want: Vec<&Vec<u8>> = plan
                    .iter()
                    .filter(|(n, _)| *n as usize == node + 1)
                    .map(|(_, b)| b)
                    .collect();
                assert_eq!(rx.iter().collect::<Vec<_>>(), want, "{rung:?} node {node}");
            }
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(&got, r, "{rung:?} differs from the per-packet loop"),
            }
        }
    }

    /// (b) Runs split at the kernel's limits: 64 segments, 65 507 bytes.
    #[cfg(target_os = "linux")]
    #[test]
    fn long_runs_split_at_kernel_limits() {
        let (mut a, mut b) = loopback_pair();
        if a.rung() != UdpBatching::Segmented {
            return; // kernel without UDP_GRO: nothing to split
        }
        let small: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i; 48]).collect();
        a.tx_burst(&pkts_to(Addr::new(1, 0), &small));
        assert_eq!(
            (a.stats().tx_pkts, a.stats().tx_msgs, a.stats().tx_syscalls),
            (100, 2, 1),
            "100 equal packets = runs of 64 + 36 in one sendmmsg"
        );
        assert_eq!(drain(&mut b, 100, 512), small);
        // 64 MTU-sized packets are 66 560 B: 62 fit under 65 507, 2 follow.
        let mtu = UdpConfig::default().mtu;
        let big: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; mtu]).collect();
        a.tx_burst(&pkts_to(Addr::new(1, 0), &big));
        assert_eq!(
            (a.stats().tx_pkts, a.stats().tx_msgs, a.stats().tx_syscalls),
            (164, 4, 2)
        );
        assert_eq!(drain(&mut b, 64, 512), big);
        assert_eq!(a.stats().gso_fallbacks + b.stats().gso_fallbacks, 0);
        assert_eq!(b.stats().rx_pkts, 164);
        assert_eq!(b.stats().rx_msgs, 4, "received as the four skbs sent");
    }

    /// (c) A coalesced datagram with more packets than the caller asks
    /// for is carried over, across `rx_release`, without another syscall.
    #[cfg(target_os = "linux")]
    #[test]
    fn coalesced_datagram_carries_over_small_bursts() {
        for cap in [512, 8] {
            let cfg = UdpConfig {
                rx_drain_cap: cap,
                ..UdpConfig::default()
            };
            let (mut a, mut b) = pair_with(cfg);
            if a.rung() != UdpBatching::Segmented {
                return;
            }
            let bodies: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 48]).collect();
            a.tx_burst(&pkts_to(Addr::new(1, 0), &bodies));
            assert_eq!(a.stats().tx_msgs, 1);
            // `max` = 8 directly, or 64 capped to 8 by `rx_drain_cap`.
            let max = if cap == 8 { 64 } else { 8 };
            let mut toks = Vec::new();
            while b.rx_burst(max, &mut toks) == 0 {
                std::thread::yield_now();
            }
            let syscalls = b.stats().rx_syscalls;
            let mut got = Vec::new();
            for call in 0..4 {
                if call > 0 {
                    assert_eq!(b.rx_burst(max, &mut toks), 8, "call {call}");
                }
                assert_eq!(toks.len(), 8);
                got.extend(toks.iter().map(|t| b.rx_bytes(t).to_vec()));
                toks.clear();
                b.rx_release();
            }
            assert_eq!(got, bodies);
            assert_eq!(
                b.stats().rx_syscalls,
                syscalls,
                "carry-over costs no syscall"
            );
            assert_eq!((b.stats().rx_msgs, b.stats().rx_pkts), (1, 32));
            assert_eq!(b.stats().rx_drain_capped, if cap == 8 { 4 } else { 0 });
            assert_eq!(b.rx_burst(max, &mut toks), 0, "nothing is delivered twice");
        }
    }

    /// (d) A segment above the receiver's MTU is dropped and counted; the
    /// other packets of the same and neighbouring datagrams surface.
    #[cfg(target_os = "linux")]
    #[test]
    fn over_mtu_segment_dropped_neighbours_surface() {
        let wide = UdpConfig {
            mtu: 1400,
            ..UdpConfig::default()
        };
        let mut ts = star(&[wide, UdpConfig::default()], 0);
        let mut b = ts.pop().unwrap();
        let mut a = ts.pop().unwrap();
        if a.rung() != UdpBatching::Segmented {
            return;
        }
        // Runs: [64], [1400, 1400, 64 (short tail)], [64].
        let bodies: Vec<Vec<u8>> = [64usize, 1400, 1400, 64, 64]
            .iter()
            .enumerate()
            .map(|(i, &len)| vec![i as u8; len])
            .collect();
        let mut pkts = pkts_to(Addr::new(1, 0), &bodies);
        // A different header length keeps the last packet out of the run
        // it would otherwise extend; the bytes on the wire are the same.
        pkts[4].hdr = &bodies[4][..2];
        pkts[4].data = &bodies[4][2..];
        a.tx_burst(&pkts[..4]);
        a.tx_burst(&pkts[4..]);
        assert_eq!((a.stats().tx_pkts, a.stats().tx_msgs), (5, 3));
        let got = drain(&mut b, 3, 32);
        assert_eq!(
            got,
            vec![bodies[0].clone(), bodies[3].clone(), bodies[4].clone()]
        );
        assert_eq!(b.stats().rx_drop_truncated, 2);
        assert_eq!(b.stats().rx_pkts, 3);
    }

    /// (e) With either probe stage forced to fail the transport runs on
    /// the `sendmmsg` rung: same bytes, one message per packet.
    #[cfg(target_os = "linux")]
    #[test]
    fn forced_probe_failure_falls_back_to_sendmmsg() {
        let bodies: Vec<Vec<u8>> = (0..40u8)
            .map(|i| vec![i; if i % 8 == 7 { 20 } else { 48 }])
            .collect();
        let run = |cfg: UdpConfig, fail_at: u8| {
            let mut ts = star(&[cfg.clone(), cfg], fail_at);
            let mut b = ts.pop().unwrap();
            let mut a = ts.pop().unwrap();
            // Two bursts: the fallback must hold after the refusal.
            a.tx_burst(&pkts_to(Addr::new(1, 0), &bodies[..16]));
            a.tx_burst(&pkts_to(Addr::new(1, 0), &bodies[16..]));
            let got = drain(&mut b, bodies.len(), 32);
            (a.rung(), a.stats().clone(), got)
        };
        let (rung, mmsg, reference) = run(on_rung(UdpBatching::Mmsg), 0);
        assert_eq!(rung, UdpBatching::Mmsg);
        assert_eq!(reference, bodies);
        assert_eq!(
            (mmsg.tx_msgs, mmsg.tx_syscalls, mmsg.gso_fallbacks),
            (40, 2, 0)
        );

        let (rung, st, got) = run(UdpConfig::default(), FAIL_GRO);
        assert_eq!(rung, UdpBatching::Mmsg);
        assert_eq!(got, reference);
        // Refused at bind: the sendmmsg rung from the first packet on.
        assert_eq!((st.tx_msgs, st.tx_syscalls, st.gso_fallbacks), (40, 2, 1));

        let (rung, st, got) = run(UdpConfig::default(), FAIL_SEGMENT_SEND);
        if st.gso_fallbacks == 0 {
            return; // kernel without UDP_GRO: never reached the send probe
        }
        assert_eq!(rung, UdpBatching::Mmsg);
        assert_eq!(
            got, reference,
            "refused runs are resent per packet, in order"
        );
        assert_eq!((st.tx_pkts, st.tx_msgs, st.gso_fallbacks), (40, 40, 1));
        assert_eq!(st.tx_drop_err, 0);
    }
}
