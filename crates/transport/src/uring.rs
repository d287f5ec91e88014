//! The io_uring probe: could this kernel run an io_uring UDP datapath?
//!
//! There is no io_uring datapath: [`crate::UdpTransport`] is the one
//! kernel socket backend (DESIGN.md § "Transport backends" records why).
//! [`IoUringTransport::probe`] stays because the benchmark prints its
//! answer. It climbs the ladder such a datapath would construct, with the
//! geometry it would use: socket → `io_uring_setup` → `FEAT_SINGLE_MMAP`
//! → ring mmaps → provided-buffer ring (5.19) → multishot `RECVMSG` (6.0)
//! armed on the socket, which it then cancels and waits out. Each rung
//! maps to a typed [`UringError::Unavailable`]; RAII guards hold every fd
//! and mapping, so a failure at any rung releases what the rungs below
//! took. Raw FFI by syscall number with hand-laid structs, no liburing.

use std::net::UdpSocket;
use std::os::fd::IntoRawFd;
use std::os::raw::{c_int, c_long, c_void};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use crate::rawsock::MsgHdr;

/// The frozen handle of the probe. It has no values: there is no io_uring
/// transport to construct, only [`IoUringTransport::probe`] to ask.
#[derive(Debug)]
pub enum IoUringTransport {}

/// Why the io_uring probe failed.
#[derive(Debug)]
pub enum UringError {
    /// io_uring is missing, denied, or too old on this kernel. The
    /// `stage` names the probe rung that failed and `errno` the kernel's
    /// answer.
    Unavailable { stage: &'static str, errno: i32 },
    /// Plain socket setup failed (bind, etc.) — not an io_uring problem.
    Io(std::io::Error),
}

impl std::fmt::Display for UringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UringError::Unavailable { stage, errno } => {
                write!(f, "io_uring unavailable at {stage} (errno {errno})")
            }
            UringError::Io(e) => write!(f, "socket setup failed: {e}"),
        }
    }
}

impl std::error::Error for UringError {}

// ── Hand-laid kernel ABI ────────────────────────────────────────────────
//
// Syscall numbers, flags, and the structs the probe passes, laid out by
// hand against `linux/io_uring.h`; the assertions below pin their layout.
// The syscall numbers are asm-generic (x86-64 and aarch64 agree).

const SYS_IO_URING_SETUP: c_long = 425;
const SYS_IO_URING_ENTER: c_long = 426;
const SYS_IO_URING_REGISTER: c_long = 427;
const IORING_SETUP_CQSIZE: u32 = 1 << 3;
const IORING_SETUP_CLAMP: u32 = 1 << 4;
const IORING_FEAT_SINGLE_MMAP: u32 = 1 << 0;
const IORING_OFF_SQ_RING: i64 = 0;
const IORING_OFF_SQES: i64 = 0x1000_0000;
const IORING_ENTER_GETEVENTS: u32 = 1 << 0;
const IORING_REGISTER_PBUF_RING: u32 = 22;
const IORING_UNREGISTER_PBUF_RING: u32 = 23;

const IORING_OP_RECVMSG: u8 = 10;
const IORING_OP_ASYNC_CANCEL: u8 = 14;
/// `sqe.ioprio` flag: keep the recv armed across completions.
const IORING_RECV_MULTISHOT: u16 = 1 << 1;
/// `sqe.flags` bit: pick the buffer from the registered group.
const IOSQE_BUFFER_SELECT: u8 = 1 << 5;
const IORING_CQE_F_MORE: u32 = 1 << 1;

const EINTR: i32 = 4;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_SHARED: c_int = 0x01;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_POPULATE: c_int = 0x8000;

/// `struct io_sqring_offsets`.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
struct SqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    flags: u32,
    dropped: u32,
    array: u32,
    resv1: u32,
    user_addr: u64,
}

/// `struct io_cqring_offsets`.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
struct CqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    overflow: u32,
    cqes: u32,
    flags: u32,
    resv1: u32,
    user_addr: u64,
}

/// `struct io_uring_params`.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
struct UringParams {
    sq_entries: u32,
    cq_entries: u32,
    flags: u32,
    sq_thread_cpu: u32,
    sq_thread_idle: u32,
    features: u32,
    wq_fd: u32,
    resv: [u32; 3],
    sq_off: SqringOffsets,
    cq_off: CqringOffsets,
}

/// `struct io_uring_sqe` (64-byte base form, unions collapsed).
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
struct Sqe {
    opcode: u8,
    flags: u8,
    ioprio: u16,
    fd: i32,
    off: u64,
    addr: u64,
    len: u32,
    op_flags: u32,
    user_data: u64,
    buf_group: u16,
    personality: u16,
    splice_fd_in: i32,
    addr3: u64,
    pad2: u64,
}

/// `struct io_uring_buf`: one provided-buffer descriptor in the ring.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct BufDesc {
    addr: u64,
    len: u32,
    bid: u16,
    resv: u16,
}

/// `struct io_uring_buf_reg`: argument of `IORING_REGISTER_PBUF_RING`.
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
struct BufReg {
    ring_addr: u64,
    ring_entries: u32,
    bgid: u16,
    flags: u16,
    resv: [u64; 3],
}

const _: () = {
    use std::mem::{offset_of, size_of};
    assert!(size_of::<UringParams>() == 120 && size_of::<Sqe>() == 64);
    assert!(size_of::<BufDesc>() == 16 && size_of::<BufReg>() == 40);
    assert!(offset_of!(UringParams, features) == 20);
    assert!(offset_of!(UringParams, sq_off) == 40 && offset_of!(UringParams, cq_off) == 80);
    assert!(offset_of!(SqringOffsets, array) == 24 && offset_of!(CqringOffsets, cqes) == 20);
    assert!(offset_of!(Sqe, user_data) == 32 && offset_of!(Sqe, buf_group) == 40);
};

extern "C" {
    fn syscall(num: c_long, ...) -> c_long;
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn close(fd: c_int) -> c_int;
}

// ── Geometry: what a datapath with the default sizes would ask for ──────

const MTU: usize = 1040;
/// Provided RX buffers, one per buffer-ring entry.
const RX_BUFS: u32 = 1024;
const TX_DEPTH: u32 = 256;
const SQ_ENTRIES: u32 = (TX_DEPTH + 8).next_power_of_two();
const CQ_ENTRIES: u32 = ((RX_BUFS + TX_DEPTH) * 2).next_power_of_two();
/// One RX buffer: the kernel's 16-byte `io_uring_recvmsg_out` header,
/// then the payload and one byte that detects an oversized datagram.
const RX_BUF_LEN: usize = 16 + MTU + 1;
/// `user_data` tags of the probe's two SQEs.
const UD_RX: u64 = 1;
const UD_CANCEL: u64 = 2;

fn last_errno() -> i32 {
    std::io::Error::last_os_error().raw_os_error().unwrap_or(-1)
}

fn unavailable(stage: &'static str, errno: i32) -> UringError {
    UringError::Unavailable { stage, errno }
}

// Test builds keep a per-thread ledger of the fds and mappings the probe
// acquired and still holds, so the leak tests see the probe's own
// resources and nothing a concurrently running test opens.
#[cfg(test)]
thread_local! {
    static LEDGER: std::cell::Cell<(u32, i32)> = const { std::cell::Cell::new((0, 0)) };
}

/// Count one acquisition (`+1`) or one successful release (`-1`).
fn note(delta: i32) {
    #[cfg(test)]
    LEDGER.with(|l| {
        let (acquired, held) = l.get();
        l.set((acquired + u32::from(delta > 0), held + delta));
    });
    #[cfg(not(test))]
    let _ = delta;
}

/// An owned fd; closed on drop (an RAII guard, like [`Mapping`]).
struct Fd(i32);

impl Fd {
    fn own(fd: i32) -> Self {
        note(1);
        Self(fd)
    }
}

impl Drop for Fd {
    fn drop(&mut self) {
        // SAFETY: `self.0` is an fd this guard owns exclusively (the
        // socket's, released by `into_raw_fd`, or io_uring_setup's), never
        // duplicated; closing it once here is its only close.
        // COVERS: probe_failure_leaks_nothing, full_construction_does_not_leak_on_drop
        if unsafe { close(self.0) } == 0 {
            note(-1);
        }
    }
}

/// One mmap'd region; unmapped on drop.
struct Mapping {
    ptr: *mut u8,
    len: usize,
}

impl Mapping {
    /// Map `len` bytes of the ring `fd` at `offset`, or anonymous zeroed
    /// pages (page-aligned, as a buffer ring requires) when `fd` is -1.
    fn new(len: usize, fd: i32, offset: i64) -> Option<Self> {
        let flags = if fd < 0 {
            MAP_PRIVATE | MAP_ANONYMOUS
        } else {
            MAP_SHARED | MAP_POPULATE
        };
        let (any, prot) = (std::ptr::null_mut(), PROT_READ | PROT_WRITE);
        // SAFETY: a fresh mapping at any address the kernel chooses; no
        // existing memory is touched, and MAP_FAILED is checked below and
        // never dereferenced.
        // COVERS: probe_failure_leaks_nothing, full_construction_does_not_leak_on_drop
        let p = unsafe { mmap(any, len, prot, flags, fd, offset) };
        if p as isize == -1 {
            return None;
        }
        note(1);
        Some(Self { ptr: p.cast(), len })
    }

    /// The kernel-shared `u32` ring word at byte `off`.
    fn u32_at(&self, off: u32) -> &AtomicU32 {
        let off = off as usize;
        assert!(off.is_multiple_of(4) && off + 4 <= self.len);
        // SAFETY: in bounds and 4-aligned (the mapping is page-aligned),
        // alive as long as `&self`; `AtomicU32` is valid for every bit
        // pattern, and the kernel's side of a ring word is atomic too.
        // COVERS: full_construction_does_not_leak_on_drop
        unsafe { &*(self.ptr.wrapping_add(off) as *const AtomicU32) }
    }

    /// Write `v` at byte `off`: an SQE or buffer-ring entry the kernel
    /// does not read until it is published.
    fn write<T: Copy>(&self, off: usize, v: T) {
        assert!(off + std::mem::size_of::<T>() <= self.len);
        // SAFETY: in bounds (checked above) of memory this guard owns;
        // unaligned write of plain bytes, into a slot the kernel does not
        // read until it is published.
        // COVERS: full_construction_does_not_leak_on_drop
        unsafe { (self.ptr.wrapping_add(off) as *mut T).write_unaligned(v) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly what mmap returned for this
        // guard; unmapped once, here.
        // COVERS: probe_failure_leaks_nothing, full_construction_does_not_leak_on_drop
        if unsafe { munmap(self.ptr as *mut _, self.len) } == 0 {
            note(-1);
        }
    }
}

/// `io_uring_enter` (submit SQEs, wait for CQEs), retrying EINTR.
fn enter(fd: i32, submit: u32, wait: u32, flags: u32) -> i64 {
    let sig = std::ptr::null_mut::<c_void>();
    loop {
        // SAFETY: `fd` is a live ring; no pointer arguments are passed
        // (sig = null); submitted SQEs were fully written before the
        // Release tail store that published them.
        // COVERS: full_construction_does_not_leak_on_drop
        let r = unsafe { syscall(SYS_IO_URING_ENTER, fd, submit, wait, flags, sig, 0usize) };
        if r >= 0 || last_errno() != EINTR {
            return r;
        }
    }
}

/// `io_uring_register` with one `BufReg` argument. Returns the raw result.
fn register(fd: i32, op: u32, reg: &BufReg) -> i64 {
    // SAFETY: (UN)REGISTER_PBUF_RING reads one live `BufReg` (layout
    // pinned); nr_args is 1 per the ABI. The ring it registers is a
    // page-aligned mapping of `ring_entries * 16` bytes that outlives the
    // registration.
    // COVERS: probe_failure_leaks_nothing, full_construction_does_not_leak_on_drop
    unsafe { syscall(SYS_IO_URING_REGISTER, fd, op, reg as *const BufReg, 1u32) }
}

/// The SQ and CQ of a mapped ring, as the probe drives them: SQE `n` goes
/// in slot `n`, completions are read in order.
struct Ring<'a> {
    fd: i32,
    rings: &'a Mapping,
    sqes: &'a Mapping,
    p: &'a UringParams,
    submitted: u32,
    cq_head: u32,
}

impl Ring<'_> {
    /// Publish one SQE and submit it. True if the kernel took it.
    fn submit(&mut self, sqe: Sqe) -> bool {
        let slot = self.submitted & (self.p.sq_entries - 1);
        self.sqes.write(slot as usize * 64, sqe);
        let array = self.rings.u32_at(self.p.sq_off.array + 4 * slot);
        array.store(slot, Ordering::Relaxed);
        self.submitted += 1;
        let tail = self.rings.u32_at(self.p.sq_off.tail);
        tail.store(self.submitted, Ordering::Release);
        enter(self.fd, 1, 0, 0) == 1
    }

    /// The next completion's `(user_data, res, flags)` (`struct
    /// io_uring_cqe`, 16 bytes), read word by word.
    fn next_cqe(&mut self) -> Option<(u64, i32, u32)> {
        let tail = self.rings.u32_at(self.p.cq_off.tail);
        if tail.load(Ordering::Acquire) == self.cq_head {
            return None;
        }
        let at = self.p.cq_off.cqes + (self.cq_head & (self.p.cq_entries - 1)) * 16;
        let word = |i: u32| self.rings.u32_at(at + 4 * i).load(Ordering::Relaxed);
        let (lo, hi) = (word(0) as u64, word(1) as u64);
        let cqe = (lo | hi << 32, word(2) as i32, word(3));
        self.cq_head = self.cq_head.wrapping_add(1);
        let head = self.rings.u32_at(self.p.cq_off.head);
        head.store(self.cq_head, Ordering::Release);
        Some(cqe)
    }

    /// Cancel the armed multishot receive and wait for its last
    /// completion, after which the kernel writes no RX buffer. False if
    /// it did not come within the bound.
    fn cancel_rx(&mut self) -> bool {
        self.submit(Sqe {
            opcode: IORING_OP_ASYNC_CANCEL,
            fd: -1,
            addr: UD_RX,
            user_data: UD_CANCEL,
            ..Sqe::default()
        });
        let deadline = Instant::now() + Duration::from_millis(500);
        loop {
            while let Some((user_data, _, flags)) = self.next_cqe() {
                if user_data == UD_RX && flags & IORING_CQE_F_MORE == 0 {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            enter(self.fd, 0, 1, IORING_ENTER_GETEVENTS);
        }
    }
}

impl IoUringTransport {
    /// `Ok(())` iff this kernel grants every rung an io_uring UDP datapath
    /// would need (see the module docs); otherwise the first rung that
    /// failed. Leaves no fd, mapping or armed request behind.
    pub fn probe() -> Result<(), UringError> {
        ladder(0)
    }
}

/// The probe. `fail_at` forces a failure after rung N (tests drive the
/// cleanup paths with it; 0 = never).
fn ladder(fail_at: u8) -> Result<(), UringError> {
    let failed = |stage| unavailable(stage, last_errno());
    let forced = |stage| Err(unavailable(stage, 0));

    let socket = UdpSocket::bind("127.0.0.1:0").map_err(UringError::Io)?;
    socket.set_nonblocking(true).map_err(UringError::Io)?;
    let sock = Fd::own(socket.into_raw_fd());

    // Rung 1: io_uring_setup. ENOSYS = compiled out, EPERM/EACCES =
    // seccomp-denied (common in CI containers), EINVAL = flags or sizes
    // this kernel cannot do.
    let mut p = UringParams {
        flags: IORING_SETUP_CLAMP | IORING_SETUP_CQSIZE,
        cq_entries: CQ_ENTRIES,
        ..UringParams::default()
    };
    // SAFETY: io_uring_setup reads and writes `p` (a live UringParams,
    // layout pinned at compile time) and nothing else.
    // COVERS: probe_failure_leaks_nothing, full_construction_does_not_leak_on_drop
    let r = unsafe { syscall(SYS_IO_URING_SETUP, SQ_ENTRIES, &mut p as *mut UringParams) };
    if r < 0 {
        return Err(failed("io_uring_setup"));
    }
    let ring_fd = Fd::own(r as i32);
    if fail_at == 1 {
        return forced("forced-after-setup");
    }

    // Rung 2: feature floor (single mmap, 5.4; rung 5 needs 6.0 anyway).
    if p.features & IORING_FEAT_SINGLE_MMAP == 0 {
        return Err(unavailable("feat-single-mmap", 0));
    }

    // Rung 3: map the rings (SQ and CQ share one mapping).
    let sq_len = p.sq_off.array as usize + p.sq_entries as usize * 4;
    let cq_len = p.cq_off.cqes as usize + p.cq_entries as usize * 16;
    let rings = Mapping::new(sq_len.max(cq_len), ring_fd.0, IORING_OFF_SQ_RING)
        .ok_or_else(|| failed("mmap-rings"))?;
    let sqes = Mapping::new(p.sq_entries as usize * 64, ring_fd.0, IORING_OFF_SQES)
        .ok_or_else(|| failed("mmap-sqes"))?;
    if fail_at == 2 {
        return forced("forced-after-mmap");
    }

    // Rung 4: register the provided-buffer ring (5.19+), filled first: the
    // tail (bytes 14..16, entry 0's `resv`) past the last buffer. The
    // kernel reads the ring only after the register syscall.
    let buf_ring = Mapping::new((RX_BUFS as usize * 16).max(4096), -1, 0)
        .ok_or_else(|| failed("mmap-buf-ring"))?;
    let mut bufs = vec![0u8; RX_BUFS as usize * RX_BUF_LEN];
    for bid in 0..RX_BUFS as usize {
        let desc = BufDesc {
            addr: bufs.as_mut_ptr().wrapping_add(bid * RX_BUF_LEN) as u64,
            len: RX_BUF_LEN as u32,
            bid: bid as u16,
            resv: 0,
        };
        buf_ring.write(bid * 16, desc);
    }
    buf_ring.write(14, RX_BUFS as u16);
    let reg = BufReg {
        ring_addr: buf_ring.ptr as u64,
        ring_entries: RX_BUFS,
        ..BufReg::default()
    };
    if register(ring_fd.0, IORING_REGISTER_PBUF_RING, &reg) < 0 {
        return Err(failed("register-pbuf-ring"));
    }
    if fail_at == 3 {
        return forced("forced-after-register");
    }

    // Rung 5: arm the multishot recvmsg (the kernel copies `msg`). Pre-6.0
    // kernels reject IORING_RECV_MULTISHOT with an immediate -EINVAL CQE;
    // on success no CQE appears (the request parks in poll).
    let msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: std::ptr::null_mut(),
        iovlen: 0,
        control: std::ptr::null_mut(),
        controllen: 0,
        flags: 0,
    };
    let mut ring = Ring {
        fd: ring_fd.0,
        rings: &rings,
        sqes: &sqes,
        p: &p,
        submitted: 0,
        cq_head: 0,
    };
    let taken = ring.submit(Sqe {
        opcode: IORING_OP_RECVMSG,
        flags: IOSQE_BUFFER_SELECT,
        ioprio: IORING_RECV_MULTISHOT,
        fd: sock.0,
        addr: &msg as *const MsgHdr as u64,
        len: 1,
        user_data: UD_RX,
        ..Sqe::default()
    });
    let armed = match ring.next_cqe() {
        Some((UD_RX, res, _)) if res < 0 => Err(unavailable("multishot-recvmsg", -res)),
        _ if !taken => Err(unavailable("sqpoll-submit-timeout", 0)),
        _ => Ok(()),
    };
    if armed.is_ok() && !ring.cancel_rx() {
        // The kernel may still write into the buffers: leak them rather
        // than free them under its feet.
        std::mem::forget(bufs);
    }
    register(ring_fd.0, IORING_UNREGISTER_PBUF_RING, &BufReg::default());
    armed?;
    if fail_at == 4 {
        return forced("forced-after-arm");
    }
    Ok(())
}

// Real sockets and FFI, which Miri cannot run: compiled out under it.
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Each forced rung: its stage string, and how many fds and mappings
    /// it holds when it fails (socket and ring fds, two ring mappings,
    /// the buffer ring).
    const FORCED: [(u8, &str, u32); 4] = [
        (1, "forced-after-setup", 2),
        (2, "forced-after-mmap", 4),
        (3, "forced-after-register", 5),
        (4, "forced-after-arm", 5),
    ];

    #[test]
    fn probe_unavailable_is_typed_not_panic() {
        // Forcing any rung to fail returns the typed error, never a panic;
        // where the kernel grants io_uring, it names the forced rung.
        let granted = IoUringTransport::probe().is_ok();
        for (at, name, _) in FORCED {
            match ladder(at) {
                Err(UringError::Unavailable { stage, .. }) => {
                    assert!(!granted || stage == name, "rung {at}: {stage}");
                }
                Err(UringError::Io(e)) => panic!("rung {at}: wrong error class: {e}"),
                Ok(()) => panic!("rung {at}: forced failure did not fail"),
            }
        }
    }

    #[test]
    fn probe_failure_leaks_nothing() {
        let granted = IoUringTransport::probe().is_ok();
        for (at, _, takes) in FORCED {
            let (before, _) = LEDGER.with(Cell::get);
            let _ = ladder(at);
            let (after, held) = LEDGER.with(Cell::get);
            assert_eq!(held, 0, "rung {at}: fds or mappings still held");
            assert!(!granted || after - before == takes, "rung {at}");
        }
    }

    #[test]
    fn full_construction_does_not_leak_on_drop() {
        // The whole ladder, armed receive included, then its teardown.
        let (before, _) = LEDGER.with(Cell::get);
        let granted = IoUringTransport::probe().is_ok();
        let (after, held) = LEDGER.with(Cell::get);
        assert_eq!(held, 0, "the probe left fds or mappings behind");
        assert!(!granted || after - before == 5, "took {}", after - before);
    }
}
