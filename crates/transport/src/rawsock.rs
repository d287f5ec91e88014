//! Raw socket-API FFI shared by the kernel-bypassing datapaths of
//! [`crate::UdpTransport`] (`sendmmsg`/`recvmmsg`, `UDP_SEGMENT`/`UDP_GRO`
//! control messages) and [`crate::IoUringTransport`] (`sendmsg` SQEs,
//! multishot `recvmsg`).
//!
//! Linux-only. Struct layouts follow the x86-64/aarch64 Linux ABI
//! (`struct iovec`, `struct msghdr`, `struct mmsghdr`,
//! `sockaddr_in{,6}`); compile-time assertions in [`crate::uring`] pin
//! the io_uring side, and the `layout` test below pins these.

use std::net::SocketAddr;
use std::os::raw::{c_int, c_uint, c_void};

pub const AF_INET: u16 = 2;
pub const AF_INET6: u16 = 10;

pub const SOL_UDP: c_int = 17;
/// `setsockopt`/cmsg: send one message as a train of `gso_size`-byte
/// datagrams (Linux 4.18).
pub const UDP_SEGMENT: c_int = 103;
/// `setsockopt`: deliver coalesced trains as one message; cmsg: the
/// `gso_size` that splits it again (Linux 5.0).
pub const UDP_GRO: c_int = 104;

pub const EIO: i32 = 5;
pub const EINVAL: i32 = 22;
pub const ENOPROTOOPT: i32 = 92;

/// `struct iovec`.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct IoVec {
    pub base: *mut c_void,
    pub len: usize,
}

/// `struct msghdr`.
#[repr(C)]
pub struct MsgHdr {
    pub name: *mut c_void,
    pub namelen: u32,
    pub iov: *mut IoVec,
    pub iovlen: usize,
    pub control: *mut c_void,
    pub controllen: usize,
    pub flags: c_int,
}

/// `struct mmsghdr`.
#[repr(C)]
pub struct MMsgHdr {
    pub hdr: MsgHdr,
    /// Bytes transferred for this message (filled by the kernel).
    pub len: c_uint,
}

/// One raw socket address, sized for the larger `sockaddr_in6`.
#[repr(C, align(8))]
#[derive(Clone, Copy)]
pub struct RawAddr {
    pub buf: [u8; 28],
    pub len: u32,
}

impl RawAddr {
    pub fn from_sockaddr(sa: &SocketAddr) -> Self {
        let mut buf = [0u8; 28];
        let len = match sa {
            SocketAddr::V4(a) => {
                // sockaddr_in: family (native), port (BE), addr (BE).
                buf[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                buf[2..4].copy_from_slice(&a.port().to_be_bytes());
                buf[4..8].copy_from_slice(&a.ip().octets());
                16
            }
            SocketAddr::V6(a) => {
                // sockaddr_in6: family, port (BE), addr, scope_id
                // (native). flowinfo is stored unswapped to match
                // what std's `send_to` passes on the fallback path —
                // the two doorbells must emit identical bytes.
                buf[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                buf[2..4].copy_from_slice(&a.port().to_be_bytes());
                buf[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
                buf[8..24].copy_from_slice(&a.ip().octets());
                buf[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
                28
            }
        };
        Self { buf, len }
    }
}

/// One `SOL_UDP` control message with room for an `int` payload:
/// `struct cmsghdr` + data, `CMSG_SPACE(sizeof(int))` = 24 bytes. Sent
/// with a `u16` `UDP_SEGMENT` size, received with an `int` `UDP_GRO` size.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct UdpCmsg {
    /// `cmsg_len`: header plus payload bytes, unpadded (`CMSG_LEN`).
    pub len: usize,
    pub level: c_int,
    pub ty: c_int,
    pub data: [u8; 8],
}

impl UdpCmsg {
    /// `msg_controllen` for one of these (`CMSG_SPACE`).
    pub const SPACE: usize = std::mem::size_of::<UdpCmsg>();
    const HDR: usize = std::mem::offset_of!(UdpCmsg, data);

    /// Receive-side buffer for the kernel to fill.
    pub const fn empty() -> Self {
        Self {
            len: 0,
            level: 0,
            ty: 0,
            data: [0; 8],
        }
    }

    /// TX: ask the kernel to cut the message into `seg`-byte datagrams.
    pub fn segment(seg: u16) -> Self {
        let mut data = [0u8; 8];
        data[..2].copy_from_slice(&seg.to_ne_bytes());
        Self {
            len: Self::HDR + 2,
            level: SOL_UDP,
            ty: UDP_SEGMENT,
            data,
        }
    }

    /// RX: the segment size of a coalesced datagram, if the kernel wrote
    /// a `UDP_GRO` cmsg here (`controllen` is `msg_controllen` after the
    /// receive). `None` = a plain datagram.
    pub fn gro_size(&self, controllen: usize) -> Option<usize> {
        if controllen < Self::HDR + 4
            || self.len < Self::HDR + 4
            || self.level != SOL_UDP
            || self.ty != UDP_GRO
        {
            return None;
        }
        let seg = i32::from_ne_bytes([self.data[0], self.data[1], self.data[2], self.data[3]]);
        usize::try_from(seg).ok().filter(|&s| s > 0)
    }
}

/// Turn on `UDP_GRO` for `fd`: receives may then return a coalesced train
/// of datagrams with its segment size in a cmsg.
pub fn set_udp_gro(fd: c_int) -> std::io::Result<()> {
    let on: c_int = 1;
    // SAFETY: `optval` points at a live `c_int` and `optlen` is its size;
    // setsockopt only reads it. A bad `fd` is an error return, not UB.
    // COVERS: udp segmented-rung tests (non-Miri; FFI)
    let r = unsafe {
        setsockopt(
            fd,
            SOL_UDP,
            UDP_GRO,
            &on as *const c_int as *const c_void,
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if r == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

extern "C" {
    pub fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    pub fn sendmmsg(fd: c_int, msgvec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
    pub fn recvmmsg(
        fd: c_int,
        msgvec: *mut MMsgHdr,
        vlen: c_uint,
        flags: c_int,
        timeout: *mut c_void,
    ) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_linux_abi() {
        // 64-bit Linux: iovec = {ptr, size_t} = 16; msghdr = 56;
        // mmsghdr = msghdr + u32 (+4 pad) = 64.
        assert_eq!(std::mem::size_of::<IoVec>(), 16);
        assert_eq!(std::mem::size_of::<MsgHdr>(), 56);
        assert_eq!(std::mem::size_of::<MMsgHdr>(), 64);
        assert_eq!(std::mem::offset_of!(MsgHdr, iov), 16);
        assert_eq!(std::mem::offset_of!(MsgHdr, flags), 48);
        // cmsghdr = {size_t, int, int} = 16; CMSG_SPACE(4) = 24.
        assert_eq!(UdpCmsg::SPACE, 24);
        assert_eq!(std::mem::align_of::<UdpCmsg>(), 8);
        let tx = UdpCmsg::segment(48);
        assert_eq!((tx.len, tx.level, tx.ty), (18, 17, 103));
        assert_eq!(tx.gro_size(UdpCmsg::SPACE), None, "not a UDP_GRO cmsg");
        let mut rx = UdpCmsg::empty();
        assert_eq!(rx.gro_size(0), None);
        (rx.len, rx.level, rx.ty) = (20, SOL_UDP, UDP_GRO);
        rx.data[..4].copy_from_slice(&48i32.to_ne_bytes());
        assert_eq!(rx.gro_size(20), Some(48));
        // sockaddr_in6 is 28 bytes; RawAddr::buf must hold it exactly.
        let v6: SocketAddr = "[::1]:9000".parse().unwrap();
        assert_eq!(RawAddr::from_sockaddr(&v6).len, 28);
        let v4: SocketAddr = "127.0.0.1:9000".parse().unwrap();
        let ra = RawAddr::from_sockaddr(&v4);
        assert_eq!(ra.len, 16);
        assert_eq!(&ra.buf[0..2], &AF_INET.to_ne_bytes());
    }
}
