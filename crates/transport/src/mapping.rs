//! One guard for page-granular memory: an anonymous mapping, whose zero
//! pages the kernel faults in on first touch and takes back on drop, or a
//! mapping of a kernel object (the io_uring probe's rings).
//!
//! The transport's large arenas (`PacketRing`'s slots, `UdpTransport`'s RX
//! buffers) are anonymous mappings so that they cost only the pages their
//! packets land in, whatever the heap allocator would do with a freed
//! arena of the same size (recycle it through the heap, where it must be
//! cleared again). Under Miri and off Linux the same guard hands out
//! zeroed, page-aligned heap memory instead.

use std::ops::{Deref, DerefMut};

/// The alignment of a mapping, and of its heap stand-in.
const PAGE: usize = 4096;

#[cfg(all(target_os = "linux", not(miri)))]
extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// `len` bytes of memory this guard owns, page-aligned, released on drop.
///
/// Like `Box<[UnsafeCell<u8>]>` it is `Send` but not `Sync`: an owner may
/// write the bytes through [`Mapping::as_ptr`] from a shared reference, so
/// sharing one needs the owner's own argument (`PacketRing`'s `Sync`).
pub(crate) struct Mapping {
    ptr: *mut u8,
    len: usize,
}

impl Mapping {
    /// `len` zeroed bytes, resident only where they are touched. Aborts
    /// the way a failed allocation does if the memory cannot be had.
    pub(crate) fn zeroed(len: usize) -> Self {
        Self::new(len, -1, 0).unwrap_or_else(|| std::alloc::handle_alloc_error(Self::layout(len)))
    }

    /// Map `len` bytes of the kernel object `fd` at `offset`, populated
    /// and shared with the kernel, or anonymous zero pages when `fd` is
    /// -1. `None` if the kernel refuses.
    #[cfg(all(target_os = "linux", not(miri)))]
    pub(crate) fn new(len: usize, fd: i32, offset: i64) -> Option<Self> {
        // MAP_PRIVATE | MAP_ANONYMOUS, else MAP_SHARED | MAP_POPULATE.
        let flags = if fd < 0 { 0x02 | 0x20 } else { 0x01 | 0x8000 };
        let (any, read_write) = (std::ptr::null_mut(), 1 | 2);
        // SAFETY: a fresh mapping at any address the kernel chooses; no
        // existing memory is touched, and MAP_FAILED is checked below and
        // never dereferenced. `munmap` in `drop` is the one release, with
        // exactly this pointer and length.
        // COVERS: probe_failure_leaks_nothing, full_construction_does_not_leak_on_drop, arena_pages_are_resident_only_where_packets_land
        let ptr = unsafe { mmap(any, len.max(1), read_write, flags, fd, offset) };
        (ptr as isize != -1).then_some(Self { ptr, len })
    }

    /// The heap stand-in: anonymous memory only, zeroed up front.
    #[cfg(not(all(target_os = "linux", not(miri))))]
    pub(crate) fn new(len: usize, fd: i32, _offset: i64) -> Option<Self> {
        if fd >= 0 {
            return None;
        }
        // SAFETY: the layout's size is non-zero (`layout` rounds 0 up);
        // the block is released in `drop` with the same layout.
        // COVERS: ring unit tests (Miri)
        let ptr = unsafe { std::alloc::alloc_zeroed(Self::layout(len)) };
        (!ptr.is_null()).then_some(Self { ptr, len })
    }

    fn layout(len: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(len.max(1), PAGE).expect("mapping length overflows")
    }

    /// First byte. Good for `len` bytes while the guard lives.
    #[inline]
    pub(crate) fn as_ptr(&self) -> *mut u8 {
        self.ptr
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

impl Deref for Mapping {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` is good for `len` initialised (zeroed or kernel-
        // written) bytes until drop, and `&self` excludes `&mut self`.
        // COVERS: udp unit tests, arena_pages_are_resident_only_where_packets_land
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl DerefMut for Mapping {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
        // COVERS: udp unit tests, arena_pages_are_resident_only_where_packets_land
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly what `new` got for this guard,
        // released once, here, the way it was acquired.
        // COVERS: probe_failure_leaks_nothing, full_construction_does_not_leak_on_drop, ring unit tests (Miri)
        unsafe {
            #[cfg(all(target_os = "linux", not(miri)))]
            munmap(self.ptr, self.len.max(1));
            #[cfg(not(all(target_os = "linux", not(miri))))]
            std::alloc::dealloc(self.ptr, Self::layout(self.len));
        }
    }
}

// SAFETY: the guard owns its memory exclusively, with no thread-affine
// state (an anonymous mapping or a heap block is process-wide), so moving
// it to another thread invalidates nothing — as for `Box<[u8]>`.
// COVERS: fabric_and_endpoints_cross_threads
unsafe impl Send for Mapping {}

#[cfg(all(test, target_os = "linux", not(miri)))]
impl Mapping {
    /// Which of the mapping's pages are resident (`mincore(2)`).
    pub(crate) fn resident_pages(&self) -> Vec<bool> {
        extern "C" {
            fn mincore(addr: *mut std::os::raw::c_void, len: usize, vec: *mut u8) -> i32;
        }
        let mut vec = vec![0u8; self.len.div_ceil(PAGE)];
        // SAFETY: `ptr` is page-aligned and mapped for `len` bytes; the
        // kernel writes one byte per page of that range into `vec`, which
        // has room for every 4 KiB page of it.
        // COVERS: arena_pages_are_resident_only_where_packets_land, rx_arena_pages_are_resident_only_where_datagrams_land
        let r = unsafe { mincore(self.ptr.cast(), self.len, vec.as_mut_ptr()) };
        assert_eq!(r, 0, "mincore: {}", std::io::Error::last_os_error());
        vec.iter().map(|b| b & 1 != 0).collect()
    }
}
