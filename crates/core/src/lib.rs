//! # erpc — Datacenter RPCs can be General and Fast, in Rust
//!
//! A reproduction of eRPC (Kalia, Kaminsky, Andersen — NSDI 2019): a fast,
//! general-purpose RPC library for datacenter networks that needs nothing
//! from the network but unreliable datagrams — no RDMA, no lossless
//! fabric, no programmable switches.
//!
//! ## Design pillars (paper § references throughout the modules)
//!
//! 1. **Optimize for the common case**: small messages, short handlers,
//!    uncongested network. The fast path does no allocation, no copies on
//!    RX dispatch, one clock read per batch, and skips the congestion-
//!    control machinery entirely while the network is quiet (§5.2.2).
//! 2. **One BDP per flow**: session credits cap outstanding data, so
//!    switch buffers (MBs) can absorb even heavy incast without drops,
//!    because the datacenter BDP is tiny (kBs) by comparison (§2.1).
//!
//! ## Quick start
//!
//! Each request carries an owned `FnOnce` continuation — captured state
//! replaces the `(cont_id, tag)` registration table the paper's C++
//! implementation needed (see `DESIGN.md`):
//!
//! ```
//! use erpc::{Rpc, RpcConfig};
//! use erpc_transport::{Addr, MemFabric, MemFabricConfig};
//!
//! let fabric = MemFabric::new(MemFabricConfig::default());
//! let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), RpcConfig::default());
//! let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), RpcConfig::default());
//!
//! // Server: register a dispatch-mode handler for request type 1.
//! server.register_request_handler(1, Box::new(|ctx, req| {
//!     let mut out = req.to_vec();
//!     out.reverse();
//!     ctx.respond(&out);
//! }));
//!
//! // Client: connect, then send a request with its continuation.
//! let sess = client.create_session(Addr::new(0, 0)).unwrap();
//! let mut req = client.alloc_msg_buffer(3);
//! req.fill(b"abc");
//! let resp = client.alloc_msg_buffer(64);
//! let done = std::rc::Rc::new(std::cell::Cell::new(false));
//! let done2 = done.clone();
//! client
//!     .enqueue_request(sess, 1, req, resp, move |_ctx, c| {
//!         assert_eq!(c.resp.data(), b"cba");
//!         done2.set(true);
//!     })
//!     .unwrap();
//!
//! while !done.get() {
//!     client.run_event_loop_once();
//!     server.run_event_loop_once();
//! }
//! ```
//!
//! For services, the [`Channel`] facade layers typed request/response
//! calls (via [`RpcMessage`] / [`RpcCall`]) on top of this API. To scale
//! across cores, create one process-wide [`Nexus`] and one `Rpc` per
//! OS thread from it (§3's threading model; see `nexus` module docs).

// Unsafe code is denied crate-wide; the single exception is the
// counting allocator (`alloc_count`), which opts back in at the module
// level and documents every site (see DESIGN.md's unsafe audit).
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
// The one module allowed to contain unsafe code: the `GlobalAlloc`
// wrapper cannot be written without it. Every site carries a SAFETY
// comment and appears in DESIGN.md's unsafe audit.
#[allow(unsafe_code)]
pub mod alloc_count;
pub mod channel;
pub mod config;
pub mod error;
pub mod mgmt;
pub mod msgbuf;
pub mod nexus;
pub mod pkthdr;
pub mod rpc;
pub mod session;
pub mod stats;
pub mod worker;

pub use channel::{CallHandle, Channel, RpcCall, RpcMessage, TypedCallHandle};
pub use config::{CcAlgorithm, RpcConfig};
pub use error::RpcError;
pub use msgbuf::{BufPool, MsgBuf};
pub use nexus::{Fabric, Nexus, NexusConfig};
pub use pkthdr::{PktHdr, PktType, ECN_BYTE, ECN_MASK, PKT_HDR_SIZE};
pub use rpc::{
    Completion, ContContext, Continuation, DeferredHandle, DispatchFn, EnqueueError, ReqContext,
    Rpc, SessionInfo, WorkCounts,
};
pub use session::{SessionHandle, SessionState};
pub use stats::{LatencyHistogram, RpcStats};
pub use worker::WorkerFn;

// Unit tests share `tests/fake_peer`, which names this crate from outside.
#[cfg(test)]
extern crate self as erpc;

// Re-export the transport façade so applications need one import.
pub use erpc_transport as transport;
