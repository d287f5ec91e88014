//! Real-socket ping-pong: eRPC over kernel UDP on loopback, with optional
//! fault injection (smoltcp-style `--drop-chance`) by a `FaultTransport`
//! around each socket.
//!
//! Shows that the protocol layer is transport-agnostic: the same `Rpc`
//! code that runs on the in-memory fabric and the simulator runs over
//! real datagrams, including go-back-N recovery when you inject loss.
//!
//! Run: `cargo run --example udp_pingpong -- [n_rpcs] [drop_chance_pct]`
//! e.g. `cargo run --example udp_pingpong -- 2000 15` for 15 % loss.

use std::cell::Cell;
use std::rc::Rc;

use erpc::{Rpc, RpcConfig};
use erpc_transport::{Addr, FaultConfig, FaultTransport, UdpConfig, UdpTransport};

const ECHO: u8 = 1;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1000);
    let drop_pct: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.0);
    let faults = FaultConfig {
        drop_prob: drop_pct / 100.0,
        ..FaultConfig::default()
    };

    // Bind both endpoints on loopback; exchange routes.
    let server_addr = Addr::new(0, 0);
    let client_addr = Addr::new(1, 0);
    let bind = |addr| {
        UdpTransport::bind(addr, "127.0.0.1:0".parse().unwrap(), UdpConfig::default()).unwrap()
    };
    let (mut server_t, mut client_t) = (bind(server_addr), bind(client_addr));
    let ss = server_t.local_addr().unwrap();
    let cs = client_t.local_addr().unwrap();
    server_t.add_route(client_addr, cs);
    client_t.add_route(server_addr, ss);
    println!("server on {ss}, client on {cs}, injected loss {drop_pct}%");

    let rpc_cfg = RpcConfig {
        // Quick retransmits make lossy loopback demos snappy.
        rto_ns: 2_000_000,
        ping_interval_ns: 0,
        ..RpcConfig::default()
    };
    let mut server = Rpc::new(
        FaultTransport::new(server_t, faults.clone()),
        rpc_cfg.clone(),
    );
    let mut client = Rpc::new(FaultTransport::new(client_t, faults), rpc_cfg);

    server.register_request_handler(
        ECHO,
        Box::new(|ctx, req| {
            let mut out = req.to_vec();
            out.reverse();
            ctx.respond(&out);
        }),
    );

    let completed = Rc::new(Cell::new(0u64));

    let sess = client.create_session(server_addr).unwrap();
    while !client.is_connected(sess) {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }

    let t0 = std::time::Instant::now();
    let mut issued = 0u64;
    while completed.get() < n {
        // Keep 8 RPCs in flight (one slot window).
        while issued < n && issued - completed.get() < 8 {
            let mut req = client.alloc_msg_buffer(32);
            req.fill(b"abcdefghijklmnopqrstuvwxyz012345");
            let resp = client.alloc_msg_buffer(32);
            let c2 = completed.clone();
            client
                .enqueue_request(sess, ECHO, req, resp, move |ctx, comp| {
                    assert!(comp.result.is_ok(), "rpc failed: {:?}", comp.result);
                    c2.set(c2.get() + 1);
                    ctx.free_msg_buffer(comp.req);
                    ctx.free_msg_buffer(comp.resp);
                })
                .unwrap();
            issued += 1;
        }
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    let el = t0.elapsed();
    println!(
        "{n} RPCs in {:.1} ms ({:.0} RPCs/s), {} retransmissions, {} fault-dropped packets",
        el.as_secs_f64() * 1e3,
        n as f64 / el.as_secs_f64(),
        client.stats().retransmissions + server.stats().retransmissions,
        client.transport().fault_stats().dropped + server.transport().fault_stats().dropped,
    );
}
