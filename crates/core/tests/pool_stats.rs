//! `BufPool` hit/miss counters surface through `RpcStats` (and survive
//! `RpcStats::merge`): the bench tables print them so every experiment
//! shows pool behavior.

use std::cell::Cell;

use erpc::{CcAlgorithm, Rpc, RpcConfig, SessionHandle};
use erpc_transport::{Addr, MemFabric, MemFabricConfig, MemTransport};

const ECHO: u8 = 1;

fn cfg() -> RpcConfig {
    RpcConfig {
        ping_interval_ns: 0,
        cc: CcAlgorithm::None,
        ..RpcConfig::default()
    }
}

fn connect(client: &mut Rpc<MemTransport>, server: &mut Rpc<MemTransport>) -> SessionHandle {
    let sess = client.create_session(server.addr()).unwrap();
    while !client.is_connected(sess) {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    sess
}

#[test]
fn pool_stats_surface_through_rpc_stats() {
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), cfg());
    server.register_request_handler(ECHO, Box::new(|ctx, req| ctx.respond(req)));
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg());
    let sess = connect(&mut client, &mut server);

    let req = client.alloc_msg_buffer(32);
    let resp = client.alloc_msg_buffer(64);
    assert!(client.stats().pool_allocs_new >= 2, "misses counted");
    client.free_msg_buffer(req);
    client.free_msg_buffer(resp);
    let req = client.alloc_msg_buffer(32);
    let resp = client.alloc_msg_buffer(64);
    assert!(client.stats().pool_allocs_reused >= 2, "hits counted");

    // One round trip so the server-side (prealloc'd) path runs too.
    let done = std::rc::Rc::new(Cell::new(false));
    let done2 = done.clone();
    client
        .enqueue_request(sess, ECHO, req, resp, move |ctx, comp| {
            assert!(comp.result.is_ok());
            ctx.free_msg_buffer(comp.req);
            ctx.free_msg_buffer(comp.resp);
            done2.set(true);
        })
        .unwrap();
    while !done.get() {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }

    // merge() folds both counters.
    let mut agg = erpc::RpcStats::default();
    agg.merge(client.stats());
    agg.merge(server.stats());
    assert_eq!(
        agg.pool_allocs_new,
        client.stats().pool_allocs_new + server.stats().pool_allocs_new
    );
    assert_eq!(
        agg.pool_allocs_reused,
        client.stats().pool_allocs_reused + server.stats().pool_allocs_reused
    );
    assert!(agg.pool_allocs_new > 0);
}

/// Pool buffers the server has handed out so far, hits and misses.
fn pool_allocs(rpc: &Rpc<MemTransport>) -> u64 {
    rpc.stats().pool_allocs_new + rpc.stats().pool_allocs_reused
}

/// One closed-loop echo, returning the server's pool allocations for it.
fn echo_cost(
    client: &mut Rpc<MemTransport>,
    server: &mut Rpc<MemTransport>,
    sess: SessionHandle,
) -> u64 {
    let before = pool_allocs(server);
    let done = std::rc::Rc::new(Cell::new(false));
    let done2 = done.clone();
    let (req, resp) = (client.alloc_msg_buffer(32), client.alloc_msg_buffer(64));
    client
        .enqueue_request(sess, ECHO, req, resp, move |ctx, comp| {
            assert!(comp.result.is_ok());
            ctx.free_msg_buffer(comp.req);
            ctx.free_msg_buffer(comp.resp);
            done2.set(true);
        })
        .unwrap();
    while !done.get() {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    pool_allocs(server) - before
}

#[test]
fn server_slot_takes_its_preallocated_response_on_first_use() {
    for prealloc in [true, false] {
        let fabric = MemFabric::new(MemFabricConfig::default());
        let scfg = RpcConfig {
            opt_preallocated_responses: prealloc,
            ..cfg()
        };
        let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), scfg);
        server.register_request_handler(ECHO, Box::new(|ctx, req| ctx.respond(req)));
        let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg());
        let sess = connect(&mut client, &mut server);
        assert_eq!(
            pool_allocs(&server),
            0,
            "an idle server session holds no buffer"
        );
        // The first request to a slot takes its prealloc from the pool; the
        // slot keeps it. Without the optimisation every response is pooled.
        assert_eq!(echo_cost(&mut client, &mut server, sess), 1, "{prealloc}");
        let again = echo_cost(&mut client, &mut server, sess);
        assert_eq!(again, u64::from(!prealloc), "prealloc {prealloc}");
    }
}
