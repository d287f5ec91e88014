//! A *raw* fake peer on the MemFabric, shared by the test files that
//! script one side of the wire protocol by hand: it speaks the connect
//! handshake with real `mgmt` bodies, then sends and receives hand-built
//! packets at a real endpoint.
#![allow(dead_code)] // each test file uses its own subset

use erpc::mgmt::{ConnectReq, ConnectResp};
use erpc::{CcAlgorithm, PktHdr, PktType, Rpc, RpcConfig, SessionHandle, PKT_HDR_SIZE};
use erpc_transport::{Addr, MemTransport, Transport, TxPacket};

pub fn cfg() -> RpcConfig {
    RpcConfig {
        ping_interval_ns: 0,
        cc: CcAlgorithm::None,
        // Long fixed RTO: retransmissions must not race the fake peer's
        // script (the adaptive one drops to 1 ms after the first sample,
        // which a host stall outlasts).
        rto_ns: 60_000_000_000,
        opt_adaptive_rto: false,
        ..RpcConfig::default()
    }
}

/// Drain every packet currently in the fake peer's ring.
pub fn recv_all(t: &mut MemTransport) -> Vec<(PktHdr, Vec<u8>)> {
    let mut out = Vec::new();
    let mut toks = Vec::new();
    while t.rx_burst(64, &mut toks) > 0 {
        out.extend(toks.drain(..).map(|tok| {
            let bytes = t.rx_bytes(&tok);
            (
                PktHdr::decode(bytes).expect("fake peer got undecodable pkt"),
                bytes[PKT_HDR_SIZE..].to_vec(),
            )
        }));
        t.rx_release();
    }
    out
}

pub fn send(t: &mut MemTransport, dst: Addr, hdr: &PktHdr, payload: &[u8]) {
    let bytes = hdr.encode();
    t.tx_burst(&[TxPacket {
        dst,
        hdr: &bytes,
        data: payload,
    }]);
}

/// Poll `rpc` until the fake peer receives at least one packet matching
/// `want` (returns all packets drained along the way).
pub fn pump_until(
    rpc: &mut Rpc<MemTransport>,
    fake: &mut MemTransport,
    mut want: impl FnMut(&PktHdr) -> bool,
) -> Vec<(PktHdr, Vec<u8>)> {
    for _ in 0..10_000 {
        rpc.run_event_loop_once();
        let got = recv_all(fake);
        if got.iter().any(|(h, _)| want(h)) {
            return got;
        }
    }
    panic!("fake peer never saw the expected packet");
}

/// Connect the fake peer to `server` as a client (8 slots, 32 credits);
/// returns the server's session number.
pub fn fake_client_connect(server: &mut Rpc<MemTransport>, fake: &mut MemTransport) -> u16 {
    let mut creq_body = Vec::new();
    ConnectReq {
        client_addr: fake.addr(),
        client_session: 0,
        credits: 32,
        num_slots: 8,
        incarnation: 7,
    }
    .encode(&mut creq_body);
    send(
        fake,
        server.addr(),
        &PktHdr::control(PktType::ConnectReq, u16::MAX, 0, 0),
        &creq_body,
    );
    let pkts = pump_until(server, fake, |h| h.pkt_type == PktType::ConnectResp);
    let (_, body) = pkts
        .iter()
        .find(|(h, _)| h.pkt_type == PktType::ConnectResp)
        .unwrap();
    let cresp = ConnectResp::decode(body).unwrap();
    assert!(cresp.ok);
    cresp.server_session
}

/// Have `client` open a session to the fake peer, which accepts it as its
/// session 42.
pub fn fake_server_accept(
    client: &mut Rpc<MemTransport>,
    fake: &mut MemTransport,
) -> SessionHandle {
    let sess = client.create_session(fake.addr()).unwrap();
    fake_server_accept_session(client, fake);
    while !client.is_connected(sess) {
        client.run_event_loop_once();
    }
    sess
}

/// Answer `client`'s pending ConnectReq (session 42 on the fake peer); the
/// client connects on its next event-loop pass.
pub fn fake_server_accept_session(client: &mut Rpc<MemTransport>, fake: &mut MemTransport) {
    let pkts = pump_until(client, fake, |h| h.pkt_type == PktType::ConnectReq);
    let creq = ConnectReq::decode(&pkts[0].1).unwrap();
    let mut resp_body = Vec::new();
    ConnectResp {
        client_session: creq.client_session,
        server_session: 42,
        ok: true,
    }
    .encode(&mut resp_body);
    send(
        fake,
        client.addr(),
        &PktHdr::control(PktType::ConnectResp, u16::MAX, 0, 0),
        &resp_body,
    );
}
