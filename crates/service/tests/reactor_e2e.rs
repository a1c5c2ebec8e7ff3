//! Socket-level edge-case tests for the reactor: partial I/O in every
//! direction against live ephemeral-port stacks.
//!
//! The reactor's per-connection state machine has to handle each shape
//! explicitly: heads arriving a byte at a time (slow loris), bodies
//! split across reads, several pipelined requests in one segment,
//! clients vanishing mid-solve, oversized declared bodies, header
//! floods and idle peers. `bi-serve` and `bi-router` share the reactor,
//! so the protocol cases run against both a lone node and a router in
//! front of one node.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bi_core::solve::{Solver, SolverConfig};
use bi_service::http::{read_response, write_request, ClientResponse};
use bi_service::workload::{light_workload, matrix_game};
use bi_service::{
    FaultPlan, GameSpec, Router, RouterConfig, RouterHandle, Server, ServerConfig, ServerHandle,
    SolveRequest,
};
use bi_util::{Encode, Json};

fn start_node(read_timeout: Duration) -> ServerHandle {
    let server = Server::bind(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        read_timeout,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    server.start().expect("start server")
}

fn start_server() -> ServerHandle {
    start_node(Duration::from_secs(5))
}

/// A stack under test: a lone node, or a router over one node.
enum Stack {
    Node(ServerHandle),
    Routed(RouterHandle, ServerHandle),
}

impl Stack {
    fn addr(&self) -> SocketAddr {
        match self {
            Stack::Node(node) => node.addr(),
            Stack::Routed(router, _) => router.addr(),
        }
    }

    fn stop(self) {
        match self {
            Stack::Node(node) => node.stop(),
            Stack::Routed(router, node) => {
                router.stop();
                node.stop();
            }
        }
    }
}

/// Both stacks, each front door idling connections out after
/// `read_timeout`.
fn stacks(read_timeout: Duration) -> [Stack; 2] {
    let backend = start_server();
    let router = Router::bind(RouterConfig {
        backends: vec![backend.addr().to_string()],
        read_timeout,
        ..RouterConfig::default()
    })
    .expect("bind router")
    .start()
    .expect("start router");
    [
        Stack::Node(start_node(read_timeout)),
        Stack::Routed(router, backend),
    ]
}

/// A fresh connection's read and write halves.
fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

/// Whether `response` is a `/healthz` answer: a node's and a router's
/// documents differ, but both report `"status":"ok"`.
fn is_healthy(response: &ClientResponse) -> bool {
    let doc = Json::parse(std::str::from_utf8(&response.body).expect("UTF-8")).expect("JSON");
    response.status == 200 && doc.get("status").and_then(Json::as_str) == Some("ok")
}

fn solve_wire(seed: u64) -> Vec<u8> {
    let body = SolveRequest {
        game: matrix_game(seed),
        config: SolverConfig::default(),
    }
    .canonical_bytes();
    let mut wire = Vec::new();
    write_request(&mut wire, "POST", "/solve", &body, true).expect("serialize");
    wire
}

#[test]
fn slow_loris_heads_are_parsed_across_reads() {
    for stack in stacks(Duration::from_secs(5)) {
        let (mut reader, mut writer) = connect(stack.addr());
        let wire = b"GET /healthz HTTP/1.1\r\nHost: bi-serve\r\nContent-Length: 0\r\n\r\n";
        // One byte per segment: the head completes on the final byte only.
        for byte in wire.iter() {
            writer.write_all(std::slice::from_ref(byte)).expect("write");
            writer.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(is_healthy(&read_response(&mut reader).expect("read")));
        stack.stop();
    }
}

#[test]
fn split_bodies_are_reassembled() {
    for stack in stacks(Duration::from_secs(5)) {
        let (mut reader, mut writer) = connect(stack.addr());
        let wire = solve_wire(71);
        // Deliver the request in three far-apart slices straddling the
        // head/body boundary.
        let cuts = [wire.len() / 3, 2 * wire.len() / 3, wire.len()];
        let mut sent = 0;
        for cut in cuts {
            writer.write_all(&wire[sent..cut]).expect("write");
            writer.flush().expect("flush");
            sent = cut;
            std::thread::sleep(Duration::from_millis(20));
        }
        let response = read_response(&mut reader).expect("read");
        assert_eq!(response.status, 200);
        assert_eq!(response.header("x-cache"), Some("miss"));
        stack.stop();
    }
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    for stack in stacks(Duration::from_secs(5)) {
        let (mut reader, mut writer) = connect(stack.addr());
        // Three requests in a single segment: a cold solve, its
        // resubmission, and a healthz — answers must come back in
        // exactly this order.
        let mut wire = solve_wire(72);
        wire.extend_from_slice(&solve_wire(72));
        write_request(&mut wire, "GET", "/healthz", b"", true).expect("serialize");
        writer.write_all(&wire).expect("write");
        writer.flush().expect("flush");
        let first = read_response(&mut reader).expect("first");
        let second = read_response(&mut reader).expect("second");
        let third = read_response(&mut reader).expect("third");
        assert_eq!(first.status, 200);
        assert_eq!(first.header("x-cache"), Some("miss"));
        assert_eq!(second.status, 200);
        assert_eq!(
            second.header("x-cache"),
            Some("hit"),
            "the pipelined resubmission must hit the cache"
        );
        assert_eq!(second.body, first.body);
        assert!(is_healthy(&third));
        stack.stop();
    }
}

#[test]
fn short_reads_and_writes_still_deliver_exact_answers() {
    // Half of the node's read and write passes are cut to one byte, so
    // every request and every answer crosses the socket in pieces.
    let plan = FaultPlan::parse("seed=5,rate=500000,kinds=short-read+short-write").expect("plan");
    let handle = Server::bind(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        read_timeout: Duration::from_secs(5),
        fault: Some(Arc::new(plan)),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
    .start()
    .expect("start server");
    let (mut reader, mut writer) = connect(handle.addr());
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    for game in light_workload(5, 4) {
        let expected = match &game {
            GameSpec::Matrix(g) => Solver::default().solve(g).unwrap(),
            GameSpec::Ncs(g) => Solver::default().solve(g).unwrap(),
        }
        .canonical_bytes();
        let body = SolveRequest {
            game,
            config: SolverConfig::default(),
        }
        .canonical_bytes();
        write_request(&mut writer, "POST", "/solve", &body, true).expect("write");
        let response = read_response(&mut reader).expect("read");
        assert_eq!(response.status, 200);
        assert_eq!(response.body, expected);
    }
    write_request(&mut writer, "GET", "/metrics", b"", true).expect("write");
    let metrics = read_response(&mut reader).expect("read");
    let doc = Json::parse(std::str::from_utf8(&metrics.body).expect("UTF-8")).expect("JSON");
    let injected = doc
        .get("faults")
        .and_then(|faults| faults.get("injected_total"))
        .and_then(Json::as_u64);
    assert!(
        injected.is_some_and(|n| n > 0),
        "no short read or write was injected: {injected:?}"
    );
    handle.stop();
}

#[test]
fn injected_500s_spare_probes_and_metrics() {
    // Every seam decision is an `err500`. Only the dispatch seam acts on
    // it, and only for serving endpoints: the accept, read and write
    // seams have nothing to inject, so `/healthz` and `/metrics` are
    // answered faithfully while every `/solve` is a 500.
    let plan = FaultPlan::parse("seed=9,kinds=err500,rate=1000000").expect("plan");
    let handle = Server::bind(ServerConfig {
        workers: 1,
        queue_capacity: 16,
        read_timeout: Duration::from_secs(5),
        fault: Some(Arc::new(plan)),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
    .start()
    .expect("start server");
    let (mut reader, mut writer) = connect(handle.addr());
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    writer.write_all(&solve_wire(74)).expect("write");
    let solve = read_response(&mut reader).expect("read");
    assert_eq!(solve.status, 500);
    write_request(&mut writer, "GET", "/healthz", b"", true).expect("write");
    assert!(is_healthy(&read_response(&mut reader).expect("read")));
    write_request(&mut writer, "GET", "/metrics", b"", true).expect("write");
    let metrics = read_response(&mut reader).expect("read");
    assert_eq!(metrics.status, 200);
    let doc = Json::parse(std::str::from_utf8(&metrics.body).expect("UTF-8")).expect("JSON");
    assert_eq!(doc.get("solves_computed").and_then(Json::as_u64), Some(0));
    handle.stop();
}

#[test]
fn disconnecting_mid_solve_does_not_poison_the_server() {
    let handle = start_server();
    // Fire a cold solve and hang up before the response exists; the
    // completion for the dead connection must be discarded.
    {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        writer
            .write_all(&solve_wire(73))
            .expect("write the doomed request");
        writer.flush().expect("flush");
        // Both halves drop here: RST/FIN races the solve.
    }
    // The server keeps serving, and the orphaned solve eventually lands
    // in the cache — a fresh request for the same game is a hit.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writer.write_all(&solve_wire(73)).expect("write");
        writer.flush().expect("flush");
        let response = read_response(&mut reader).expect("read");
        assert_eq!(response.status, 200);
        if response.header("x-cache") == Some("hit") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the orphaned solve never reached the cache"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.stop();
}

#[test]
fn oversized_declared_bodies_are_rejected_without_buffering() {
    for stack in stacks(Duration::from_secs(5)) {
        let (mut reader, mut writer) = connect(stack.addr());
        // 128 MiB declared: over MAX_BODY. The head alone must trigger
        // the rejection — no body bytes are ever sent.
        let head = format!(
            "POST /solve HTTP/1.1\r\nHost: bi-serve\r\nContent-Length: {}\r\n\r\n",
            128 * 1024 * 1024
        );
        writer.write_all(head.as_bytes()).expect("write");
        writer.flush().expect("flush");
        let response = read_response(&mut reader).expect("read");
        assert_eq!(response.status, 413);
        assert_eq!(response.header("connection"), Some("close"));
        // The server closes after the protocol error.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("drain");
        assert!(rest.is_empty());
        stack.stop();
    }
}

#[test]
fn unterminated_header_floods_are_capped_with_431() {
    for stack in stacks(Duration::from_secs(5)) {
        let (mut reader, mut writer) = connect(stack.addr());
        writer
            .write_all(b"GET /healthz HTTP/1.1\r\nX-Flood: ")
            .expect("write");
        // Stream header bytes far past the 64 KiB cap, never terminating.
        let filler = vec![b'a'; 8 * 1024];
        for _ in 0..12 {
            if writer.write_all(&filler).is_err() {
                break; // the server already hung up on us — also acceptable
            }
        }
        let _ = writer.flush();
        let response = read_response(&mut reader).expect("read");
        assert_eq!(response.status, 431);
        stack.stop();
    }
}

#[test]
fn idle_connections_are_swept_after_the_timeout() {
    for stack in stacks(Duration::from_millis(200)) {
        let (mut reader, mut writer) = connect(stack.addr());
        write_request(&mut writer, "GET", "/healthz", b"", true).expect("write");
        assert_eq!(read_response(&mut reader).expect("read").status, 200);
        // Go quiet past the timeout: the server must close the connection.
        let mut rest = Vec::new();
        reader
            .get_mut()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("client timeout");
        reader.read_to_end(&mut rest).expect("server-side close");
        assert!(rest.is_empty());
        stack.stop();
    }
}

#[test]
fn reactor_metrics_observe_connections_and_fast_paths() {
    let handle = start_server();
    let addr = handle.addr();
    let wire = solve_wire(74);
    for _ in 0..3 {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writer.write_all(&wire).expect("write");
        writer.flush().expect("flush");
        assert_eq!(read_response(&mut reader).expect("read").status, 200);
    }
    let doc = handle.service().metrics_json();
    let reactor = doc.get("reactor").expect("reactor section");
    // Cold, then two byte-identical resubmissions off the raw index.
    assert_eq!(reactor.get("zero_copy_hits").unwrap().as_u64(), Some(2));
    assert!(reactor.get("wakeups").unwrap().as_u64().unwrap() > 0);
    assert_eq!(doc.get("connections_total").unwrap().as_u64(), Some(3));
    // All three connections closed again: the gauge is back to zero (the
    // reactor may still be tearing the last one down — allow a beat).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let open = handle
            .service()
            .metrics_json()
            .get("reactor")
            .unwrap()
            .get("open_connections")
            .unwrap()
            .as_u64();
        if open == Some(0) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "open_connections gauge stuck at {open:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.stop();
}
