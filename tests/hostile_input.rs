//! One line of deeply nested JSON cannot abort a process. The wire-v1
//! parser bounds nesting at `wire::MAX_DEPTH`, so each surface that reads
//! JSON from outside answers such a document with a typed error naming
//! the limit and carries on: the `lafd serve` socket front end, the
//! cluster registry, and `lafd run --spec`. The line framing bounds the
//! rest: the registry answers an over-long or non-UTF-8 line and closes a
//! stalled or trickled one, and `lafd sweep --remote` refuses an endless reply.

use local_auth_fd::core::deploy::{self, Registry};
use local_auth_fd::core::service;
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::sweep::{RemoteExecutor, ScenarioExecutor};
use local_auth_fd::core::wire::{self, RegistryReply, RegistryRequest};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const LIMIT_ERROR: &str = "nesting deeper than 64 levels";

#[test]
fn a_tcp_server_answers_a_deep_line_with_an_error_frame_and_serves_on() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lafd"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lafd serve");
    // Held open until the server exits: its closing log lines must not
    // meet a broken pipe.
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
    let mut announcement = String::new();
    stderr
        .read_line(&mut announcement)
        .expect("read the listen announcement");
    let addr = announcement
        .trim()
        .strip_prefix("serve: listening on ")
        .unwrap_or_else(|| panic!("no address announced: {announcement:?}"))
        .to_string();
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut conn = BufReader::new(stream);
    let mut call = |line: &str| {
        conn.get_mut()
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        conn.read_line(&mut reply).expect("a reply frame");
        reply
    };

    let deep = call(&"[".repeat(20_000));
    let error = wire::response_from_json(deep.trim())
        .expect("a wire-v1 error frame")
        .report
        .expect_err("the deep line is refused");
    assert!(error.contains(LIMIT_ERROR), "{error}");
    // The same connection, and the server, carry on.
    let request = SpecBuilder::new(Protocol::ChainFd, 4).with_input(b"ok".to_vec());
    let next = call(&wire::request_to_json(&request, None).unwrap());
    let report = wire::response_from_json(next.trim())
        .expect("a wire-v1 response")
        .report
        .expect("the next request runs");
    assert!(report.all_decided(b"ok"));
    let _ = call("{\"op\": \"shutdown\"}");
    let status = child.wait().expect("lafd serve exits");
    assert!(status.success(), "lafd serve exited with {status}");
}

/// A registry served from a thread of this test, with `wait_limit`.
fn registry(wait_limit: Duration) -> String {
    let registry = Registry::bind("127.0.0.1:0")
        .expect("bind registry")
        .with_wait_limit(wait_limit);
    let addr = registry.local_addr().to_string();
    std::thread::spawn(move || registry.serve());
    addr
}

/// `reply` is a typed registry error reply containing `expected`.
fn assert_refused(reply: &str, expected: &str) {
    match wire::registry_reply_from_json(reply.trim()) {
        Ok(RegistryReply::Error { error }) => assert!(error.contains(expected), "{error}"),
        other => panic!("expected a typed error reply, got {other:?}"),
    }
}

/// The registry still answers the next caller: a collect of a run nobody
/// registered is an empty list.
fn assert_serves_on(addr: &str) {
    let collect = RegistryRequest::Collect {
        run: "r".to_string(),
    };
    match deploy::registry_call(addr, &collect, Duration::from_secs(10)) {
        Ok(RegistryReply::Summaries { workers }) => assert!(workers.is_empty(), "{workers:?}"),
        other => panic!("expected an empty summary list, got {other:?}"),
    }
}

/// Send `bytes` on a fresh connection and read the registry's reply line.
fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect registry");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.write_all(bytes).expect("send");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("a reply line");
    reply
}

#[test]
fn the_registry_survives_a_deep_frame() {
    let addr = registry(Duration::from_secs(10));
    let reply = service::call(&addr, "[".repeat(20_000), Some(Duration::from_secs(30)))
        .expect("a reply line");
    assert_refused(&reply, LIMIT_ERROR);
    assert_serves_on(&addr);
}

#[test]
fn the_registry_answers_a_retired_verb_with_a_typed_error_and_serves_on() {
    let addr = registry(Duration::from_secs(30));
    // A retired verb's own fields that no live verb uses (a barrier's
    // `phase`) are refused first, as unknown fields.
    for (op, fields) in [
        ("lookup", ""),
        ("barrier", ", \"n\": 2, \"incarnation\": 0"),
    ] {
        let line = format!(
            "{{\"schema_version\": 1, \"op\": \"{op}\", \"run\": \"r\", \"node\": 0{fields}}}\n"
        );
        let reply = raw_exchange(&addr, line.as_bytes());
        assert_refused(&reply, &format!("unknown op {op:?}"));
    }
    assert_serves_on(&addr);
}

#[test]
fn the_registry_answers_a_line_past_the_cap_and_serves_on() {
    let addr = registry(Duration::from_secs(10));
    // Exactly one byte past the cap: the registry reads all of it, so its
    // close cannot reset the reply away.
    let reply = raw_exchange(&addr, &vec![b'x'; service::MAX_REQUEST_LINE + 1]);
    assert_refused(&reply, "request line exceeds 1048576 bytes");
    assert_serves_on(&addr);
}

#[test]
fn the_registry_answers_a_non_utf8_line_and_serves_on() {
    let addr = registry(Duration::from_secs(10));
    let reply = raw_exchange(&addr, b"{\"run\": \"\xff\xfe\"}\n");
    assert_refused(&reply, "request line is not UTF-8");
    assert_serves_on(&addr);
}

#[test]
fn the_registry_closes_a_request_stalled_past_its_wait_limit() {
    let addr = registry(Duration::from_secs(1));
    let mut stream = TcpStream::connect(&addr).expect("connect registry");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .write_all(b"{\"schema_version\": 1")
        .expect("send half a request");
    let started = Instant::now();
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .expect("the registry closes the connection");
    let took = started.elapsed();
    assert!(rest.is_empty(), "no reply to half a request: {rest:?}");
    assert!(
        took >= Duration::from_millis(500) && took < Duration::from_secs(10),
        "closed after {took:?}, not at the 1 s wait limit"
    );
    assert_serves_on(&addr);
}

#[test]
fn the_registry_closes_a_request_trickled_past_its_wait_limit() {
    // One space every 100 ms never lets a read time out: the wait limit
    // must still close the connection about 1 s after the accept.
    let addr = registry(Duration::from_secs(1));
    let mut stream = TcpStream::connect(&addr).expect("connect registry");
    let started = Instant::now();
    let closed = loop {
        if stream.write_all(b" ").is_err() {
            break started.elapsed();
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "still open after 5 s of trickling"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(
        closed >= Duration::from_millis(900) && closed < Duration::from_secs(2),
        "closed after {closed:?}, not at the 1 s wait limit"
    );
    assert_serves_on(&addr);
}

#[test]
fn a_remote_sweep_refuses_an_endless_reply() {
    // A fake service: 17 MiB without a newline, then the socket stays
    // open until the test ends.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the fake service");
    let addr = listener.local_addr().expect("bound").to_string();
    let (hold, held) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let chunk = vec![b'x'; 1 << 16];
        for _ in 0..17 * 16 {
            if stream.write_all(&chunk).is_err() {
                return;
            }
        }
        let _ = held.recv();
    });
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let executor = RemoteExecutor { addr };
        let _ = done.send(executor.execute(&SpecBuilder::new(Protocol::ChainFd, 4)));
    });
    let error = result
        .recv_timeout(Duration::from_secs(60))
        .expect("the client gives up instead of reading on")
        .expect_err("an endless reply is an error");
    assert!(
        error.ends_with(&format!(
            "reply line exceeds {} bytes",
            service::MAX_REPLY_LINE
        )),
        "{error}"
    );
    drop(hold);
}

#[test]
fn a_remote_sweep_names_a_silent_or_dead_service() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the fake service");
    let addr = listener.local_addr().expect("bound").to_string();
    // Read one request, close the connection unanswered, stop listening.
    let service = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut request = String::new();
        let _ = BufReader::new(stream).read_line(&mut request);
    });
    let executor = RemoteExecutor { addr: addr.clone() };
    let scenario = SpecBuilder::new(Protocol::ChainFd, 4);
    let silent = executor.execute(&scenario).expect_err("no reply");
    assert_eq!(silent, format!("service at {addr} closed without replying"));
    service.join().expect("the fake service ends");
    let dead = executor.execute(&scenario).expect_err("nobody listens");
    assert!(
        dead.starts_with(&format!("connecting to {addr}: ")),
        "{dead}"
    );
}

#[test]
fn run_spec_exits_one_on_a_deep_document() {
    let path = std::env::temp_dir().join(format!("lafd-deep-spec-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000)).expect("write the spec file");
    let out = Command::new(env!("CARGO_BIN_EXE_lafd"))
        .args(["run", "--spec"])
        .arg(&path)
        .output()
        .expect("spawn lafd run");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(LIMIT_ERROR), "stderr: {stderr}");
}
