//! One line of deeply nested JSON cannot abort a process. The wire-v1
//! parser bounds nesting at `wire::MAX_DEPTH`, so each surface that reads
//! JSON from outside answers such a document with a typed error naming
//! the limit and carries on: the `lafd serve` socket front end, the
//! cluster registry, and `lafd run --spec`.

use local_auth_fd::core::deploy::{self, Registry};
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::wire::{self, RegistryReply, RegistryRequest};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

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

#[test]
fn the_registry_survives_a_deep_frame() {
    let registry = Registry::bind("127.0.0.1:0")
        .expect("bind registry")
        .with_wait_limit(Duration::from_secs(10));
    let addr = registry.local_addr().to_string();
    std::thread::spawn(move || registry.serve());

    let mut stream = TcpStream::connect(&addr).expect("connect registry");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    deploy::send_frame(&mut stream, "[".repeat(20_000).as_bytes()).expect("send");
    let reply = deploy::recv_frame(&mut stream).expect("a reply frame");
    match wire::registry_reply_from_json(std::str::from_utf8(&reply).unwrap()) {
        Ok(RegistryReply::Error { error }) => assert!(error.contains(LIMIT_ERROR), "{error}"),
        other => panic!("expected a typed error reply, got {other:?}"),
    }
    // The registry still answers the next caller.
    let lookup = RegistryRequest::Lookup {
        run: "r".to_string(),
        node: 0,
    };
    match deploy::registry_call(&addr, &lookup, Duration::from_secs(10)) {
        Err(error) => assert!(error.contains("not registered"), "{error}"),
        other => panic!("expected the unknown-run error, got {other:?}"),
    }
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
