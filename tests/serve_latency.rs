//! The `lafd serve --listen` front end, driven through a real socket.
//!
//! A warm request costs what its run costs: every response leaves the
//! server as one frame on a `TCP_NODELAY` socket, so a closed-loop client
//! never waits out Nagle's algorithm against its own delayed ACK (the
//! ~40 ms per request that two writes per frame used to cost). And a
//! client that never sends a newline gets one error frame and a closed
//! connection instead of an ever-growing line buffer.

use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::wire;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A `lafd serve --listen 127.0.0.1:0` child, killed on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn() -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lafd"))
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn lafd serve");
        let mut announcement = String::new();
        BufReader::new(child.stderr.take().expect("stderr was piped"))
            .read_line(&mut announcement)
            .expect("read the listen announcement");
        let addr = announcement
            .trim()
            .strip_prefix("serve: listening on ")
            .unwrap_or_else(|| panic!("no address announced: {announcement:?}"))
            .to_string();
        Server { child, addr }
    }

    /// A client connection in the benchmark client's shape: `TCP_NODELAY`,
    /// one write per request frame.
    fn connect(&self) -> BufReader<TcpStream> {
        let stream = TcpStream::connect(&self.addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        BufReader::new(stream)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn call(conn: &mut BufReader<TcpStream>, request: &str) -> String {
    conn.get_mut()
        .write_all(format!("{request}\n").as_bytes())
        .expect("send");
    let mut line = String::new();
    conn.read_line(&mut line).expect("receive");
    assert!(line.ends_with('\n'), "server closed mid-response: {line:?}");
    line.trim_end().to_string()
}

#[test]
fn warm_requests_do_not_wait_on_the_socket() {
    let server = Server::spawn();
    let mut conn = server.connect();
    let builder = |k: u8| {
        SpecBuilder::new(Protocol::ChainFd, 17)
            .with_seed(5)
            .with_input(vec![k, 0xfd])
    };

    // The warming request pays the key distribution; its report is the
    // bytes of a direct `Cluster::run`.
    let first = builder(0);
    let line = call(
        &mut conn,
        &wire::request_to_json(&first, Some("warm")).unwrap(),
    );
    let response = wire::response_from_json(&line).unwrap();
    assert!(!response.keydist_reused);
    let (cluster, spec) = first.build().unwrap();
    assert_eq!(response.report_json, cluster.run(&spec).to_json());

    let mut round_trips: Vec<Duration> = (1..=60u8)
        .map(|k| {
            let request = wire::request_to_json(&builder(k), None).unwrap();
            let sent = Instant::now();
            let line = call(&mut conn, &request);
            let took = sent.elapsed();
            let response = wire::response_from_json(&line).unwrap();
            assert!(response.keydist_reused, "request {k} re-ran the keydist");
            assert!(response.report.unwrap().all_decided(&[k, 0xfd]));
            took
        })
        .collect();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(15),
        "median warm round trip {median:?}: a response frame is waiting out a delayed ACK \
         (sorted: {round_trips:?})"
    );
}

/// `lafd sweep --remote` is a client of the same front end: its JSON is
/// the bytes of the same matrix swept locally.
#[test]
fn remote_sweep_json_matches_the_local_sweep() {
    let server = Server::spawn();
    let dir = std::env::temp_dir();
    let sweep = |name: &str, remote: Option<&str>| {
        let path = dir.join(format!("lafd-{name}-sweep-{}.json", std::process::id()));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_lafd"));
        cmd.args(["sweep", "--threads", "2", "--protocols", "chain,ba,ds"])
            .args(["--sizes", "4,7", "--json"])
            .arg(&path);
        if let Some(addr) = remote {
            cmd.args(["--remote", addr]);
        }
        let out = cmd.output().expect("run lafd sweep");
        assert!(
            out.status.success(),
            "{name} sweep failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read(&path).expect("sweep JSON written");
        let _ = std::fs::remove_file(&path);
        json
    };
    let local = sweep("local", None);
    assert!(!local.is_empty());
    assert_eq!(sweep("remote", Some(&server.addr)), local);
}

#[test]
fn a_line_without_end_is_refused_in_bounded_memory() {
    const CAP: usize = 1 << 20;
    let server = Server::spawn();
    let mut conn = server.connect();

    // A full-size line is still a request (here: one that fails to parse).
    let mut big = vec![b'x'; CAP - 1];
    big.push(b'\n');
    conn.get_mut().write_all(&big).expect("send");
    let mut line = String::new();
    conn.read_line(&mut line).expect("receive");
    assert!(wire::response_from_json(line.trim_end())
        .unwrap()
        .report
        .is_err());

    // One byte past the cap with no newline in sight: exactly one error
    // frame, then the server hangs up.
    conn.get_mut()
        .write_all(&vec![b'x'; CAP + 1])
        .expect("send");
    let mut rest = String::new();
    conn.read_to_string(&mut rest).expect("read to close");
    let frames: Vec<&str> = rest.lines().collect();
    assert_eq!(frames.len(), 1, "{rest:?}");
    let error = wire::response_from_json(frames[0])
        .unwrap()
        .report
        .unwrap_err();
    assert!(error.contains("exceeds 1048576 bytes"), "{error}");

    // Other connections are unaffected.
    let request = wire::request_to_json(
        &SpecBuilder::new(Protocol::ChainFd, 5).with_input(b"v".to_vec()),
        None,
    )
    .unwrap();
    let response = wire::response_from_json(&call(&mut server.connect(), &request)).unwrap();
    assert!(response.report.unwrap().all_decided(b"v"));
}
