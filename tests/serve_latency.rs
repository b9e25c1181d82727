//! The `lafd serve` front end, driven through real sockets.
//!
//! A warm request costs what its run costs: every response leaves the
//! server as one frame on a `TCP_NODELAY` socket, so a closed-loop client
//! never waits out Nagle's algorithm against its own delayed ACK (the
//! ~40 ms per request that two writes per frame used to cost). A fresh
//! connection costs what a connect costs: accept blocks, so no connection
//! waits out a polling interval, and `{"op": "shutdown"}` wakes the
//! acceptor. A client that never sends a newline gets one error frame and
//! a closed connection instead of an ever-growing line buffer. TCP and
//! Unix listeners answer alike, and `--unix` never deletes a file that is
//! not a stale socket.

use local_auth_fd::core::service::{self, FdService, Listener, ServiceConfig};
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::wire;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
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

fn call(conn: &mut BufReader<impl Read + Write>, request: &str) -> String {
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

/// Serve `listener` from a fresh in-process service while `client` runs,
/// then send `{"op": "shutdown"}` on a connection from `connect`. Returns
/// the client's result and how long `serve` took to return after the
/// shutdown was acknowledged (a lost wake-up is cut off at 5 s).
fn serving<L: Listener, S: Read + Write, T>(
    listener: &L,
    connect: impl Fn() -> S,
    client: impl FnOnce(&dyn Fn() -> S) -> T,
) -> (T, Duration) {
    let service = FdService::start(ServiceConfig::default());
    let outcome = std::thread::scope(|scope| {
        let server = scope.spawn(|| service.serve(listener));
        let result = client(&connect);
        let mut conn = BufReader::new(connect());
        conn.get_mut()
            .write_all(b"{\"op\": \"shutdown\"}\n")
            .expect("send shutdown");
        let mut ack = String::new();
        conn.read_line(&mut ack).expect("shutdown acknowledged");
        assert_eq!(ack, "{\"ok\": true, \"draining\": true}\n");
        let acked = Instant::now();
        while !server.is_finished() && acked.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let returned = acked.elapsed();
        if !server.is_finished() {
            listener.wake().expect("wake the lost acceptor");
        }
        server.join().expect("serve panicked");
        (result, returned)
    });
    service.shutdown();
    outcome
}

fn tcp_client(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lafd-{name}-{}", std::process::id()))
}

#[test]
fn fresh_connections_do_not_wait_on_the_acceptor() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let request = |k: u8| {
        wire::request_to_json(
            &SpecBuilder::new(Protocol::ChainFd, 4).with_input(vec![k]),
            None,
        )
        .unwrap()
    };
    let (took, _) = serving(
        &listener,
        || tcp_client(addr),
        |connect| {
            // The first request pays the key distribution.
            call(&mut BufReader::new(connect()), &request(0));
            let started = Instant::now();
            for k in 1..=16u8 {
                let line = call(&mut BufReader::new(connect()), &request(k));
                let response = wire::response_from_json(&line).unwrap();
                assert!(response.report.unwrap().all_decided(&[k]));
            }
            started.elapsed()
        },
    );
    assert!(
        took < Duration::from_millis(100),
        "16 fresh connections took {took:?}: each one waited on the acceptor"
    );
}

/// Send `script` and read frames until the server hangs up, with every
/// response's `wall_us` (a timing) masked.
fn frames_until_close(mut stream: impl Read + Write, script: &[u8]) -> Vec<String> {
    stream.write_all(script).expect("send");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read to close");
    text.lines()
        .map(|frame| match frame.split_once("\"wall_us\": ") {
            Some((head, tail)) => {
                let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
                format!("{head}\"wall_us\": _{}", &tail[digits..])
            }
            None => frame.to_string(),
        })
        .collect()
}

#[test]
fn unix_and_tcp_listeners_answer_alike() {
    let mut script = Vec::new();
    for request in [
        wire::request_to_json(
            &SpecBuilder::new(Protocol::ChainFd, 5).with_input(b"v".to_vec()),
            Some("keyed"),
        )
        .unwrap(),
        "{nope".to_string(),
        String::new(),
        "{\"op\": \"reboot\"}".to_string(),
        wire::request_to_json(
            &SpecBuilder::new(Protocol::NonAuthFd, 5).with_input(b"w".to_vec()),
            Some("key-free"),
        )
        .unwrap(),
    ] {
        script.extend(request.as_bytes());
        script.push(b'\n');
    }
    script.extend(b"\xff\xfe\n");
    // Past the cap with no newline: one error frame, then a close.
    script.extend(std::iter::repeat_n(b'x', service::MAX_REQUEST_LINE + 1));

    let tcp = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = tcp.local_addr().unwrap();
    let (over_tcp, _) = serving(
        &tcp,
        || tcp_client(addr),
        |connect| frames_until_close(connect(), &script),
    );
    let path = temp_path("alike.sock");
    let unix = service::bind_unix(&path).unwrap();
    let (over_unix, _) = serving(
        &unix,
        || UnixStream::connect(&path).expect("connect"),
        |connect| frames_until_close(connect(), &script),
    );
    let _ = std::fs::remove_file(&path);

    assert_eq!(over_tcp.len(), 6, "{over_tcp:#?}");
    assert!(over_tcp[0].contains("\"ok\": true"), "{}", over_tcp[0]);
    assert!(over_tcp[2].contains("unknown op reboot"), "{}", over_tcp[2]);
    assert!(over_tcp[3].contains("\"ok\": true"), "{}", over_tcp[3]);
    assert!(over_tcp[4].contains("not UTF-8"), "{}", over_tcp[4]);
    assert!(
        over_tcp[5].contains("exceeds 1048576 bytes"),
        "{}",
        over_tcp[5]
    );
    assert_eq!(over_unix, over_tcp);
}

#[test]
fn shutdown_wakes_an_idle_acceptor() {
    let tcp = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = tcp.local_addr().unwrap();
    let ((), over_tcp) = serving(&tcp, || tcp_client(addr), |_| ());
    let path = temp_path("wake.sock");
    let unix = service::bind_unix(&path).unwrap();
    let ((), over_unix) = serving(&unix, || UnixStream::connect(&path).unwrap(), |_| ());
    let _ = std::fs::remove_file(&path);
    for (kind, returned) in [("tcp", over_tcp), ("unix", over_unix)] {
        assert!(
            returned < Duration::from_secs(1),
            "{kind}: serve returned {returned:?} after the shutdown"
        );
    }
}

#[test]
fn a_stale_unix_socket_is_replaced_and_a_live_one_refused() {
    let path = temp_path("stale.sock");
    let _ = std::fs::remove_file(&path);
    // A server killed mid-flight leaves its socket file behind. (An
    // in-process listener dropped here could live on for a moment in a
    // child another test is spawning.)
    let mut crashed = Command::new(env!("CARGO_BIN_EXE_lafd"))
        .args(["serve", "--unix", path.to_str().unwrap()])
        .stdin(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lafd serve");
    let mut announcement = String::new();
    BufReader::new(crashed.stderr.take().unwrap())
        .read_line(&mut announcement)
        .unwrap();
    assert!(announcement.starts_with("serve: listening on "));
    crashed.kill().unwrap();
    crashed.wait().unwrap();
    assert!(path.exists(), "the killed server's socket file stays");

    let live = service::bind_unix(&path).expect("a stale socket is replaced");
    let refused = service::bind_unix(&path).expect_err("a live socket is refused");
    assert_eq!(refused.kind(), ErrorKind::AddrInUse, "{refused}");
    // The refusal left the live server's socket in place.
    UnixStream::connect(&path).expect("the live socket still answers");
    drop(live);
    let _ = std::fs::remove_file(&path);
}

/// Run `lafd` with `args`, killing it past 10 s (a refusal that did not
/// happen would otherwise serve forever); its exit code and stderr.
fn lafd_within_10s(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lafd"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lafd");
    let started = Instant::now();
    while child.try_wait().expect("poll lafd").is_none() {
        if started.elapsed() > Duration::from_secs(10) {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let output = child.wait_with_output().expect("lafd exits");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn serve_unix_refuses_a_path_that_is_not_a_socket() {
    let path = temp_path("precious.txt");
    std::fs::write(&path, "precious data").unwrap();
    let (code, stderr) = lafd_within_10s(&["serve", "--unix", path.to_str().unwrap()]);
    let kept = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("not a socket"), "{stderr}");
    assert_eq!(kept.unwrap(), "precious data");
}

#[test]
fn serve_refuses_flags_that_do_not_compose() {
    for args in [
        &["serve", "--listen", "127.0.0.1:0", "--unix", "x.sock"][..],
        &["serve", "--stdin", "--listen", "127.0.0.1:0"],
        &["serve", "--listen", "127.0.0.1:0", "--clients", "4"],
        &["serve", "--clients", "4", "--unix", "x.sock"],
    ] {
        let (code, stderr) = lafd_within_10s(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
    }
}
