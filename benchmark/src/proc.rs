//! Child-process hygiene: build and locate `lafd`, run a child to its exit
//! under a deadline with its resource usage, keep a `lafd serve` alive
//! behind a drop guard, and never leave a process behind.
//!
//! Every child is the leader of its own process group, so one `kill(-pgid)`
//! also reaches the registry and workers `lafd cluster` spawns.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// An op that errors or hangs longer than this is a failed op.
pub const OP_DEADLINE: Duration = Duration::from_secs(30);

const SIGKILL: i32 = 9;
const RUSAGE_SELF: i32 = 0;

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// SIGKILL a whole process group. A group that is already gone is fine.
fn kill_group(pgid: i32) {
    // SAFETY: `kill` takes plain integers and touches no memory of ours; a
    // negative pid addresses the process group this module created with
    // `process_group(0)`, never an arbitrary process.
    unsafe {
        kill(-pgid, SIGKILL);
    }
}

/// CPU seconds (user + system) this process has used so far.
pub fn self_cpu_seconds() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, correctly laid out `struct rusage` that the
    // call only writes into.
    unsafe {
        getrusage(RUSAGE_SELF, &mut usage);
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    secs(usage.utime) + secs(usage.stime)
}

/// One field of `/proc/PID/status` in KiB (`VmHWM`, `VmRSS`).
pub fn proc_status_kb(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Where cargo puts build products for this checkout: `CARGO_TARGET_DIR`
/// when the caller set it, else the repository's own `target/`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Build `lafd` from the checkout in the current directory (a no-op when it
/// is fresh) and return the binary, so a stale or missing binary cannot be
/// measured. Compilation happens before set-up and is part of no metric.
pub fn build_lafd() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").exists() || !Path::new("src/bin/lafd.rs").exists() {
        return Err(
            "run from the repository root: ./Cargo.toml and ./src/bin/lafd.rs not found"
                .to_string(),
        );
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "lafd",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --release --bin lafd failed: {status}"));
    }
    let lafd = target_dir().join("release").join("lafd");
    lafd.canonicalize()
        .map_err(|e| format!("built binary {}: {e}", lafd.display()))
}

/// Turns a hung child into a failed op: a background thread that kills the
/// armed process group once its deadline passes.
pub struct Watchdog {
    state: Arc<Mutex<WatchState>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

#[derive(Default)]
struct WatchState {
    armed: Option<(i32, Instant)>,
    fired: bool,
    stop: bool,
}

impl Watchdog {
    pub fn start() -> Watchdog {
        let state = Arc::new(Mutex::new(WatchState::default()));
        let shared = Arc::clone(&state);
        let thread = std::thread::spawn(move || loop {
            {
                let mut s = shared.lock().expect("watchdog state poisoned");
                if s.stop {
                    break;
                }
                if let Some((pgid, deadline)) = s.armed {
                    if Instant::now() > deadline {
                        kill_group(pgid);
                        s.armed = None;
                        s.fired = true;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        });
        Watchdog {
            state,
            thread: Some(thread),
        }
    }

    fn arm(&self, pgid: i32, deadline: Duration) {
        let mut s = self.state.lock().expect("watchdog state poisoned");
        s.armed = Some((pgid, Instant::now() + deadline));
        s.fired = false;
    }

    /// Disarm; `true` when the deadline had already fired.
    fn disarm(&self) -> bool {
        let mut s = self.state.lock().expect("watchdog state poisoned");
        s.armed = None;
        s.fired
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        if let Ok(mut s) = self.state.lock() {
            s.stop = true;
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// How a child run to its exit ended.
pub struct Exit {
    /// Exit code; `None` when a signal (the watchdog's included) ended it.
    pub code: Option<i32>,
    pub stdout: String,
    /// Largest resident set of the child and of every descendant it waited
    /// for, in KiB (`ru_maxrss` of `wait4`).
    pub maxrss_kb: u64,
    pub timed_out: bool,
    /// Spawn to reaped.
    pub wall: Duration,
}

/// Kills and reaps a child's process group unless told the child was reaped.
struct GroupGuard {
    pid: i32,
    reaped: bool,
}

impl Drop for GroupGuard {
    fn drop(&mut self) {
        if !self.reaped {
            kill_group(self.pid);
            // SAFETY: null status and rusage pointers are allowed by
            // `wait4`; `pid` is our own unreaped child.
            unsafe {
                wait4(self.pid, std::ptr::null_mut(), 0, std::ptr::null_mut());
            }
        }
    }
}

/// Spawn `cmd` in its own process group, read its stdout to the end, reap it
/// with `wait4`, and report how it went. `stderr_log` collects the child's
/// stderr for post-mortems.
pub fn run_to_exit(
    cmd: &mut Command,
    watchdog: &Watchdog,
    stderr_log: &Path,
) -> Result<Exit, String> {
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(stderr_log)
        .map_err(|e| format!("opening {}: {e}", stderr_log.display()))?;
    let started = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log)
        .process_group(0)
        .spawn()
        .map_err(|e| format!("spawning {:?}: {e}", cmd.get_program()))?;
    let pid = child.id() as i32;
    let mut guard = GroupGuard { pid, reaped: false };
    watchdog.arm(pid, OP_DEADLINE);
    let mut stdout = String::new();
    // Grandchildren inherit the pipe, so EOF means the whole tree is done
    // writing (or the watchdog killed the group).
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout);
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: both out-pointers are live locals of the exact C layouts; `pid`
    // is our own child, which nothing else reaps (`Child::wait` is never
    // called on it).
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = started.elapsed();
    let timed_out = watchdog.disarm();
    guard.reaped = reaped == pid;
    if !guard.reaped {
        return Err(format!("wait4({pid}) failed"));
    }
    let exited = status & 0x7f == 0;
    if !exited || timed_out {
        // A supervisor that died may leave workers behind in its group.
        kill_group(pid);
    }
    read.map_err(|e| format!("reading child stdout: {e}"))?;
    Ok(Exit {
        code: exited.then_some((status >> 8) & 0xff),
        stdout,
        maxrss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
        timed_out,
        wall,
    })
}

/// A running `lafd serve --listen 127.0.0.1:0`; dropping it kills the
/// process on every exit path that did not shut it down.
pub struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
    pub addr: String,
    down: bool,
}

impl Server {
    pub fn spawn(lafd: &Path, watchdog: &Watchdog) -> Result<Server, String> {
        let mut child = Command::new(lafd)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--max-sessions",
                "8",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .process_group(0)
            .spawn()
            .map_err(|e| format!("spawning {} serve: {e}", lafd.display()))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut server = Server {
            child,
            stderr,
            addr: String::new(),
            down: false,
        };
        // The watchdog bounds the wait for the announcement: killing the
        // server closes its stderr and ends the blocking read below.
        watchdog.arm(server.pid() as i32, OP_DEADLINE);
        let mut line = String::new();
        let read = server.stderr.read_line(&mut line);
        watchdog.disarm();
        read.map_err(|e| format!("reading serve stderr: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("serve: listening on ")
            .ok_or_else(|| format!("lafd serve did not announce an address (got {line:?})"))?
            .to_string();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set of the server so far, in KiB.
    pub fn vm_hwm_kb(&self) -> Option<u64> {
        proc_status_kb(self.pid(), "VmHWM")
    }

    /// Graceful drain: `{"op": "shutdown"}`, then wait for exit 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::open(&self.addr)?;
        conn.call("{\"op\": \"shutdown\"}")?;
        let deadline = Instant::now() + OP_DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.down = true;
                    // Drain the final metrics the server prints on exit.
                    let mut rest = String::new();
                    let _ = self.stderr.read_to_string(&mut rest);
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("lafd serve exited with {status}: {rest}"))
                    };
                }
                Ok(None) if Instant::now() > deadline => {
                    return Err("lafd serve ignored the shutdown request".to_string());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for lafd serve: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.down {
            kill_group(self.pid() as i32);
            let _ = self.child.wait();
        }
    }
}

/// One closed-loop client connection: a request line out, a response line in.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(OP_DEADLINE))
            .and_then(|()| stream.set_write_timeout(Some(OP_DEADLINE)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("configuring connection: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Send one request and wait for its response line. The request and its
    /// newline leave in a single write so the client adds no stall of its own.
    pub fn call(&mut self, request: &str) -> Result<String, String> {
        let framed = format!("{request}\n");
        self.reader
            .get_mut()
            .write_all(framed.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}
