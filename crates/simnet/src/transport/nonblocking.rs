//! Non-blocking readiness-loop mesh — the deployment transport.
//!
//! This transport drives *all* of a node's connections from a
//! **single-threaded readiness loop** over nonblocking `TcpStream`s
//! (poll/mio style, no tokio): each sweep attempts partial reads and
//! writes on every peer,
//! parses complete frames out of per-peer read buffers, and flushes
//! per-peer write queues as the kernel accepts bytes. `std` has no
//! portable `poll(2)` wrapper, so an idle sweep parks for 200 µs instead
//! of blocking in the kernel; an epoll/kqueue backend could replace that
//! nap without touching any of the framing or round logic.
//!
//! **Simulator-matching termination.** Round markers carry `(is_done,
//! sent_count)`. After executing round `r`, a node waits for every peer's
//! round-`r` marker; if all `n` nodes reported done and nobody sent a
//! message in round `r`, everyone deterministically stops with `rounds =
//! r + 1` — exactly the early-stop rule of
//! [`crate::SyncNetwork::run_until_done`]. Combined with the simulator's
//! delivery order (sender id, then send order — per-sender TCP FIFO plus a
//! stable sort), a mesh run reproduces the sync engine's `NetStats` and
//! outcomes byte for byte. Messages a node addresses to *itself* are
//! delivered locally (the simulator delivers them too).
//!
//! **Delay shim.** An optional [`DelayShim`] reuses the event engine's
//! [`LatencyModel`]: outgoing frames are held in the write queue until
//! `round_wall · delay_ticks / TICKS_PER_ROUND` of wall time has passed
//! since the round started, so jitter/partial-synchrony models pace real
//! sockets. Because a round marker is queued *behind* the frames of its
//! round (FIFO per peer), marker gating still delivers every message into
//! the next round's inbox: the shim stretches wall time and socket-level
//! interleavings, never the protocol-visible round structure — counters
//! and outcomes stay byte-identical to the synchronous engine.
//!
//! Property N2 holds structurally as everywhere else: frames are
//! attributed to the connection they arrived on.

use super::chaos::{transient, with_retry, ChaosInjector, ChaosPhase, RetryCtx};
use super::{ClusterReport, TransportError};
use crate::event::TICKS_PER_ROUND;
use crate::{Envelope, LatencyModel, NetStats, Node, NodeId, Outbox};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const TAG_MSG: u8 = 0;
const TAG_MARKER: u8 = 1;

/// How long an idle readiness sweep parks before the next sweep.
const IDLE_NAP: Duration = Duration::from_micros(200);

/// Wall-clock pacing of outgoing frames by a virtual-latency model: a
/// frame sent in round `r` from `from` to `to` leaves the write queue
/// `round_wall · model.delay(from, to, r) / TICKS_PER_ROUND` after the
/// round started. The synchronous model paces every link by exactly
/// `round_wall`; jitter/psync models spread links apart.
pub struct DelayShim {
    /// The virtual latency model deciding per-link flight ticks.
    pub model: Box<dyn LatencyModel>,
    /// Wall-clock duration of one virtual round ([`TICKS_PER_ROUND`]
    /// ticks).
    pub round_wall: Duration,
}

impl DelayShim {
    /// Wall-clock hold time for a frame.
    fn hold(&self, from: NodeId, to: NodeId, round: u32) -> Duration {
        let ticks = self.model.delay(from, to, round).max(1);
        let nanos = self.round_wall.as_nanos() * u128::from(ticks) / u128::from(TICKS_PER_ROUND);
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }
}

impl core::fmt::Debug for DelayShim {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DelayShim")
            .field("model", &self.model.name())
            .field("round_wall", &self.round_wall)
            .finish()
    }
}

/// An established full mesh for one node: the `n − 1` peer connections,
/// each bound to the peer identity fixed at handshake time (property N2).
#[derive(Debug)]
pub struct MeshPeers {
    me: NodeId,
    n: usize,
    peers: HashMap<NodeId, TcpStream>,
}

impl MeshPeers {
    /// Establish the mesh from a roster: connect to every higher id
    /// (sending our id as a 2-byte handshake), accept every lower id
    /// (reading theirs). `addrs[i]` must be node `i`'s listener address;
    /// `listener` must be the one bound at `addrs[me]`.
    pub fn establish(
        me: NodeId,
        listener: &TcpListener,
        addrs: &[SocketAddr],
        io_deadline: Duration,
    ) -> Result<MeshPeers, TransportError> {
        MeshPeers::establish_with(me, listener, addrs, io_deadline, &RetryCtx::default(), None)
    }

    /// [`MeshPeers::establish`] with an explicit retry context around every
    /// connect + handshake (transient failures back off and retry up to
    /// the policy's budget) and an optional [`ChaosInjector`] whose
    /// refuse/reset/accept-delay rules are exercised at the corresponding
    /// sites. Chaos faults are injected *inside* the retried operation, so
    /// they are healed by the same retry path that heals real ones.
    pub fn establish_with(
        me: NodeId,
        listener: &TcpListener,
        addrs: &[SocketAddr],
        io_deadline: Duration,
        retry: &RetryCtx,
        chaos: Option<&ChaosInjector>,
    ) -> Result<MeshPeers, TransportError> {
        let n = addrs.len();
        let mut peers = HashMap::with_capacity(n.saturating_sub(1));
        for (peer, addr) in addrs.iter().enumerate().skip(me.index() + 1) {
            let peer_id = NodeId(peer as u16);
            let site = format!("mesh connect peer {peer}");
            let stream = with_retry(me, &site, retry, transient, |attempt| {
                if let Some(inj) = chaos {
                    if inj.refuse_connect(&site, attempt) {
                        return Err(TransportError::Connect {
                            node: me,
                            peer: peer_id,
                            error: "chaos: connection refused".to_string(),
                        });
                    }
                }
                let mut stream = TcpStream::connect_timeout(addr, io_deadline).map_err(|e| {
                    TransportError::Connect {
                        node: me,
                        peer: peer_id,
                        error: e.to_string(),
                    }
                })?;
                if let Some(inj) = chaos {
                    if inj.reset_handshake(peer, attempt) {
                        // Connect, then vanish before identifying: the
                        // acceptor sees EOF mid-handshake and must skip
                        // the carcass; we retry with backoff.
                        drop(stream);
                        return Err(TransportError::Handshake {
                            node: me,
                            peer: Some(peer_id),
                            detail: "chaos: connection reset during handshake".to_string(),
                        });
                    }
                }
                stream
                    .write_all(&me.0.to_be_bytes())
                    .map_err(|e| TransportError::Handshake {
                        node: me,
                        peer: Some(peer_id),
                        detail: e.to_string(),
                    })?;
                Ok(stream)
            })?;
            peers.insert(peer_id, stream);
        }
        listener
            .set_nonblocking(true)
            .map_err(|e| TransportError::io(me, "nonblocking accept", &e))?;
        let deadline = Instant::now() + io_deadline;
        let mut expected = me.index();
        while expected > 0 {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| TransportError::io(me, "blocking handshake", &e))?;
                    stream
                        .set_read_timeout(Some(io_deadline))
                        .map_err(|e| TransportError::io(me, "handshake timeout", &e))?;
                    let mut id_buf = [0u8; 2];
                    if stream.read_exact(&mut id_buf).is_err() {
                        // A peer connected and died before identifying
                        // (reset, crash, chaos): drop the carcass and keep
                        // accepting — its owner retries with a fresh
                        // connection.
                        continue;
                    }
                    let peer = NodeId(u16::from_be_bytes(id_buf));
                    if peer >= me || peers.contains_key(&peer) {
                        return Err(TransportError::Handshake {
                            node: me,
                            peer: Some(peer),
                            detail: format!("unexpected handshake from {peer}"),
                        });
                    }
                    if let Some(inj) = chaos {
                        if let Some(hold) = inj.accept_delay(peer.index()) {
                            std::thread::sleep(hold);
                        }
                    }
                    peers.insert(peer, stream);
                    expected -= 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Deadline {
                            node: me,
                            waiting: format!("{expected} peer connection(s)"),
                            after: io_deadline,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(TransportError::io(me, "accept peer", &e)),
            }
        }
        for stream in peers.values() {
            stream
                .set_nonblocking(true)
                .map_err(|e| TransportError::io(me, "nonblocking stream", &e))?;
            let _ = stream.set_nodelay(true);
        }
        Ok(MeshPeers { me, n, peers })
    }

    /// This node's identity.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// System size (peers + self).
    pub fn n(&self) -> usize {
        self.n
    }
}

/// One frame queued for a peer, with the wall instant it may hit the wire
/// and an optional chaos stall: write half the frame, hold the rest for
/// the stall duration (exercising partial-write resumption on the
/// receiver).
struct OutFrame {
    bytes: Vec<u8>,
    due: Instant,
    stall: Option<Duration>,
}

/// Per-peer I/O state of the readiness loop.
struct PeerIo {
    stream: TcpStream,
    /// Unparsed inbound bytes (partial frames).
    rbuf: Vec<u8>,
    /// Frames not yet started (FIFO; head flushes when due).
    outq: VecDeque<OutFrame>,
    /// The frame currently on the wire, partially written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Chaos stall on the current frame: `(byte limit, resume instant)` —
    /// no byte past `limit` hits the wire before `resume`.
    wstall: Option<(usize, Instant)>,
    /// The read half reached EOF (peer finished or vanished).
    eof: bool,
}

impl PeerIo {
    fn writes_pending(&self) -> bool {
        self.wpos < self.wbuf.len() || !self.outq.is_empty()
    }
}

fn frame_bytes(tag: u8, round: u32, payload: &[u8]) -> Vec<u8> {
    let len = 1 + 4 + payload.len();
    let mut bytes = Vec::with_capacity(4 + len);
    bytes.extend_from_slice(&(len as u32).to_be_bytes());
    bytes.push(tag);
    bytes.extend_from_slice(&round.to_be_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// A parsed inbound frame.
enum InFrame {
    Msg { round: u32, payload: Vec<u8> },
    Marker { round: u32, done: bool, sent: u64 },
}

/// Result of one mesh run (one protocol phase on one node).
pub struct MeshRun {
    /// The automaton, for outcome extraction.
    pub node: Box<dyn Node>,
    /// This node's local statistics (sends only — aggregate across nodes
    /// the way [`ClusterReport`] builders do).
    pub stats: NetStats,
    /// Rounds executed (identical on every node of the mesh by the
    /// deterministic termination rule).
    pub rounds: u32,
}

/// The single-threaded readiness-loop executor for one node of a mesh.
///
/// Construct per phase (the [`DelayShim`] is consumed by the run), then
/// [`run`](NonblockingMesh::run) the node over an established
/// [`MeshPeers`]. The mesh closes its connections at the end of the phase;
/// re-establish for the next phase.
#[derive(Debug)]
pub struct NonblockingMesh {
    rounds_limit: u32,
    io_deadline: Duration,
    shim: Option<DelayShim>,
    chaos: Option<ChaosInjector>,
}

impl NonblockingMesh {
    /// A mesh phase running at most `rounds_limit` rounds (it stops early
    /// by the simulator's rule — see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `rounds_limit == 0`.
    pub fn new(rounds_limit: u32) -> Self {
        assert!(rounds_limit > 0, "at least one round required");
        NonblockingMesh {
            rounds_limit,
            io_deadline: super::DEFAULT_IO_DEADLINE,
            shim: None,
            chaos: None,
        }
    }

    /// Replace the default 60 s no-progress deadline.
    #[must_use]
    pub fn with_io_deadline(mut self, io_deadline: Duration) -> Self {
        self.io_deadline = io_deadline;
        self
    }

    /// Install a wall-clock delay shim on outgoing frames.
    #[must_use]
    pub fn with_delay_shim(mut self, shim: DelayShim) -> Self {
        self.shim = Some(shim);
        self
    }

    /// Install a chaos injector: `round:k` kill rules fire at the top of
    /// round `k` (the run returns [`TransportError::Killed`] and nothing
    /// of round `k` reaches the wire), and stall rules hold the second
    /// half of selected outgoing frames.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosInjector) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Run the node over the mesh until the termination rule fires or
    /// `rounds_limit` rounds have executed, then close the connections.
    pub fn run(self, mut node: Box<dyn Node>, peers: MeshPeers) -> Result<MeshRun, TransportError> {
        let MeshPeers { me, n, peers } = peers;
        let mut io: HashMap<NodeId, PeerIo> = peers
            .into_iter()
            .map(|(peer, stream)| {
                (
                    peer,
                    PeerIo {
                        stream,
                        rbuf: Vec::new(),
                        outq: VecDeque::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        wstall: None,
                        eof: false,
                    },
                )
            })
            .collect();

        let mut stats = NetStats::new(n);
        // round -> messages delivered in round + 1, in arrival order.
        let mut buffered: HashMap<u32, Vec<Envelope>> = HashMap::new();
        // round -> per-node (done, sent) termination votes.
        let mut markers: HashMap<u32, HashMap<NodeId, (bool, u64)>> = HashMap::new();
        let mut rounds_executed = self.rounds_limit;

        for round in 0..self.rounds_limit {
            if let Some(inj) = &self.chaos {
                if inj.should_kill(ChaosPhase::Round(round)) {
                    // Crash semantics: drop every socket abruptly (no
                    // flush, no FIN handshake) and surface the typed kill.
                    drop(io);
                    return Err(TransportError::Killed {
                        node: me,
                        phase: ChaosPhase::Round(round).label(),
                    });
                }
            }
            let round_start = Instant::now();
            let inbox = if round > 0 {
                let mut msgs = buffered.remove(&(round - 1)).unwrap_or_default();
                // Simulator order: by sender id, then send order (stable).
                msgs.sort_by_key(|e| e.from);
                msgs
            } else {
                Vec::new()
            };

            let mut out = Outbox::new();
            node.on_round(round, &inbox, &mut out);

            let before = stats.messages_total;
            let mut stall_idx: HashMap<NodeId, u64> = HashMap::new();
            for (to, payload) in out.into_messages() {
                if to.index() >= n {
                    stats.dropped_invalid += 1;
                    continue;
                }
                let env = Envelope {
                    from: me,
                    to,
                    round,
                    payload,
                };
                stats.record_send(me, round, env.wire_len());
                if to == me {
                    // The simulator delivers self-addressed messages in
                    // the next round; so do we.
                    buffered.entry(round).or_default().push(env);
                    continue;
                }
                let due = match &self.shim {
                    Some(shim) => round_start + shim.hold(me, to, round),
                    None => round_start,
                };
                let stall = self.chaos.as_ref().and_then(|inj| {
                    let idx = stall_idx.entry(to).or_insert(0);
                    let decision = inj.stall(to.index(), round, *idx);
                    *idx += 1;
                    decision
                });
                let frame = frame_bytes(TAG_MSG, round, &env.payload);
                io.get_mut(&to)
                    .expect("established peer")
                    .outq
                    .push_back(OutFrame {
                        bytes: frame,
                        due,
                        stall,
                    });
            }
            let sent = (stats.messages_total - before) as u64;
            let done = node.is_done();

            // Termination vote to everyone (FIFO keeps it behind this
            // round's frames, so marker gating still implies delivery).
            let mut marker_payload = [0u8; 9];
            marker_payload[0] = u8::from(done);
            marker_payload[1..9].copy_from_slice(&sent.to_be_bytes());
            for peer_io in io.values_mut() {
                peer_io.outq.push_back(OutFrame {
                    bytes: frame_bytes(TAG_MARKER, round, &marker_payload),
                    due: round_start,
                    stall: None,
                });
            }
            markers.entry(round).or_default().insert(me, (done, sent));

            // Pump until every node's round-`round` vote is in.
            let mut last_progress = Instant::now();
            while markers.get(&round).map_or(0, HashMap::len) < n {
                let progress = sweep(me, &mut io, &mut buffered, &mut markers)?;
                if progress {
                    last_progress = Instant::now();
                } else {
                    if let Some(peer) = io.iter().find_map(|(peer, s)| {
                        (s.eof && !markers.get(&round).is_some_and(|m| m.contains_key(peer)))
                            .then_some(*peer)
                    }) {
                        return Err(TransportError::PeerLost {
                            node: me,
                            peer,
                            round,
                        });
                    }
                    if last_progress.elapsed() > self.io_deadline {
                        return Err(TransportError::Deadline {
                            node: me,
                            waiting: format!("round {round} markers"),
                            after: self.io_deadline,
                        });
                    }
                    std::thread::sleep(IDLE_NAP);
                }
            }

            // The simulator's early-stop rule, evaluated on identical data
            // by every node: all done and nothing in flight.
            let votes = &markers[&round];
            let all_done = votes.values().all(|(done, _)| *done);
            let in_flight: u64 = votes.values().map(|(_, sent)| *sent).sum();
            if all_done && in_flight == 0 {
                rounds_executed = round + 1;
                break;
            }
        }

        self.close(me, &mut io, &mut buffered, &mut markers)?;
        stats.rounds = rounds_executed;
        Ok(MeshRun {
            node,
            stats,
            rounds: rounds_executed,
        })
    }

    /// Graceful close: flush every queued frame, send FIN, drain peers to
    /// EOF (best effort — every node has already collected all the data it
    /// needs by the termination rule).
    fn close(
        &self,
        me: NodeId,
        io: &mut HashMap<NodeId, PeerIo>,
        buffered: &mut HashMap<u32, Vec<Envelope>>,
        markers: &mut HashMap<u32, HashMap<NodeId, (bool, u64)>>,
    ) -> Result<(), TransportError> {
        let deadline = Instant::now() + self.io_deadline;
        while io.values().any(PeerIo::writes_pending) {
            let progress = sweep(me, io, buffered, markers)?;
            if !progress {
                if Instant::now() >= deadline {
                    return Err(TransportError::Deadline {
                        node: me,
                        waiting: "final flush".to_string(),
                        after: self.io_deadline,
                    });
                }
                std::thread::sleep(IDLE_NAP);
            }
        }
        for peer_io in io.values() {
            let _ = peer_io.stream.shutdown(std::net::Shutdown::Write);
        }
        while !io.values().all(|s| s.eof) {
            match sweep(me, io, buffered, markers) {
                Ok(true) => {}
                Ok(false) => {
                    if Instant::now() >= deadline {
                        break; // best effort
                    }
                    std::thread::sleep(IDLE_NAP);
                }
                Err(_) => break, // peer dropped first; nothing left to need
            }
        }
        Ok(())
    }
}

/// One readiness sweep over every peer: flush due writes, absorb readable
/// bytes, parse complete frames. Returns whether any byte moved.
fn sweep(
    me: NodeId,
    io: &mut HashMap<NodeId, PeerIo>,
    buffered: &mut HashMap<u32, Vec<Envelope>>,
    markers: &mut HashMap<u32, HashMap<NodeId, (bool, u64)>>,
) -> Result<bool, TransportError> {
    let mut progress = false;
    let now = Instant::now();
    let mut scratch = [0u8; 65536];
    for (&peer, s) in io.iter_mut() {
        // Writes: start the next due frame whenever the wire is caught up.
        loop {
            if s.wpos >= s.wbuf.len() {
                match s.outq.front() {
                    Some(frame) if frame.due <= now => {
                        let frame = s.outq.pop_front().expect("checked front");
                        s.wstall = frame.stall.map(|hold| (frame.bytes.len() / 2, now + hold));
                        s.wbuf = frame.bytes;
                        s.wpos = 0;
                    }
                    _ => break,
                }
            }
            // A stalled frame exposes only its first half until the
            // resume instant passes (partial-write injection).
            let end = match s.wstall {
                Some((limit, resume)) if now < resume => limit.min(s.wbuf.len()),
                Some(_) => {
                    s.wstall = None;
                    s.wbuf.len()
                }
                None => s.wbuf.len(),
            };
            if s.wpos >= end {
                break;
            }
            match s.stream.write(&s.wbuf[s.wpos..end]) {
                Ok(0) => {
                    return Err(TransportError::PeerLost {
                        node: me,
                        peer,
                        round: 0,
                    })
                }
                Ok(k) => {
                    s.wpos += k;
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::io(me, format!("send frame to {peer}"), &e)),
            }
        }
        // Reads: absorb whatever the kernel has.
        if !s.eof {
            loop {
                match s.stream.read(&mut scratch) {
                    Ok(0) => {
                        s.eof = true;
                        progress = true;
                        break;
                    }
                    Ok(k) => {
                        s.rbuf.extend_from_slice(&scratch[..k]);
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // Reset mid-close or a vanished peer: surfaces as
                        // EOF; the caller decides whether it still needed
                        // this peer.
                        s.eof = true;
                        progress = true;
                        break;
                    }
                }
            }
        }
        // Frames: parse every complete frame out of the read buffer.
        for frame in parse_frames(me, peer, &mut s.rbuf)? {
            match frame {
                InFrame::Msg { round, payload } => {
                    buffered.entry(round).or_default().push(Envelope {
                        from: peer,
                        to: me,
                        round,
                        payload: payload.into(),
                    })
                }
                InFrame::Marker { round, done, sent } => {
                    markers.entry(round).or_default().insert(peer, (done, sent));
                }
            }
        }
    }
    Ok(progress)
}

/// Split complete frames off the front of `rbuf`.
fn parse_frames(
    me: NodeId,
    peer: NodeId,
    rbuf: &mut Vec<u8>,
) -> Result<Vec<InFrame>, TransportError> {
    let mut frames = Vec::new();
    let mut consumed = 0;
    while rbuf.len() - consumed >= 4 {
        let len = u32::from_be_bytes(
            rbuf[consumed..consumed + 4]
                .try_into()
                .expect("4-byte slice"),
        ) as usize;
        if len < 5 {
            return Err(TransportError::Protocol {
                node: me,
                detail: format!("frame from {peer} too short ({len} bytes)"),
            });
        }
        if rbuf.len() - consumed < 4 + len {
            break;
        }
        let body = &rbuf[consumed + 4..consumed + 4 + len];
        let tag = body[0];
        let round = u32::from_be_bytes(body[1..5].try_into().expect("4-byte slice"));
        let payload = &body[5..];
        match tag {
            TAG_MSG => frames.push(InFrame::Msg {
                round,
                payload: payload.to_vec(),
            }),
            TAG_MARKER => {
                if payload.len() != 9 {
                    return Err(TransportError::Protocol {
                        node: me,
                        detail: format!("malformed marker from {peer}"),
                    });
                }
                frames.push(InFrame::Marker {
                    round,
                    done: payload[0] != 0,
                    sent: u64::from_be_bytes(payload[1..9].try_into().expect("8-byte slice")),
                });
            }
            // Unknown control tag: ignore (future extension space).
            _ => {}
        }
        consumed += 4 + len;
    }
    rbuf.drain(..consumed);
    Ok(frames)
}

/// In-process harness: every node on its own thread, each running the
/// single-threaded readiness loop over real localhost sockets. The
/// cross-validation tests compare its [`ClusterReport`] against
/// [`crate::SyncNetwork`]; the multi-process `lafd cluster` workers use
/// [`MeshPeers`]/[`NonblockingMesh`] directly.
#[derive(Debug, Clone)]
pub struct NbCluster {
    rounds_limit: u32,
    io_deadline: Duration,
    shim: Option<(crate::LatencySpec, u64, Duration)>,
}

impl NbCluster {
    /// A cluster running at most `rounds_limit` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds_limit == 0`.
    pub fn new(rounds_limit: u32) -> Self {
        assert!(rounds_limit > 0, "at least one round required");
        NbCluster {
            rounds_limit,
            io_deadline: super::DEFAULT_IO_DEADLINE,
            shim: None,
        }
    }

    /// Replace the default no-progress deadline.
    #[must_use]
    pub fn with_io_deadline(mut self, io_deadline: Duration) -> Self {
        self.io_deadline = io_deadline;
        self
    }

    /// Install a delay shim built from `spec` (seeded) on every node.
    #[must_use]
    pub fn with_delay_shim(
        mut self,
        spec: crate::LatencySpec,
        seed: u64,
        round_wall: Duration,
    ) -> Self {
        self.shim = Some((spec, seed, round_wall));
        self
    }

    /// Run the automata to completion.
    ///
    /// # Panics
    ///
    /// Panics on node id/index mismatches.
    pub fn run(&self, nodes: Vec<Box<dyn Node>>) -> ClusterReport {
        let n = nodes.len();
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.id(), NodeId(i as u16), "node id/index mismatch");
        }
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind listener");
            addrs.push(listener.local_addr().expect("local addr"));
            listeners.push(listener);
        }
        let addrs = std::sync::Arc::new(addrs);
        let mut handles = Vec::with_capacity(n);
        for (i, node) in nodes.into_iter().enumerate() {
            let listener = listeners[i].try_clone().expect("clone listener");
            let addrs = std::sync::Arc::clone(&addrs);
            let mesh = NonblockingMesh::new(self.rounds_limit).with_io_deadline(self.io_deadline);
            let mesh = match self.shim {
                Some((spec, seed, round_wall)) => mesh.with_delay_shim(DelayShim {
                    model: spec.build(seed),
                    round_wall,
                }),
                None => mesh,
            };
            handles.push(std::thread::spawn(
                move || -> Result<MeshRun, TransportError> {
                    let me = NodeId(i as u16);
                    let peers = MeshPeers::establish(me, &listener, &addrs, mesh.io_deadline)?;
                    mesh.run(node, peers)
                },
            ));
        }

        let mut finished: Vec<MeshRun> = Vec::with_capacity(n);
        let mut errors = Vec::new();
        for (i, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(Ok(run)) => finished.push(run),
                Ok(Err(e)) => errors.push(e),
                Err(_) => errors.push(TransportError::WorkerPanic {
                    node: NodeId(i as u16),
                }),
            }
        }

        // Every node derives the round count from the same votes; a
        // mismatch means the transport broke its own invariant.
        let rounds = finished.first().map_or(0, |run| run.rounds);
        for run in &finished {
            if run.rounds != rounds {
                errors.push(TransportError::Protocol {
                    node: run.node.id(),
                    detail: format!(
                        "termination disagreement: {} rounds vs {rounds}",
                        run.rounds
                    ),
                });
            }
        }

        let mut stats = NetStats::new(n);
        stats.rounds = rounds;
        for run in &finished {
            let id = run.node.id();
            for (r, count) in run.stats.per_round.iter().enumerate() {
                if stats.per_round.len() <= r {
                    stats.per_round.resize(r + 1, 0);
                }
                stats.per_round[r] += count;
            }
            stats.messages_total += run.stats.messages_total;
            stats.bytes_total += run.stats.bytes_total;
            stats.dropped_invalid += run.stats.dropped_invalid;
            stats.sent_by[id.index()] = run.stats.messages_total;
        }

        finished.sort_by_key(|run| run.node.id());
        ClusterReport {
            nodes: finished.into_iter().map(|run| run.node).collect(),
            stats,
            rounds,
            errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LatencySpec, SyncNetwork};
    use std::any::Any;

    /// Deterministic chatterbox: broadcasts in rounds `0..until` (node 0
    /// additionally messages itself and one out-of-range destination),
    /// then declares itself done — exercising loopback delivery,
    /// dropped-send accounting, and the early-stop rule.
    struct Chatter {
        id: NodeId,
        n: usize,
        until: u32,
        done: bool,
        got: Vec<(NodeId, u8)>,
    }

    impl Chatter {
        fn set(n: usize, until: u32) -> Vec<Box<dyn Node>> {
            (0..n)
                .map(|i| {
                    Box::new(Chatter {
                        id: NodeId(i as u16),
                        n,
                        until,
                        done: false,
                        got: Vec::new(),
                    }) as Box<dyn Node>
                })
                .collect()
        }
    }

    impl Node for Chatter {
        fn id(&self) -> NodeId {
            self.id
        }
        fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
            for env in inbox {
                self.got.push((env.from, env.payload[0]));
            }
            if round < self.until {
                out.broadcast(self.n, self.id, [round as u8]);
                if self.id == NodeId(0) {
                    out.send(self.id, [0xAA]);
                    out.send(NodeId(self.n as u16), [0xBB]); // invalid: dropped
                }
            } else {
                self.done = true;
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn into_any(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    }

    fn inboxes(report: &ClusterReport) -> Vec<Vec<(NodeId, u8)>> {
        report
            .nodes
            .iter()
            .map(|node| node.as_any().downcast_ref::<Chatter>().unwrap().got.clone())
            .collect()
    }

    #[test]
    fn mesh_reproduces_sync_network_exactly() {
        let (n, until, limit) = (5, 3, 9);
        let mut sync = SyncNetwork::new(Chatter::set(n, until));
        let sync_rounds = sync.run_until_done(limit);
        let (sync_nodes, sync_stats) = sync.finish();
        let sync_got: Vec<Vec<(NodeId, u8)>> = sync_nodes
            .iter()
            .map(|node| node.as_any().downcast_ref::<Chatter>().unwrap().got.clone())
            .collect();

        let report = NbCluster::new(limit)
            .with_io_deadline(Duration::from_secs(20))
            .run(Chatter::set(n, until));
        assert!(report.ok().is_ok(), "{:?}", report.errors);
        assert_eq!(report.rounds, sync_rounds, "early-stop rule diverged");
        assert_eq!(report.stats, sync_stats);
        assert_eq!(inboxes(&report), sync_got, "delivery order diverged");
        assert!(
            report.rounds < limit,
            "test must exercise early termination"
        );
    }

    #[test]
    fn delay_shim_changes_timing_not_results() {
        let (n, until, limit) = (4, 2, 6);
        let plain = NbCluster::new(limit)
            .with_io_deadline(Duration::from_secs(20))
            .run(Chatter::set(n, until));
        let shimmed = NbCluster::new(limit)
            .with_io_deadline(Duration::from_secs(20))
            .with_delay_shim(
                LatencySpec::Jitter { extra: 2 },
                7,
                Duration::from_millis(2),
            )
            .run(Chatter::set(n, until));
        assert!(plain.ok().is_ok() && shimmed.ok().is_ok());
        assert_eq!(plain.stats, shimmed.stats);
        assert_eq!(plain.rounds, shimmed.rounds);
        assert_eq!(inboxes(&plain), inboxes(&shimmed));
    }

    /// A node that dies mid-run must surface as typed errors on the
    /// survivors, never a hang.
    struct Quitter {
        id: NodeId,
        n: usize,
    }

    impl Node for Quitter {
        fn id(&self) -> NodeId {
            self.id
        }
        fn on_round(&mut self, round: u32, _inbox: &[Envelope], out: &mut Outbox) {
            if round == 1 && self.id == NodeId(0) {
                panic!("killed");
            }
            out.broadcast(self.n, self.id, [round as u8]);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn into_any(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    }

    #[test]
    fn vanished_node_is_loud_not_silent() {
        let n = 3;
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                Box::new(Quitter {
                    id: NodeId(i as u16),
                    n,
                }) as Box<dyn Node>
            })
            .collect();
        let report = NbCluster::new(5)
            .with_io_deadline(Duration::from_secs(5))
            .run(nodes);
        assert!(report.ok().is_err());
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, TransportError::WorkerPanic { node } if *node == NodeId(0))));
        assert!(report.errors.iter().any(|e| matches!(
            e,
            TransportError::PeerLost { .. } | TransportError::Deadline { .. }
        )));
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let _ = NbCluster::new(0);
    }

    #[test]
    fn nodes_returned_in_id_order() {
        let report = NbCluster::new(6).run(Chatter::set(4, 1));
        assert!(report.ok().is_ok(), "{:?}", report.errors);
        let ids: Vec<NodeId> = report.nodes.iter().map(|node| node.id()).collect();
        assert_eq!(ids, NodeId::all(4).collect::<Vec<_>>());
    }

    #[test]
    fn respects_max_rounds() {
        // `until` past the limit: never done, one self-send every round.
        let report = NbCluster::new(4).run(Chatter::set(1, u32::MAX));
        assert!(report.ok().is_ok(), "{:?}", report.errors);
        assert_eq!(report.rounds, 4);
        assert_eq!(report.stats.messages_total, 4);
    }

    #[test]
    fn single_node_mesh_stops_early() {
        let report = NbCluster::new(8).run(Chatter::set(1, 2));
        assert!(report.ok().is_ok(), "{:?}", report.errors);
        let mut sync = SyncNetwork::new(Chatter::set(1, 2));
        let sync_rounds = sync.run_until_done(8);
        let (_, sync_stats) = sync.finish();
        assert_eq!(report.rounds, sync_rounds);
        assert_eq!(report.stats, sync_stats);
    }
}
