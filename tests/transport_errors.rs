//! Typed-failure coverage for the deployment transport: every
//! [`TransportError`] variant a worker can hit in the field must be
//! provokeable through the public API and must surface *as that typed
//! variant*, not as a stringly-typed catch-all. With retry disabled
//! (`RetryPolicy::once()`) the raw error passes through untouched; with
//! a budget, exhaustion wraps the final error in
//! [`TransportError::Exhausted`].

use local_auth_fd::core::deploy::{self, WorkerConfig, WorkerFailure};
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::wire::RegistryRequest;
use local_auth_fd::simnet::transport::chaos::{ChaosInjector, ChaosSpec, RetryCtx, RetryPolicy};
use local_auth_fd::simnet::transport::{MeshPeers, NbCluster, TransportError};
use local_auth_fd::simnet::{Envelope, Node, NodeId, Outbox};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A retry context that makes exactly one attempt, so the raw typed
/// error reaches the caller instead of an [`TransportError::Exhausted`]
/// wrapper.
fn no_retry() -> RetryCtx {
    RetryCtx::new(RetryPolicy::once(), 0)
}

/// Bind a listener, record its address, and free the port again — the
/// closest thing to a guaranteed-dead local endpoint.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind throwaway listener");
    listener.local_addr().expect("local addr")
}

#[test]
fn unroutable_bind_interface_surfaces_as_a_typed_bind_error() {
    // 192.0.2.1 (TEST-NET-1) is never a local interface, so the mesh
    // listener bind fails before the worker ever contacts the registry —
    // the registry address below is deliberately dead.
    let builder = SpecBuilder::new(Protocol::ChainFd, 4)
        .with_seed(23)
        .with_input(b"attack at dawn".to_vec())
        .with_default_value(b"default".to_vec());
    let mut cfg = WorkerConfig::localhost(
        "127.0.0.1:9".to_string(),
        "run-bind-test".to_string(),
        0,
        Duration::from_secs(1),
    );
    cfg.bind = "192.0.2.1".to_string();
    match deploy::run_worker(&cfg, &builder) {
        Err(WorkerFailure::Transport {
            error: TransportError::Bind { node, .. },
            ..
        }) => assert_eq!(node, NodeId(0)),
        other => panic!("expected a typed Bind failure, got {other:?}"),
    }
}

#[test]
fn refused_mesh_connect_surfaces_as_a_typed_connect_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mesh listener");
    let my_addr = listener.local_addr().expect("local addr");
    // Node 0 dials every higher id; peer 1's port is dead.
    let addrs = [my_addr, dead_addr()];
    let err = MeshPeers::establish_with(
        NodeId(0),
        &listener,
        &addrs,
        Duration::from_secs(2),
        &no_retry(),
        None,
    )
    .expect_err("connecting to a dead port must fail");
    match err {
        TransportError::Connect { node, peer, .. } => {
            assert_eq!(node, NodeId(0));
            assert_eq!(peer, NodeId(1));
        }
        other => panic!("expected a typed Connect error, got {other}"),
    }
}

#[test]
fn handshake_reset_surfaces_as_a_typed_handshake_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mesh listener");
    let my_addr = listener.local_addr().expect("local addr");
    // A live peer listener so the TCP connect itself succeeds; the chaos
    // injector then resets every handshake (reset=100), and with retry
    // disabled the reset reaches the caller as the raw typed error.
    let peer_listener = TcpListener::bind("127.0.0.1:0").expect("bind peer listener");
    let addrs = [my_addr, peer_listener.local_addr().expect("local addr")];
    let spec = ChaosSpec::parse("seed=1;reset=100").expect("valid chaos spec");
    let chaos = ChaosInjector::new(spec, 0, 0);
    let err = MeshPeers::establish_with(
        NodeId(0),
        &listener,
        &addrs,
        Duration::from_secs(2),
        &no_retry(),
        Some(&chaos),
    )
    .expect_err("a 100% reset rate must fail the handshake");
    match err {
        TransportError::Handshake { node, peer, detail } => {
            assert_eq!(node, NodeId(0));
            assert_eq!(peer, Some(NodeId(1)));
            assert!(
                detail.contains("chaos: connection reset"),
                "handshake error must carry the reset detail, got: {detail}"
            );
        }
        other => panic!("expected a typed Handshake error, got {other}"),
    }
}

#[test]
fn silent_connectors_share_one_establishment_deadline() {
    // Node 2 of 3 accepts nodes 0 and 1, which both connect and never
    // send their id. The id reads may spend only what is left of the one
    // establishment deadline, so setup fails after about one deadline,
    // not after one deadline per silent connector.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mesh listener");
    let addr = listener.local_addr().expect("local addr");
    let _silent: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("connect a silent peer"))
        .collect();
    let start = Instant::now();
    let result = MeshPeers::establish(NodeId(2), &listener, &[addr; 3], Duration::from_secs(1));
    let took = start.elapsed();
    assert!(
        matches!(
            result,
            Err(TransportError::Deadline {
                node: NodeId(2),
                ..
            })
        ),
        "{result:?}"
    );
    assert!(
        took < Duration::from_millis(1600),
        "mesh setup took {took:?}"
    );
}

#[test]
fn unreachable_registry_surfaces_as_a_typed_io_error() {
    let gone = dead_addr();
    let err = deploy::registry_call_with(
        &gone.to_string(),
        &RegistryRequest::Collect {
            run: "run-io-test".to_string(),
        },
        Duration::from_millis(500),
        NodeId(3),
        &no_retry(),
        None,
    )
    .expect_err("calling a dead registry must fail");
    match err {
        TransportError::Io { node, .. } => assert_eq!(node, NodeId(3)),
        other => panic!("expected a typed Io error, got {other}"),
    }
}

#[test]
fn silent_accept_side_surfaces_as_a_typed_deadline_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mesh listener");
    let my_addr = listener.local_addr().expect("local addr");
    // Node 1 dials nobody (no higher ids) and waits for node 0 to dial
    // in — which never happens, so the accept loop's deadline fires.
    let addrs = [dead_addr(), my_addr];
    let err = MeshPeers::establish_with(
        NodeId(1),
        &listener,
        &addrs,
        Duration::from_millis(300),
        &no_retry(),
        None,
    )
    .expect_err("an accept side nobody dials must time out");
    match err {
        TransportError::Deadline { node, waiting, .. } => {
            assert_eq!(node, NodeId(1));
            assert!(
                waiting.contains("peer connection"),
                "deadline must say what it was waiting for, got: {waiting}"
            );
        }
        other => panic!("expected a typed Deadline error, got {other}"),
    }
}

#[test]
fn an_exhausted_retry_budget_wraps_the_final_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mesh listener");
    let my_addr = listener.local_addr().expect("local addr");
    let addrs = [my_addr, dead_addr()];
    let policy = RetryPolicy {
        max_attempts: 2,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(2),
    };
    let err = MeshPeers::establish_with(
        NodeId(0),
        &listener,
        &addrs,
        Duration::from_secs(2),
        &RetryCtx::new(policy, 7),
        None,
    )
    .expect_err("a dead peer must exhaust the retry budget");
    match err {
        TransportError::Exhausted {
            node,
            context,
            attempts,
            last,
        } => {
            assert_eq!(node, NodeId(0));
            assert_eq!(attempts, 2);
            assert!(
                context.contains("mesh connect peer 1"),
                "exhaustion must name the retried site, got: {context}"
            );
            assert!(
                !last.is_empty(),
                "exhaustion must carry the final attempt's error"
            );
        }
        other => panic!("expected a typed Exhausted error, got {other}"),
    }
}

/// A node that panics on its first round — the stand-in for a worker
/// whose automaton has a genuine bug rather than a transport fault.
struct PanickyNode {
    id: NodeId,
    panics: bool,
}

impl Node for PanickyNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn on_round(&mut self, _round: u32, _inbox: &[Envelope], _out: &mut Outbox) {
        if self.panics {
            panic!("scripted automaton bug");
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[test]
fn a_panicking_worker_thread_surfaces_as_a_typed_worker_panic() {
    let nodes: Vec<Box<dyn Node>> = vec![
        Box::new(PanickyNode {
            id: NodeId(0),
            panics: false,
        }),
        Box::new(PanickyNode {
            id: NodeId(1),
            panics: true,
        }),
    ];
    let report = NbCluster::new(2)
        .with_io_deadline(Duration::from_secs(2))
        .run(nodes);
    assert!(
        report
            .errors
            .iter()
            .any(|e| matches!(e, TransportError::WorkerPanic { node } if *node == NodeId(1))),
        "the panicking slot must surface as WorkerPanic, got: {:?}",
        report.errors
    );
}
