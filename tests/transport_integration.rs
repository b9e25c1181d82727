//! Transport-agnosticism: the same protocol automata produce the same
//! message counts and outcomes on the deterministic simulator and on the
//! localhost TCP mesh (`NbCluster`, one readiness loop per node), one
//! phase at a time or key distribution and the protocol over one mesh.

use local_auth_fd::core::fd::{ChainFdNode, ChainFdParams};
use local_auth_fd::core::keys::{KeyStore, Keyring};
use local_auth_fd::core::localauth::{KeyDistNode, KEYDIST_ROUNDS};
use local_auth_fd::core::metrics;
use local_auth_fd::core::Outcome;
use local_auth_fd::crypto::{SchnorrScheme, SignatureScheme};
use local_auth_fd::simnet::transport::{
    ClusterReport, MeshPeers, NbCluster, NonblockingMesh, TransportError,
};
use local_auth_fd::simnet::{Envelope, Node, NodeId, Outbox, SyncNetwork};
use std::any::Any;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

fn scheme() -> Arc<dyn SignatureScheme> {
    Arc::new(SchnorrScheme::test_tiny())
}

fn keydist_nodes(n: usize, seed: u64) -> Vec<Box<dyn Node>> {
    let sch = scheme();
    (0..n)
        .map(|i| {
            let me = NodeId(i as u16);
            let ring = Keyring::generate(sch.as_ref(), me, seed);
            Box::new(KeyDistNode::new(me, n, Arc::clone(&sch), ring, seed)) as Box<dyn Node>
        })
        .collect()
}

fn extract_stores(nodes: Vec<Box<dyn Node>>) -> Vec<KeyStore> {
    nodes
        .into_iter()
        .map(|b| {
            let node = (b as Box<dyn Any>)
                .downcast::<KeyDistNode>()
                .expect("KeyDistNode");
            node.into_parts().0
        })
        .collect()
}

fn chain_fd_node(
    me: NodeId,
    n: usize,
    t: usize,
    seed: u64,
    store: KeyStore,
    value: &[u8],
) -> Box<dyn Node> {
    let sch = scheme();
    Box::new(ChainFdNode::new(
        me,
        ChainFdParams::new(n, t),
        Arc::clone(&sch),
        store,
        Keyring::generate(sch.as_ref(), me, seed),
        (me == NodeId(0)).then(|| value.to_vec()),
    ))
}

fn chain_fd_nodes(
    n: usize,
    t: usize,
    seed: u64,
    stores: &[KeyStore],
    value: &[u8],
) -> Vec<Box<dyn Node>> {
    NodeId::all(n)
        .zip(stores)
        .map(|(me, store)| chain_fd_node(me, n, t, seed, store.clone(), value))
        .collect()
}

fn extract_outcomes(nodes: Vec<Box<dyn Node>>) -> Vec<Outcome> {
    nodes
        .into_iter()
        .map(|b| {
            (b as Box<dyn Any>)
                .downcast::<ChainFdNode>()
                .expect("ChainFdNode")
                .outcome()
                .clone()
        })
        .collect()
}

#[test]
fn keydist_same_counts_on_all_transports() {
    let (n, seed) = (5usize, 71u64);

    let mut sim = SyncNetwork::new(keydist_nodes(n, seed));
    sim.run_until_done(KEYDIST_ROUNDS);
    let sim_msgs = sim.stats().messages_total;

    let tcp = NbCluster::new(KEYDIST_ROUNDS).run(keydist_nodes(n, seed));
    assert!(tcp.ok().is_ok(), "{:?}", tcp.errors);

    assert_eq!(sim_msgs, metrics::keydist_messages(n));
    assert_eq!(tcp.stats.messages_total, sim_msgs);

    // Stores agree across transports.
    let s_sim = extract_stores(sim.into_nodes());
    let s_tcp = extract_stores(tcp.nodes);
    for i in 0..n {
        for peer in NodeId::all(n) {
            assert_eq!(s_sim[i].accepted(peer), s_tcp[i].accepted(peer));
        }
    }
}

#[test]
fn chain_fd_same_outcomes_on_all_transports() {
    let (n, t, seed) = (6usize, 2usize, 73u64);
    // Key distribution once, on the simulator.
    let mut sim = SyncNetwork::new(keydist_nodes(n, seed));
    sim.run_until_done(KEYDIST_ROUNDS);
    let stores = extract_stores(sim.into_nodes());

    let rounds = ChainFdParams::new(n, t).rounds();
    let mut sim_fd = SyncNetwork::new(chain_fd_nodes(n, t, seed, &stores, b"v"));
    sim_fd.run_until_done(rounds);
    let sim_msgs = sim_fd.stats().messages_total;
    let sim_out = extract_outcomes(sim_fd.into_nodes());

    let tcp = NbCluster::new(rounds).run(chain_fd_nodes(n, t, seed, &stores, b"v"));
    assert!(tcp.ok().is_ok(), "{:?}", tcp.errors);

    assert_eq!(sim_msgs, n - 1);
    assert_eq!(tcp.stats.messages_total, sim_msgs);
    assert_eq!(extract_outcomes(tcp.nodes), sim_out);
    for o in sim_out {
        assert_eq!(o, Outcome::Decided(b"v".to_vec()));
    }
}

#[test]
fn tcp_cluster_scales_to_a_dozen_nodes() {
    let (n, seed) = (12usize, 79u64);
    let tcp = NbCluster::new(KEYDIST_ROUNDS).run(keydist_nodes(n, seed));
    assert!(tcp.ok().is_ok(), "{:?}", tcp.errors);
    assert_eq!(tcp.stats.messages_total, metrics::keydist_messages(n));
    let stores = extract_stores(tcp.nodes);
    for s in &stores {
        assert_eq!(s.accepted_count(), n);
    }
}

/// A node that sleeps 50 ms before its last key-distribution round. Its
/// peers wait for its vote; once they have it, they are in the protocol
/// phase at once and send it frames while it may still be collecting the
/// key-distribution votes.
struct Drowsy(Box<dyn Node>);

impl Node for Drowsy {
    fn id(&self) -> NodeId {
        self.0.id()
    }
    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        if round + 1 == KEYDIST_ROUNDS {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.0.on_round(round, inbox, out);
    }
    fn is_done(&self) -> bool {
        self.0.is_done()
    }
}

/// Key distribution and then chain FD (sender 0, value `v`) over one mesh
/// per node, each node on its own thread the way a `lafd cluster` worker
/// runs them; node `drowsy`, if any, is a [`Drowsy`] one. The reports of
/// both phases.
fn keydist_then_chain_fd_over_one_mesh(
    n: usize,
    t: usize,
    seed: u64,
    drowsy: Option<usize>,
) -> (ClusterReport, ClusterReport) {
    let deadline = Duration::from_secs(20);
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind listener"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("bound listener"))
        .collect();
    let rounds = ChainFdParams::new(n, t).rounds();
    let (kd, fd): (Vec<_>, Vec<_>) = std::thread::scope(|scope| {
        let nodes = keydist_nodes(n, seed).into_iter().zip(&listeners);
        let handles: Vec<_> = nodes
            .enumerate()
            .map(|(i, (node, listener))| {
                let addrs = &addrs;
                scope.spawn(move || -> Result<_, TransportError> {
                    let me = NodeId(i as u16);
                    let node: Box<dyn Node> = if drowsy == Some(i) {
                        Box::new(Drowsy(node))
                    } else {
                        node
                    };
                    let mut mesh = MeshPeers::establish(me, listener, addrs, deadline)?;
                    let mut kd = NonblockingMesh::new(KEYDIST_ROUNDS)
                        .with_io_deadline(deadline)
                        .run(node, &mut mesh)?;
                    if drowsy == Some(i) {
                        // A `Drowsy` downcasts as itself; its readers want
                        // the key-distribution node it wraps.
                        let wrapper = (kd.node as Box<dyn Any>).downcast::<Drowsy>();
                        kd.node = wrapper.expect("Drowsy").0;
                    }
                    let store = (&*kd.node as &dyn Any).downcast_ref::<KeyDistNode>();
                    let store = store
                        .expect("KeyDistNode")
                        .store()
                        .expect("finished")
                        .clone();
                    let fd = NonblockingMesh::new(rounds)
                        .with_io_deadline(deadline)
                        .run(chain_fd_node(me, n, t, seed, store, b"v"), &mut mesh)?;
                    mesh.close()?;
                    Ok((kd, fd))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join().expect("node thread") {
                Ok(runs) => runs,
                Err(e) => panic!("{e}"),
            })
            .unzip()
    });
    (
        ClusterReport::from_runs(n, kd, Vec::new()),
        ClusterReport::from_runs(n, fd, Vec::new()),
    )
}

/// Both phases over one mesh equal the simulator phase by phase, also
/// when protocol frames reach a node that is still in key distribution:
/// it keeps them for the protocol phase.
#[test]
fn keydist_then_chain_fd_over_one_mesh_match_the_simulator() {
    let (n, t, seed) = (7usize, 2usize, 83u64);
    let mut sim = SyncNetwork::new(keydist_nodes(n, seed));
    sim.run_until_done(KEYDIST_ROUNDS);
    let (kd_nodes, kd_stats) = sim.finish();
    let stores = extract_stores(kd_nodes);
    let mut sim_fd = SyncNetwork::new(chain_fd_nodes(n, t, seed, &stores, b"v"));
    sim_fd.run_until_done(ChainFdParams::new(n, t).rounds());
    let (fd_nodes, fd_stats) = sim_fd.finish();
    let outcomes = extract_outcomes(fd_nodes);
    assert!(outcomes
        .iter()
        .all(|o| *o == Outcome::Decided(b"v".to_vec())));

    for drowsy in [None, Some(0)] {
        let (kd, fd) = keydist_then_chain_fd_over_one_mesh(n, t, seed, drowsy);
        assert_eq!(kd.stats, kd_stats, "drowsy {drowsy:?}: keydist counters");
        let tcp_stores = extract_stores(kd.nodes);
        for (sim_store, tcp_store) in stores.iter().zip(&tcp_stores) {
            for peer in NodeId::all(n) {
                assert_eq!(sim_store.accepted(peer), tcp_store.accepted(peer));
            }
        }
        assert_eq!(fd.stats, fd_stats, "drowsy {drowsy:?}: protocol counters");
        assert_eq!(fd.rounds, fd_stats.rounds);
        assert_eq!(extract_outcomes(fd.nodes), outcomes, "drowsy {drowsy:?}");
    }
}
