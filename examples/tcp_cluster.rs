//! The same protocol automata on a real network: a full-mesh localhost TCP
//! cluster (`NbCluster`, the in-process harness over the mesh `lafd
//! cluster` deploys across processes) runs key distribution and a
//! failure-discovery round, with wall-clock timings.
//!
//! ```sh
//! cargo run --release --example tcp_cluster
//! ```

use local_auth_fd::core::fd::{ChainFdNode, ChainFdParams};
use local_auth_fd::core::keys::{KeyStore, Keyring};
use local_auth_fd::core::localauth::{KeyDistNode, KEYDIST_ROUNDS};
use local_auth_fd::core::Outcome;
use local_auth_fd::crypto::{SchnorrScheme, SignatureScheme};
use local_auth_fd::simnet::transport::NbCluster;
use local_auth_fd::simnet::{Node, NodeId};
use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let (n, t, seed) = (8usize, 2usize, 99u64);
    let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::s512());
    println!(
        "== TCP cluster: n = {n}, t = {t}, scheme = {} ==\n",
        scheme.name()
    );

    // Key distribution over TCP.
    let keydist_nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|i| {
            let me = NodeId(i as u16);
            let ring = Keyring::generate(scheme.as_ref(), me, seed);
            Box::new(KeyDistNode::new(me, n, Arc::clone(&scheme), ring, seed)) as Box<dyn Node>
        })
        .collect();
    let start = Instant::now();
    let report = NbCluster::new(KEYDIST_ROUNDS).run(keydist_nodes);
    report.ok().expect("key distribution over TCP");
    let kd_elapsed = start.elapsed();
    println!(
        "key distribution over TCP: {} messages, {} bytes, {:?}",
        report.stats.messages_total, report.stats.bytes_total, kd_elapsed
    );

    let stores: Vec<KeyStore> = report
        .nodes
        .into_iter()
        .map(|b| {
            (b as Box<dyn Any>)
                .downcast::<KeyDistNode>()
                .expect("KeyDistNode")
                .into_parts()
                .0
        })
        .collect();
    for (i, s) in stores.iter().enumerate() {
        assert_eq!(s.accepted_count(), n, "P{i} accepted everyone");
    }

    // One authenticated FD round over TCP.
    let fd_nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|i| {
            let me = NodeId(i as u16);
            Box::new(ChainFdNode::new(
                me,
                ChainFdParams::new(n, t),
                Arc::clone(&scheme),
                stores[i].clone(),
                Keyring::generate(scheme.as_ref(), me, seed),
                (i == 0).then(|| b"over the wire".to_vec()),
            )) as Box<dyn Node>
        })
        .collect();
    let start = Instant::now();
    let fd_report = NbCluster::new(ChainFdParams::new(n, t).rounds()).run(fd_nodes);
    fd_report.ok().expect("chain FD over TCP");
    let fd_elapsed = start.elapsed();
    println!(
        "chain FD over TCP:         {} messages, {} bytes, {:?}",
        fd_report.stats.messages_total, fd_report.stats.bytes_total, fd_elapsed
    );

    for (i, b) in fd_report.nodes.into_iter().enumerate() {
        let node = (b as Box<dyn Any>)
            .downcast::<ChainFdNode>()
            .expect("ChainFdNode");
        assert_eq!(
            node.outcome(),
            &Outcome::Decided(b"over the wire".to_vec()),
            "P{i}"
        );
    }
    println!("\nall {n} nodes decided \"over the wire\" — N1/N2 realized on real sockets.");
}
