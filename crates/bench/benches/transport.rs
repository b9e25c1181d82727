//! Figure F3: wall-clock for one chain-FD cycle on the two executors —
//! the simulator and the in-process TCP mesh ([`NbCluster`]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fd_core::fd::{ChainFdNode, ChainFdParams};
use fd_core::keys::{KeyStore, Keyring};
use fd_core::localauth::{KeyDistNode, KEYDIST_ROUNDS};
use fd_crypto::{SchnorrScheme, SignatureScheme};
use fd_simnet::transport::NbCluster;
use fd_simnet::{Node, NodeId, SyncNetwork};
use std::sync::Arc;

fn scheme() -> Arc<dyn SignatureScheme> {
    Arc::new(SchnorrScheme::test_tiny())
}

fn keydist_nodes(n: usize) -> Vec<Box<dyn Node>> {
    let sch = scheme();
    (0..n)
        .map(|i| {
            let me = NodeId(i as u16);
            let ring = Keyring::generate(sch.as_ref(), me, 9);
            Box::new(KeyDistNode::new(me, n, Arc::clone(&sch), ring, 9)) as Box<dyn Node>
        })
        .collect()
}

fn fd_nodes(n: usize, t: usize, stores: &[KeyStore]) -> Vec<Box<dyn Node>> {
    let sch = scheme();
    (0..n)
        .map(|i| {
            let me = NodeId(i as u16);
            Box::new(ChainFdNode::new(
                me,
                ChainFdParams::new(n, t),
                Arc::clone(&sch),
                stores[i].clone(),
                Keyring::generate(sch.as_ref(), me, 9),
                (i == 0).then(|| b"bench".to_vec()),
            )) as Box<dyn Node>
        })
        .collect()
}

fn stores(n: usize) -> Vec<KeyStore> {
    let mut net = SyncNetwork::new(keydist_nodes(n));
    net.run_until_done(KEYDIST_ROUNDS);
    net.into_nodes()
        .into_iter()
        .map(|b| {
            b.into_any()
                .downcast::<KeyDistNode>()
                .expect("KeyDistNode")
                .into_parts()
                .0
        })
        .collect()
}

fn bench_transports(c: &mut Criterion) {
    let mut group = c.benchmark_group("fd_cycle_transport");
    group.sample_size(10);
    for n in [4usize, 8] {
        let t = (n - 1) / 3;
        let st = stores(n);
        let rounds = ChainFdParams::new(n, t).rounds();
        group.bench_with_input(BenchmarkId::new("simulator", n), &n, |b, _| {
            b.iter(|| {
                let mut net = SyncNetwork::new(fd_nodes(n, t, &st));
                net.run_until_done(rounds);
                net.stats().messages_total
            });
        });
        group.bench_with_input(BenchmarkId::new("tcp", n), &n, |b, _| {
            b.iter(|| {
                NbCluster::new(rounds)
                    .run(fd_nodes(n, t, &st))
                    .stats
                    .messages_total
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transports);
criterion_main!(benches);
