//! The paper's quantitative claims that no other suite pins, keyed by
//! section. The rest live next to the code they exercise: key
//! distribution cost (§3.1) in `keydist_integration`, per-run FD cost (§5)
//! and the amortization crossover (§6) in `fd_integration`, rotation
//! epochs (§6) in `fd_core::epoch`, and the FD→BA extension at FD cost
//! (§7) in `ba_integration`.

use local_auth_fd::core::adversary::{AdversarySpec, LaggardNode, OmissiveNode};
use local_auth_fd::core::ba::{EigNode, EigParams};
use local_auth_fd::core::fd::{ChainFdNode, ChainFdParams};
use local_auth_fd::core::metrics;
use local_auth_fd::core::props::check_fd;
use local_auth_fd::core::runner::Cluster;
use local_auth_fd::core::spec::{scheme_by_name, Protocol, RunSpec};
use local_auth_fd::crypto::{SchnorrScheme, SignatureScheme};
use local_auth_fd::simnet::{NetStats, Node, NodeId, SyncNetwork};
use std::sync::Arc;

fn tiny() -> Arc<dyn SignatureScheme> {
    Arc::new(SchnorrScheme::test_tiny())
}

/// Rounds in which at least one message was sent.
fn comm_rounds(stats: &NetStats) -> usize {
    stats.per_round.iter().filter(|&&x| x > 0).count()
}

/// §4–5: authenticated chain FD takes `t + 1` communication rounds, the
/// non-authenticated witness relay 2 (key distribution's 3 are pinned in
/// `keydist_integration`).
#[test]
fn s5_chain_fd_and_witness_relay_round_counts() {
    let (n, t) = (10usize, 3usize);
    let c = Cluster::new(n, t, tiny(), 4);
    let fd = c.run(&RunSpec::new(Protocol::ChainFd, b"v".to_vec()));
    let relay = c.run(&RunSpec::new(Protocol::NonAuthFd, b"v".to_vec()));
    assert!(fd.all_decided(b"v") && relay.all_decided(b"v"));
    assert_eq!(
        comm_rounds(&fd.stats),
        metrics::chain_fd_comm_rounds(t) as usize
    );
    assert_eq!(comm_rounds(&relay.stats), 2);
}

/// §7: the failure-free agreement lineup at `n = 9, t = 2` (`n > 4t`, so
/// Phase King is admissible). Every count meets its closed form and the
/// paper's ordering holds: FD ≤ FD→BA < degradable ≤ Dolev–Strong <
/// Phase King. EIG, which has no closed form here, must still decide.
#[test]
fn s7_agreement_lineup_costs_and_ordering() {
    let (n, t) = (9usize, 2usize);
    let c = Cluster::new(n, t, tiny(), 7);
    let kd = c.run_key_distribution();
    let cost = |protocol: Protocol, formula: usize| {
        let spec = RunSpec::new(protocol, b"v".to_vec()).with_default_value(b"d".to_vec());
        let run = c.run_with_keys(&spec, Some(&kd));
        assert!(
            run.all_decided(b"v"),
            "{protocol} failed its failure-free run"
        );
        assert_eq!(run.stats.messages_total, formula, "{protocol}");
        formula
    };
    let fd = cost(Protocol::ChainFd, metrics::chain_fd_messages(n));
    let ba = cost(Protocol::FdToBa, metrics::chain_fd_messages(n));
    let dg = cost(Protocol::Degradable, metrics::degradable_messages(n));
    let ds = cost(Protocol::DolevStrong, metrics::dolev_strong_messages(n));
    let pk = cost(Protocol::PhaseKing, metrics::phase_king_messages(n, t));
    assert!(
        fd <= ba && ba < dg && dg <= ds && ds < pk,
        "{fd} {ba} {dg} {ds} {pk}"
    );

    // EIG needs no keys and has no `Protocol` entry: run the automata.
    let params = EigParams::new(n, t, b"d".to_vec());
    let nodes: Vec<Box<dyn Node>> = NodeId::all(n)
        .map(|me| {
            let input = (me == params.sender).then(|| b"v".to_vec());
            Box::new(EigNode::new(me, params.clone(), input)) as Box<dyn Node>
        })
        .collect();
    let mut net = SyncNetwork::new(nodes);
    net.run_until_done(params.rounds());
    for node in net.into_nodes() {
        let node = node.into_any().downcast::<EigNode>().expect("EigNode");
        assert_eq!(node.outcome().decided(), Some(&b"v"[..]), "EIG");
    }
}

/// Theorem 2 under the benign faults that have no scripted adversary
/// kind: a relay that omits 30 % of its sends, and one that sends every
/// message a round late, both at P1. F1–F3 hold on every seed.
#[test]
fn thm2_omissive_and_laggard_relays_keep_f1_to_f3() {
    let (n, t) = (7usize, 2usize);
    let relay = NodeId(1);
    for laggard in [false, true] {
        for seed in 0..10u64 {
            let c = Cluster::new(n, t, tiny(), seed);
            let kd = c.run_key_distribution();
            let scheme = Arc::clone(&c.scheme);
            let store = kd.store(relay).clone();
            let ring = c.keyring(relay);
            let adversary = AdversarySpec::custom(move |id| {
                (id == relay).then(|| {
                    let honest: Box<dyn Node> = Box::new(ChainFdNode::new(
                        relay,
                        ChainFdParams::new(n, t),
                        Arc::clone(&scheme),
                        store.clone(),
                        ring.clone(),
                        None,
                    ));
                    if laggard {
                        Box::new(LaggardNode::new(honest)) as Box<dyn Node>
                    } else {
                        Box::new(OmissiveNode::new(honest, seed, 300))
                    }
                })
            });
            let spec = RunSpec::new(Protocol::ChainFd, b"v".to_vec()).with_adversary(adversary);
            let run = c.run_with_keys(&spec, Some(&kd));
            let report = check_fd(&run.correct_outcomes(), Some(b"v"));
            assert!(report.all_ok(), "laggard={laggard} seed={seed}: {report:?}");
        }
    }
}

/// S1–S3 instantiated: the signature scheme changes the wire bytes, never
/// the message counts. Key distribution outweighs a chain-FD run, Schnorr
/// and DSA over the same group cost the same, and bytes grow with the
/// signature length.
#[test]
fn s1_s3_wire_bytes_scale_with_the_scheme() {
    let (n, t) = (8usize, 2usize);
    // (signature bytes, keydist bytes, chain-FD bytes) per scheme.
    let mut costs = Vec::new();
    for name in ["tiny", "s512", "dsa512", "rsa512"] {
        let scheme = scheme_by_name(name).expect("scheme table name");
        let c = Cluster::new(n, t, Arc::clone(&scheme), 10);
        let kd = c.run_key_distribution();
        let fd = c.run_with_keys(&RunSpec::new(Protocol::ChainFd, b"v".to_vec()), Some(&kd));
        assert!(fd.all_decided(b"v"), "{name}");
        assert_eq!(
            kd.stats.messages_total,
            metrics::keydist_messages(n),
            "{name}"
        );
        assert_eq!(
            fd.stats.messages_total,
            metrics::chain_fd_messages(n),
            "{name}"
        );
        assert!(kd.stats.bytes_total > fd.stats.bytes_total, "{name}");
        costs.push((
            scheme.signature_len(),
            kd.stats.bytes_total,
            fd.stats.bytes_total,
        ));
    }
    assert_eq!(costs[1], costs[2], "Schnorr and DSA over the same group");
    costs.dedup();
    for pair in costs.windows(2) {
        assert!(pair[0].0 < pair[1].0, "{costs:?}");
        assert!(pair[0].1 < pair[1].1 && pair[0].2 < pair[1].2, "{costs:?}");
    }
}
