//! The paper's central subtlety, live: a faulty node equivocates its
//! public key during key distribution (the G3 failure of §3.2), then signs
//! a failure-discovery chain — and Theorem 4 guarantees the inconsistency
//! is *discovered* by some correct node rather than causing silent
//! disagreement.
//!
//! ```sh
//! cargo run --example byzantine_equivocation
//! ```

use local_auth_fd::core::adversary::{
    AdversarySpec, ChainFdAdversary, ChainMisbehavior, EquivocatingKeyDist,
};
use local_auth_fd::core::fd::ChainFdParams;
use local_auth_fd::core::keys::Keyring;
use local_auth_fd::core::props::check_fd;
use local_auth_fd::core::runner::Cluster;
use local_auth_fd::core::spec::{Protocol, RunSpec};
use local_auth_fd::crypto::{SchnorrScheme, SignatureScheme};
use local_auth_fd::simnet::{Node, NodeId};
use std::sync::Arc;

fn main() {
    let (n, t) = (7, 2);
    let faulty = NodeId(2); // a chain relay
    let split = NodeId(4); // nodes < 4 get predicate A, >= 4 get B
    println!("== key equivocation attack: n = {n}, t = {t}, faulty = {faulty} ==\n");

    let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
    let cluster = Cluster::new(n, t, Arc::clone(&scheme), 404);

    // Key distribution with the equivocator in place.
    let keydist = cluster.run_key_distribution_with(&mut |id| {
        (id == faulty).then(|| {
            Box::new(EquivocatingKeyDist::new(
                faulty,
                n,
                Arc::clone(&scheme),
                31337,
                split,
            )) as Box<dyn Node>
        })
    });

    println!("after key distribution, who accepted which predicate for {faulty}?");
    for i in 0..n {
        if i == faulty.index() {
            continue;
        }
        let store = keydist.store(NodeId(i as u16));
        let pk = store.accepted(faulty).expect("accepted (challenge passed)");
        println!(
            "  P{i}: predicate {:02x}{:02x}…",
            pk.as_bytes()[0],
            pk.as_bytes()[1]
        );
    }
    println!("  (two camps — G3 does NOT hold under local authentication)\n");

    // FD run: the equivocator relays the chain signing with predicate A's
    // key. Camp A verifies; camp B's test predicate fails -> discovery.
    // The bespoke automaton rides in through the spec's custom-adversary
    // escape hatch; the stores come from the equivocated key distribution.
    let reference = EquivocatingKeyDist::new(faulty, n, Arc::clone(&scheme), 31337, split);
    let sk_a = reference.key_for(NodeId(0)).0.clone();
    let adversary = {
        let scheme = Arc::clone(&scheme);
        let ring = Keyring::generate(scheme.as_ref(), faulty, cluster.seed);
        AdversarySpec::custom(move |id| {
            (id == faulty).then(|| {
                Box::new(ChainFdAdversary::new(
                    faulty,
                    ChainFdParams::new(n, t),
                    Arc::clone(&scheme),
                    ring.clone(),
                    ChainMisbehavior::SignWithKey { sk: sk_a.clone() },
                    None,
                )) as Box<dyn Node>
            })
        })
    };
    let run = cluster.run_with_keys(
        &RunSpec::new(Protocol::ChainFd, b"attack at dawn".to_vec()).with_adversary(adversary),
        Some(&keydist),
    );

    println!("failure-discovery run outcomes:");
    for (i, outcome) in run.outcomes.iter().enumerate() {
        match outcome {
            Some(o) => println!("  P{i}: {o}"),
            None => println!("  P{i}: (faulty)"),
        }
    }

    let report = check_fd(&run.correct_outcomes(), Some(b"attack at dawn"));
    println!("\nF1 termination: {}", report.f1_termination);
    println!(
        "F2 agreement (vacuous on discovery): {}",
        report.f2_agreement
    );
    println!(
        "F3 validity  (vacuous on discovery): {}",
        report.f3_validity
    );
    println!(
        "discovery happened: {} — Theorem 4 in action",
        report.any_discovery
    );
    assert!(report.all_ok() && report.any_discovery);
}
