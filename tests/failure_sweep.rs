//! Systematic failure-injection sweep: crash every possible node (and
//! every pair of nodes up to `t`) in every protocol, and assert the
//! paper's properties on the survivors. This is the exhaustive companion
//! to the targeted scenarios in `adversary_integration.rs`.

use local_auth_fd::core::adversary::{AdversarySpec, SilentNode};
use local_auth_fd::core::props::check_fd;
use local_auth_fd::core::runner::Cluster;
use local_auth_fd::core::spec::{Protocol, RunSpec};
use local_auth_fd::crypto::{SchnorrScheme, SignatureScheme};
use local_auth_fd::simnet::{Node, NodeId};
use std::sync::Arc;

fn scheme() -> Arc<dyn SignatureScheme> {
    Arc::new(SchnorrScheme::test_tiny())
}

fn crash_sub(crashed: Vec<NodeId>) -> impl FnMut(NodeId) -> Option<Box<dyn Node>> {
    move |id| {
        crashed
            .contains(&id)
            .then(|| Box::new(SilentNode { me: id }) as Box<dyn Node>)
    }
}

/// The same crash script as an [`AdversarySpec`] for the `RunSpec` path.
fn crash_adv(crashed: Vec<NodeId>) -> AdversarySpec {
    AdversarySpec::custom(move |id| {
        crashed
            .contains(&id)
            .then(|| Box::new(SilentNode { me: id }) as Box<dyn Node>)
    })
}

#[test]
fn chain_fd_single_crash_everywhere() {
    let (n, t) = (6usize, 2usize);
    for crash in 0..n {
        let c = Cluster::new(n, t, scheme(), 500 + crash as u64);
        let crash_id = NodeId(crash as u16);
        let kd = c.run_key_distribution_with(&mut crash_sub(vec![crash_id]));
        let spec = RunSpec::new(Protocol::ChainFd, b"v".to_vec())
            .with_adversary(crash_adv(vec![crash_id]));
        let run = c.run_with_keys(&spec, Some(&kd));
        let sender_correct = crash_id != NodeId(0);
        let report = check_fd(&run.correct_outcomes(), sender_correct.then_some(&b"v"[..]));
        assert!(report.all_ok(), "crash={crash_id}: {report:?}");
        // Crashing anyone on the critical path must be noticed.
        if crash <= t {
            assert!(report.any_discovery, "crash={crash_id} unnoticed");
        } else {
            // Crashing a leaf recipient is invisible to others — but the
            // leaf itself is faulty, so no property involves it.
            assert!(!report.any_discovery, "leaf crash should be invisible");
        }
    }
}

#[test]
fn chain_fd_double_crash_everywhere() {
    let (n, t) = (7usize, 2usize);
    for a in 0..n {
        for b in (a + 1)..n {
            let c = Cluster::new(n, t, scheme(), 600 + (a * n + b) as u64);
            let crashed = vec![NodeId(a as u16), NodeId(b as u16)];
            let kd = c.run_key_distribution_with(&mut crash_sub(crashed.clone()));
            let spec = RunSpec::new(Protocol::ChainFd, b"v".to_vec())
                .with_adversary(crash_adv(crashed.clone()));
            let run = c.run_with_keys(&spec, Some(&kd));
            let sender_correct = a != 0;
            let report = check_fd(&run.correct_outcomes(), sender_correct.then_some(&b"v"[..]));
            assert!(report.all_ok(), "crash={{P{a},P{b}}}: {report:?}");
        }
    }
}

#[test]
fn non_auth_single_crash_everywhere() {
    let (n, t) = (6usize, 2usize);
    for crash in 0..n {
        let c = Cluster::new(n, t, scheme(), 700 + crash as u64);
        let crash_id = NodeId(crash as u16);
        let spec = RunSpec::new(Protocol::NonAuthFd, b"v".to_vec())
            .with_adversary(crash_adv(vec![crash_id]));
        let run = c.run(&spec);
        let sender_correct = crash_id != NodeId(0);
        let report = check_fd(&run.correct_outcomes(), sender_correct.then_some(&b"v"[..]));
        assert!(report.all_ok(), "crash={crash_id}: {report:?}");
    }
}

#[test]
fn small_range_single_crash_everywhere_both_values() {
    let (n, t) = (6usize, 2usize);
    for crash in 0..n {
        for value in [vec![0u8], vec![1u8]] {
            let c = Cluster::new(n, t, scheme(), 800 + crash as u64);
            let crash_id = NodeId(crash as u16);
            let kd = c.run_key_distribution_with(&mut crash_sub(vec![crash_id]));
            let spec = RunSpec::new(Protocol::SmallRange, value.clone())
                .with_default_value(vec![0])
                .with_adversary(crash_adv(vec![crash_id]));
            let run = c.run_with_keys(&spec, Some(&kd));
            let sender_correct = crash_id != NodeId(0);
            let report = check_fd(
                &run.correct_outcomes(),
                sender_correct.then_some(&value[..]),
            );
            assert!(
                report.all_ok(),
                "crash={crash_id} value={value:?}: {report:?}"
            );
        }
    }
}

#[test]
fn dolev_strong_single_crash_agreement() {
    let (n, t) = (5usize, 2usize);
    for crash in 0..n {
        let c = Cluster::new(n, t, scheme(), 900 + crash as u64);
        let crash_id = NodeId(crash as u16);
        let kd = c.run_key_distribution_with(&mut crash_sub(vec![crash_id]));
        let spec = RunSpec::new(Protocol::DolevStrong, b"v".to_vec())
            .with_default_value(b"d".to_vec())
            .with_adversary(crash_adv(vec![crash_id]));
        let run = c.run_with_keys(&spec, Some(&kd));
        // DS is full BA (under these key stores): survivors must agree; and
        // must decide v when the sender is correct.
        let outs = run.correct_outcomes();
        let decided: Vec<_> = outs.iter().filter_map(|o| o.decided()).collect();
        assert!(!decided.is_empty());
        assert!(
            decided.windows(2).all(|w| w[0] == w[1]),
            "crash={crash_id}: DS agreement violated: {outs:?}"
        );
        if crash != 0 {
            assert_eq!(decided[0], b"v", "crash={crash_id}: DS validity");
        }
    }
}

#[test]
fn fd_to_ba_double_crash_agreement_and_validity() {
    // Up to t = 2 simultaneous crashes anywhere (n = 7 > 3t): BA must hold.
    let (n, t) = (7usize, 2usize);
    for a in 1..n {
        for b in (a + 1)..n {
            let c = Cluster::new(n, t, scheme(), 1000 + (a * n + b) as u64);
            let crashed = vec![NodeId(a as u16), NodeId(b as u16)];
            let kd = c.run_key_distribution_with(&mut crash_sub(crashed.clone()));
            let spec = RunSpec::new(Protocol::FdToBa, b"v".to_vec())
                .with_default_value(b"d".to_vec())
                .with_adversary(crash_adv(crashed.clone()));
            let run = c.run_with_keys(&spec, Some(&kd));
            let outs = run.correct_outcomes();
            for o in &outs {
                assert_eq!(
                    o.decided(),
                    Some(&b"v"[..]),
                    "crash={{P{a},P{b}}}: BA validity with correct sender: {outs:?}"
                );
            }
        }
    }
}

#[test]
fn vector_fd_single_crash_other_instances_survive() {
    use local_auth_fd::core::fd::{VectorFdNode, VectorFdParams};
    use local_auth_fd::core::keys::Keyring;
    use local_auth_fd::core::Outcome;
    use local_auth_fd::simnet::SyncNetwork;
    use std::any::Any;

    let (n, t) = (6usize, 1usize);
    for crash in 0..n {
        let c = Cluster::new(n, t, scheme(), 1100 + crash as u64);
        let crash_id = NodeId(crash as u16);
        let kd = c.run_key_distribution_with(&mut crash_sub(vec![crash_id]));
        let values: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8]).collect();
        let params = VectorFdParams::new(n, t);
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                if me == crash_id {
                    Box::new(SilentNode { me }) as Box<dyn Node>
                } else {
                    Box::new(VectorFdNode::new(
                        me,
                        params.clone(),
                        c.scheme.clone(),
                        kd.store(me).clone(),
                        Keyring::generate(c.scheme.as_ref(), me, c.seed),
                        values[i].clone(),
                    )) as Box<dyn Node>
                }
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(params.rounds());
        let survivors: Vec<Vec<Outcome>> = net
            .into_nodes()
            .into_iter()
            .filter(|b| b.id() != crash_id)
            .map(|b| {
                (b as Box<dyn Any>)
                    .downcast::<VectorFdNode>()
                    .expect("VectorFdNode")
                    .outcomes()
                    .to_vec()
            })
            .collect();
        // Per instance: F1-F3 hold among the survivors. Instances whose
        // rotated chain avoids the crashed node decide everywhere; the
        // others are discovered, never silently split.
        for s in 0..n {
            let instance_outcomes: Vec<Outcome> = survivors.iter().map(|o| o[s].clone()).collect();
            let sender_correct = NodeId(s as u16) != crash_id;
            let report = check_fd(&instance_outcomes, sender_correct.then_some(&values[s][..]));
            assert!(report.all_ok(), "crash={crash_id} instance={s}: {report:?}");
        }
    }
}
