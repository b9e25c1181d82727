//! Integration tests for the key distribution protocol (paper Fig. 1,
//! Theorem 2) across crates: crypto schemes × simulator × adversaries.
//! The key thief and the equivocator also run at `s512`, where honest
//! keys are verified through shared handles with comb tables, and must
//! leave the same stores and anomalies as at `tiny`.

use local_auth_fd::core::adversary::{
    EquivocatingKeyDist, KeyThiefKeyDist, SharedKeyKeyDist, SilentNode, WrongNameKeyDist,
};
use local_auth_fd::core::localauth::KdAnomaly;
use local_auth_fd::core::metrics;
use local_auth_fd::core::runner::{Cluster, KeyDistReport};
use local_auth_fd::core::spec::{Protocol, RunSpec};
use local_auth_fd::crypto::{RsaScheme, SchnorrScheme, SignatureScheme};
use local_auth_fd::simnet::{Node, NodeId};
use std::sync::Arc;

fn schnorr_cluster(n: usize, t: usize, seed: u64) -> Cluster {
    Cluster::new(n, t, Arc::new(SchnorrScheme::test_tiny()), seed)
}

#[test]
fn honest_keydist_cost_matches_formula_across_sizes() {
    for n in [3usize, 4, 6, 9, 12] {
        let c = schnorr_cluster(n, 1, 7);
        let kd = c.run_key_distribution();
        assert_eq!(
            kd.stats.messages_total,
            metrics::keydist_messages(n),
            "n={n}"
        );
        // 3 communication rounds, exactly.
        assert_eq!(
            kd.stats.per_round.iter().filter(|&&c| c > 0).count(),
            metrics::KEYDIST_COMM_ROUNDS as usize
        );
        for store in kd.stores.iter().flatten() {
            assert_eq!(store.accepted_count(), n);
        }
    }
}

#[test]
fn keydist_works_over_rsa_too() {
    let c = Cluster::new(4, 1, Arc::new(RsaScheme::new(256)), 11);
    let kd = c.run_key_distribution();
    assert_eq!(kd.stats.messages_total, metrics::keydist_messages(4));
    for store in kd.stores.iter().flatten() {
        assert_eq!(store.accepted_count(), 4);
    }
    // And the subsequent FD run verifies RSA chains.
    let run = c.run_with_keys(&RunSpec::new(Protocol::ChainFd, b"rsa".to_vec()), Some(&kd));
    assert!(run.all_decided(b"rsa"));
}

#[test]
fn silent_node_simply_not_accepted() {
    let n = 5;
    let c = schnorr_cluster(n, 1, 13);
    let kd = c.run_key_distribution_with(&mut |id| {
        (id == NodeId(4)).then(|| Box::new(SilentNode { me: NodeId(4) }) as Box<dyn Node>)
    });
    for (i, store) in kd.stores.iter().enumerate() {
        if let Some(store) = store {
            assert_eq!(store.accepted_count(), n - 1, "node {i}");
            assert!(store.accepted(NodeId(4)).is_none());
        }
    }
}

/// Per-node anomalies, for comparing one scenario across schemes.
type Anomalies = Vec<(NodeId, Vec<KdAnomaly>)>;

/// Every honest store holds the table's own handle for each honest peer,
/// so each honest key is verified through one shared handle (and builds
/// one comb table) however many stores accept it.
fn assert_honest_keys_shared(kd: &KeyDistReport, faulty: NodeId) {
    let table = kd.predicates.as_ref().expect("an intern table");
    for store in kd.stores.iter().flatten() {
        for peer in NodeId::all(kd.stores.len()).filter(|&p| p != faulty) {
            let held = store.accepted_shared(peer).expect("honest peer accepted");
            assert!(Arc::ptr_eq(held, table.entry(peer).unwrap()), "{peer:?}");
        }
    }
}

/// The central guarantee of Fig. 1: "no faulty node can claim a public
/// key of a correct node for itself".
fn key_thief_cannot_claim(scheme: Arc<dyn SignatureScheme>) -> Anomalies {
    let n = 5;
    let c = Cluster::new(n, 1, scheme, 17);
    let victim_pk = c.keyring(NodeId(0)).pk;
    let kd = c.run_key_distribution_with(&mut |id| {
        (id == NodeId(3)).then(|| {
            Box::new(KeyThiefKeyDist::new(NodeId(3), n, victim_pk.clone())) as Box<dyn Node>
        })
    });
    for store in kd.stores.iter().flatten() {
        // The thief is never accepted…
        assert!(store.accepted(NodeId(3)).is_none());
        // …while the victim is, with its true key.
        assert_eq!(store.accepted(NodeId(0)), Some(&c.keyring(NodeId(0)).pk));
    }
    assert_honest_keys_shared(&kd, NodeId(3));
    kd.anomalies
}

#[test]
fn key_thief_cannot_claim_a_correct_nodes_key() {
    key_thief_cannot_claim(Arc::new(SchnorrScheme::test_tiny()));
}

#[test]
fn key_thief_cannot_claim_a_correct_nodes_key_at_s512() {
    assert_eq!(
        key_thief_cannot_claim(Arc::new(SchnorrScheme::s512())),
        key_thief_cannot_claim(Arc::new(SchnorrScheme::test_tiny())),
    );
}

#[test]
fn wrong_name_signer_rejected() {
    let n = 4;
    let c = schnorr_cluster(n, 1, 19);
    let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
    let kd = c.run_key_distribution_with(&mut |id| {
        (id == NodeId(2)).then(|| {
            Box::new(WrongNameKeyDist::new(NodeId(2), n, Arc::clone(&scheme), 77)) as Box<dyn Node>
        })
    });
    for store in kd.stores.iter().flatten() {
        assert!(store.accepted(NodeId(2)).is_none());
    }
}

/// The paper §3.2: local authentication does NOT give G3 — a faulty node
/// can make different correct nodes accept different predicates.
fn equivocator_splits_stores(scheme: Arc<dyn SignatureScheme>) -> Anomalies {
    let n = 6;
    let c = Cluster::new(n, 1, Arc::clone(&scheme), 23);
    let equivocator = EquivocatingKeyDist::new(NodeId(2), n, Arc::clone(&scheme), 555, NodeId(4));
    let (pk_a, pk_b) = {
        let (a, b) = equivocator.announced();
        (a.clone(), b.clone())
    };
    let kd = c.run_key_distribution_with(&mut |id| {
        (id == NodeId(2)).then(|| {
            Box::new(EquivocatingKeyDist::new(
                NodeId(2),
                n,
                Arc::clone(&scheme),
                555,
                NodeId(4),
            )) as Box<dyn Node>
        })
    });
    // Nodes 0,1,3 accepted A; nodes 4,5 accepted B — all accepted the
    // equivocator (challenges succeed with the matching key)…
    for i in [0usize, 1, 3] {
        assert_eq!(
            kd.stores[i].as_ref().unwrap().accepted(NodeId(2)),
            Some(&pk_a),
            "node {i}"
        );
    }
    for i in [4usize, 5] {
        assert_eq!(
            kd.stores[i].as_ref().unwrap().accepted(NodeId(2)),
            Some(&pk_b),
            "node {i}"
        );
    }
    // …so the stores genuinely disagree about the faulty node (G3 gap),
    // while agreeing about every correct node (Theorem 2 / G2).
    for peer in 0..n {
        if peer == 2 {
            continue;
        }
        let expected = c.keyring(NodeId(peer as u16)).pk;
        for store in kd.stores.iter().flatten() {
            assert_eq!(store.accepted(NodeId(peer as u16)), Some(&expected));
        }
    }
    assert_honest_keys_shared(&kd, NodeId(2));
    kd.anomalies
}

#[test]
fn equivocating_key_distribution_splits_stores_g3_gap() {
    equivocator_splits_stores(Arc::new(SchnorrScheme::test_tiny()));
}

#[test]
fn equivocating_key_distribution_splits_stores_g3_gap_at_s512() {
    assert_eq!(
        equivocator_splits_stores(Arc::new(SchnorrScheme::s512())),
        equivocator_splits_stores(Arc::new(SchnorrScheme::test_tiny())),
    );
}

#[test]
fn shared_key_clique_accepted_consistently() {
    // Two faulty nodes announce the same key they both hold: both are
    // accepted (with the same predicate) — the paper's G1 caveat. What
    // matters is consistency, which holds.
    let n = 6;
    let c = schnorr_cluster(n, 2, 29);
    let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
    let kd = c.run_key_distribution_with(&mut |id| {
        (id == NodeId(1) || id == NodeId(2)).then(|| {
            Box::new(SharedKeyKeyDist::new(id, n, Arc::clone(&scheme), 888)) as Box<dyn Node>
        })
    });
    let mut seen: Option<Vec<u8>> = None;
    for store in kd.stores.iter().flatten() {
        let pk1 = store.accepted(NodeId(1)).expect("clique member accepted");
        let pk2 = store.accepted(NodeId(2)).expect("clique member accepted");
        assert_eq!(pk1, pk2, "both announced the same shared key");
        match &seen {
            None => seen = Some(pk1.as_bytes().to_vec()),
            Some(prev) => assert_eq!(prev.as_slice(), pk1.as_bytes(), "consistent across stores"),
        }
    }
}

#[test]
fn keydist_is_deterministic_per_seed() {
    let c1 = schnorr_cluster(5, 1, 31);
    let c2 = schnorr_cluster(5, 1, 31);
    let kd1 = c1.run_key_distribution();
    let kd2 = c2.run_key_distribution();
    assert_eq!(kd1.stats, kd2.stats);
    for (a, b) in kd1.stores.iter().zip(kd2.stores.iter()) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        for peer in NodeId::all(5) {
            assert_eq!(a.accepted(peer), b.accepted(peer));
        }
    }
}
