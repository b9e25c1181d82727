//! Executable statements of the paper's properties.
//!
//! * **F1–F3** (§4): the failure-discovery conditions, checked over the
//!   outcomes of the *correct* nodes of a run.
//! * **G1–G3** (§3.2): the assignment properties of authentication, checked
//!   over key stores and signed messages.
//!
//! * **Degradation contract** (§7 / ref \[7\]): at most two decision values,
//!   one of which is the default — checked by [`check_degradable`].
//!
//! These checkers are the backbone of experiment T4 (the property matrix):
//! every adversary scenario asserts `check_fd` on its outcomes.

use crate::keys::KeyStore;
use crate::outcome::Outcome;
use fd_crypto::{Signature, SignatureScheme};
use fd_simnet::NodeId;

/// Result of evaluating F1–F3 on one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdPropReport {
    /// F1: every correct node decided or discovered.
    pub f1_termination: bool,
    /// F2: *if* no correct node discovered, all correct deciders agree.
    /// Vacuously true when someone discovered.
    pub f2_agreement: bool,
    /// F3: *if* no correct node discovered and the sender is correct, every
    /// correct node decided the sender's value. Vacuous otherwise.
    pub f3_validity: bool,
    /// Whether any correct node discovered a failure.
    pub any_discovery: bool,
}

impl FdPropReport {
    /// All three properties hold.
    pub fn all_ok(&self) -> bool {
        self.f1_termination && self.f2_agreement && self.f3_validity
    }
}

/// Evaluate F1–F3 over the outcomes of the correct nodes.
///
/// `sender_value` must be `Some` when the sender is correct (its initial
/// value); pass `None` for a faulty sender (F3 is then vacuous).
pub fn check_fd(correct_outcomes: &[Outcome], sender_value: Option<&[u8]>) -> FdPropReport {
    let f1_termination = correct_outcomes.iter().all(|o| o.is_terminal());
    let any_discovery = correct_outcomes.iter().any(|o| o.is_discovered());

    let decided: Vec<&[u8]> = correct_outcomes
        .iter()
        .filter_map(|o| o.decided())
        .collect();

    let f2_agreement = any_discovery || decided.windows(2).all(|w| w[0] == w[1]);

    let f3_validity = any_discovery
        || match sender_value {
            None => true, // faulty sender: vacuous
            Some(v) => decided.iter().all(|d| *d == v),
        };

    FdPropReport {
        f1_termination,
        f2_agreement,
        f3_validity,
        any_discovery,
    }
}

/// Result of evaluating the assignment properties G1–G3 for one signed
/// message across the key stores of the correct nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignReport {
    /// Which node each correct store assigns the message to (scan), in the
    /// order the stores were given.
    pub assignees: Vec<Option<NodeId>>,
    /// G3: all correct nodes that assign at all assign to the same node.
    pub consistent: bool,
}

/// Evaluate assignment consistency (the G3 question) of `(msg, sig)` across
/// several correct nodes' stores.
pub fn check_assignment(
    scheme: &dyn SignatureScheme,
    stores: &[&KeyStore],
    msg: &[u8],
    sig: &Signature,
) -> AssignReport {
    let assignees: Vec<Option<NodeId>> = stores
        .iter()
        .map(|s| s.find_assignee(scheme, msg, sig))
        .collect();
    let mut seen: Option<NodeId> = None;
    let mut consistent = true;
    for a in assignees.iter().flatten() {
        match seen {
            None => seen = Some(*a),
            Some(prev) if prev != *a => {
                consistent = false;
                break;
            }
            _ => {}
        }
    }
    AssignReport {
        assignees,
        consistent,
    }
}

/// Result of evaluating the degradable-agreement contract on one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradablePropReport {
    /// Every correct node terminated (decided or discovered).
    pub termination: bool,
    /// At most two distinct decision values among the correct nodes.
    pub at_most_two_values: bool,
    /// If exactly two distinct values were decided, one is the default.
    pub one_is_default: bool,
    /// Whether any correct node discovered a failure.
    pub any_discovery: bool,
}

impl DegradablePropReport {
    /// The degradation contract holds.
    pub fn all_ok(&self) -> bool {
        self.termination && self.at_most_two_values && self.one_is_default
    }
}

/// Evaluate the Vaidya–Pradhan degradation contract (as instantiated by
/// [`crate::ba::DegradableNode`]): correct nodes decide **at most two**
/// distinct values, and if two, one of them is `default_value`.
///
/// Like F2/F3, the value conditions are vacuous once a correct node
/// discovers a failure (discovery is itself the strongest admissible
/// outcome under local authentication).
pub fn check_degradable(
    correct_outcomes: &[Outcome],
    default_value: &[u8],
) -> DegradablePropReport {
    let termination = correct_outcomes.iter().all(|o| o.is_terminal());
    let any_discovery = correct_outcomes.iter().any(|o| o.is_discovered());

    let mut distinct: Vec<&[u8]> = Vec::new();
    for v in correct_outcomes.iter().filter_map(|o| o.decided()) {
        if !distinct.contains(&v) {
            distinct.push(v);
        }
    }
    let at_most_two_values = any_discovery || distinct.len() <= 2;
    let one_is_default = any_discovery || distinct.len() < 2 || distinct.contains(&default_value);

    DegradablePropReport {
        termination,
        at_most_two_values,
        one_is_default,
        any_discovery,
    }
}

/// G2: a message signed by a **correct** node `signer` is assigned to it
/// by *every* correct node. `stores` are the correct nodes' stores and
/// `(msg, sig)` the correct node's genuinely signed message.
pub fn check_g2(
    scheme: &dyn SignatureScheme,
    stores: &[&KeyStore],
    signer: NodeId,
    msg: &[u8],
    sig: &Signature,
) -> bool {
    stores
        .iter()
        .all(|s| s.assigns(scheme, signer, msg, &sig.0))
}

/// G1 for one store: if the store assigns `(msg, sig)` to `claimed` and
/// `claimed` is correct, then `claimed` really signed it. The caller passes
/// `really_signed` (ground truth from the test harness).
pub fn check_g1(
    scheme: &dyn SignatureScheme,
    store: &KeyStore,
    claimed: NodeId,
    msg: &[u8],
    sig: &Signature,
    really_signed: bool,
) -> bool {
    // G1 is conditional: assignment to a correct node implies authorship.
    !store.assigns(scheme, claimed, msg, &sig.0) || really_signed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::DiscoveryReason;

    fn d(v: &[u8]) -> Outcome {
        Outcome::Decided(v.to_vec())
    }

    fn disc() -> Outcome {
        Outcome::Discovered(DiscoveryReason::BadSignature)
    }

    #[test]
    fn all_agree_passes() {
        let r = check_fd(&[d(b"v"), d(b"v"), d(b"v")], Some(b"v"));
        assert!(r.all_ok());
        assert!(!r.any_discovery);
    }

    #[test]
    fn disagreement_without_discovery_fails_f2() {
        let r = check_fd(&[d(b"v"), d(b"w")], Some(b"v"));
        assert!(!r.f2_agreement);
        assert!(!r.all_ok());
    }

    #[test]
    fn discovery_makes_f2_f3_vacuous() {
        let r = check_fd(&[d(b"v"), d(b"w"), disc()], Some(b"v"));
        assert!(r.f2_agreement);
        assert!(r.f3_validity);
        assert!(r.any_discovery);
        assert!(r.all_ok());
    }

    #[test]
    fn pending_fails_f1() {
        let r = check_fd(&[d(b"v"), Outcome::Pending], Some(b"v"));
        assert!(!r.f1_termination);
    }

    #[test]
    fn wrong_value_with_correct_sender_fails_f3() {
        let r = check_fd(&[d(b"w"), d(b"w")], Some(b"v"));
        assert!(r.f2_agreement);
        assert!(!r.f3_validity);
    }

    #[test]
    fn faulty_sender_makes_f3_vacuous() {
        let r = check_fd(&[d(b"w"), d(b"w")], None);
        assert!(r.f3_validity);
    }

    #[test]
    fn degradable_contract_cases() {
        // One value: fine.
        let r = check_degradable(&[d(b"v"), d(b"v")], b"dflt");
        assert!(r.all_ok());
        // Two values, one default: degraded but within contract.
        let r = check_degradable(&[d(b"v"), d(b"dflt")], b"dflt");
        assert!(r.all_ok());
        // Two values, neither default: violation.
        let r = check_degradable(&[d(b"v"), d(b"w")], b"dflt");
        assert!(!r.one_is_default);
        assert!(!r.all_ok());
        // Three values: violation.
        let r = check_degradable(&[d(b"v"), d(b"w"), d(b"dflt")], b"dflt");
        assert!(!r.at_most_two_values);
        // Discovery makes the value conditions vacuous.
        let r = check_degradable(&[d(b"v"), d(b"w"), disc()], b"dflt");
        assert!(r.all_ok());
        assert!(r.any_discovery);
        // Pending fails termination.
        let r = check_degradable(&[Outcome::Pending], b"dflt");
        assert!(!r.termination);
    }

    #[test]
    fn assignment_consistency() {
        use crate::keys::Keyring;
        use fd_crypto::SchnorrScheme;
        let scheme = SchnorrScheme::test_tiny();
        let rings: Vec<Keyring> = (0..3)
            .map(|i| Keyring::generate(&scheme, NodeId(i), 1))
            .collect();
        let pks: Vec<_> = rings.iter().map(|r| r.pk.clone()).collect();
        let s0 = KeyStore::global(NodeId(0), &pks);
        let s1 = KeyStore::global(NodeId(1), &pks);
        let sig = scheme.sign(&rings[2].sk, b"m").unwrap();
        let rep = check_assignment(&scheme, &[&s0, &s1], b"m", &sig);
        assert!(rep.consistent);
        assert_eq!(rep.assignees, vec![Some(NodeId(2)), Some(NodeId(2))]);

        // An equivocated-store world: s1 thinks node 2's key is different.
        let mut s1_bad = KeyStore::global(NodeId(1), &pks);
        s1_bad.accept(NodeId(2), rings[0].pk.clone());
        let rep = check_assignment(&scheme, &[&s0, &s1_bad], b"m", &sig);
        // s1_bad cannot assign at all (scan finds nothing): still
        // "consistent" in G3 terms but with a gap.
        assert!(rep.consistent);
        assert_eq!(rep.assignees[1], None);
    }

    #[test]
    fn g2_after_keydist_holds_for_correct_signers() {
        use crate::runner::Cluster;
        use std::sync::Arc;
        let c = Cluster::new(4, 1, Arc::new(fd_crypto::SchnorrScheme::test_tiny()), 5);
        let kd = c.run_key_distribution();
        let stores: Vec<&KeyStore> = kd.stores.iter().flatten().collect();
        let scheme = c.scheme.as_ref();
        for i in 0..4u16 {
            let ring = c.keyring(NodeId(i));
            let sig = scheme.sign(&ring.sk, b"m").unwrap();
            assert!(check_g2(scheme, &stores, NodeId(i), b"m", &sig), "node {i}");
            // And nobody assigns it to anyone else.
            for j in (0..4u16).filter(|&j| j != i) {
                assert!(!check_g2(scheme, &stores, NodeId(j), b"m", &sig));
            }
        }
    }

    #[test]
    fn g1_conditional_form() {
        use crate::keys::Keyring;
        use fd_crypto::SchnorrScheme;
        let scheme = SchnorrScheme::test_tiny();
        let ring = Keyring::generate(&scheme, NodeId(0), 1);
        let store = KeyStore::global(NodeId(1), std::slice::from_ref(&ring.pk));
        let sig = scheme.sign(&ring.sk, b"m").unwrap();
        // Assigned and really signed: G1 holds.
        assert!(check_g1(&scheme, &store, NodeId(0), b"m", &sig, true));
        // Assigned but NOT really signed would be a G1 violation.
        assert!(!check_g1(&scheme, &store, NodeId(0), b"m", &sig, false));
        // Not assigned: vacuous.
        assert!(check_g1(&scheme, &store, NodeId(0), b"x", &sig, false));
    }
}
