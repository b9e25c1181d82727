//! Degradable (crusader/graded) agreement under local authentication —
//! the weaker-agreement direction the paper's §7 points to (its ref [7]).
//!
//! Shows the three-way trade against full agreement:
//! constant 2 communication rounds (vs `t + 1`), `n(n−1)` messages, and a
//! *graded* decision: grade 2 (strong support), grade 1 (enough support),
//! grade 0 (default — no or conflicting support).
//!
//! ```sh
//! cargo run --example degradable_agreement
//! ```

use local_auth_fd::core::adversary::AdversarySpec;
use local_auth_fd::core::ba::Grade;
use local_auth_fd::core::chain::ChainMessage;
use local_auth_fd::core::keys::Keyring;
use local_auth_fd::core::runner::Cluster;
use local_auth_fd::core::spec::{Protocol, RunSpec, Session};
use local_auth_fd::crypto::{SchnorrScheme, SignatureScheme};
use local_auth_fd::simnet::codec::Encode;
use local_auth_fd::simnet::{Envelope, Node, NodeId, Outbox};
use std::sync::Arc;

fn main() {
    let (n, t) = (7usize, 2usize);
    println!("== degradable agreement under local authentication: n = {n}, t = {t} ==\n");

    let mut session = Session::new(Cluster::new(n, t, Arc::new(SchnorrScheme::test_tiny()), 99));
    let spec = RunSpec::new(Protocol::Degradable, b"commit".to_vec()).with_default_value(b"abort");

    // Failure-free: everyone decides the sender's value with grade 2, in 2
    // communication rounds regardless of t. The per-node grades ride in
    // the run report.
    let run = session.run(&spec);
    println!("failure-free run:");
    println!(
        "  {} messages (n(n-1) = {}), 2 communication rounds",
        run.stats.messages_total,
        n * (n - 1)
    );
    for (i, grade) in run.grades.iter().enumerate() {
        assert_eq!(*grade, Some(Grade::Two));
        let outcome = run.outcomes[i].as_ref().unwrap();
        println!("  node {i}: {outcome} (grade {grade:?})");
    }

    // Equivocating sender: it signs "commit" for half the nodes and
    // "abort!" for the other half. Every correct node ends up holding
    // signed proof of the equivocation and decides the default — the
    // *degraded* agreement of Vaidya–Pradhan: at most two decision values,
    // one of which is the default.
    println!("\nequivocating sender (signs two different values):");
    let scheme = Arc::clone(&session.cluster().scheme);
    let ring = session.cluster().keyring(NodeId(0));
    let adversary = AdversarySpec::custom(move |id| {
        (id == NodeId(0)).then(|| {
            Box::new(TwoFacedSender {
                ring: ring.clone(),
                scheme: Arc::clone(&scheme),
                n,
            }) as Box<dyn Node>
        })
    });
    let run = session.run(&spec.with_adversary(adversary));
    for (i, grade) in run.grades.iter().enumerate().skip(1) {
        let outcome = run.outcomes[i].as_ref().unwrap();
        println!("  node {i}: {outcome} (grade {grade:?})");
        assert_eq!(outcome.decided(), Some(&b"abort"[..]));
        assert_eq!(*grade, Some(Grade::Zero));
    }
    println!("\nAll correct nodes saw the two signatures, proved the sender");
    println!("two-faced, and fell back to the default — in the same 2 rounds.");
}

/// A sender signing different values for different halves of the cluster.
struct TwoFacedSender {
    ring: Keyring,
    scheme: Arc<dyn SignatureScheme>,
    n: usize,
}

impl Node for TwoFacedSender {
    fn id(&self) -> NodeId {
        self.ring.me
    }

    fn on_round(&mut self, round: u32, _inbox: &[Envelope], out: &mut Outbox) {
        if round != 0 {
            return;
        }
        for i in 1..self.n {
            let value = if i <= self.n / 2 {
                &b"commit"[..]
            } else {
                &b"sabotage"[..]
            };
            let chain = ChainMessage::originate(
                self.scheme.as_ref(),
                &self.ring.sk,
                self.ring.me,
                value.to_vec(),
            )
            .expect("adversary key well-formed");
            let msg = local_auth_fd::core::ba::DgMsg { chain };
            out.send(NodeId(i as u16), msg.encode_to_vec());
        }
    }
}
