//! Link-level fault injection.
//!
//! The paper's model guarantees reliable links (N1) and attributes all
//! faults to *nodes*. The test-suite nevertheless wants to check what the
//! protocols do when N1 itself is violated (dropped or corrupted messages
//! should surface as discovered failures, never as silent disagreement), so
//! the simulator accepts an explicit [`FaultPlan`] that breaks N1 on
//! selected (round, from, to) triples. Correct runs never install one.

use crate::{Envelope, NodeId};
use std::collections::HashMap;

/// What to do to a matched message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// Silently drop the message.
    Drop,
    /// XOR the byte at the given payload offset with the given mask
    /// (no-op on shorter payloads).
    Corrupt {
        /// Payload byte offset to corrupt.
        offset: usize,
        /// XOR mask applied at `offset`.
        mask: u8,
    },
    /// Duplicate the message (delivered twice in the same round).
    Duplicate,
    /// Deliver the message `rounds` rounds later than scheduled (a timing
    /// fault: in the round-synchronous engine the message is held back; in
    /// the discrete-event engine its delivery time moves by whole rounds).
    Delay {
        /// Extra rounds to hold the message back (≥ 1 to have any effect).
        rounds: u32,
    },
    /// Deliver the message in its scheduled round but *after* every other
    /// message in the receiver's inbox for that round (a reordering fault).
    Reorder,
}

/// A deliberate violation of network property N1 for testing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: HashMap<(u32, NodeId, NodeId), LinkFault>,
}

impl FaultPlan {
    /// Empty plan (no violations).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Install a fault for the message sent in `round` from `from` to `to`.
    /// Returns `self` for chaining.
    pub fn with(mut self, round: u32, from: NodeId, to: NodeId, fault: LinkFault) -> Self {
        self.faults.insert((round, from, to), fault);
        self
    }

    /// Number of installed faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when no faults are installed.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Look up the fault for a message, if any.
    pub(crate) fn lookup(&self, round: u32, from: NodeId, to: NodeId) -> Option<LinkFault> {
        self.faults.get(&(round, from, to)).copied()
    }

    /// The largest [`LinkFault::Delay`] in the plan (0 if none) — drivers
    /// extend their round budget by this much so a delayed message is
    /// still *delivered late* rather than silently degraded into a drop.
    pub fn max_delay_rounds(&self) -> u32 {
        self.faults
            .values()
            .filter_map(|f| match f {
                LinkFault::Delay { rounds } => Some(*rounds),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Generate `k` seeded random faults over an `n`-node system and the
    /// first `rounds` rounds, drawing the fault kind from `kinds`
    /// round-robin over a deterministic PRNG.
    ///
    /// This is the workload generator of the assumption-ablation experiment:
    /// the paper's guarantees are proved *under* N1, and this constructor
    /// produces controlled N1 violations to measure what the discovery
    /// machinery does when the model itself is broken.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `rounds == 0`, or `kinds` is empty.
    pub fn random(n: usize, rounds: u32, k: usize, seed: u64, kinds: &[LinkFault]) -> Self {
        assert!(n >= 2, "need at least two nodes");
        assert!(rounds > 0, "need at least one round");
        assert!(!kinds.is_empty(), "need at least one fault kind");
        let mut state = seed ^ 0x4641_554c_5453; // "FAULTS" salt
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::new();
        while plan.len() < k {
            let round = (next() % rounds as u64) as u32;
            let from = NodeId((next() % n as u64) as u16);
            let to = NodeId((next() % n as u64) as u16);
            if from == to {
                continue;
            }
            let kind = match kinds[(next() % kinds.len() as u64) as usize] {
                LinkFault::Corrupt { .. } => LinkFault::Corrupt {
                    offset: (next() % 64) as usize,
                    mask: (next() % 255 + 1) as u8,
                },
                LinkFault::Delay { .. } => LinkFault::Delay {
                    rounds: (next() % 3 + 1) as u32,
                },
                other => other,
            };
            plan = plan.with(round, from, to, kind);
        }
        plan
    }
}

/// File `env` into `inbox` under `fault`: the delivery rules both engines
/// share. A dropped message goes nowhere, a corrupted one arrives with
/// one payload byte flipped, a duplicated one arrives twice, and a
/// reordered one goes to `late`, which the engine appends after the rest
/// of the round's inbox. [`LinkFault::Delay`] is engine-specific (the
/// sync engine holds the message, the event engine shifts its arrival
/// tick), so the engine applies it first and the message then arrives
/// here as if unfaulted.
pub(crate) fn deliver(
    fault: Option<LinkFault>,
    mut env: Envelope,
    inbox: &mut Vec<Envelope>,
    late: &mut Vec<Envelope>,
) {
    match fault {
        Some(LinkFault::Drop) => {}
        Some(LinkFault::Corrupt { offset, mask }) => {
            // Copy-on-write: sibling deliveries sharing the buffer must
            // not observe the corruption.
            if offset < env.payload.len() {
                env.payload.make_mut()[offset] ^= mask;
            }
            inbox.push(env);
        }
        Some(LinkFault::Duplicate) => {
            inbox.push(env.clone());
            inbox.push(env);
        }
        Some(LinkFault::Reorder) => late.push(env),
        Some(LinkFault::Delay { .. }) | None => inbox.push(env),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_matches_exact_triple() {
        let plan = FaultPlan::new().with(2, NodeId(0), NodeId(1), LinkFault::Drop);
        assert_eq!(plan.lookup(2, NodeId(0), NodeId(1)), Some(LinkFault::Drop));
        assert_eq!(plan.lookup(1, NodeId(0), NodeId(1)), None);
        assert_eq!(plan.lookup(2, NodeId(1), NodeId(0)), None);
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
    }

    #[test]
    fn random_plans_are_deterministic_and_sized() {
        let kinds = [LinkFault::Drop, LinkFault::Corrupt { offset: 0, mask: 1 }];
        let a = FaultPlan::random(6, 4, 5, 42, &kinds);
        let b = FaultPlan::random(6, 4, 5, 42, &kinds);
        assert_eq!(a.len(), 5);
        for (&key, &fault) in &a.faults {
            assert_eq!(b.faults.get(&key), Some(&fault));
            assert_ne!(key.1, key.2, "no self-loops");
            assert!(key.0 < 4);
        }
    }

    #[test]
    fn random_plans_differ_across_seeds() {
        let kinds = [LinkFault::Drop];
        let a = FaultPlan::random(8, 6, 8, 1, &kinds);
        let b = FaultPlan::random(8, 6, 8, 2, &kinds);
        assert!(a.faults.keys().any(|k| !b.faults.contains_key(k)));
    }

    #[test]
    fn later_install_wins() {
        let plan = FaultPlan::new()
            .with(0, NodeId(0), NodeId(1), LinkFault::Drop)
            .with(0, NodeId(0), NodeId(1), LinkFault::Duplicate);
        assert_eq!(
            plan.lookup(0, NodeId(0), NodeId(1)),
            Some(LinkFault::Duplicate)
        );
    }
}
