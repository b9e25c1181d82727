//! Declarative adversary specifications — *data*, not closures.
//!
//! A [`RunSpec`](crate::spec::RunSpec) carries an [`AdversarySpec`]: a
//! plain value describing which nodes are corrupt and how they misbehave.
//! The spec is turned into concrete byzantine automata only at execution
//! time, inside [`Cluster::run`](crate::runner::Cluster::run), so callers
//! never hand-thread `&mut dyn FnMut` substitution closures across crate
//! boundaries. The closure style survives as [`AdversarySpec::Custom`] —
//! an escape hatch for tests that inject bespoke automata.
//!
//! [`AdversaryKind`] is the catalogue of scripted behaviours shared by the
//! sweep matrix, the scheduler search, and the `lafd` CLI (`--adversary
//! KIND[:NODES]`).

use crate::adversary::{ChainFdAdversary, ChainMisbehavior, CrashNode, SilentNode};
use crate::fd::{ChainFdNode, ChainFdParams};
use crate::runner::{Cluster, KeyDistReport};
use crate::spec::Protocol;
use fd_simnet::{Node, NodeId};
use std::fmt;
use std::sync::Arc;

/// Byzantine behaviour injected at a corrupt node (by default the first
/// chain relay `P_1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AdversaryKind {
    /// All nodes honest (the failure-free baseline every formula is
    /// checked against).
    None,
    /// The corrupt node never sends anything.
    SilentRelay,
    /// The corrupt node runs the honest automaton but crashes entering
    /// round 1 (chain FD only — the wrapper needs the honest inner
    /// automaton).
    CrashRelay,
    /// The corrupt relay extends the chain with a tampered body (chain FD
    /// only).
    TamperBody,
    /// The corrupt relay forges a fresh origin message (chain FD only).
    ForgeOrigin,
    /// The corrupt relay embeds a wrong assignee name (chain FD only).
    WrongAssignee,
    /// The corrupt relay is two-faced: it extends the chain honestly to
    /// its designated targets *and* injects a competing body-tampered
    /// chain to every other node (chain FD only).
    Equivocate,
}

impl AdversaryKind {
    /// Every adversary kind, in canonical order.
    pub const ALL: [AdversaryKind; 7] = [
        AdversaryKind::None,
        AdversaryKind::SilentRelay,
        AdversaryKind::CrashRelay,
        AdversaryKind::TamperBody,
        AdversaryKind::ForgeOrigin,
        AdversaryKind::WrongAssignee,
        AdversaryKind::Equivocate,
    ];

    /// Stable machine-readable name (used in reports and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            AdversaryKind::None => "none",
            AdversaryKind::SilentRelay => "silent",
            AdversaryKind::CrashRelay => "crash",
            AdversaryKind::TamperBody => "tamper",
            AdversaryKind::ForgeOrigin => "forge",
            AdversaryKind::WrongAssignee => "wrongname",
            AdversaryKind::Equivocate => "equivocate",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Result<AdversaryKind, String> {
        Ok(match name {
            "none" | "honest" => AdversaryKind::None,
            "silent" => AdversaryKind::SilentRelay,
            "crash" => AdversaryKind::CrashRelay,
            "tamper" => AdversaryKind::TamperBody,
            "forge" => AdversaryKind::ForgeOrigin,
            "wrongname" | "wrong_assignee" => AdversaryKind::WrongAssignee,
            "equivocate" | "twofaced" => AdversaryKind::Equivocate,
            other => {
                return Err(format!(
                    "unknown adversary {other} \
                     (none|silent|crash|tamper|forge|wrongname|equivocate)"
                ))
            }
        })
    }

    /// Whether this adversary can be injected into the given protocol.
    ///
    /// The chain-specific misbehaviours (and the crash wrapper, which needs
    /// the honest chain automaton) only speak the chain-FD wire format; the
    /// silent node speaks every protocol by saying nothing.
    pub fn applies_to(self, protocol: Protocol) -> bool {
        match self {
            AdversaryKind::None => true,
            AdversaryKind::SilentRelay => true,
            AdversaryKind::CrashRelay
            | AdversaryKind::TamperBody
            | AdversaryKind::ForgeOrigin
            | AdversaryKind::WrongAssignee
            | AdversaryKind::Equivocate => protocol == Protocol::ChainFd,
        }
    }
}

impl fmt::Display for AdversaryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A test-only substitution closure: maps a node id to the byzantine
/// automaton that replaces it, or `None` to keep the honest one. Shared
/// (`Arc` + `Fn`) so a [`RunSpec`](crate::spec::RunSpec) stays `Clone` and
/// `Send` — which is what lets search episodes fan out across threads.
pub type CustomSubstitution = Arc<dyn Fn(NodeId) -> Option<Box<dyn Node>> + Send + Sync>;

/// Which nodes are corrupt and how they misbehave — the declarative
/// adversary a [`RunSpec`](crate::spec::RunSpec) carries.
///
/// ```
/// use fd_core::adversary::{AdversaryKind, AdversarySpec};
/// use fd_simnet::NodeId;
///
/// let relay_silent = AdversarySpec::scripted(AdversaryKind::SilentRelay);
/// assert_eq!(relay_silent.corrupt_set(), vec![NodeId(1)]);
/// assert_eq!(AdversarySpec::parse("tamper:2").unwrap().name(), "tamper:2");
/// assert!(AdversarySpec::parse("none").unwrap().is_honest());
/// ```
#[derive(Clone, Default)]
pub enum AdversarySpec {
    /// Everyone runs the honest automaton.
    #[default]
    Honest,
    /// A scripted [`AdversaryKind`] replacing every node in `corrupt`.
    Scripted {
        /// The behaviour of the corrupt nodes.
        kind: AdversaryKind,
        /// The corrupt set (must be non-empty).
        corrupt: Vec<NodeId>,
    },
    /// An arbitrary substitution closure — the escape hatch for tests.
    Custom(CustomSubstitution),
}

impl AdversarySpec {
    /// The default corrupt node of a scripted adversary: the first chain
    /// relay `P_1`, the node every kind in [`AdversaryKind`] targets in
    /// the sweep matrix.
    pub const DEFAULT_RELAY: NodeId = NodeId(1);

    /// A scripted adversary at the default relay ([`Self::DEFAULT_RELAY`]).
    /// [`AdversaryKind::None`] yields [`AdversarySpec::Honest`].
    pub fn scripted(kind: AdversaryKind) -> Self {
        Self::scripted_at(kind, vec![Self::DEFAULT_RELAY])
    }

    /// A scripted adversary at an explicit corrupt set.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not [`AdversaryKind::None`] and `corrupt` is
    /// empty — a scripted adversary with nobody to corrupt is a spec bug.
    pub fn scripted_at(kind: AdversaryKind, corrupt: Vec<NodeId>) -> Self {
        if kind == AdversaryKind::None {
            return AdversarySpec::Honest;
        }
        assert!(
            !corrupt.is_empty(),
            "scripted adversary needs corrupt nodes"
        );
        AdversarySpec::Scripted { kind, corrupt }
    }

    /// A custom substitution closure (tests only — scripted kinds keep
    /// reports comparable across layers).
    pub fn custom(f: impl Fn(NodeId) -> Option<Box<dyn Node>> + Send + Sync + 'static) -> Self {
        AdversarySpec::Custom(Arc::new(f))
    }

    /// Parse `KIND[:NODES]` where `NODES` is a comma-separated list of
    /// node indices (default: the first chain relay), e.g. `silent`,
    /// `tamper:1`, `silent:2,4`.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let (kind_raw, nodes_raw) = match raw.split_once(':') {
            Some((k, n)) => (k, Some(n)),
            None => (raw, None),
        };
        let kind = AdversaryKind::parse(kind_raw)?;
        let corrupt = match nodes_raw {
            None => vec![Self::DEFAULT_RELAY],
            Some(list) => {
                if kind == AdversaryKind::None {
                    return Err("adversary none takes no node list".to_string());
                }
                let nodes: Result<Vec<NodeId>, String> = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim()
                            .parse::<u16>()
                            .map(NodeId)
                            .map_err(|e| format!("adversary node {s}: {e}"))
                    })
                    .collect();
                let nodes = nodes?;
                if nodes.is_empty() {
                    return Err(format!("adversary {kind} needs at least one node"));
                }
                nodes
            }
        };
        Ok(Self::scripted_at(kind, corrupt))
    }

    /// `true` iff no node is replaced.
    pub fn is_honest(&self) -> bool {
        matches!(self, AdversarySpec::Honest)
    }

    /// The scripted kind, if any ([`AdversaryKind::None`] for
    /// [`AdversarySpec::Honest`], `None` for custom closures).
    pub fn kind(&self) -> Option<AdversaryKind> {
        match self {
            AdversarySpec::Honest => Some(AdversaryKind::None),
            AdversarySpec::Scripted { kind, .. } => Some(*kind),
            AdversarySpec::Custom(_) => None,
        }
    }

    /// The kind's name without the corrupt set (`none`, `silent`, …, or
    /// `custom`) — the adversary column of sweep and search reports.
    pub fn kind_name(&self) -> &'static str {
        self.kind().map_or("custom", AdversaryKind::name)
    }

    /// The declared corrupt set (empty for honest and custom specs — a
    /// custom closure decides per node at execution time).
    pub fn corrupt_set(&self) -> Vec<NodeId> {
        match self {
            AdversarySpec::Scripted { corrupt, .. } => corrupt.clone(),
            _ => Vec::new(),
        }
    }

    /// Whether this spec can be injected into the given protocol.
    pub fn applies_to(&self, protocol: Protocol) -> bool {
        match self {
            AdversarySpec::Honest | AdversarySpec::Custom(_) => true,
            AdversarySpec::Scripted { kind, .. } => kind.applies_to(protocol),
        }
    }

    /// Stable display name: `none`, `custom`, or `KIND:NODES`.
    pub fn name(&self) -> String {
        match self {
            AdversarySpec::Honest => "none".to_string(),
            AdversarySpec::Custom(_) => "custom".to_string(),
            AdversarySpec::Scripted { kind, corrupt } => {
                let nodes: Vec<String> = corrupt.iter().map(|id| id.index().to_string()).collect();
                format!("{}:{}", kind, nodes.join(","))
            }
        }
    }

    /// Materialize the substitution closure for one run.
    ///
    /// Scripted kinds build the same automata the sweep engine has always
    /// injected (silent node, crash wrapper around the honest relay, chain
    /// tamper/forge/wrong-name/two-faced adversaries); the bodies they
    /// plant are fixed constants so reports stay byte-comparable across
    /// layers.
    ///
    /// # Panics
    ///
    /// The returned closure panics if a keyed kind (every kind but
    /// [`AdversaryKind::SilentRelay`]) is asked to substitute a node
    /// without a key distribution (`keydist` is `None`): the chain
    /// adversaries sign with the keyring key distribution made, and the
    /// crash wrapper also runs the honest chain automaton on its store.
    pub fn substitution<'a>(
        &'a self,
        cluster: &'a Cluster,
        keydist: Option<&'a KeyDistReport>,
    ) -> Box<dyn FnMut(NodeId) -> Option<Box<dyn Node>> + 'a> {
        match self {
            AdversarySpec::Honest => Box::new(|_| None),
            AdversarySpec::Custom(f) => {
                let f = Arc::clone(f);
                Box::new(move |id| f(id))
            }
            AdversarySpec::Scripted { kind, corrupt } => {
                let kind = *kind;
                Box::new(move |id: NodeId| {
                    if !corrupt.contains(&id) {
                        return None;
                    }
                    Some(build_scripted(kind, id, cluster, keydist))
                })
            }
        }
    }
}

impl fmt::Debug for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AdversarySpec({})", self.name())
    }
}

impl PartialEq for AdversarySpec {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (AdversarySpec::Honest, AdversarySpec::Honest) => true,
            (
                AdversarySpec::Scripted { kind, corrupt },
                AdversarySpec::Scripted {
                    kind: k2,
                    corrupt: c2,
                },
            ) => kind == k2 && corrupt == c2,
            // Closures have no usable identity; two customs only compare
            // equal when they are the same allocation.
            (AdversarySpec::Custom(a), AdversarySpec::Custom(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for AdversarySpec {}

/// Build the byzantine automaton for one corrupt node of a scripted kind.
fn build_scripted(
    kind: AdversaryKind,
    me: NodeId,
    cluster: &Cluster,
    keydist: Option<&KeyDistReport>,
) -> Box<dyn Node> {
    let params = || ChainFdParams::new(cluster.n, cluster.t);
    match kind {
        AdversaryKind::None => unreachable!("scripted_at maps None onto Honest"),
        AdversaryKind::SilentRelay => Box::new(SilentNode { me }),
        AdversaryKind::CrashRelay => {
            let keydist = keydist.expect("crash wrapper needs keys");
            let honest = Box::new(ChainFdNode::new(
                me,
                params(),
                Arc::clone(&cluster.scheme),
                keydist.store(me).clone(),
                keydist.ring(me).clone(),
                None,
            )) as Box<dyn Node>;
            Box::new(CrashNode::new(honest, 1, 0))
        }
        AdversaryKind::TamperBody
        | AdversaryKind::ForgeOrigin
        | AdversaryKind::WrongAssignee
        | AdversaryKind::Equivocate => {
            let misbehavior = match kind {
                AdversaryKind::TamperBody => ChainMisbehavior::TamperBody {
                    new_body: b"sweep-tampered".to_vec(),
                },
                AdversaryKind::ForgeOrigin => ChainMisbehavior::ForgeOrigin {
                    value: b"sweep-forged".to_vec(),
                },
                AdversaryKind::Equivocate => ChainMisbehavior::TwoFaced {
                    alt_body: b"spec-equivocated".to_vec(),
                },
                _ => ChainMisbehavior::WrongAssigneeName {
                    claim: NodeId((cluster.n - 1) as u16),
                },
            };
            Box::new(ChainFdAdversary::new(
                me,
                params(),
                Arc::clone(&cluster.scheme),
                keydist
                    .expect("chain adversary needs keys")
                    .ring(me)
                    .clone(),
                misbehavior,
                None,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_kind_and_node_lists() {
        assert!(AdversarySpec::parse("none").unwrap().is_honest());
        assert!(AdversarySpec::parse("honest").unwrap().is_honest());
        let spec = AdversarySpec::parse("silent").unwrap();
        assert_eq!(spec.corrupt_set(), vec![AdversarySpec::DEFAULT_RELAY]);
        let spec = AdversarySpec::parse("equivocate:1").unwrap();
        assert_eq!(spec.kind(), Some(AdversaryKind::Equivocate));
        assert_eq!(spec.corrupt_set(), vec![NodeId(1)]);
        let spec = AdversarySpec::parse("silent:2,4").unwrap();
        assert_eq!(spec.corrupt_set(), vec![NodeId(2), NodeId(4)]);
        assert!(AdversarySpec::parse("nonsense").is_err());
        assert!(AdversarySpec::parse("silent:x").is_err());
        assert!(AdversarySpec::parse("none:1").is_err());
        assert!(AdversarySpec::parse("silent:").is_err());
    }

    #[test]
    fn kind_applicability_is_preserved() {
        for kind in AdversaryKind::ALL {
            let spec = AdversarySpec::scripted(kind);
            assert!(spec.applies_to(Protocol::ChainFd));
            assert_eq!(
                spec.applies_to(Protocol::DolevStrong),
                kind == AdversaryKind::None || kind == AdversaryKind::SilentRelay
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in AdversaryKind::ALL {
            assert_eq!(AdversaryKind::parse(kind.name()).unwrap(), kind);
            if kind != AdversaryKind::None {
                let spec = AdversarySpec::scripted_at(kind, vec![NodeId(3)]);
                assert_eq!(AdversarySpec::parse(&spec.name()).unwrap(), spec);
            }
        }
    }

    #[test]
    fn custom_specs_compare_by_identity() {
        let a = AdversarySpec::custom(|_| None);
        let b = AdversarySpec::custom(|_| None);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert_eq!(a.kind(), None);
        assert_eq!(a.name(), "custom");
    }
}
