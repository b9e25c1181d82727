//! API-equivalence suite for the `RunSpec` redesign: for every admissible
//! `(protocol × adversary × engine)` cell, the unified
//! `Cluster::run(&RunSpec)` path must produce a byte-identical
//! [`FdRunReport`](local_auth_fd::core::runner::FdRunReport) (compared as
//! deterministic JSON) to the hand-threaded call path
//! (`Cluster::keydist_for` + `Cluster::run_with_keys` + hand-built
//! automata behind `AdversarySpec::custom`) — and a [`Session`] must
//! amortize exactly one key distribution across any number of runs
//! (paper Fig. 1 economics).

use local_auth_fd::core::adversary::{
    AdversaryKind, AdversarySpec, ChainFdAdversary, ChainMisbehavior, CrashNode, SilentNode,
};
use local_auth_fd::core::fd::{ChainFdNode, ChainFdParams};
use local_auth_fd::core::metrics;
use local_auth_fd::core::runner::{Cluster, KeyDistReport};
use local_auth_fd::core::schedsearch::{run_search, run_search_parallel, SearchConfig, Strategy};
use local_auth_fd::core::spec::{Protocol, RunSpec, Session};
use local_auth_fd::crypto::SchnorrScheme;
use local_auth_fd::simnet::{Engine, NodeId};
use std::sync::Arc;

const N: usize = 9;
const T: usize = 2; // admissible for the whole protocol lineup (n > 4t)
const VALUE: &[u8] = b"equivalence-check";
const DEFAULT: &[u8] = b"equivalence-default";

fn cluster(engine: Engine, seed: u64) -> Cluster {
    Cluster::new(N, T, Arc::new(SchnorrScheme::test_tiny()), seed).with_engine(engine)
}

/// The automata the scripted kinds stand for, constructed from public
/// constructors only (same planted constants, same relay `P_1`) and
/// injected through [`AdversarySpec::custom`], so the comparison below
/// pins what each `AdversaryKind` name means independently of
/// `AdversarySpec::scripted`.
fn hand_built_adversary(
    kind: AdversaryKind,
    cluster: &Cluster,
    keydist: Option<&KeyDistReport>,
) -> AdversarySpec {
    if kind == AdversaryKind::None {
        return AdversarySpec::Honest;
    }
    let relay = NodeId(1);
    let last = NodeId((cluster.n - 1) as u16);
    let params = ChainFdParams::new(cluster.n, cluster.t);
    let scheme = Arc::clone(&cluster.scheme);
    let ring = cluster.keyring(relay);
    let store = keydist.map(|kd| kd.store(relay).clone());
    AdversarySpec::custom(move |id| {
        if id != relay {
            return None;
        }
        let misbehavior = match kind {
            AdversaryKind::SilentRelay => return Some(Box::new(SilentNode { me: relay })),
            AdversaryKind::CrashRelay => {
                let honest = Box::new(ChainFdNode::new(
                    relay,
                    params.clone(),
                    Arc::clone(&scheme),
                    store.clone().expect("keys"),
                    ring.clone(),
                    None,
                ));
                return Some(Box::new(CrashNode::new(honest, 1, 0)));
            }
            AdversaryKind::TamperBody => ChainMisbehavior::TamperBody {
                new_body: b"sweep-tampered".to_vec(),
            },
            AdversaryKind::ForgeOrigin => ChainMisbehavior::ForgeOrigin {
                value: b"sweep-forged".to_vec(),
            },
            AdversaryKind::WrongAssignee => ChainMisbehavior::WrongAssigneeName { claim: last },
            AdversaryKind::None | AdversaryKind::Equivocate => {
                unreachable!("honest is handled above; Equivocate has its own contract test")
            }
        };
        Some(Box::new(ChainFdAdversary::new(
            relay,
            params.clone(),
            Arc::clone(&scheme),
            ring.clone(),
            misbehavior,
            None,
        )))
    })
}

#[test]
fn every_cell_matches_the_legacy_call_path_byte_for_byte() {
    let mut cells = 0usize;
    for engine in [Engine::Sync, Engine::Event] {
        for protocol in Protocol::ALL {
            for kind in AdversaryKind::ALL {
                if !kind.applies_to(protocol) || kind == AdversaryKind::Equivocate {
                    continue;
                }
                let c = cluster(engine, 42);
                let spec =
                    RunSpec::new(protocol, VALUE.to_vec()).with_default_value(DEFAULT.to_vec());

                // Hand-threaded path: explicit keydist, hand-built
                // automata, the amortizing entry point.
                let keydist = c.keydist_for(protocol);
                let adversary = hand_built_adversary(kind, &c, keydist.as_ref());
                let old =
                    c.run_with_keys(&spec.clone().with_adversary(adversary), keydist.as_ref());

                // Declarative path: one spec, one entry point.
                let new = c.run(&spec.with_adversary(AdversarySpec::scripted(kind)));

                assert_eq!(
                    old.to_json(),
                    new.to_json(),
                    "{engine:?}/{protocol}/{kind}: paths diverged"
                );
                cells += 1;
            }
        }
    }
    // 7 protocols × honest + silent, plus 4 chain-only kinds, × 2 engines.
    assert_eq!(cells, (7 * 2 + 4) * 2, "cell coverage changed unexpectedly");
}

#[test]
fn session_reuses_the_one_shot_keydist_exactly() {
    // A Session's cached keydist is the same keydist Cluster::run would
    // derive, so one-shot and amortized runs are byte-identical.
    for engine in [Engine::Sync, Engine::Event] {
        let c = cluster(engine, 7);
        let spec = RunSpec::new(Protocol::DolevStrong, VALUE.to_vec())
            .with_default_value(DEFAULT.to_vec());
        let one_shot = c.run(&spec);
        let mut session = Session::new(c);
        let first = session.run(&spec);
        let second = session.run(&spec);
        assert_eq!(one_shot.to_json(), first.to_json());
        assert_eq!(first.to_json(), second.to_json());
        assert_eq!(session.keydist_runs(), 1);
    }
}

#[test]
fn session_amortizes_chain_fd_like_paper_fig_1() {
    let k = 12usize;
    let mut session = Session::new(cluster(Engine::Sync, 99));
    for i in 0..k {
        let run = session.run(&RunSpec::new(Protocol::ChainFd, vec![i as u8]));
        assert!(run.all_decided(&[i as u8]));
    }
    // The paper's amortization, as stats assertions: exactly one keydist,
    // and the cumulative cost is 3n(n−1) + k(n−1).
    assert_eq!(session.keydist_runs(), 1, "keydist must run exactly once");
    assert_eq!(session.runs(), k);
    assert_eq!(
        session.keydist_messages(),
        Some(metrics::keydist_messages(N))
    );
    assert_eq!(
        session.messages_spent(),
        metrics::keydist_messages(N) + k * metrics::chain_fd_messages(N)
    );
    // Past the crossover the amortized total beats the non-auth baseline.
    let k_star = metrics::amortization_crossover(N, T).expect("finite crossover");
    assert!(k >= k_star, "test horizon must cover the crossover");
    assert!(session.messages_spent() < metrics::cumulative_non_auth(N, T, k));
}

#[test]
fn search_reports_are_thread_count_invariant() {
    for strategy in Strategy::ALL {
        let config = SearchConfig {
            strategy,
            budget: 9,
            ..SearchConfig::new(Protocol::ChainFd, 6, 1, 5)
        };
        let serial = run_search(&config).expect("valid config");
        for threads in [2usize, 8] {
            let parallel = run_search_parallel(&config, threads).expect("valid config");
            assert_eq!(
                serial.to_json(),
                parallel.to_json(),
                "{strategy}: report changed at {threads} threads"
            );
        }
        assert!(serial.replay_ok);
    }
}

#[test]
fn equivocate_kind_is_loud_on_both_engines() {
    // The one kind without a hand-built twin above; its contract is the
    // paper's: discovered, never silently split.
    for engine in [Engine::Sync, Engine::Event] {
        let c = cluster(engine, 11);
        let run = c.run(
            &RunSpec::new(Protocol::ChainFd, VALUE.to_vec())
                .with_adversary(AdversarySpec::scripted(AdversaryKind::Equivocate)),
        );
        let decided: std::collections::BTreeSet<Vec<u8>> = run
            .correct_outcomes()
            .iter()
            .filter_map(|o| o.decided().map(<[u8]>::to_vec))
            .collect();
        assert!(run.any_discovery(), "{engine:?}: equivocation unnoticed");
        assert!(
            decided.len() <= 1 || run.any_discovery(),
            "{engine:?}: silent disagreement"
        );
    }
}
