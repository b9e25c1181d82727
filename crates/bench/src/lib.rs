//! # fd-bench
//!
//! The experiment harness reproducing every quantitative claim of
//! [Borcherding 1995](https://doi.org/10.1109/ICDCS.1995.500023): each
//! experiment maps to a function here that produces its rows, the
//! `report` binary (`src/bin/report.rs`) renders them as markdown.
//! Repeatable timings of the layers behind the timing-based figures are
//! the `crypto.*`/`bigint.modpow_*` and `deploy.inproc_cluster_n8_ms`
//! rows of `lafd-benchmark run --trace 1`.
//!
//! Experiments, keyed to the paper's sections:
//!
//! * **T1** ([`t1_keydist`]) — key distribution cost: Fig. 1's protocol
//!   at `3n(n−1)` messages in 3 communication rounds (§3.1).
//! * **T2** ([`t2_fd_cost`]) / **F1** ([`f1_amortization`]) — per-run FD
//!   cost (`n−1` authenticated vs `(t+2)(n−1)` non-authenticated, §5)
//!   and the §6 amortization crossover of the one-time key distribution.
//! * **T3** ([`t3_rounds`]) — communication-round counts.
//! * **T5** ([`t5_small_range`]) — the small-value-range optimization.
//! * **T6** ([`t6_ba_cost`]) / **T7** ([`t7_agreement_costs`]) — the
//!   FD→BA extension at FD cost, against the Dolev–Strong, Phase-King,
//!   EIG, and degradable-agreement baselines (§7).
//! * **T8** ([`t8_fault_classes`]) / **T9** ([`t9_assumption_ablation`])
//!   — the fault hierarchy and deliberate N1 violations: everything is
//!   discovered or indistinguishable, never silent disagreement.
//! * **T10** ([`t10_wire_cost`]) — wire bytes across signature schemes
//!   (the paper's S1–S3 assumption instantiated by Schnorr/DSA/RSA).
//! * **T11** ([`t11_sweep`]) — the parallel scenario sweep's determinism
//!   across thread counts.
//! * **T12** ([`t12_large_n`]) — large-`n` scaling on the synchronous
//!   and discrete-event engines, which must agree on every count.
//! * **T13** ([`t13_sched_search`]) — adversarial scheduler search over
//!   chain FD and Dolev–Strong: the worst delivery schedule within the
//!   latency bounds never produces silent disagreement, and its
//!   certificate replays byte-identically.
//! * **F4** ([`f4_rotation`]) — key-rotation epochs vs the §6 crossover.
//!
//! T4 (the F1–F3/G1–G3 property matrix), F2 (signature-scheme timings),
//! and F3 (transport wall-clock) live directly in the `report` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fd_core::metrics;
use fd_core::runner::Cluster;
use fd_core::spec::{Protocol, RunSpec, Session};
use fd_crypto::{SchnorrScheme, SignatureScheme};
use std::sync::Arc;

/// The standard scheme used for message-count experiments (counts are
/// crypto-independent; the tiny group keeps them fast).
pub fn count_scheme() -> Arc<dyn SignatureScheme> {
    Arc::new(SchnorrScheme::test_tiny())
}

/// Build the standard cluster used across experiments.
pub fn cluster(n: usize, t: usize, seed: u64) -> Cluster {
    Cluster::new(n, t, count_scheme(), seed)
}

/// Fault budget used in the sweeps: `t = ⌊(n−1)/3⌋`, the classic bound.
pub fn default_t(n: usize) -> usize {
    ((n - 1) / 3).min(n.saturating_sub(2))
}

/// One row of experiment T1 (key distribution cost).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T1Row {
    /// System size.
    pub n: usize,
    /// Measured messages.
    pub measured: usize,
    /// The paper's `3n(n−1)`.
    pub formula: usize,
    /// Measured communication rounds.
    pub comm_rounds: usize,
}

/// Run experiment T1 for the given sizes.
pub fn t1_keydist(sizes: &[usize]) -> Vec<T1Row> {
    sizes
        .iter()
        .map(|&n| {
            let c = cluster(n, default_t(n), 1);
            let kd = c.run_key_distribution();
            T1Row {
                n,
                measured: kd.stats.messages_total,
                formula: metrics::keydist_messages(n),
                comm_rounds: kd.stats.per_round.iter().filter(|&&x| x > 0).count(),
            }
        })
        .collect()
}

/// One row of experiment T2 (per-run FD cost, authenticated vs not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T2Row {
    /// System size.
    pub n: usize,
    /// Fault budget.
    pub t: usize,
    /// Measured authenticated chain FD messages.
    pub auth_measured: usize,
    /// Measured non-authenticated witness-relay messages.
    pub non_auth_measured: usize,
    /// Formulas `n−1` and `(t+2)(n−1)`.
    pub auth_formula: usize,
    /// Non-authenticated formula value.
    pub non_auth_formula: usize,
}

/// Run experiment T2 for the given sizes.
pub fn t2_fd_cost(sizes: &[usize]) -> Vec<T2Row> {
    sizes
        .iter()
        .map(|&n| {
            let t = default_t(n);
            let mut session = Session::new(cluster(n, t, 2));
            let auth = session.run(&RunSpec::new(Protocol::ChainFd, b"v".to_vec()));
            let non_auth = session.run(&RunSpec::new(Protocol::NonAuthFd, b"v".to_vec()));
            assert!(auth.all_decided(b"v") && non_auth.all_decided(b"v"));
            T2Row {
                n,
                t,
                auth_measured: auth.stats.messages_total,
                non_auth_measured: non_auth.stats.messages_total,
                auth_formula: metrics::chain_fd_messages(n),
                non_auth_formula: metrics::non_auth_messages(n, t),
            }
        })
        .collect()
}

/// One point of figure F1 (cumulative messages over k runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct F1Point {
    /// Number of FD runs so far.
    pub k: usize,
    /// Cumulative messages with one-time key distribution + chain FD.
    pub cumulative_auth: usize,
    /// Cumulative messages with non-authenticated runs only.
    pub cumulative_non_auth: usize,
}

/// Run figure F1 for one system shape, measuring runs 1..=k_max.
pub fn f1_amortization(n: usize, t: usize, k_max: usize) -> (Vec<F1Point>, usize) {
    let mut session = Session::new(cluster(n, t, 3));
    let mut cumulative_auth = session.keydist().stats.messages_total;
    let mut cumulative_non_auth = 0usize;
    let mut points = Vec::with_capacity(k_max);
    for k in 1..=k_max {
        cumulative_auth += session
            .run(&RunSpec::new(Protocol::ChainFd, vec![k as u8]))
            .stats
            .messages_total;
        cumulative_non_auth += session
            .run(&RunSpec::new(Protocol::NonAuthFd, vec![k as u8]))
            .stats
            .messages_total;
        points.push(F1Point {
            k,
            cumulative_auth,
            cumulative_non_auth,
        });
    }
    assert_eq!(
        session.keydist_runs(),
        1,
        "amortization broken: the session re-ran key distribution"
    );
    let crossover = points
        .iter()
        .find(|p| p.cumulative_auth < p.cumulative_non_auth)
        .map(|p| p.k)
        .unwrap_or(usize::MAX);
    (points, crossover)
}

/// One row of experiment T3 (round counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T3Row {
    /// Protocol name.
    pub protocol: &'static str,
    /// Measured communication rounds.
    pub measured_rounds: usize,
    /// Analytical round count.
    pub formula_rounds: usize,
}

/// Run experiment T3 on one shape.
pub fn t3_rounds(n: usize, t: usize) -> Vec<T3Row> {
    let mut session = Session::new(cluster(n, t, 4));
    let comm = |stats: &fd_simnet::NetStats| stats.per_round.iter().filter(|&&x| x > 0).count();
    let fd = session.run(&RunSpec::new(Protocol::ChainFd, b"v".to_vec()));
    let na = session.run(&RunSpec::new(Protocol::NonAuthFd, b"v".to_vec()));
    let kd_rounds = comm(&session.keydist().stats);
    vec![
        T3Row {
            protocol: "key distribution",
            measured_rounds: kd_rounds,
            formula_rounds: metrics::KEYDIST_COMM_ROUNDS as usize,
        },
        T3Row {
            protocol: "chain FD (auth)",
            measured_rounds: comm(&fd.stats),
            formula_rounds: metrics::chain_fd_comm_rounds(t) as usize,
        },
        T3Row {
            protocol: "witness relay (non-auth)",
            measured_rounds: comm(&na.stats),
            formula_rounds: 2,
        },
    ]
}

/// One row of experiment T5 (small-range workload dependence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T5Row {
    /// Share of runs carrying the default value, in percent.
    pub default_pct: usize,
    /// Total messages over the workload using the small-range protocol.
    pub small_range_total: usize,
    /// Total messages running chain FD for every value.
    pub chain_fd_total: usize,
}

/// Run experiment T5: 100-run workloads with varying default share.
pub fn t5_small_range(n: usize, t: usize) -> Vec<T5Row> {
    let mut session = Session::new(cluster(n, t, 5));
    let mut rows = Vec::new();
    for default_pct in [50usize, 80, 90, 95, 99] {
        let mut small_total = 0usize;
        let mut chain_total = 0usize;
        for k in 0..100usize {
            // Deterministic workload: the first `default_pct` runs carry
            // the default value.
            let v = if k < default_pct { vec![0] } else { vec![1] };
            small_total += session
                .run(&RunSpec::new(Protocol::SmallRange, v.clone()).with_default_value(vec![0]))
                .stats
                .messages_total;
            chain_total += session
                .run(&RunSpec::new(Protocol::ChainFd, v))
                .stats
                .messages_total;
        }
        rows.push(T5Row {
            default_pct,
            small_range_total: small_total,
            chain_fd_total: chain_total,
        });
    }
    rows
}

/// One row of experiment T6 (BA failure-free cost).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T6Row {
    /// System size.
    pub n: usize,
    /// Fault budget.
    pub t: usize,
    /// FD→BA extension messages (failure-free).
    pub fd_to_ba: usize,
    /// Plain chain FD messages.
    pub chain_fd: usize,
    /// Dolev–Strong messages (failure-free).
    pub dolev_strong: usize,
}

/// Run experiment T6 for the given sizes.
pub fn t6_ba_cost(sizes: &[usize]) -> Vec<T6Row> {
    sizes
        .iter()
        .map(|&n| {
            let t = default_t(n);
            let mut session = Session::new(cluster(n, t, 6));
            let with_default =
                |p: Protocol| RunSpec::new(p, b"v".to_vec()).with_default_value(b"d".to_vec());
            let ba = session.run(&with_default(Protocol::FdToBa));
            let fd = session.run(&with_default(Protocol::ChainFd));
            let ds = session.run(&with_default(Protocol::DolevStrong));
            T6Row {
                n,
                t,
                fd_to_ba: ba.stats.messages_total,
                chain_fd: fd.stats.messages_total,
                dolev_strong: ds.stats.messages_total,
            }
        })
        .collect()
}

/// One row of figure F4 (key-rotation policy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct F4Row {
    /// Epoch length (chain-FD runs between rotations).
    pub runs_per_epoch: usize,
    /// Measured cumulative messages over the whole workload with rotation.
    pub rotated_total: usize,
    /// Closed form `epochs · (3n(n−1) + k·(n−1))`.
    pub rotated_formula: usize,
    /// Non-authenticated baseline for the same number of runs.
    pub non_auth_total: usize,
}

/// Run figure F4: a fixed workload of `total_runs` agreement rounds,
/// executed under different key-rotation epoch lengths (see
/// `fd_core::epoch`). Epoch lengths that divide `total_runs` are required
/// so every policy performs exactly the same workload.
pub fn f4_rotation(n: usize, t: usize, total_runs: usize) -> Vec<F4Row> {
    use fd_core::epoch::EpochManager;

    let mut rows: Vec<F4Row> = Vec::new();
    for runs_per_epoch in [1usize, 5, 10, 30, total_runs] {
        if !total_runs.is_multiple_of(runs_per_epoch)
            || rows.iter().any(|r| r.runs_per_epoch == runs_per_epoch)
        {
            continue;
        }
        let epochs = total_runs / runs_per_epoch;
        let mut manager = EpochManager::new(cluster(n, t, 44));
        for _ in 0..epochs {
            manager.rotate();
            for k in 0..runs_per_epoch {
                let run = manager.run_round(vec![k as u8]);
                assert!(run.all_decided(&[k as u8]));
            }
        }
        rows.push(F4Row {
            runs_per_epoch,
            rotated_total: manager.messages_spent(),
            rotated_formula: metrics::cumulative_with_rotations(n, epochs, runs_per_epoch),
            non_auth_total: metrics::cumulative_non_auth(n, t, total_runs),
        });
    }
    rows
}

/// One row of experiment T7 (agreement-protocol comparison).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T7Row {
    /// Protocol name.
    pub protocol: &'static str,
    /// Whether the protocol needs (local) authentication.
    pub authenticated: bool,
    /// Resilience requirement, human-readable.
    pub resilience: &'static str,
    /// Guarantee flavor, human-readable.
    pub guarantee: &'static str,
    /// Measured failure-free messages.
    pub messages: usize,
    /// Analytical failure-free messages.
    pub messages_formula: usize,
    /// Measured communication rounds.
    pub comm_rounds: usize,
}

/// Run experiment T7 on one shape (requires `n > 4t` so every protocol in
/// the lineup is admissible).
///
/// # Panics
///
/// Panics if `n <= 4t`, or if any protocol fails to decide the sender's
/// value in this failure-free run.
pub fn t7_agreement_costs(n: usize, t: usize) -> Vec<T7Row> {
    use fd_core::ba::{EigNode, EigParams};
    use fd_simnet::{Node, NodeId, SyncNetwork};

    assert!(n > 4 * t, "T7 lineup requires n > 4t");
    let mut session = Session::new(cluster(n, t, 7));
    let comm = |stats: &fd_simnet::NetStats| stats.per_round.iter().filter(|&&x| x > 0).count();
    let with_default =
        |p: Protocol| RunSpec::new(p, b"v".to_vec()).with_default_value(b"d".to_vec());

    let fd = session.run(&with_default(Protocol::ChainFd));
    let ba = session.run(&with_default(Protocol::FdToBa));
    let dg = session.run(&with_default(Protocol::Degradable));
    let ds = session.run(&with_default(Protocol::DolevStrong));
    let pk = session.run(&with_default(Protocol::PhaseKing));
    for (name, run) in [
        ("fd", &fd),
        ("ba", &ba),
        ("dg", &dg),
        ("ds", &ds),
        ("pk", &pk),
    ] {
        assert!(run.all_decided(b"v"), "{name} failed its failure-free run");
    }

    // EIG has no Cluster entry point (it needs no keys); run it directly.
    let eig_stats = {
        let params = EigParams::new(n, t, b"d".to_vec());
        let rounds = params.rounds();
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                Box::new(EigNode::new(
                    me,
                    params.clone(),
                    (me == params.sender).then(|| b"v".to_vec()),
                )) as Box<dyn Node>
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(rounds);
        net.stats().clone()
    };
    vec![
        T7Row {
            protocol: "chain FD (Fig. 2)",
            authenticated: true,
            resilience: "t < n−1",
            guarantee: "failure discovery (F1–F3)",
            messages: fd.stats.messages_total,
            messages_formula: metrics::chain_fd_messages(n),
            comm_rounds: comm(&fd.stats),
        },
        T7Row {
            protocol: "FD→BA extension",
            authenticated: true,
            resilience: "n > 3t (fallback)",
            guarantee: "full agreement",
            messages: ba.stats.messages_total,
            messages_formula: metrics::chain_fd_messages(n),
            comm_rounds: comm(&ba.stats),
        },
        T7Row {
            protocol: "degradable (crusader)",
            authenticated: true,
            resilience: "n > 3t",
            guarantee: "degraded agreement (≤2 values)",
            messages: dg.stats.messages_total,
            messages_formula: metrics::degradable_messages(n),
            comm_rounds: comm(&dg.stats),
        },
        T7Row {
            protocol: "Dolev–Strong",
            authenticated: true,
            resilience: "t < n",
            guarantee: "full agreement",
            messages: ds.stats.messages_total,
            messages_formula: metrics::dolev_strong_messages(n),
            comm_rounds: comm(&ds.stats),
        },
        T7Row {
            protocol: "Phase King",
            authenticated: false,
            resilience: "n > 4t",
            guarantee: "full agreement",
            messages: pk.stats.messages_total,
            messages_formula: metrics::phase_king_messages(n, t),
            comm_rounds: comm(&pk.stats),
        },
        T7Row {
            protocol: "EIG / OM(t)",
            authenticated: false,
            resilience: "n > 3t",
            guarantee: "full agreement",
            messages: eig_stats.messages_total,
            messages_formula: eig_stats.messages_total, // no closed form printed
            comm_rounds: eig_stats.per_round.iter().filter(|&&x| x > 0).count(),
        },
    ]
}

/// One row of experiment T8 (fault-class sweep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T8Row {
    /// Fault class label.
    pub fault_class: &'static str,
    /// Runs in which at least one correct node discovered a failure.
    pub runs_discovered: usize,
    /// Runs in which every correct node decided the sender's value.
    pub runs_all_decided: usize,
    /// Runs with two correct nodes deciding different values and nobody
    /// discovering — must be zero for the paper's properties to hold.
    pub silent_disagreements: usize,
    /// Total runs.
    pub runs: usize,
}

/// Run experiment T8: chain FD under the benign→byzantine fault hierarchy,
/// `seeds` runs per class, faulty node is the first chain relay.
///
/// Crash, tamper, and silence are the scripted
/// [`AdversarySpec`](fd_core::adversary::AdversarySpec) kinds; the two
/// benign wrappers without a scripted kind (omission, laggard) use the
/// custom-substitution escape hatch.
pub fn t8_fault_classes(n: usize, t: usize, seeds: u64) -> Vec<T8Row> {
    use fd_core::adversary::{AdversaryKind, AdversarySpec, LaggardNode, OmissiveNode};
    use fd_core::fd::{ChainFdNode, ChainFdParams};
    use fd_simnet::{Node, NodeId};

    let faulty = NodeId(1);

    let classes: Vec<&'static str> = vec![
        "crash-stop (mid-relay)",
        "send-omission (30%)",
        "timing (one round late)",
        "byzantine (tamper body)",
        "byzantine (silent)",
    ];

    let mut rows = Vec::new();
    for label in classes {
        let mut discovered = 0usize;
        let mut all_decided = 0usize;
        let mut silent_disagreement = 0usize;
        for seed in 0..seeds {
            let mut session = Session::new(cluster(n, t, seed));
            // An honest relay automaton for the benign-fault wrappers,
            // movable into a `'static` custom substitution.
            let honest_relay = {
                let scheme = Arc::clone(&session.cluster().scheme);
                let store = session.keydist().store(faulty).clone();
                let ring = session.cluster().keyring(faulty);
                let params = ChainFdParams::new(n, t);
                move || -> Box<dyn Node> {
                    Box::new(ChainFdNode::new(
                        faulty,
                        params.clone(),
                        Arc::clone(&scheme),
                        store.clone(),
                        ring.clone(),
                        None,
                    ))
                }
            };
            let adversary = match label {
                "crash-stop (mid-relay)" => AdversarySpec::scripted(AdversaryKind::CrashRelay),
                "send-omission (30%)" => AdversarySpec::custom(move |id| {
                    (id == faulty).then(|| {
                        Box::new(OmissiveNode::new(honest_relay(), seed, 300)) as Box<dyn Node>
                    })
                }),
                "timing (one round late)" => AdversarySpec::custom(move |id| {
                    (id == faulty)
                        .then(|| Box::new(LaggardNode::new(honest_relay())) as Box<dyn Node>)
                }),
                "byzantine (tamper body)" => AdversarySpec::scripted(AdversaryKind::TamperBody),
                _ => AdversarySpec::scripted(AdversaryKind::SilentRelay),
            };
            let run = session
                .run(&RunSpec::new(Protocol::ChainFd, b"v".to_vec()).with_adversary(adversary));
            let outs = run.correct_outcomes();
            let any_disc = outs.iter().any(|o| o.is_discovered());
            let decided: std::collections::BTreeSet<Vec<u8>> = outs
                .iter()
                .filter_map(|o| o.decided().map(<[u8]>::to_vec))
                .collect();
            if any_disc {
                discovered += 1;
            } else if decided.len() <= 1 {
                all_decided += 1;
            }
            if !any_disc && decided.len() > 1 {
                silent_disagreement += 1;
            }
        }
        rows.push(T8Row {
            fault_class: label,
            runs_discovered: discovered,
            runs_all_decided: all_decided,
            silent_disagreements: silent_disagreement,
            runs: seeds as usize,
        });
    }
    rows
}

/// One row of experiment T9 (N1 assumption ablation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T9Row {
    /// Kind of injected link fault.
    pub fault_kind: &'static str,
    /// Number of injected faults per run.
    pub faults_per_run: usize,
    /// Runs where a correct node discovered a failure.
    pub runs_discovered: usize,
    /// Runs indistinguishable from failure-free (fault hit a dead link or
    /// duplicate was absorbed).
    pub runs_clean: usize,
    /// Silent disagreements (must be zero).
    pub silent_disagreements: usize,
    /// Total runs.
    pub runs: usize,
}

/// Run experiment T9: inject seeded random N1 violations into failure-free
/// chain-FD runs and classify the outcomes.
pub fn t9_assumption_ablation(n: usize, t: usize, seeds: u64) -> Vec<T9Row> {
    use fd_core::fd::{ChainFdNode, ChainFdParams};
    use fd_simnet::fault::{FaultPlan, LinkFault};
    use fd_simnet::{Node, NodeId, SyncNetwork};

    let kinds: Vec<(&'static str, LinkFault, usize)> = vec![
        ("drop (random link)", LinkFault::Drop, 1),
        ("drop ×3 (random links)", LinkFault::Drop, 3),
        (
            "corrupt (random link)",
            LinkFault::Corrupt { offset: 0, mask: 1 },
            1,
        ),
        ("duplicate (random link)", LinkFault::Duplicate, 1),
        ("drop (targeted chain link)", LinkFault::Drop, 1),
        (
            "corrupt (targeted chain link)",
            LinkFault::Corrupt { offset: 0, mask: 1 },
            1,
        ),
    ];

    let mut rows = Vec::new();
    for (label, kind, k) in kinds {
        let targeted = label.contains("targeted");
        let mut discovered = 0usize;
        let mut clean = 0usize;
        let mut silent_disagreement = 0usize;
        for seed in 0..seeds {
            let c = cluster(n, t, seed);
            let kd = c.run_key_distribution();
            let params = ChainFdParams::new(n, t);
            let rounds = params.rounds();
            let nodes: Vec<Box<dyn Node>> = (0..n)
                .map(|i| {
                    let me = NodeId(i as u16);
                    Box::new(ChainFdNode::new(
                        me,
                        params.clone(),
                        Arc::clone(&c.scheme),
                        kd.store(me).clone(),
                        c.keyring(me),
                        (me == params.sender).then(|| b"v".to_vec()),
                    )) as Box<dyn Node>
                })
                .collect();
            let mut net = SyncNetwork::new(nodes);
            let plan = if targeted {
                // Hit a link the chain protocol provably uses: the hop
                // P_r -> P_{r+1} for a seeded r in 0..t, or a
                // dissemination edge P_t -> P_j.
                let r = (seed % (t as u64 + 1)) as u32;
                let (from, to) = if r < t as u32 {
                    (NodeId(r as u16), NodeId(r as u16 + 1))
                } else {
                    (NodeId(t as u16), NodeId((t + 1) as u16))
                };
                FaultPlan::new().with(r, from, to, kind)
            } else {
                FaultPlan::random(n, rounds, k, seed, &[kind])
            };
            net.set_fault_plan(plan);
            net.run_until_done(rounds);
            let outs: Vec<fd_core::Outcome> = net
                .into_nodes()
                .into_iter()
                .map(|b| {
                    b.into_any()
                        .downcast::<ChainFdNode>()
                        .expect("ChainFdNode")
                        .outcome()
                        .clone()
                })
                .collect();
            let any_disc = outs.iter().any(|o| o.is_discovered());
            let decided: std::collections::BTreeSet<Vec<u8>> = outs
                .iter()
                .filter_map(|o| o.decided().map(<[u8]>::to_vec))
                .collect();
            if any_disc {
                discovered += 1;
            } else if decided.len() <= 1 {
                clean += 1;
            } else {
                silent_disagreement += 1;
            }
        }
        rows.push(T9Row {
            fault_kind: label,
            faults_per_run: k,
            runs_discovered: discovered,
            runs_clean: clean,
            silent_disagreements: silent_disagreement,
            runs: seeds as usize,
        });
    }
    rows
}

/// One row of experiment T10 (wire cost across signature schemes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T10Row {
    /// Scheme name.
    pub scheme: String,
    /// Encoded public key (test predicate) bytes.
    pub pk_bytes: usize,
    /// Encoded signature bytes.
    pub sig_bytes: usize,
    /// Key distribution wire bytes for the given `n`.
    pub keydist_bytes: usize,
    /// One chain-FD run's wire bytes for the given `n`.
    pub chain_fd_bytes: usize,
}

/// Run experiment T10 for one system size across schemes.
pub fn t10_wire_cost(n: usize, t: usize, schemes: Vec<Arc<dyn SignatureScheme>>) -> Vec<T10Row> {
    schemes
        .into_iter()
        .map(|scheme| {
            let mut session = Session::new(Cluster::new(n, t, Arc::clone(&scheme), 10));
            let fd = session.run(&RunSpec::new(Protocol::ChainFd, b"v".to_vec()));
            assert!(fd.all_decided(b"v"));
            T10Row {
                scheme: scheme.name(),
                pk_bytes: scheme.public_key_len(),
                sig_bytes: scheme.signature_len(),
                keydist_bytes: session.keydist().stats.bytes_total,
                chain_fd_bytes: fd.stats.bytes_total,
            }
        })
        .collect()
}

/// One row of experiment T11 (parallel scenario sweep): the default
/// `lafd sweep` matrix executed at a given thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T11Row {
    /// Worker threads used.
    pub threads: usize,
    /// Scenarios executed.
    pub scenarios: usize,
    /// Scenarios whose checks all passed.
    pub ok: usize,
    /// Total messages across all runs (including key distributions).
    pub messages_total: usize,
    /// Whether this thread count reproduced the single-thread report
    /// byte-for-byte (the sweep's determinism contract).
    pub matches_serial: bool,
}

/// Run experiment T11: the default sweep matrix at each thread count,
/// checking that parallelism never changes the report.
pub fn t11_sweep(thread_counts: &[usize]) -> Vec<T11Row> {
    use fd_core::sweep::{run_sweep, SweepMatrix};

    let matrix = SweepMatrix::default_matrix();
    let serial = run_sweep(&matrix, 1);
    let serial_json = serial.to_json();
    thread_counts
        .iter()
        .map(|&threads| {
            let report = if threads == 1 {
                serial.clone()
            } else {
                run_sweep(&matrix, threads)
            };
            T11Row {
                threads,
                scenarios: report.rows.len(),
                ok: report.rows.iter().filter(|r| r.ok()).count(),
                messages_total: report.messages_total(),
                matches_serial: report.to_json() == serial_json,
            }
        })
        .collect()
}

/// One row of experiment T12 (large-n scaling on both engines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T12Row {
    /// System size.
    pub n: usize,
    /// Fault budget (`⌊(n−1)/3⌋`).
    pub t: usize,
    /// Engine that executed the run.
    pub engine: &'static str,
    /// Measured messages of the chain-FD run.
    pub messages: usize,
    /// The paper's `n − 1`.
    pub formula: usize,
    /// Measured communication rounds.
    pub comm_rounds: usize,
    /// Whether every node decided the sender's value.
    pub all_decided: bool,
    /// Wall-clock of the run in microseconds (indicative only).
    pub micros: u128,
}

/// Run experiment T12: chain FD at large `n` on the synchronous and the
/// discrete-event engine. Dealer-provided stores replace the `3n(n−1)`
/// key distribution so the measurement isolates how the *run* scales; the
/// two engines must agree on every count (the timing column is the one
/// legitimate difference).
pub fn t12_large_n(sizes: &[usize]) -> Vec<T12Row> {
    use fd_core::runner::KeyDistReport;
    use fd_simnet::{Engine, NetStats};

    let mut rows = Vec::new();
    for &n in sizes {
        let t = default_t(n);
        let stores = cluster(n, t, 1).global_stores();
        for engine in [Engine::Sync, Engine::Event] {
            let c = cluster(n, t, 1).with_engine(engine);
            let kd = KeyDistReport {
                stores: stores.iter().cloned().map(Some).collect(),
                stats: NetStats::new(n),
                anomalies: Vec::new(),
                predicates: None,
            };
            let mut session = Session::with_keydist(c, kd);
            let start = std::time::Instant::now();
            let run = session.run(&RunSpec::new(Protocol::ChainFd, b"scale".to_vec()));
            let micros = start.elapsed().as_micros();
            rows.push(T12Row {
                n,
                t,
                engine: engine.name(),
                messages: run.stats.messages_total,
                formula: metrics::chain_fd_messages(n),
                comm_rounds: run.stats.per_round.iter().filter(|&&x| x > 0).count(),
                all_decided: run.all_decided(b"scale"),
                micros,
            });
        }
    }
    rows
}

/// One row of experiment T13 (adversarial scheduler search).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T13Row {
    /// Protocol under attack.
    pub protocol: &'static str,
    /// System size.
    pub n: usize,
    /// Fault budget (`⌊(n−1)/3⌋`).
    pub t: usize,
    /// Search strategy.
    pub strategy: &'static str,
    /// Episodes the search executed.
    pub episodes: usize,
    /// Episodes distinguishable from a clean run (loud findings).
    pub findings: usize,
    /// Objective label of the worst schedule found.
    pub best_score: String,
    /// Message count of the worst schedule's run.
    pub best_messages: usize,
    /// Whether any episode exhibited silent disagreement — must be false
    /// for the paper's properties to hold.
    pub silent_found: bool,
    /// Whether the worst schedule's certificate replayed exactly.
    pub replay_ok: bool,
}

/// Run experiment T13: adversarial scheduler search (`fd_core::schedsearch`)
/// over chain FD and the Dolev–Strong broadcast BA baseline, under
/// `jitter:2` latency, with both strategies and `budget` protocol
/// executions per search.
///
/// Loud outcomes (discovered timing failures, fallback engagement,
/// message-count anomalies) are recorded as findings; the experiment's
/// claim is that no schedule within the latency bounds ever produces
/// *silent* disagreement, and that every worst-schedule certificate
/// replays byte-identically.
pub fn t13_sched_search(sizes: &[usize], budget: usize) -> Vec<T13Row> {
    use fd_core::schedsearch::{run_search, SearchConfig, Strategy};
    use fd_core::sweep::Protocol;

    let mut rows = Vec::new();
    for protocol in [Protocol::ChainFd, Protocol::DolevStrong] {
        for &n in sizes {
            let t = default_t(n);
            for strategy in Strategy::ALL {
                let config = SearchConfig {
                    strategy,
                    budget,
                    ..SearchConfig::new(protocol, n, t, 13)
                };
                let report = run_search(&config).expect("T13 configs are admissible");
                rows.push(T13Row {
                    protocol: protocol.name(),
                    n,
                    t,
                    strategy: strategy.name(),
                    episodes: report.episodes.len(),
                    findings: report.findings().len(),
                    best_score: report.best_score.label(),
                    best_messages: report.best_messages,
                    silent_found: report.silent_found(),
                    replay_ok: report.replay_ok,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_matches_formula() {
        for row in t1_keydist(&[4, 6, 8]) {
            assert_eq!(row.measured, row.formula);
            assert_eq!(row.comm_rounds, 3);
        }
    }

    #[test]
    fn t2_auth_beats_non_auth() {
        for row in t2_fd_cost(&[4, 8, 12]) {
            assert_eq!(row.auth_measured, row.auth_formula);
            assert_eq!(row.non_auth_measured, row.non_auth_formula);
            assert!(row.auth_measured < row.non_auth_measured);
        }
    }

    #[test]
    fn f1_crossover_finite_and_correct() {
        let (points, crossover) = f1_amortization(8, 2, 40);
        assert!(crossover <= 40, "crossover within horizon");
        assert_eq!(
            crossover,
            fd_core::metrics::amortization_crossover(8, 2).unwrap()
        );
        assert!(
            points.last().unwrap().cumulative_auth < points.last().unwrap().cumulative_non_auth
        );
    }

    #[test]
    fn t3_rounds_match() {
        for row in t3_rounds(7, 2) {
            assert_eq!(row.measured_rounds, row.formula_rounds, "{}", row.protocol);
        }
    }

    #[test]
    fn t5_small_range_wins_at_high_default_share() {
        let rows = t5_small_range(6, 1);
        let last = rows.last().unwrap(); // 99% defaults
        assert!(last.small_range_total < last.chain_fd_total);
    }

    #[test]
    fn t6_extension_at_fd_cost() {
        for row in t6_ba_cost(&[4, 7]) {
            assert_eq!(row.fd_to_ba, row.chain_fd);
            assert!(row.dolev_strong > row.fd_to_ba);
        }
    }

    #[test]
    fn f4_rotation_measured_equals_formula() {
        let rows = f4_rotation(8, 2, 30);
        assert!(!rows.is_empty());
        for row in &rows {
            assert_eq!(row.rotated_total, row.rotated_formula);
        }
        // Rotating every run loses to the baseline; long epochs win.
        assert!(rows.first().unwrap().rotated_total > rows.first().unwrap().non_auth_total);
        assert!(rows.last().unwrap().rotated_total < rows.last().unwrap().non_auth_total);
    }

    #[test]
    fn t7_formulas_and_ordering() {
        let rows = t7_agreement_costs(9, 2);
        for row in &rows {
            assert_eq!(row.messages, row.messages_formula, "{}", row.protocol);
        }
        // The paper's ordering: FD (and its BA extension) is the cheapest;
        // non-auth full agreement is the most expensive.
        let msg = |name: &str| {
            rows.iter()
                .find(|r| r.protocol.starts_with(name))
                .unwrap()
                .messages
        };
        assert!(msg("chain FD") <= msg("FD→BA"));
        assert!(msg("FD→BA") < msg("degradable"));
        assert!(msg("degradable") <= msg("Dolev–Strong"));
        assert!(msg("Dolev–Strong") < msg("Phase King"));
    }

    #[test]
    fn t8_no_silent_disagreement_in_any_class() {
        for row in t8_fault_classes(6, 2, 10) {
            assert_eq!(
                row.silent_disagreements, 0,
                "{} produced silent disagreement",
                row.fault_class
            );
            assert_eq!(row.runs_discovered + row.runs_all_decided, row.runs);
        }
    }

    #[test]
    fn t9_violations_never_silent() {
        for row in t9_assumption_ablation(6, 2, 10) {
            assert_eq!(
                row.silent_disagreements, 0,
                "{} produced silent disagreement",
                row.fault_kind
            );
            assert_eq!(row.runs_discovered + row.runs_clean, row.runs);
        }
    }

    #[test]
    fn t11_sweep_parallel_matches_serial() {
        let rows = t11_sweep(&[1, 4]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.ok, row.scenarios, "threads={}", row.threads);
            assert!(row.matches_serial, "threads={}", row.threads);
        }
        assert_eq!(rows[0].messages_total, rows[1].messages_total);
    }

    #[test]
    fn t12_engines_agree_at_scale() {
        let rows = t12_large_n(&[32, 64]);
        assert_eq!(rows.len(), 4);
        for pair in rows.chunks(2) {
            let (sync, event) = (&pair[0], &pair[1]);
            assert_eq!(sync.engine, "sync");
            assert_eq!(event.engine, "event");
            for row in pair {
                assert_eq!(row.messages, row.formula, "{row:?}");
                assert_eq!(row.comm_rounds, row.t + 1, "{row:?}");
                assert!(row.all_decided, "{row:?}");
            }
            assert_eq!(sync.messages, event.messages);
            assert_eq!(sync.comm_rounds, event.comm_rounds);
        }
    }

    #[test]
    fn t13_search_never_finds_silent_disagreement() {
        let rows = t13_sched_search(&[8, 16], 6);
        assert_eq!(rows.len(), 8); // 2 protocols × 2 sizes × 2 strategies
        for row in &rows {
            assert!(
                !row.silent_found,
                "{} n={} {}: search found silent disagreement",
                row.protocol, row.n, row.strategy
            );
            assert!(
                row.replay_ok,
                "{} n={} {}: certificate did not replay",
                row.protocol, row.n, row.strategy
            );
            assert_eq!(row.episodes, 6);
        }
        // Under jitter:2 the timing faults are *discovered*: at least one
        // search must have surfaced a loud finding.
        assert!(rows.iter().any(|r| r.findings > 0));
    }

    #[test]
    fn t10_bytes_scale_with_scheme() {
        let rows = t10_wire_cost(
            5,
            1,
            vec![
                Arc::new(SchnorrScheme::test_tiny()),
                Arc::new(fd_crypto::DsaScheme::test_tiny()),
            ],
        );
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.keydist_bytes > row.chain_fd_bytes);
            assert!(row.pk_bytes > 0 && row.sig_bytes > 0);
        }
        // Same group ⇒ same sizes for Schnorr and DSA.
        assert_eq!(rows[0].sig_bytes, rows[1].sig_bytes);
    }
}
