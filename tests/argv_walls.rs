//! Hostile command lines against every command-line reader: valid
//! `cluster-worker` command lines from `ClusterConfig::worker(..).to_args(..)`
//! and valid `lafd run`, `cluster`, `chaos`, `search`, `sweep`, `serve`
//! and `registry` lines are mutated by dropping, duplicating and swapping
//! arguments, by truncating and garbling values, and by digit runs past
//! `u64::MAX`. Whatever the arguments, `WorkerConfig::from_args`, each
//! `fd_core::flags` reader, `parse_deadline_secs` and `Flags` return a
//! typed error or a valid value; none panics, and a run shape a reader
//! returns validates and builds.

use local_auth_fd::core::deploy::{
    parse_deadline_secs, ClusterConfig, WorkerConfig, MAX_DEADLINE_SECS,
};
use local_auth_fd::core::flags::{self, FlagError, Flags, RunInvocation};
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::wire;
use local_auth_fd::simnet::fault::LinkFault;
use local_auth_fd::simnet::transport::ChaosSpec;
use local_auth_fd::simnet::NodeId;
use proptest::prelude::*;
use std::time::Duration;

/// Valid worker command lines: the defaults, and one with every optional
/// setting written.
fn corpus() -> Vec<Vec<String>> {
    let request =
        wire::request_to_json(&SpecBuilder::new(Protocol::ChainFd, 4).with_seed(23), None)
            .expect("valid request");
    let chaotic = ClusterConfig {
        io_deadline: Duration::from_secs(10),
        round_wall: Duration::from_micros(2000),
        chaos: Some(
            ChaosSpec::parse("seed=7;kill=1@round:1;kill=2@keydistx3;connect=10;stall=30:2")
                .expect("valid chaos spec"),
        ),
        bind: "0.0.0.0".to_string(),
        ..ClusterConfig::default()
    };
    [ClusterConfig::default(), chaotic]
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            cfg.worker(
                "127.0.0.1:4242".to_string(),
                format!("run-{i}"),
                i + 1,
                i as u64,
            )
            .to_args(&request)
        })
        .collect()
}

/// Valid `lafd` command lines (after the subcommand) for every reader in
/// `fd_core::flags`: every link-fault flag, adversary node lists,
/// `--link-latency`, a full `--chaos` spec and `--campaign`s.
fn cli_corpus() -> Vec<(&'static str, Vec<String>)> {
    [
        (
            "run",
            "chain -n 8 --t 2 --seed 5 --value hi --scheme dsa --engine event \
             --latency jitter:1 --link-latency 0:1:fixed:3 --drop 0:0:1 \
             --corrupt 1:1:2:0:255 --delay 0:2:3:2 --reorder 1:3:4 \
             --trace t.json --trace-folded t.folded",
        ),
        ("run", "chainfd -n 6 --adversary equivocate:1,3"),
        ("run", "ba --crash 1 --latency psync:2:1"),
        ("run", "--spec request.json"),
        (
            "cluster",
            "chain -n 8 --t 2 --seed 3 --scheme tiny --adversary silent:2,4 \
             --latency jitter:2 --io-deadline-secs 10 --round-wall-us 1000 \
             --chaos seed=7;kill=1@round:1;kill=2@keydistx3;connect=10;reset=5;accept-delay=20:3;stall=30:2 \
             --max-restarts 2 --registry 127.0.0.1:4242 --bind 0.0.0.0",
        ),
        ("cluster", "ba -n 4 --crash 1 --value v"),
        (
            "chaos",
            "chain -n 4 --t 1 --campaign noise=seed=7;connect=10 \
             --campaign kill=seed=1;kill=1@round:1xinf --json c.json --io-deadline-secs 5",
        ),
        (
            "search",
            "chainfd -n 7 --t 2 --seed 9 --scheme tiny --latency jitter:2 \
             --adversary silent:2 --strategy greedy --budget 50 --threads 2 \
             --json s.json --md s.md",
        ),
        (
            "sweep",
            "--protocols chain,ba --sizes 4,7 --faults 0,1 --adversaries none,silent \
             --schemes tiny,dsa --seeds 1,2 --engines event --latencies jitter:1 \
             --search 5:greedy --threads 2 --json w.json --md w.md",
        ),
        (
            "sweep",
            "--protocols all --faults auto --engines sync,event --latencies sync \
             --link-latency 0:1:fixed:3 --remote 127.0.0.1:9",
        ),
        (
            "serve",
            "--shards 4 --max-sessions 2 --stdin --clients 3 --metrics m.prom \
             --metrics-format prometheus",
        ),
        ("serve", "--listen 127.0.0.1:0"),
        ("registry", "--listen 127.0.0.1:0 --wait-limit-secs 120"),
    ]
    .into_iter()
    .map(|(reader, line)| (reader, line.split_whitespace().map(str::to_string).collect()))
    .collect()
}

/// A run shape a reader returned: it validates and builds.
fn builds(builder: &SpecBuilder) -> Result<(), TestCaseError> {
    prop_assert_eq!(builder.validate(), Ok(()));
    prop_assert!(builder.build().is_ok());
    Ok(())
}

/// Every `fd_core::flags` reader over `args`: each returns, `Ok` or a
/// typed error, and what it accepts is in range. `Ok(true)` iff the
/// reader named `reader` accepted.
fn read_cli(args: &[String], reader: &str) -> Result<bool, TestCaseError> {
    let mut accepted = Vec::new();
    if let Ok(invocation) = flags::run(args) {
        accepted.push("run");
        if let RunInvocation::Flags(builder, _) = invocation {
            builds(&builder)?;
        }
    }
    if let Ok((builder, cfg)) = flags::cluster(args) {
        accepted.push("cluster");
        builds(&builder)?;
        let secs = cfg.io_deadline.as_secs();
        prop_assert!((1..=MAX_DEADLINE_SECS).contains(&secs), "deadline {secs}");
    }
    if let Ok(chaos) = flags::chaos(args) {
        accepted.push("chaos");
        builds(&chaos.builder)?;
        prop_assert!(chaos.cluster.chaos.is_none());
        prop_assert!(!chaos.campaigns.is_empty());
    }
    if let Ok((config, outs)) = flags::search(args) {
        accepted.push("search");
        prop_assert!((1..=100_000).contains(&config.budget));
        prop_assert!(outs.threads >= 1);
        // The search's run is validated when the search starts.
        if config.spec.validate().is_ok() {
            builds(&config.spec)?;
        }
    }
    if let Ok(sweep) = flags::sweep(args) {
        accepted.push("sweep");
        prop_assert!(sweep.outs.threads >= 1);
    }
    if let Ok(serve) = flags::serve(args) {
        accepted.push("serve");
        prop_assert!((1..=256).contains(&serve.service.shards));
        prop_assert!(serve.service.max_sessions >= 1);
    }
    if let Ok((_, wait_limit)) = flags::registry(args) {
        accepted.push("registry");
        if let Some(secs) = wait_limit {
            prop_assert!((1..=MAX_DEADLINE_SECS).contains(&secs), "wait limit {secs}");
        }
    }
    Ok(accepted.contains(&reader))
}

/// Characters garbling draws from: digits, signs, separators the chaos
/// grammar uses, whitespace, control bytes and multi-byte scalars.
const ALPHABET: &[char] = &[
    '0', '1', '9', '-', '+', '.', 'e', 'x', '@', ':', ';', '=', ',', ' ', '\n', '\u{0}', 'é', '𝄞',
];

/// One mutation: a kind, a position, and two parameters whose meaning
/// depends on the kind.
type Mutation = (usize, prop::sample::Index, usize, usize);

fn mutate(args: &mut Vec<String>, (kind, at, pick, len): Mutation) {
    if args.is_empty() {
        return;
    }
    let pos = at.index(args.len());
    match kind {
        0 => {
            args.remove(pos);
        }
        1 => args.insert(pos, args[pos].clone()),
        2 => {
            let other = pick % args.len();
            args.swap(pos, other);
        }
        3 => {
            let chars: Vec<char> = args[pos].chars().collect();
            args[pos] = chars[..len % (chars.len() + 1)].iter().collect();
        }
        4 => {
            let mut chars: Vec<char> = args[pos].chars().collect();
            let c = ALPHABET[pick % ALPHABET.len()];
            let at = len % (chars.len() + 1);
            match chars.get_mut(at) {
                Some(slot) => *slot = c,
                None => chars.push(c),
            }
            args[pos] = chars.into_iter().collect();
        }
        _ => {
            // 20 digits is already past u64::MAX (18 446 744 073 709 551 615).
            let run: String = std::iter::repeat_n('9', 20 + len % 400).collect();
            args[pos] = if pick % 2 == 0 {
                run
            } else {
                format!("-{run}")
            };
        }
    }
}

/// Every reader over `args`: each returns, `Ok` or a typed error, and an
/// accepted worker configuration is a valid one.
fn read_all(args: &[String]) -> Result<(), TestCaseError> {
    match WorkerConfig::from_args(args) {
        Ok((cfg, request)) => {
            let secs = cfg.io_deadline.as_secs();
            prop_assert!((1..=MAX_DEADLINE_SECS).contains(&secs), "deadline {secs}");
            // What was accepted writes back to the same configuration.
            let again = WorkerConfig::from_args(&cfg.to_args(&request));
            prop_assert_eq!(again, Ok((cfg, request)));
        }
        Err(error) => {
            prop_assert!(!error.to_string().is_empty());
        }
    }
    for raw in args {
        if let Ok(secs) = parse_deadline_secs("--io-deadline-secs", raw) {
            prop_assert!((1..=MAX_DEADLINE_SECS).contains(&secs), "deadline {secs}");
        }
    }
    let mut flags = Flags::new(args);
    while flags.next_flag().is_some() {
        match flags.parse::<u64>("--value") {
            Ok(_) | Err(FlagError::NoValue(_) | FlagError::BadValue(..)) => {}
            Err(other) => prop_assert!(false, "Flags::parse returned {other:?}"),
        }
    }
    Ok(())
}

#[test]
fn every_valid_command_line_reads_back() {
    for args in corpus() {
        assert!(WorkerConfig::from_args(&args).is_ok(), "refused {args:?}");
    }
}

#[test]
fn every_valid_lafd_line_is_accepted_by_its_reader() {
    for (reader, args) in cli_corpus() {
        let accepted = read_cli(&args, reader).map_err(|e| format!("{e:?}"));
        assert_eq!(accepted, Ok(true), "{reader} refused {args:?}");
    }
}

#[test]
fn every_link_fault_flag_reads_round_link_and_fault() {
    let read = |flag: &str, spec: &str| flags::link_fault(flag, spec).expect(spec);
    let link = |fault| (3, NodeId(1), NodeId(2), fault);
    assert_eq!(read("--drop", "3:1:2"), link(LinkFault::Drop));
    assert_eq!(read("--reorder", "3:1:2"), link(LinkFault::Reorder));
    assert_eq!(
        read("--delay", "3:1:2:7"),
        link(LinkFault::Delay { rounds: 7 })
    );
    let corrupt = LinkFault::Corrupt {
        offset: 4,
        mask: 0x80,
    };
    assert_eq!(read("--corrupt", "3:1:2:4:128"), link(corrupt));
    for (flag, spec) in [
        ("--drop", "3:1"),
        ("--delay", "3:1:2:10001"),
        ("--tamper", "3:1:2"),
    ] {
        assert!(flags::link_fault(flag, spec).is_err(), "{flag} {spec}");
    }
}

#[test]
fn out_of_range_deadlines_are_typed_errors() {
    for raw in ["0", "86401", "18446744073709551616", "-1", "", " 5", "5s"] {
        let error = parse_deadline_secs("--io-deadline-secs", raw).expect_err(raw);
        assert!(error.starts_with("--io-deadline-secs"), "{raw}: {error}");
    }
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (
        0usize..6,
        any::<prop::sample::Index>(),
        0usize..64,
        0usize..1024,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_command_lines_read_or_fail_without_a_panic(
        pick in any::<prop::sample::Index>(),
        mutations in prop::collection::vec(mutation(), 1..5),
    ) {
        let mut lines = corpus();
        lines.extend(cli_corpus().into_iter().map(|(_, args)| args));
        let mut args = lines[pick.index(lines.len())].clone();
        for m in mutations {
            mutate(&mut args, m);
            read_all(&args)?;
            read_cli(&args, "")?;
        }
    }
}
