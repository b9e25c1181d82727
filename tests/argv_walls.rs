//! Hostile command lines against the worker argv reader: valid
//! `cluster-worker` command lines from `ClusterConfig::worker(..).to_args(..)`
//! are mutated by dropping, duplicating and swapping arguments, by
//! truncating and garbling values, and by digit runs past `u64::MAX`.
//! Whatever the arguments, `WorkerConfig::from_args`,
//! `parse_deadline_secs` and `Flags` return a typed error or a valid
//! value; none panics.

use local_auth_fd::core::deploy::{
    parse_deadline_secs, ClusterConfig, WorkerConfig, MAX_DEADLINE_SECS,
};
use local_auth_fd::core::flags::{FlagError, Flags};
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::wire;
use local_auth_fd::simnet::transport::ChaosSpec;
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
        let lines = corpus();
        let mut args = lines[pick.index(lines.len())].clone();
        for m in mutations {
            mutate(&mut args, m);
            read_all(&args)?;
        }
    }
}
