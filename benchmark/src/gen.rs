//! Workloads and their generated request streams.
//!
//! Everything the program sees is derived from `--seed` by splitmix64: the
//! cluster seed of each op, the session seeds of the serve workloads, and
//! the input bytes. The *shape* of an op (protocol, size, engine, input
//! length) is a function of its position in the workload's fixed cycle, so
//! message and byte counts per cycle are the same for every seed and can be
//! compared exactly across commits.

use fd_core::spec::{Protocol, SpecBuilder};
use fd_core::{AdversaryKind, AdversarySpec};
use fd_simnet::Engine;

/// splitmix64: the stream every generated value comes from.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// The five workloads (see `benchmark/README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdKeydist,
    ColdCrypto,
    ServeWarm,
    ServeHeavy,
    ClusterChaos,
}

/// Cycle position of the slow op class in the five-op cycles: the bigger
/// cluster of the cold workloads, the killed worker of `cluster-chaos`. One
/// op in five is slow, so `op_p90_ms` lands in the middle of the slow class
/// and `op_p50_ms` in the middle of the fast one, neither on a boundary.
pub const SLOW_POS: usize = 4;
/// System size of the one warm session `serve-heavy` runs on.
pub const HEAVY_N: usize = 256;
/// System sizes of the `serve-warm` sessions, one per client connection.
/// Under two shards `FdService::shard_of` reduces to the parity of `n` for a
/// given scheme, so one odd size is needed to use both workers.
pub const WARM_SIZES: [usize; 2] = [17, 64];

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ColdKeydist,
        Workload::ColdCrypto,
        Workload::ServeWarm,
        Workload::ServeHeavy,
        Workload::ClusterChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdKeydist => "cold-keydist",
            Workload::ColdCrypto => "cold-crypto",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeHeavy => "serve-heavy",
            Workload::ClusterChaos => "cluster-chaos",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name} ({})", names.join("|"))
            })
    }

    /// Closed-loop clients: one per connection on `serve-warm` (= the two
    /// cores of the sandbox), a single caller everywhere else.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeWarm => WARM_SIZES.len(),
            _ => 1,
        }
    }

    /// Ops in one cycle of one client.
    pub fn cycle_len(self) -> usize {
        match self {
            Workload::ColdKeydist | Workload::ColdCrypto | Workload::ClusterChaos => 5,
            Workload::ServeWarm => 8,
            Workload::ServeHeavy => 10,
        }
    }

    /// Whether ops go to a `lafd serve` process (the others spawn a process
    /// per op).
    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeWarm | Workload::ServeHeavy)
    }

    /// Whether the measured runs report times at reference speed (see
    /// `calib`): the workloads whose op is one single-threaded CPU-bound
    /// process, so that its wall time is the machine's speed at that moment.
    /// The others wait on timers, sockets and eight workers at once, and are
    /// steady as they are.
    pub fn speed_corrected(self) -> bool {
        matches!(self, Workload::ColdKeydist | Workload::ColdCrypto)
    }

    /// Session seeds a serve client's ops rotate over.
    pub fn sessions_per_client(self) -> usize {
        match self {
            Workload::ServeWarm => 2,
            _ => 1,
        }
    }
}

/// What a correct program must answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Failure-free: closed-form message count, everyone decides the input.
    Honest,
    /// Scripted tampering relay: F1–F3 hold and somebody discovers.
    Discovery,
}

/// One generated operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub builder: SpecBuilder,
    pub expect: Expect,
    /// `lafd cluster --chaos` spec (cluster workload only).
    pub chaos: Option<String>,
}

/// A seed for one lane of the generator, decorrelated from its neighbours.
fn derive(seed: u64, lane: u64, index: u64) -> u64 {
    let mut mix = SplitMix::new(
        seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F) ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB),
    );
    mix.next_u64()
}

/// Cluster seeds stay below 2^31 so they read well on a command line.
fn cluster_seed(seed: u64, lane: u64, index: u64) -> u64 {
    derive(seed, lane, index) >> 33
}

/// The seed of session `k` of serve client `client`.
pub fn session_seed(seed: u64, client: usize, k: usize) -> u64 {
    cluster_seed(seed, 0x5E55 + client as u64, k as u64)
}

/// Input length by cycle position: spans 16..=64 bytes over the cycle and
/// does not depend on the seed.
fn input_len(pos: usize, cycle: usize) -> usize {
    16 + 48 * pos / (cycle - 1)
}

/// Random input bytes for op `index` of `client`. Cluster ops pass the
/// value on a command line, so theirs is the hex text of the bytes.
fn input(workload: Workload, seed: u64, client: usize, index: usize) -> Vec<u8> {
    let cycle = workload.cycle_len();
    let len = input_len(index % cycle, cycle);
    let mut mix = SplitMix::new(derive(seed, 0x1A9 + client as u64, index as u64));
    let raw = mix.bytes(len);
    if workload == Workload::ClusterChaos {
        let hex: String = raw.iter().map(|b| format!("{b:02x}")).collect();
        hex.into_bytes()[..len].to_vec()
    } else {
        raw
    }
}

/// Op `index` (0-based, counted per client) of `client` under `seed`.
pub fn op(workload: Workload, seed: u64, client: usize, index: usize) -> Op {
    let value = input(workload, seed, client, index);
    let pos = index % workload.cycle_len();
    let honest = |builder: SpecBuilder| Op {
        builder: builder.with_input(value.clone()),
        expect: Expect::Honest,
        chaos: None,
    };
    match workload {
        Workload::ColdKeydist => honest(
            SpecBuilder::new(Protocol::ChainFd, if pos == SLOW_POS { 192 } else { 128 })
                .with_t(1)
                .with_scheme("tiny")
                .with_seed(cluster_seed(seed, 1, index as u64)),
        ),
        Workload::ColdCrypto => honest(
            SpecBuilder::new(Protocol::ChainFd, if pos == SLOW_POS { 32 } else { 16 })
                .with_t(5)
                .with_scheme("s1024")
                .with_seed(cluster_seed(seed, 2, index as u64)),
        ),
        Workload::ServeWarm => {
            let base = SpecBuilder::new(Protocol::ChainFd, WARM_SIZES[client])
                .with_t(1)
                .with_scheme("tiny")
                .with_seed(session_seed(seed, client, pos % 2));
            let protocol = [
                Protocol::ChainFd,
                Protocol::FdToBa,
                Protocol::ChainFd,
                Protocol::SmallRange,
                Protocol::ChainFd,
                Protocol::NonAuthFd,
                Protocol::DolevStrong,
                Protocol::ChainFd,
            ][pos];
            let mut op = honest(SpecBuilder { protocol, ..base });
            if pos == 7 {
                op.builder = op
                    .builder
                    .with_adversary(AdversarySpec::scripted(AdversaryKind::TamperBody));
                op.expect = Expect::Discovery;
            }
            op
        }
        Workload::ServeHeavy => {
            // Six chain FD runs (p50 reads them), four Dolev-Strong runs of
            // which the two sync ones are the slowest fifth (p90 reads them).
            let (protocol, engine) = [
                (Protocol::ChainFd, Engine::Sync),
                (Protocol::ChainFd, Engine::Event),
                (Protocol::DolevStrong, Engine::Sync),
                (Protocol::ChainFd, Engine::Sync),
                (Protocol::ChainFd, Engine::Event),
                (Protocol::DolevStrong, Engine::Event),
                (Protocol::ChainFd, Engine::Sync),
                (Protocol::ChainFd, Engine::Event),
                (Protocol::DolevStrong, Engine::Sync),
                (Protocol::DolevStrong, Engine::Event),
            ][pos];
            honest(
                SpecBuilder::new(protocol, HEAVY_N)
                    .with_t(1)
                    .with_scheme("tiny")
                    .with_seed(session_seed(seed, 0, 0))
                    .with_engine(engine),
            )
        }
        Workload::ClusterChaos => {
            let cluster = cluster_seed(seed, 3, index as u64);
            let mut op = honest(
                SpecBuilder::new(Protocol::ChainFd, 8)
                    .with_t(2)
                    .with_scheme("tiny")
                    .with_seed(cluster),
            );
            if pos == SLOW_POS {
                op.chaos = Some(format!("seed={cluster};kill=3@round:1"));
            }
            op
        }
    }
}

/// The wire-v1 request line of an op (what `lafd run --spec` reads and what
/// goes down a `lafd serve` connection).
pub fn request_line(op: &Op) -> String {
    fd_core::wire::request_to_json(&op.builder, None).expect("generated ops are wire-encodable")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(workload: Workload, seed: u64) -> Vec<String> {
        (0..workload.clients())
            .flat_map(|client| {
                (0..2 * workload.cycle_len()).map(move |i| {
                    let op = op(workload, seed, client, i);
                    format!("{} {:?}", request_line(&op), op.chaos)
                })
            })
            .collect()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for workload in Workload::ALL {
            assert_eq!(stream(workload, 7), stream(workload, 7), "{workload:?}");
            assert_ne!(stream(workload, 7), stream(workload, 8), "{workload:?}");
        }
    }

    #[test]
    fn shapes_do_not_depend_on_the_seed() {
        for workload in Workload::ALL {
            for i in 0..workload.cycle_len() {
                let (a, b) = (op(workload, 1, 0, i), op(workload, 99, 0, i));
                assert_eq!(a.builder.input.len(), b.builder.input.len());
                assert!((16..=64).contains(&a.builder.input.len()));
                assert_eq!(a.builder.protocol, b.builder.protocol);
                assert_eq!(a.chaos.is_some(), b.chaos.is_some());
            }
        }
    }

    #[test]
    fn every_generated_op_validates_and_parses_back() {
        for workload in Workload::ALL {
            for client in 0..workload.clients() {
                for i in 0..workload.cycle_len() {
                    let op = op(workload, 3, client, i);
                    op.builder.validate().expect("valid op");
                    let (back, _) = fd_core::wire::request_from_json(&request_line(&op)).unwrap();
                    assert_eq!(back.input, op.builder.input);
                    assert_eq!(back.seed, op.builder.seed);
                }
            }
        }
    }

    #[test]
    fn cluster_values_are_command_line_safe() {
        for i in 0..10 {
            let op = op(Workload::ClusterChaos, 5, 0, i);
            assert!(op.builder.input.iter().all(u8::is_ascii_hexdigit));
        }
    }

    #[test]
    fn serve_warm_sessions_alternate_and_differ_per_client() {
        let seeds = |client| -> Vec<u64> {
            (0..8)
                .map(|i| op(Workload::ServeWarm, 1, client, i).builder.seed)
                .collect()
        };
        let a = seeds(0);
        assert_eq!(a[0], a[2]);
        assert_ne!(a[0], a[1]);
        assert_eq!(a[0], session_seed(1, 0, 0));
        assert_ne!(seeds(1)[0], a[0]);
    }
}
