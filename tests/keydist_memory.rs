//! Key distribution's peak resident set grows by at most 72 bytes per
//! ordered pair of nodes: each honest round parks one send record per
//! node (broadcasts and scatters), and a node keeps 16 bytes per peer.
//!
//! One `#[test]` only: the file is its own process, so no other test's
//! allocations move the high-water mark while this one measures it.

#![cfg(target_os = "linux")]

use local_auth_fd::core::runner::Cluster;
use local_auth_fd::crypto::SchnorrScheme;
use std::sync::Arc;

/// One `/proc/self/status` field in KiB (`VmRSS`, `VmHWM`).
fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line"))
}

#[test]
#[ignore = "large-n guard; run with --release -- --ignored"]
fn keydist_peak_memory_is_at_most_72_bytes_per_ordered_pair() {
    let n = 512;
    let cluster = Cluster::new(n, 1, Arc::new(SchnorrScheme::test_tiny()), 7);
    let before_kb = status_kb("VmRSS:");
    let kd = cluster.run_key_distribution_on(1, &mut |_| None);
    let peak_kb = status_kb("VmHWM:");
    assert_eq!(kd.stats.messages_total, 3 * n * (n - 1));
    assert!(kd.stores.iter().flatten().all(|s| s.accepted_count() == n));
    let pairs = (n * (n - 1)) as u64;
    let grown = peak_kb.saturating_sub(before_kb) * 1024;
    assert!(
        grown <= 72 * pairs,
        "peak grew {grown} B = {} B per ordered pair ({before_kb} kB -> {peak_kb} kB)",
        grown / pairs
    );
}
