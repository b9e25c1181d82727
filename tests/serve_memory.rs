//! The service's resident set depends on how many sessions it holds, not
//! on how many requests it has served.
//!
//! One `#[test]` only: the file is its own process, so no other test's
//! allocations move the resident set while this one watches it.

#![cfg(target_os = "linux")]

use local_auth_fd::core::service::{FdService, ServiceConfig};
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::wire;

/// This process's resident set in KiB (`VmRSS` of `/proc/self/status`).
fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

#[test]
fn resident_set_does_not_grow_with_requests_served() {
    let service = FdService::start(ServiceConfig {
        shards: 1,
        max_sessions: 2,
    });
    // One warm session; every request carries an input no earlier request
    // had, so nothing content-addressed can answer it from memory. Every
    // fourth run is a Dolev–Strong broadcast, the protocol whose payload
    // buffers the verification cache's cohort layer pins.
    let submit = |k: u32| {
        let protocol = if k % 4 == 3 {
            Protocol::DolevStrong
        } else {
            Protocol::ChainFd
        };
        let builder = SpecBuilder::new(protocol, 17)
            .with_seed(9)
            .with_input(k.to_be_bytes().to_vec());
        let line = wire::request_to_json(&builder, None).unwrap();
        let response = wire::response_from_json(&service.submit_line(&line)).unwrap();
        assert_eq!(response.keydist_reused, k > 0);
        assert!(response.report.unwrap().all_decided(&k.to_be_bytes()));
    };
    (0..500).for_each(submit);
    let early_kb = vm_rss_kb();
    (500..4_000).for_each(submit);
    let late_kb = vm_rss_kb();
    // A verification cache that outlives its run retains ~0.6 kB per
    // chain FD request and ~12 kB per Dolev–Strong one: 12 MB over these
    // 3 500 requests.
    assert!(
        late_kb < early_kb + 3 * 1024,
        "resident set grew {early_kb} kB -> {late_kb} kB over 3500 warm requests"
    );
    service.shutdown();
}
