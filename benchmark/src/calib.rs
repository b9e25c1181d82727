//! Speed correction for the CPU-bound workloads.
//!
//! The sandbox's speed is not constant: its clock flips between two levels
//! 1.28x apart every few seconds to minutes, and in phases of minutes
//! something outside the guest slows allocation-heavy code by up to 2x in
//! bursts (`benchmark/README.md`, "Why the cold workloads are
//! speed-corrected", has the measurements). A cold `lafd run` is one
//! single-threaded CPU-bound process, so its wall time follows both, and no
//! statistic over a run of any affordable length removes a drift that
//! outlasts the run.
//!
//! So the benchmark measures the machine next to the program. Between every
//! two ops it runs a fixed **probe**: a process of its own, like the op,
//! that does small allocations and frees with a bounded live set, the kind
//! of work `lafd` spends its time on. The probe is code of the benchmark,
//! never of the repository, whose optimisation it would cancel. An op's time
//! is multiplied by `REFERENCE_MS` over the mean of the probes before and
//! after it, and reads "milliseconds at reference speed": the speed at which
//! the probe takes `REFERENCE_MS`, which is the sandbox's usual one.

use std::process::{Command, Stdio};
use std::time::Instant;

/// The probe's time at reference speed: its usual reading in the sandbox
/// this benchmark was sized on (the median of an hour of readings).
pub const REFERENCE_MS: f64 = 3.5;

const ROUNDS: usize = 100_000;
const LIVE: usize = 4096;

/// The fixed work: `ROUNDS` allocations of 16–79 bytes, each written to, at
/// most `LIVE` of them alive at once. Returns a checksum so the optimiser
/// keeps all of it.
#[inline(never)]
fn kernel() -> usize {
    let mut keep: Vec<Vec<u8>> = Vec::with_capacity(LIVE + 1);
    let mut state = 12345u64;
    let mut total = 0;
    for round in 0..ROUNDS {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let mut block = vec![0u8; 16 + (state >> 58) as usize];
        block[0] = round as u8;
        total += block.len();
        keep.push(block);
        if keep.len() > LIVE {
            keep.swap_remove((state >> 40) as usize % keep.len());
        }
    }
    total + keep.len()
}

/// The `probe` subcommand: time the kernel once in this fresh process and
/// print the milliseconds.
pub fn probe_main() {
    let started = Instant::now();
    std::hint::black_box(kernel());
    println!("{}", started.elapsed().as_secs_f64() * 1e3);
}

/// Run the probe once and return its time in milliseconds. It runs in a
/// process of its own because a fresh single-threaded process has the same
/// heap every time, while this one's allocator is as fast as whatever the
/// pass did before left it (in-process readings differed by 13 % between
/// seeds).
fn probe_ms() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this executable: {e}"))?;
    let out = Command::new(&exe)
        .arg("probe")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("running {} probe: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(ms) if out.status.success() && ms > 0.0 => Ok(ms),
        _ => Err(format!(
            "the speed probe ended with {} and printed {text:?}",
            out.status
        )),
    }
}

/// Scales the intervals of one pass to reference speed, or leaves them as
/// they are.
pub struct Speed {
    /// Every probe so far, the last one closing the previous interval;
    /// `None` when times stay raw.
    probes_ms: Option<Vec<f64>>,
}

impl Speed {
    /// `corrected`: probe now, and again at the end of every interval.
    pub fn new(corrected: bool) -> Result<Speed, String> {
        let probes_ms = if corrected {
            Some(vec![probe_ms()?])
        } else {
            None
        };
        Ok(Speed { probes_ms })
    }

    /// Ends the interval that began at the previous call (or at `new`) and
    /// returns what to multiply its durations with: `REFERENCE_MS` over the
    /// mean of the probes on both sides of it. 1 when times stay raw.
    pub fn factor(&mut self) -> Result<f64, String> {
        let Some(probes) = &mut self.probes_ms else {
            return Ok(1.0);
        };
        let before = *probes.last().expect("new() probed");
        let after = probe_ms()?;
        probes.push(after);
        Ok(factor(before, after))
    }

    /// Median probe time of the pass, for the run's table.
    pub fn median_probe_ms(&self) -> Option<f64> {
        crate::stats::median(self.probes_ms.as_deref()?)
    }
}

fn factor(before_ms: f64, after_ms: f64) -> f64 {
    REFERENCE_MS / ((before_ms + after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_reference_over_the_mean_of_both_probes() {
        assert_eq!(factor(REFERENCE_MS, REFERENCE_MS), 1.0);
        // A machine twice as slow on both sides: times are halved.
        assert_eq!(factor(2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS), 0.5);
        // A speed change inside the interval counts half.
        assert_eq!(factor(REFERENCE_MS, 3.0 * REFERENCE_MS), 0.5);
    }

    #[test]
    fn raw_passes_never_probe_and_never_scale() {
        let mut raw = Speed::new(false).unwrap();
        assert_eq!(raw.factor(), Ok(1.0));
        assert_eq!(raw.factor(), Ok(1.0));
        assert_eq!(raw.median_probe_ms(), None);
    }

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        assert_eq!(kernel(), kernel());
    }
}
