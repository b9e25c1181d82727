//! Closed-form message-complexity expressions from the paper.
//!
//! The sweep, `lafd run` and the count tests check measured counts against
//! these formulas — the reproduction's equivalent of the paper's
//! analytical claims (§3.1, §5, §6).

/// Key distribution cost (paper §3.1/§6): `3·n·(n−1)` messages.
pub fn keydist_messages(n: usize) -> usize {
    3 * n * n.saturating_sub(1)
}

/// Key distribution communication rounds: 3.
pub const KEYDIST_COMM_ROUNDS: u32 = 3;

/// Authenticated chain FD cost per run (paper Fig. 2 / §5): `n − 1`.
pub fn chain_fd_messages(n: usize) -> usize {
    n.saturating_sub(1)
}

/// Chain FD communication rounds: `t + 1`.
pub fn chain_fd_comm_rounds(t: usize) -> u32 {
    t as u32 + 1
}

/// Non-authenticated witness-relay FD cost per run: `(t + 2)(n − 1)`,
/// the `O(n·t)` of the paper's §5.
pub fn non_auth_messages(n: usize, t: usize) -> usize {
    (t + 2) * n.saturating_sub(1)
}

/// Small-range FD cost per run given whether the value is the default.
pub fn small_range_messages(n: usize, t: usize, is_default: bool) -> usize {
    if is_default {
        0
    } else {
        (t + 2) * n.saturating_sub(1)
    }
}

/// Phase-King failure-free cost: `(n−1) + (t+1)·(n+1)·(n−1)` — the initial
/// broadcast plus, per phase, a universal exchange (`n·(n−1)`) and the king
/// broadcast (`n−1`). The `O(t·n²)` non-authenticated full-agreement
/// baseline of experiment T7.
pub fn phase_king_messages(n: usize, t: usize) -> usize {
    let nm1 = n.saturating_sub(1);
    nm1 + (t + 1) * (n * nm1 + nm1)
}

/// Degradable (crusader/graded) agreement failure-free cost:
/// `(n−1) + (n−1)²  =  n·(n−1)` — direct broadcast plus everyone's echo.
pub fn degradable_messages(n: usize) -> usize {
    n * n.saturating_sub(1)
}

/// Degradable agreement communication rounds: 2, independent of `t`.
pub const DEGRADABLE_COMM_ROUNDS: u32 = 2;

/// Dolev–Strong failure-free cost under a correct sender: `n·(n−1)` (the
/// initial broadcast plus one relay per node).
pub fn dolev_strong_messages(n: usize) -> usize {
    n * n.saturating_sub(1)
}

/// Cumulative messages after establishing local authentication once and
/// running `k` authenticated FD runs (experiment F1, "authenticated" series).
pub fn cumulative_authenticated(n: usize, k: usize) -> usize {
    keydist_messages(n) + k * chain_fd_messages(n)
}

/// Cumulative messages for `k` non-authenticated FD runs (experiment F1,
/// baseline series).
pub fn cumulative_non_auth(n: usize, t: usize, k: usize) -> usize {
    k * non_auth_messages(n, t)
}

/// Cumulative messages over `epochs` key-rotation epochs of `runs_per_epoch`
/// chain-FD runs each: every epoch pays the key distribution again (see
/// [`crate::epoch`]).
pub fn cumulative_with_rotations(n: usize, epochs: usize, runs_per_epoch: usize) -> usize {
    epochs * (keydist_messages(n) + runs_per_epoch * chain_fd_messages(n))
}

/// The smallest number of runs `k*` after which the authenticated approach
/// has sent fewer total messages, or `None` if it never catches up
/// (requires `t >= 1`; with `t = 0` both cost about the same per run and
/// the key distribution never amortizes).
pub fn amortization_crossover(n: usize, t: usize) -> Option<usize> {
    let setup = keydist_messages(n);
    let per_run_saving = non_auth_messages(n, t).saturating_sub(chain_fd_messages(n));
    if per_run_saving == 0 {
        return None;
    }
    // smallest k with k * saving > setup
    Some(setup / per_run_saving + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_formulas() {
        assert_eq!(keydist_messages(4), 36);
        assert_eq!(keydist_messages(1), 0);
        assert_eq!(chain_fd_messages(8), 7);
        assert_eq!(non_auth_messages(8, 2), 28);
        assert_eq!(chain_fd_comm_rounds(3), 4);
    }

    #[test]
    fn baseline_formulas() {
        // n = 5, t = 1: 4 + 2·(25 + 5 − 5 − 1)·… spelled out: 4 + 2·(5·4 + 4)
        assert_eq!(phase_king_messages(5, 1), 4 + 2 * (20 + 4));
        assert_eq!(degradable_messages(5), 20);
        assert_eq!(dolev_strong_messages(5), 20);
        assert_eq!(DEGRADABLE_COMM_ROUNDS, 2);
    }

    #[test]
    fn small_range_default_is_free() {
        assert_eq!(small_range_messages(10, 3, true), 0);
        assert_eq!(small_range_messages(10, 3, false), 45);
    }

    #[test]
    fn rotation_accounting() {
        assert_eq!(
            cumulative_with_rotations(6, 3, 4),
            3 * (keydist_messages(6) + 4 * chain_fd_messages(6))
        );
        assert_eq!(cumulative_with_rotations(6, 0, 10), 0);
    }

    #[test]
    fn crossover_matches_inequality() {
        for (n, t) in [(4usize, 1usize), (8, 2), (16, 5), (32, 10)] {
            let k = amortization_crossover(n, t).unwrap();
            assert!(
                cumulative_authenticated(n, k) < cumulative_non_auth(n, t, k),
                "n={n} t={t} k={k}"
            );
            if k > 1 {
                assert!(
                    cumulative_authenticated(n, k - 1) >= cumulative_non_auth(n, t, k - 1),
                    "n={n} t={t} k-1={}",
                    k - 1
                );
            }
        }
    }

    #[test]
    fn crossover_none_when_no_saving() {
        // t = 0: non-auth costs 2(n-1), chain costs n-1: saving exists.
        assert!(amortization_crossover(5, 0).is_some());
        // Degenerate n = 1: both zero.
        assert_eq!(amortization_crossover(1, 0), None);
    }

    #[test]
    fn crossover_is_about_3n_over_t_plus_1() {
        // Analytically k* = ceil(3n(n-1) / ((t+1)(n-1))) = ceil(3n/(t+1)).
        for (n, t) in [(8usize, 1usize), (16, 3), (32, 7)] {
            let k = amortization_crossover(n, t).unwrap();
            let analytic = 3 * n / (t + 1) + 1;
            assert!(
                k.abs_diff(analytic) <= 1,
                "n={n} t={t}: k={k} analytic≈{analytic}"
            );
        }
    }
}
