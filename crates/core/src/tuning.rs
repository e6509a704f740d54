//! Manual tuning (Chapter 6).
//!
//! The elastic scaler reacts to every sustained RT-TTP drop by starting a
//! new MPPDB — hours of bulk loading. When the drop is *marginal* (say
//! RT-TTP flat at 99.8% against a 99.9% guarantee), a system administrator
//! can instead grow the tuning MPPDB `MPPDB_0` from `U = n_1` to some
//! `U > n_1`: overflow queries (rule 4 of Algorithm 1) are concurrently
//! processed there, and the extra parallelism can absorb the concurrency
//! slowdown so the SLA is met *empirically* (point C of Figure 1.1b).
//!
//! [`recommend_tuning_nodes`] computes the smallest `U` for which an
//! overflow query sharing `MPPDB_0` with `k - 1` others still meets the
//! SLA of an `n_1`-node dedicated MPPDB, under the cost model.

use mppdb_sim::cost::isolated_latency_ms;
use mppdb_sim::query::QueryTemplate;

/// The smallest tuning-MPPDB size `U ≥ n1` such that a query of the given
/// template, concurrently processed with `concurrency - 1` identical
/// queries on `MPPDB_0`, finishes within `slack ×` its dedicated `n1`-node
/// latency. Returns `None` if no size up to `max_u` suffices (non-linear
/// queries hit their Amdahl ceiling).
///
/// `slack` ≥ 1.0 is the SLA tolerance (1.0 = exact).
///
/// # Panics
/// Panics if `n1 == 0`, `concurrency == 0` or `slack < 1.0`.
pub fn recommend_tuning_nodes(
    template: &QueryTemplate,
    data_gb: f64,
    n1: u32,
    concurrency: u32,
    slack: f64,
    max_u: u32,
) -> Option<u32> {
    assert!(n1 > 0, "n1 must be positive");
    assert!(concurrency > 0, "concurrency must be positive");
    assert!(
        slack >= 1.0,
        "slack below 1.0 is unsatisfiable by definition"
    );
    let baseline = isolated_latency_ms(template, data_gb, n1 as usize);
    for u in n1..=max_u.max(n1) {
        // Processor sharing: k concurrent queries each run k-fold slower.
        let shared = isolated_latency_ms(template, data_gb, u as usize) * f64::from(concurrency);
        if shared <= baseline * slack {
            return Some(u);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mppdb_sim::query::TemplateId;

    fn linear() -> QueryTemplate {
        QueryTemplate::new(TemplateId(1), 600.0, 0.0)
    }

    fn nonlinear() -> QueryTemplate {
        QueryTemplate::new(TemplateId(19), 600.0, 0.30)
    }

    #[test]
    fn linear_queries_need_k_times_the_nodes() {
        // Point C of Figure 1.1b: with a linear query, absorbing k = 2
        // concurrent queries needs exactly 2x the parallelism.
        let u = recommend_tuning_nodes(&linear(), 200.0, 2, 2, 1.0, 64).unwrap();
        assert_eq!(u, 4);
        let u3 = recommend_tuning_nodes(&linear(), 200.0, 4, 3, 1.0, 64).unwrap();
        assert_eq!(u3, 12);
    }

    #[test]
    fn no_concurrency_needs_no_extra_nodes() {
        assert_eq!(
            recommend_tuning_nodes(&linear(), 200.0, 4, 1, 1.0, 64),
            Some(4)
        );
    }

    #[test]
    fn nonlinear_queries_may_be_untunable() {
        // Q19-style: serial fraction 0.3 means 2 concurrent queries can
        // never both meet a dedicated 8-node SLA, no matter how many nodes
        // MPPDB_0 gets: the shared latency floor is 2 * f * C, which
        // exceeds the baseline (f + 0.7/8) * C.
        assert_eq!(
            recommend_tuning_nodes(&nonlinear(), 200.0, 8, 2, 1.0, 4096),
            None
        );
    }

    #[test]
    fn slack_makes_non_linear_tuning_feasible_sometimes() {
        // With a 2.2x slack, two concurrent Q19s on a big enough MPPDB_0
        // do fit (2 * 0.3 = 0.6 < 2.2 * (0.3 + 0.7/8) ~ 0.85 per GB-unit).
        let u = recommend_tuning_nodes(&nonlinear(), 200.0, 8, 2, 2.2, 4096);
        assert!(u.is_some());
    }

    #[test]
    #[should_panic(expected = "slack")]
    fn sub_one_slack_panics() {
        let _ = recommend_tuning_nodes(&linear(), 200.0, 2, 2, 0.9, 64);
    }
}
