//! The "ideal policy": brute-force objective optimization over a sweep.

use mct_core::{NvmConfig, Objective};
use mct_sim::stats::Metrics;

use crate::cache::SweepDataset;

/// Result of an ideal-policy search.
#[derive(Debug, Clone, PartialEq)]
pub struct IdealSearch {
    /// The winning configuration.
    pub config: NvmConfig,
    /// Its measured metrics.
    pub metrics: Metrics,
    /// Whether any configuration satisfied the constraints (when false,
    /// the returned config maximizes the primary goal uncon­strained —
    /// the best that exists).
    pub feasible: bool,
}

/// Search `dataset` for the objective-optimal configuration — the paper's
/// *ideal policy* (Section 6.2: "selected by a brute-force search through
/// the whole configuration space").
///
/// # Panics
/// Panics on an empty dataset.
#[must_use]
pub fn ideal_for(dataset: &SweepDataset, objective: &Objective) -> IdealSearch {
    assert!(!dataset.configs.is_empty(), "empty sweep dataset");
    match objective.select(&dataset.metrics) {
        Some(i) => IdealSearch {
            config: dataset.configs[i],
            metrics: dataset.metrics[i],
            feasible: true,
        },
        None => {
            // Nothing satisfies the constraints: fall back to the best
            // primary score so callers can still report a row.
            let best = (0..dataset.metrics.len())
                .max_by(|&a, &b| {
                    objective
                        .primary
                        .score(&dataset.metrics[a])
                        .total_cmp(&objective.primary.score(&dataset.metrics[b]))
                })
                .expect("nonempty");
            IdealSearch {
                config: dataset.configs[best],
                metrics: dataset.metrics[best],
                feasible: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_core::ConfigSpace;

    fn dataset() -> SweepDataset {
        let space = ConfigSpace::without_wear_quota();
        let metrics: Vec<Metrics> = space
            .iter()
            .map(|c| Metrics {
                ipc: 1.5 - 0.2 * c.fast_latency,
                lifetime_years: 2.5 * c.slow_latency * c.slow_latency,
                energy_j: 5.0 + c.slow_latency,
            })
            .collect();
        SweepDataset {
            configs: space.configs().to_vec(),
            metrics,
        }
    }

    #[test]
    fn finds_feasible_optimum() {
        let res = ideal_for(&dataset(), &Objective::paper_default(8.0));
        assert!(res.feasible);
        assert!(res.metrics.lifetime_years >= 8.0);
        // Lifetime >= 8 needs slow_latency^2 >= 3.2 => slow >= 2.0; energy
        // minimization inside the IPC window prefers the smallest such.
        assert!(res.config.slow_latency >= 2.0);
    }

    #[test]
    fn infeasible_reports_best_effort() {
        let res = ideal_for(&dataset(), &Objective::paper_default(1e9));
        assert!(!res.feasible);
        // Best-effort: maximize IPC => smallest fast latency.
        assert_eq!(res.config.fast_latency, 1.0);
    }
}
