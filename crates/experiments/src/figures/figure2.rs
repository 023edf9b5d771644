//! Figure 2 (+ Table 7's accuracy/requirements columns): predictor
//! comparison — convergence rate and prediction accuracy vs number of
//! training samples.
//!
//! For each application, models train on N random sample configurations
//! from the sweep dataset and are scored by coefficient of determination
//! (paper Eq. 3) over the full remaining space; results average over the
//! ten applications. Offline/hierarchical models receive the other nine
//! applications as their offline corpus (leave-one-out).

use std::io::{self, Write};

use mct_core::predictor::AppCorpus;
use mct_core::{ConfigSpace, MetricsPredictor, ModelKind};
use mct_workloads::Workload;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::objective_r2;
use crate::cache::{load_or_compute_sweeps, strided_configs, SweepDataset, SweepRequest};
use crate::report::Table;
use crate::runner::EXPERIMENT_SEED;
use crate::scale::Scale;

const SAMPLE_SIZES: [usize; 5] = [10, 20, 40, 80, 160];
const OBJECTIVES: [&str; 3] = ["IPC", "lifetime", "energy"];

/// Fit `kind` on `n_samples` random configurations of application `app`
/// (shuffled by `seed`) and score IPC, lifetime and energy on the rest.
/// `pairs` holds every application's (config, metrics) table; the
/// offline kinds train on the other applications' tables.
fn r2_for(
    kind: ModelKind,
    datasets: &[SweepDataset],
    pairs: &[AppCorpus],
    app: usize,
    n_samples: usize,
    seed: u64,
) -> [f64; 3] {
    let ds = &datasets[app];
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..ds.configs.len()).collect();
    idx.shuffle(&mut rng);
    let (train_idx, eval_idx) = idx.split_at(n_samples);
    let train: Vec<_> = train_idx.iter().map(|&i| pairs[app][i]).collect();

    let mut predictor = MetricsPredictor::new(kind);
    if kind.needs_offline_data() {
        let corpus = pairs
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != app)
            .map(|(_, p)| p.clone())
            .collect();
        predictor = predictor.with_corpus(corpus);
    }
    predictor.fit(&train, None);
    objective_r2(&predictor, ds, eval_idx.iter().copied())
}

/// Render Figure 2 and Table 7.
pub fn run(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "== Figure 2: convergence & accuracy of the predictors (scale: {scale}) =="
    )?;
    let space = ConfigSpace::without_wear_quota();
    let configs = strided_configs(space.configs(), scale);
    let requests: Vec<SweepRequest> = Workload::all()
        .into_iter()
        .map(|w| SweepRequest {
            workload: w,
            configs: configs.clone(),
        })
        .collect();
    let datasets = load_or_compute_sweeps(&requests, scale, EXPERIMENT_SEED);
    let pairs: Vec<_> = datasets.iter().map(SweepDataset::pairs).collect();
    // R^2 needs at least two held-out configurations (one point has no
    // variance to explain); a size that leaves fewer is not measured and
    // renders as `n/a` (the smoke scale's n=80 and n=160).
    let measurable = |n: usize| n + 2 <= configs.len();

    // One fit per (learner, size, application) scores all three
    // objectives; sums accumulate in application order.
    let mut sums = vec![[[0.0; 3]; SAMPLE_SIZES.len()]; ModelKind::all().len()];
    for (kind, kind_sums) in ModelKind::all().into_iter().zip(&mut sums) {
        for (&n, cell) in SAMPLE_SIZES.iter().zip(kind_sums.iter_mut()) {
            if !measurable(n) {
                continue;
            }
            for app in 0..datasets.len() {
                let r2 = r2_for(kind, &datasets, &pairs, app, n, 7 + n as u64);
                for (sum, r) in cell.iter_mut().zip(r2) {
                    *sum += r;
                }
            }
        }
    }

    for (dim, obj) in OBJECTIVES.iter().enumerate() {
        writeln!(
            out,
            "\n-- objective: {obj} (mean R^2 over 10 applications) --\n"
        )?;
        let mut table = Table::new(
            std::iter::once("model".to_string())
                .chain(SAMPLE_SIZES.iter().map(|n| format!("n={n}")))
                .collect::<Vec<_>>(),
        );
        for (kind, kind_sums) in ModelKind::all().into_iter().zip(&sums) {
            let mut cells = vec![kind.label().to_string()];
            for (&n, cell) in SAMPLE_SIZES.iter().zip(kind_sums) {
                cells.push(if measurable(n) {
                    format!("{:.3}", cell[dim] / datasets.len() as f64)
                } else {
                    "n/a".to_string()
                });
            }
            table.row(cells);
        }
        write!(out, "{}", table.render())?;
    }

    writeln!(
        out,
        "\n== Table 7: data requirements (overheads: `cargo bench -p mct-bench --bench predictors`) ==\n"
    )?;
    let mut t7 = Table::new(["predictor", "needs offline data?", "needs online data?"]);
    t7.row(["offline", "yes", "no"]);
    t7.row(["linear model, no regularization", "no", "yes"]);
    t7.row(["linear model, lasso regularization", "no", "yes"]);
    t7.row(["quadratic model, no regularization", "no", "yes"]);
    t7.row(["quadratic model, lasso regularization", "no", "yes"]);
    t7.row(["gradient boosting", "no", "yes"]);
    t7.row(["hierarchical Bayesian model", "yes", "yes"]);
    write!(out, "{}", t7.render())?;
    writeln!(
        out,
        "\nExpected shape (paper Fig. 2/Table 7): gradient boosting and quadratic-\n\
         lasso converge to high accuracy by ~80 samples; quadratic without\n\
         regularization converges slowly; offline is weakest on IPC/energy."
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CACHE_VERSION;
    use mct_core::predictor::LIFETIME_CLAMP_YEARS;
    use mct_ml::coefficient_of_determination;
    use mct_sim::stats::Metrics;

    /// Three small synthetic applications over a strided slice of the
    /// quota-free space. One of them projects infinite lifetimes on its
    /// slowest configurations, so the truth clamp is exercised.
    fn datasets() -> Vec<SweepDataset> {
        let space = ConfigSpace::without_wear_quota();
        let configs: Vec<_> = space.iter().step_by(space.len() / 40).copied().collect();
        (0..3)
            .map(|app| {
                let metrics = configs
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let jitter = ((i * 7 + app * 13) % 11) as f64 * 0.01;
                        Metrics {
                            ipc: 1.5 - 0.2 * c.fast_latency + jitter * (app + 1) as f64,
                            lifetime_years: if app == 1 && c.slow_latency >= 3.0 {
                                f64::INFINITY
                            } else {
                                2.5 * c.slow_latency * c.slow_latency + jitter
                            },
                            energy_j: 5.0 + c.slow_latency - jitter,
                        }
                    })
                    .collect();
                SweepDataset {
                    version: CACHE_VERSION,
                    workload: format!("synthetic{app}"),
                    scale: "smoke".into(),
                    stride: 1,
                    configs: configs.clone(),
                    metrics,
                }
            })
            .collect()
    }

    /// The per-objective computation figure2 used to run: a fresh fit for
    /// every objective, scored on that objective alone.
    fn refit_r2(
        kind: ModelKind,
        datasets: &[SweepDataset],
        app: usize,
        n_samples: usize,
        dim: usize,
        seed: u64,
    ) -> f64 {
        let ds = &datasets[app];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..ds.configs.len()).collect();
        idx.shuffle(&mut rng);
        let (train_idx, eval_idx) = idx.split_at(n_samples);
        let pairs = ds.pairs();
        let train: Vec<_> = train_idx.iter().map(|&i| pairs[i]).collect();
        let mut predictor = MetricsPredictor::new(kind);
        if kind.needs_offline_data() {
            let corpus = datasets
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != app)
                .map(|(_, d)| d.pairs())
                .collect();
            predictor = predictor.with_corpus(corpus);
        }
        predictor.fit(&train, None);
        let preds: Vec<f64> = eval_idx
            .iter()
            .map(|&i| predictor.predict(&ds.configs[i]).to_array()[dim])
            .collect();
        let truth: Vec<f64> = eval_idx
            .iter()
            .map(|&i| pairs[i].1.to_array()[dim].min(LIFETIME_CLAMP_YEARS))
            .collect();
        coefficient_of_determination(&preds, &truth)
    }

    #[test]
    fn one_fit_scores_every_objective_exactly_like_a_refit_per_objective() {
        let datasets = datasets();
        let pairs: Vec<_> = datasets.iter().map(SweepDataset::pairs).collect();
        let len = datasets[0].configs.len();
        let mut informative = 0;
        for kind in ModelKind::all() {
            for n in [10, 20, len - 2] {
                for app in 0..datasets.len() {
                    let seed = 7 + n as u64;
                    let once = r2_for(kind, &datasets, &pairs, app, n, seed);
                    for (dim, r2) in once.into_iter().enumerate() {
                        informative += usize::from(r2 > 0.0 && r2 < 1.0);
                        let refit = refit_r2(kind, &datasets, app, n, dim, seed);
                        assert_eq!(
                            r2.to_bits(),
                            refit.to_bits(),
                            "{kind} n={n} app={app} dim={dim}: {r2} vs {refit}"
                        );
                    }
                }
            }
        }
        assert!(
            informative > 100,
            "the synthetic data must give informative scores, got {informative}"
        );
    }
}
