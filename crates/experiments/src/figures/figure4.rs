//! Figure 4: (a) lasso-linear coefficients identify the three primary
//! features; (b) feature-based sampling beats random sampling for
//! gradient boosting.

use std::io::{self, Write};

use mct_core::{
    predictor::lasso_feature_report, sampling, ConfigSpace, MetricsPredictor, ModelKind, NvmConfig,
};
use mct_workloads::Workload;

use super::objective_r2;
use crate::cache::{load_or_compute_sweeps, strided_configs, SweepDataset, SweepRequest};
use crate::report::Table;
use crate::runner::EXPERIMENT_SEED;
use crate::scale::Scale;

const COEF_WORKLOADS: [Workload; 4] = [
    Workload::Lbm,
    Workload::Leslie3d,
    Workload::GemsFdtd,
    Workload::Stream,
];

fn train_eval(ds: &SweepDataset, train_cfgs: &[NvmConfig]) -> f64 {
    let pairs = ds.pairs();
    let train: Vec<_> = train_cfgs
        .iter()
        .filter_map(|c| pairs.iter().find(|(pc, _)| pc == c).copied())
        .collect();
    if train.len() < 8 {
        return f64::NAN;
    }
    let mut p = MetricsPredictor::new(ModelKind::GradientBoosting);
    p.fit(&train, None);
    objective_r2(&p, ds, 0..ds.configs.len())[0]
}

/// Render Figures 4a and 4b.
pub fn run(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    let space = ConfigSpace::without_wear_quota();
    let configs = strided_configs(space.configs(), scale);

    // One batch covers both halves: 4a reads the four coefficient
    // workloads out of the same ten datasets 4b uses.
    let requests: Vec<SweepRequest> = Workload::all()
        .into_iter()
        .map(|w| SweepRequest {
            workload: w,
            configs: configs.clone(),
        })
        .collect();
    let datasets = load_or_compute_sweeps(&requests, scale, EXPERIMENT_SEED);
    let dataset_of = |w: Workload| -> &SweepDataset {
        let i = Workload::all()
            .into_iter()
            .position(|x| x == w)
            .expect("workload in all()");
        &datasets[i]
    };

    writeln!(
        out,
        "== Figure 4a: lasso-linear coefficients on compressed features (scale: {scale}) ==\n"
    )?;
    let mut coef = Table::new([
        "workload/objective",
        "bank_aware",
        "eager_writebacks",
        "fast_latency",
        "slow_latency",
        "cancellation",
    ]);
    let names = NvmConfig::compressed_feature_names();
    for w in COEF_WORKLOADS {
        let ds = dataset_of(w);
        for (dim, obj) in ["ipc", "lifetime", "energy"].iter().enumerate() {
            let report = lasso_feature_report(&ds.pairs(), dim, false, 0.01);
            let mut cells = vec![format!("{}/{}", w.name(), obj)];
            for n in names {
                let v = report
                    .iter()
                    .find(|(rn, _)| rn == n)
                    .map_or(0.0, |(_, v)| *v);
                cells.push(format!("{v:+.3}"));
            }
            coef.row(cells);
        }
    }
    write!(out, "{}", coef.render())?;
    writeln!(
        out,
        "\nExpected shape (paper Fig. 4a): bank_aware and eager_writebacks carry\n\
         near-zero weight; fast_latency, slow_latency and cancellation are the\n\
         three primary features."
    )?;

    writeln!(
        out,
        "\n== Figure 4b: feature-based vs random sampling (gradient boosting) ==\n"
    )?;
    let mut table = Table::new(["workload", "R2 random", "R2 feature-based", "delta"]);
    // Build sample sets over the *strided* config list so every training
    // config has sweep data at quick scale.
    let strided_space_cfgs = configs.clone();
    for w in Workload::all() {
        let ds = dataset_of(w);
        let fb = {
            // Stratify the strided list by primary-feature class.
            let mut classes: Vec<(String, NvmConfig)> = Vec::new();
            for c in &strided_space_cfgs {
                let key = format!(
                    "{:.1}/{:.1}/{}{}",
                    c.fast_latency,
                    c.slow_latency,
                    u8::from(c.fast_cancellation),
                    u8::from(c.slow_cancellation)
                );
                if !classes.iter().any(|(k, _)| *k == key) {
                    classes.push((key, *c));
                }
            }
            classes.into_iter().map(|(_, c)| c).collect::<Vec<_>>()
        };
        let n = fb.len();
        let random: Vec<NvmConfig> = {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
            let mut all = strided_space_cfgs.clone();
            all.shuffle(&mut rng);
            all.truncate(n);
            all
        };
        let r_rand = train_eval(ds, &random);
        let r_fb = train_eval(ds, &fb);
        table.row([
            w.name().to_string(),
            format!("{r_rand:.3}"),
            format!("{r_fb:.3}"),
            format!("{:+.3}", r_fb - r_rand),
        ]);
    }
    write!(out, "{}", table.render())?;
    writeln!(
        out,
        "\nExpected shape (paper Fig. 4b): feature-based sampling improves gradient-\n\
         boosting accuracy (paper: ~3% on average across objectives).\n\
         (Full-space feature-based sampling helper: {} samples.)",
        sampling::feature_based_samples(&space, 1).len()
    )?;
    Ok(())
}
