//! Table 4: ideal configurations for leslie3d under minimum-lifetime
//! constraints of 4, 6, 8 and 10 years.
//!
//! Per the paper, this table explores the space *without* wear quota.

use std::io::{self, Write};

use mct_core::{ConfigSpace, Objective};
use mct_workloads::Workload;

use crate::cache::{load_or_compute_sweeps, strided_configs, SweepRequest};
use crate::ideal::ideal_for;
use crate::report::{config_table_header, config_table_row, Table};
use crate::runner::EXPERIMENT_SEED;
use crate::scale::Scale;

/// Render Table 4.
pub fn run(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "== Table 4: leslie3d ideal configuration vs lifetime target (scale: {scale}) ==\n"
    )?;
    let space = ConfigSpace::without_wear_quota();
    let request = SweepRequest {
        workload: Workload::Leslie3d,
        configs: strided_configs(space.configs(), scale),
    };
    let [dataset] = load_or_compute_sweeps(&[request], scale, EXPERIMENT_SEED)
        .try_into()
        .expect("one dataset per request");

    let mut table = Table::new(config_table_header());
    let mut metrics_table = Table::new(["target", "ipc", "lifetime_y", "energy_mJ", "feasible"]);
    for target in [4.0, 6.0, 8.0, 10.0] {
        let res = ideal_for(&dataset, &Objective::paper_default(target));
        table.row(config_table_row(&format!("{target:.1} years"), &res.config));
        metrics_table.row([
            format!("{target:.1}y"),
            format!("{:.3}", res.metrics.ipc),
            format!("{:.2}", res.metrics.lifetime_years),
            format!("{:.2}", res.metrics.energy_j * 1e3),
            res.feasible.to_string(),
        ]);
    }
    write!(out, "{}", table.render())?;
    writeln!(out)?;
    write!(out, "{}", metrics_table.render())?;
    writeln!(
        out,
        "\nExpected shape (paper Table 4): stricter targets push the ideal toward\n\
         higher slow/fast latencies; the optimal changes with the objective."
    )?;
    Ok(())
}
