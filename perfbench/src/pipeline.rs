//! One `run_all` pass at `Scale::Smoke` in this process, over the data
//! dir that `MCT_DATA_DIR` names. Each stage is timed on its own and its
//! report is mirrored to `<data dir>/out/<stage>.txt`, as `run_all`
//! does, so the caller can hash and compare the outputs. The reference
//! kernel runs before the first stage and after each stage; each stage
//! reports the mean of the two runs around it.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mct_experiments::figures::STAGES;
use mct_experiments::Scale;
use memory_cocktail_therapy::telemetry::pipeline_stats;

use crate::calib::Reference;
use crate::{json_str, peak_rss_kb};

pub fn run() -> Result<(), String> {
    let out_dir = mct_experiments::cache::data_dir().join("out");
    fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let reference = Reference::new();
    let mut ref_before = reference.time_us();
    for (name, stage) in STAGES {
        let before = pipeline_stats().snapshot();
        // mct-tidy: allow(D002) -- benchmark timer; feeds no program result
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut buf = Vec::new();
            stage(Scale::Smoke, &mut buf).map(|()| buf)
        }));
        let us = t.elapsed().as_micros() as u64;
        let after = pipeline_stats().snapshot();
        let ref_after = reference.time_us();
        let ref_us = (ref_before + ref_after) / 2.0;
        ref_before = ref_after;
        let error = match result {
            Ok(Ok(buf)) => {
                let path = out_dir.join(format!("{name}.txt"));
                fs::write(&path, &buf)
                    .err()
                    .map(|e| format!("write {}: {e}", path.display()))
            }
            Ok(Err(e)) => Some(e.to_string()),
            Err(_) => Some("panicked".to_string()),
        };
        println!(
            "{{\"kind\":\"stage\",\"name\":{},\"us\":{us},\"ref_us\":{ref_us},\"ok\":{},\"error\":{},\"stale\":{},\"corrupt\":{}}}",
            json_str(name),
            error.is_none(),
            json_str(error.as_deref().unwrap_or("")),
            after.stale_discarded - before.stale_discarded,
            after.corrupt_discarded - before.corrupt_discarded,
        );
    }
    // mct-tidy: allow(D002) -- benchmark timer; feeds no program result
    let t = Instant::now();
    mct_experiments::pipeline::finish();
    let finish_us = t.elapsed().as_micros() as u64;
    let finish_ref_us = (ref_before + reference.time_us()) / 2.0;
    let s = pipeline_stats().snapshot();
    let busy_us: u64 = s.workers.iter().map(|w| w.busy_us).sum();
    let worker_wall_us: u64 = s.workers.iter().map(|w| w.wall_us).sum();
    println!(
        "{{\"kind\":\"pipeline\",\"finish_us\":{finish_us},\"finish_ref_us\":{finish_ref_us},\"grains_executed\":{},\"grains_stolen\":{},\"cache_hits\":{},\
         \"stale\":{},\"corrupt\":{},\"rig_warmups\":{},\"rig_reuses\":{},\"rig_warmup_us\":{},\"rig_clone_us\":{},\
         \"busy_us\":{busy_us},\"worker_wall_us\":{worker_wall_us},\"peak_kb\":{}}}",
        s.grains_executed,
        s.grains_stolen,
        s.cache_hits,
        s.stale_discarded,
        s.corrupt_discarded,
        s.rig_warmups,
        s.rig_reuses,
        s.warmup_us,
        s.clone_us,
        peak_rss_kb(),
    );
    Ok(())
}
