//! `harness`: the offline figure path with no serving — the fig10
//! suite on a warm cache plus `rumba run` at TOQ 0.9 on every kernel.

use std::fmt::Write as _;
use std::time::Instant;

use rumba_accel::CheckerUnit;
use rumba_apps::{all_kernels, Kernel, Split};
use rumba_bench::Suite;
use rumba_core::analysis::error_vs_fixed_curve;
use rumba_core::runtime::{RumbaSystem, RuntimeConfig};
use rumba_core::scheme::SchemeKind;
use rumba_core::trainer::{train_app, OfflineConfig, TrainedApp};
use rumba_core::tuner::{calibrate_threshold, Tuner, TuningMode};
use rumba_nn::{Matrix, NnDataset, Scratch};
use rumba_predict::ErrorEstimator;

use crate::script::{Workload, MODEL_SEED};
use crate::stats::{median, nearest_rank, Digest};
use crate::{fresh_cache, process_cpu, train_set, CpuWindow, Report, SETUPS};

/// The committed fig10 output the harness must reproduce byte for byte.
pub const FIG10_GOLDEN: &str = "ci/fig10.golden";

/// Tuning window of `rumba run`.
const RUN_WINDOW: usize = 256;

/// `fig10`'s standard output, rebuilt from the suite (the binary prints
/// the same tables with `rumba_bench::print_table`).
#[must_use]
pub fn fig10_text(suite: &Suite) -> String {
    let mut out = String::new();
    let fractions: Vec<f64> = (0..=10).map(|k| f64::from(k) / 10.0).collect();
    for entry in suite.entries() {
        let ctx = &entry.ctx;
        let _ = writeln!(
            out,
            "\nFigure 10 ({}) — output error (%) vs fraction of elements fixed:\n",
            ctx.name()
        );
        let mut header = vec!["scheme".to_owned()];
        header.extend(fractions.iter().map(|f| format!("{:.0}%", f * 100.0)));
        let mut rows = Vec::new();
        for kind in SchemeKind::paper_set() {
            let curve = error_vs_fixed_curve(ctx.scores(kind), ctx.true_errors(), &fractions);
            let mut row = vec![kind.label().to_owned()];
            row.extend(curve.iter().map(|p| format!("{:.1}", p.output_error_percent)));
            rows.push(row);
        }
        table(&mut out, &header, &rows);
    }
    if let Some(ik) = suite.entries().iter().find(|e| e.ctx.name() == "inversek2j") {
        let _ = writeln!(out, "\ninversek2j at 30% fixed (paper: Ideal 2.1, Random 9.7, Uniform 9.6, EMA 5.9, linear 2.6, tree 2.7):");
        let k = (0.3 * ik.ctx.len() as f64) as usize;
        for kind in SchemeKind::paper_set() {
            let _ = writeln!(
                out,
                "  {:<14} {:>5.1}%",
                kind.label(),
                ik.ctx.error_after_fixing(kind, k) * 100.0
            );
        }
    }
    out
}

fn table(out: &mut String, header: &[String], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let line = |out: &mut String, row: &[String]| {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(c, cell)| format!("{cell:>width$}", width = widths.get(c).copied().unwrap_or(0)))
            .collect();
        let _ = writeln!(out, "{}", cells.join("  "));
    };
    line(out, header);
    let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    for row in rows {
        line(out, row);
    }
}

/// A firing threshold the way a session open derives one: `probe` scores
/// the NPU's outputs over the train split, calibrated to `budget`.
///
/// # Errors
///
/// Propagates NPU failures.
pub fn calibrate(
    app: &TrainedApp,
    train: &NnDataset,
    probe: &mut dyn ErrorEstimator,
    budget: f64,
) -> Result<f64, String> {
    let mut scratch = Scratch::new();
    let mut approx = Matrix::default();
    app.rumba_npu
        .invoke_batch(train.inputs_view(), &mut scratch, &mut approx)
        .map_err(|e| e.to_string())?;
    let predicted: Vec<f64> =
        (0..train.len()).map(|i| probe.estimate(train.input(i), approx.row(i))).collect();
    Ok(calibrate_threshold(&predicted, &app.train_errors, budget))
}

/// What one `rumba run` replay produced.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunTotals {
    pub rows: usize,
    pub fixes: usize,
    pub error_sum: f64,
    pub digest: Digest,
}

/// `rumba run <kernel> --toq 0.9` on the test split generated at `seed`
/// (models and calibration at the harness seed, from the warm cache).
/// The `harness` workload passes the harness seed: like the fig10 golden,
/// its inputs are pinned, so its figures vary only with the machine.
pub fn run_kernel(kernel: &dyn Kernel, seed: u64, totals: &mut RunTotals) -> Result<(), String> {
    let cfg = OfflineConfig { seed: MODEL_SEED, ..OfflineConfig::default() };
    let app = train_app(kernel, &cfg).map_err(|e| e.to_string())?;
    let train = kernel.generate(Split::Train, MODEL_SEED);
    let threshold = calibrate(&app, &train, &mut app.tree.clone(), 1.0 - 0.9)?;
    let mut system = RumbaSystem::new(
        app.rumba_npu.clone(),
        CheckerUnit::new(Box::new(app.tree.clone())),
        Tuner::new(TuningMode::TargetQuality { toq: 0.9 }, threshold).map_err(|e| e.to_string())?,
        RuntimeConfig { window: RUN_WINDOW, ..RuntimeConfig::default() },
    )
    .map_err(|e| e.to_string())?;
    let test = kernel.generate(Split::Test, seed);
    let outcome = system.run(kernel, &test).map_err(|e| e.to_string())?;
    if outcome.fixes > test.len() || !outcome.merged_outputs.iter().all(|v| v.is_finite()) {
        return Err(format!("{}: run produced an impossible outcome", kernel.name()));
    }
    totals.rows += test.len();
    totals.fixes += outcome.fixes;
    totals.error_sum += outcome.invocation_errors.iter().sum::<f64>();
    for v in &outcome.merged_outputs {
        totals.digest.update(&v.to_bits().to_le_bytes());
    }
    Ok(())
}

/// Runs harness passes for `seconds` after `SETUPS` cold set-ups. The
/// passes' inputs are pinned to the harness seed (see [`run_kernel`]).
pub fn run(seconds: u64, report: &mut Report) -> Result<(), String> {
    let golden = std::fs::read_to_string(FIG10_GOLDEN)
        .map_err(|e| format!("reading {FIG10_GOLDEN}: {e}"))?;
    let mut setup = Vec::new();
    for _ in 0..SETUPS {
        fresh_cache()?;
        let t = Instant::now();
        train_set(Workload::Harness)?;
        setup.push(t.elapsed().as_secs_f64());
    }
    let kernels = all_kernels();
    let mut passes = Vec::new();
    let mut first: Option<RunTotals> = None;
    // CPU windows: one pass each.
    let mut cpu_windows = Vec::new();
    let start = Instant::now();
    while passes.len() < 3 || start.elapsed().as_secs() < seconds {
        let (t, cpu0) = (Instant::now(), process_cpu());
        let suite = Suite::build().map_err(|e| e.to_string())?;
        let text = fig10_text(&suite);
        let mut totals = RunTotals::default();
        for kernel in &kernels {
            run_kernel(kernel.as_ref(), MODEL_SEED, &mut totals)?;
        }
        passes.push(t.elapsed().as_secs_f64());
        cpu_windows.push(CpuWindow {
            process: process_cpu() - cpu0,
            rows: totals.rows as f64,
            ..CpuWindow::default()
        });
        report.attempted += 1;
        if text != golden {
            return Err(format!("fig10 output differs from {FIG10_GOLDEN}"));
        }
        match first {
            None => first = Some(totals),
            Some(f) if f.digest != totals.digest => {
                return Err("run outputs differ between passes".to_owned());
            }
            Some(_) => {}
        }
    }
    let totals = first.expect("at least one pass");
    report.cpu_per_row(&cpu_windows);
    report.setup(&setup);
    let passes_us: Vec<f64> = passes.iter().map(|s| s * 1e6).collect();
    report.note("latency_p50_us", median(&passes_us), "us");
    // A run holds only a handful of passes, so the tail is the plain
    // nearest-rank p90 pass (fewer than ten samples lie beyond it).
    report.note("latency_tail_us", nearest_rank(&passes_us, 0.9), "us");
    report.note("passes", passes.len() as f64, "count");
    report.note("harness_s", median(&passes), "s");
    report.rows_per_s(totals.rows as f64 / median(&passes));
    report.quality(totals.error_sum / totals.rows as f64, totals.fixes as f64 / totals.rows as f64);
    Ok(())
}
