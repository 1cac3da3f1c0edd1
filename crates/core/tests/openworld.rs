//! Open-world drift workloads + online checker re-fit: the proptest and
//! regression sweep pinning the determinism and recovery contracts of
//! `rumba_core::openworld` and the runtime's `Recalibrated` refit rung.
//!
//! Lives in its own integration-test binary because several tests
//! override the process-wide worker-thread count and SIMD mode.

use std::sync::OnceLock;

use proptest::prelude::*;
use rumba_accel::CheckerUnit;
use rumba_apps::{kernel_by_name, Split};
use rumba_core::openworld::{scenarios, Scenario, ScenarioStream};
use rumba_core::runtime::{DegradeStage, RefitConfig, RumbaSystem, RuntimeConfig, WatchdogConfig};
use rumba_core::trainer::{train_app, OfflineConfig, TrainedApp};
use rumba_core::tuner::{Tuner, TuningMode};
use rumba_faults::FaultModel;
use rumba_nn::NnDataset;
use rumba_predict::Sections;

fn trained() -> &'static TrainedApp {
    static APP: OnceLock<TrainedApp> = OnceLock::new();
    APP.get_or_init(|| {
        let kernel = kernel_by_name("gaussian").unwrap();
        train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap()
    })
}

fn pool() -> &'static NnDataset {
    static DATA: OnceLock<NnDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        let kernel = kernel_by_name("gaussian").unwrap();
        kernel.generate(Split::Test, 42)
    })
}

const WINDOW: usize = 128;
const STREAM_LEN: usize = 1408; // 11 windows

fn watchdog() -> WatchdogConfig {
    WatchdogConfig { quality_limit: 0.12, patience: 2, fallback_patience: 8 }
}

fn refit_config() -> RefitConfig {
    RefitConfig { capacity: 192, min_rows: 24, audit_period: 8, quality_budget: 0.05 }
}

fn build_system(refit: bool) -> RumbaSystem {
    let app = trained();
    let mut system = RumbaSystem::new(
        app.rumba_npu.clone(),
        CheckerUnit::new(Box::new(app.tree.clone())),
        Tuner::new(TuningMode::TargetQuality { toq: 0.95 }, 0.05).unwrap(),
        RuntimeConfig { window: WINDOW, watchdog: Some(watchdog()), ..RuntimeConfig::default() },
    )
    .unwrap();
    if refit {
        system.arm_refit(refit_config()).unwrap();
    }
    system
}

/// What one streamed open-world run produced (everything the
/// determinism and recovery assertions compare).
#[derive(Debug, Clone, PartialEq)]
struct StreamedRun {
    merged: Vec<f64>,
    fired: Vec<bool>,
    stage: DegradeStage,
    threshold_history: Vec<f64>,
    recalibrations: u64,
    fallbacks: u64,
    refit_epoch: u64,
    reservoir: Sections,
    /// Mean exact-vs-merged error over the drifted half of the stream.
    tail_error: f64,
}

/// Streams `n` invocations of `scenario` through `system`, with the
/// scenario's fault plan (drift) attached.
fn stream_run(system: &mut RumbaSystem, scenario: Scenario, seed: u64, n: usize) -> StreamedRun {
    let kernel = kernel_by_name("gaussian").unwrap();
    let stream = ScenarioStream::new(pool(), seed, scenario);
    system.set_fault_plan(stream.fault_plan());
    system.begin_stream();
    let out_dim = kernel.output_dim();
    let mut out = vec![0.0; out_dim];
    let mut merged = Vec::with_capacity(n * out_dim);
    let mut fired = Vec::with_capacity(n);
    for i in 0..n {
        let input = stream.input(i);
        let outcome = system.process(kernel.as_ref(), &input, &mut out).unwrap();
        fired.push(outcome.fired);
        merged.extend_from_slice(&out);
    }
    system.end_stream(kernel.as_ref());

    // Measured merged quality over the back half (fully drifted regime).
    let metric = kernel.metric();
    let mut exact = vec![0.0; out_dim];
    let tail = n / 2;
    let tail_error = (tail..n)
        .map(|i| {
            kernel.compute(&stream.input(i), &mut exact);
            metric.invocation_error(&exact, &merged[i * out_dim..(i + 1) * out_dim])
        })
        .sum::<f64>()
        / (n - tail) as f64;

    let mut reservoir = Sections::default();
    if let Some(r) = system.refit_reservoir() {
        r.export(&mut reservoir);
    }
    StreamedRun {
        merged,
        fired,
        stage: system.degrade_stage(),
        threshold_history: system.tuner().history().to_vec(),
        recalibrations: system.fault_stats().recalibrations,
        fallbacks: system.fault_stats().fallbacks,
        refit_epoch: system.refit_epoch(),
        reservoir,
        tail_error,
    }
}

fn drift_scenario() -> Scenario {
    // Ramp completes by invocation 384 (window 3 of 128), magnitude half
    // the dataset's input scale — far outside the trained regime.
    scenarios().into_iter().find(|s| s.name == "drift").unwrap()
}

#[test]
fn ladder_under_drift_recalibrates_refits_and_recovers_where_reset_only_fails() {
    // Satellite 3: with refit armed, ramped InputDrift must walk the
    // ladder Normal → Recalibrated (refit commits) and back to Normal
    // ("recovered") once the refit clears the dirty windows — without
    // ever abandoning the accelerator.
    let mut on = build_system(true);
    let run_on = stream_run(&mut on, drift_scenario(), 7, STREAM_LEN);
    eprintln!(
        "refit-on: stage={:?} recals={} fallbacks={} epoch={} tail_err={:.4} fires={}",
        run_on.stage,
        run_on.recalibrations,
        run_on.fallbacks,
        run_on.refit_epoch,
        run_on.tail_error,
        run_on.fired.iter().filter(|&&f| f).count(),
    );
    assert!(run_on.recalibrations >= 1, "drift must trip the Recalibrated rung");
    assert_eq!(run_on.fallbacks, 0, "refit must fire before CpuFallback");
    assert!(run_on.refit_epoch >= 1, "the rung must commit an actual refit");
    assert_eq!(
        run_on.stage,
        DegradeStage::Normal,
        "a clean window after the refit must transition back (recovered)"
    );

    // The old reset-only behavior demonstrably fails this: without the
    // refit's audit channel the stale checker under-predicts the drifted
    // errors, the watchdog never even goes dirty, and the tenant silently
    // eats the drift-inflated error.
    let mut off = build_system(false);
    let run_off = stream_run(&mut off, drift_scenario(), 7, STREAM_LEN);
    eprintln!(
        "refit-off: stage={:?} recals={} tail_err={:.4} fires={}",
        run_off.stage,
        run_off.recalibrations,
        run_off.tail_error,
        run_off.fired.iter().filter(|&&f| f).count(),
    );
    assert_eq!(run_off.recalibrations, 0, "reset-only watchdog stays blind to drift");
    assert!(
        run_off.tail_error > 2.0 * run_on.tail_error,
        "reset-only merged error {:.4} must be far worse than refit-on {:.4}",
        run_off.tail_error,
        run_on.tail_error
    );
}

#[test]
fn refit_on_streams_are_bit_identical_across_threads_and_simd() {
    // Satellite 1a: the full refit-on open-world run — merged outputs,
    // firing pattern, threshold trajectory, reservoir content, epoch —
    // must be bit-identical at threads {1, 4} × SIMD {off, on}. One test
    // function drives all four combos serially because the overrides are
    // process-wide.
    let mut reference: Option<StreamedRun> = None;
    for threads in [1usize, 4] {
        for simd in [rumba_nn::SimdMode::Off, rumba_nn::SimdMode::On] {
            rumba_parallel::set_thread_override(Some(threads));
            rumba_nn::set_simd_override(Some(simd));
            let mut system = build_system(true);
            let run = stream_run(&mut system, drift_scenario(), 7, STREAM_LEN);
            rumba_parallel::set_thread_override(None);
            rumba_nn::set_simd_override(None);
            match &reference {
                None => reference = Some(run),
                Some(want) => {
                    assert_eq!(
                        bits(&run.merged),
                        bits(&want.merged),
                        "threads {threads} simd {simd:?}: merged outputs diverged"
                    );
                    assert_eq!(run.fired, want.fired, "threads {threads} simd {simd:?}");
                    assert_eq!(
                        bits(&run.threshold_history),
                        bits(&want.threshold_history),
                        "threads {threads} simd {simd:?}: threshold trajectory diverged"
                    );
                    assert_eq!(
                        run.reservoir, want.reservoir,
                        "threads {threads} simd {simd:?}: reservoir diverged"
                    );
                    assert_eq!(run.refit_epoch, want.refit_epoch);
                    assert_eq!(run.stage, want.stage);
                }
            }
        }
    }
    let reference = reference.unwrap();
    assert!(reference.refit_epoch >= 1, "the matrix must actually exercise a refit");
}

#[test]
fn refit_on_with_zero_drift_is_byte_identical_to_refit_off() {
    // Satellite 1c: arming the refit must not perturb a clean stream by
    // even one bit — the audit channel measures, the reservoir
    // accumulates, but no refit fires and no decision changes.
    for scenario in scenarios() {
        if scenario.name == "drift" {
            continue; // regime change by construction
        }
        let mut on = build_system(true);
        let run_on = stream_run(&mut on, scenario, 11, STREAM_LEN);
        let mut off = build_system(false);
        let run_off = stream_run(&mut off, scenario, 11, STREAM_LEN);
        if run_on.refit_epoch > 0 {
            continue; // scenario dirty enough to refit — not a clean stream
        }
        assert_eq!(
            bits(&run_on.merged),
            bits(&run_off.merged),
            "{}: armed-but-idle refit must not change the merged stream",
            scenario.name
        );
        assert_eq!(run_on.fired, run_off.fired, "{}", scenario.name);
        assert_eq!(
            bits(&run_on.threshold_history),
            bits(&run_off.threshold_history),
            "{}: armed-but-idle refit must not move the tuner",
            scenario.name
        );
    }
}

#[test]
fn poisoned_reservoir_rows_never_train_the_refit() {
    // Satellite 4: with the checker blinded on every invocation, every
    // captured row carries the poisoned provenance tag, so even though
    // drift drives the watchdog dirty and the `Recalibrated` rung fires,
    // no refit ever commits — the reservoir holds rows, but none are
    // eligible.
    let mut system = build_system(true);
    let kernel = kernel_by_name("gaussian").unwrap();
    let stream = ScenarioStream::new(pool(), 7, drift_scenario());
    let mut plan = stream.fault_plan().expect("drift scenario carries a plan");
    plan = plan.with(FaultModel::CheckerBlind { rate: 1.0 });
    system.set_fault_plan(Some(plan));
    system.begin_stream();
    let mut out = vec![0.0; kernel.output_dim()];
    for i in 0..STREAM_LEN {
        system.process(kernel.as_ref(), &stream.input(i), &mut out).unwrap();
    }
    system.end_stream(kernel.as_ref());
    let reservoir = system.refit_reservoir().unwrap();
    assert!(!reservoir.is_empty(), "capture must still hold the rows");
    assert!(
        reservoir.rows().iter().all(|r| r.poisoned),
        "a fully blinded stream taints every captured row"
    );
    assert!(reservoir.clean_indices().is_empty());
    assert!(
        system.fault_stats().recalibrations >= 1,
        "the audit channel must still drive the rung"
    );
    assert_eq!(
        system.refit_epoch(),
        0,
        "no refit may ever train on poisoned rows — with zero clean rows, none commits"
    );

    // Control: the same drift without blinding leaves clean rows and the
    // refit commits.
    let mut clean = build_system(true);
    let run = stream_run(&mut clean, drift_scenario(), 7, STREAM_LEN);
    assert!(run.refit_epoch >= 1);
}

#[test]
fn mid_refit_snapshot_restores_bit_for_bit_and_continues_identically() {
    // Core half of satellite 2: split a refit-on drift stream at an
    // arbitrary point past the first refit (reservoir partially filled,
    // epoch nonzero), export, restore onto a freshly built system, and
    // continue both — every subsequent output and the final reservoir
    // must match bit for bit.
    let kernel = kernel_by_name("gaussian").unwrap();
    let stream = ScenarioStream::new(pool(), 7, drift_scenario());
    let split = 700; // mid-window, past the first refit commit

    let mut origin = build_system(true);
    origin.set_fault_plan(stream.fault_plan());
    origin.begin_stream();
    let mut out = vec![0.0; kernel.output_dim()];
    for i in 0..split {
        origin.process(kernel.as_ref(), &stream.input(i), &mut out).unwrap();
    }
    assert!(origin.refit_epoch() >= 1, "split point must land mid-refit");
    let reservoir_len = origin.refit_reservoir().unwrap().len();
    assert!(
        reservoir_len > 0 && reservoir_len < refit_config().capacity,
        "split point must catch the reservoir partially filled, got {reservoir_len}"
    );
    let words = origin.export_state();

    let mut resumed = build_system(true);
    resumed.set_fault_plan(stream.fault_plan());
    resumed.begin_stream();
    let mut taken = words.clone();
    resumed.import_state(&mut taken).unwrap();
    assert_eq!(taken.finish(), Ok(()), "every section was read");
    assert_eq!(resumed.refit_epoch(), origin.refit_epoch());
    assert_eq!(resumed.export_state(), words, "re-export must be bit-identical");

    let mut tail_origin = Vec::new();
    let mut tail_resumed = Vec::new();
    for i in split..STREAM_LEN {
        let input = stream.input(i);
        origin.process(kernel.as_ref(), &input, &mut out).unwrap();
        tail_origin.extend_from_slice(&out);
        resumed.process(kernel.as_ref(), &input, &mut out).unwrap();
        tail_resumed.extend_from_slice(&out);
    }
    origin.end_stream(kernel.as_ref());
    resumed.end_stream(kernel.as_ref());
    assert_eq!(bits(&tail_origin), bits(&tail_resumed));
    assert_eq!(origin.export_state(), resumed.export_state());
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    // Satellite 1b: refit decisions — whether an epoch committed, and the
    // threshold trajectory it produced — are a pure function of
    // (seed, window): replaying a seed reproduces them bit for bit, for
    // every scenario.
    #[test]
    fn refit_decisions_are_pure_in_seed_and_window(seed in 0u64..10_000, idx in 0usize..4) {
        let scenario = scenarios()[idx];
        let mut a = build_system(true);
        let run_a = stream_run(&mut a, scenario, seed, STREAM_LEN);
        let mut b = build_system(true);
        let run_b = stream_run(&mut b, scenario, seed, STREAM_LEN);
        prop_assert_eq!(run_a.refit_epoch, run_b.refit_epoch);
        prop_assert_eq!(bits(&run_a.threshold_history), bits(&run_b.threshold_history));
        prop_assert_eq!(bits(&run_a.merged), bits(&run_b.merged));
        prop_assert_eq!(run_a.reservoir, run_b.reservoir);
        prop_assert_eq!(run_a.stage, run_b.stage);
    }
}
