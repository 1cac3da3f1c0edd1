//! End-to-end telemetry contract tests.
//!
//! The global sink is process-wide state, so every test here holds one
//! mutex for its whole body — training, calibration and uninstrumented
//! runs emit too, and must never land in a sink another test installed —
//! and restores the disabled [`NullSink`] before releasing it; they live
//! in their own integration-test binary so no unrelated concurrent test
//! can emit into (or observe) an installed sink.

use std::sync::{Arc, Mutex, MutexGuard};

use rumba_accel::CheckerUnit;
use rumba_apps::{kernel_by_name, Split};
use rumba_core::cache::TrainedModelCache;
use rumba_core::runtime::{RumbaSystem, RunOutcome, RuntimeConfig};
use rumba_core::trainer::{nn_params_for, train_app, train_app_with_cache, OfflineConfig};
use rumba_core::tuner::{calibrate_threshold, calibrate_threshold_detailed, Tuner, TuningMode};
use rumba_obs::{Event, MemorySink, NullSink};
use rumba_predict::ErrorEstimator;

static SINK_LOCK: Mutex<()> = Mutex::new(());

/// Takes the lock every test holds for its whole body.
fn serialized() -> MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs a fresh [`MemorySink`] for the duration of `f`, then restores
/// the disabled default; only a caller holding [`serialized`] may.
fn with_memory_sink<R>(_serial: &MutexGuard<'_, ()>, f: impl FnOnce() -> R) -> (Vec<Event>, R) {
    let sink = Arc::new(MemorySink::new());
    rumba_obs::set_global_sink(sink.clone());
    let result = f();
    rumba_obs::set_global_sink(Arc::new(NullSink));
    (sink.events(), result)
}

fn build_system(mode: TuningMode) -> (Box<dyn rumba_apps::Kernel>, RumbaSystem) {
    let kernel = kernel_by_name("gaussian").unwrap();
    let app = train_app(kernel.as_ref(), &OfflineConfig::default()).unwrap();
    let train = kernel.generate(Split::Train, 42);
    let mut probe = app.tree.clone();
    let predicted: Vec<f64> =
        (0..train.len()).map(|i| probe.estimate(train.input(i), &[])).collect();
    let threshold = calibrate_threshold(&predicted, &app.train_errors, 0.02);
    let system = RumbaSystem::new(
        app.rumba_npu.clone(),
        CheckerUnit::new(Box::new(app.tree)),
        Tuner::new(mode, threshold).unwrap(),
        RuntimeConfig::default(),
    )
    .unwrap();
    (kernel, system)
}

#[test]
fn run_emits_one_window_end_per_window_and_accounts_every_fix() {
    let serial = serialized();
    // Train outside the instrumented section so cache probes from the
    // offline pipeline don't mix into the stream under test.
    let (kernel, mut system) = build_system(TuningMode::TargetQuality { toq: 0.95 });
    let test = kernel.generate(Split::Test, 42);
    let window = RuntimeConfig::default().window;

    let (events, outcome) =
        with_memory_sink(&serial, || system.run(kernel.as_ref(), &test).unwrap());

    let windows: Vec<&Event> =
        events.iter().filter(|e| matches!(e, Event::WindowEnd { .. })).collect();
    assert_eq!(windows.len(), test.len().div_ceil(window), "one window_end per tuning window");

    let mut fired_sum = 0u64;
    for (i, event) in windows.iter().enumerate() {
        let Event::WindowEnd { window, threshold, fired, mean_unfixed_pred, cpu_capacity, .. } =
            event
        else {
            unreachable!()
        };
        assert_eq!(*window, i as u64, "window indices are sequential");
        assert!(threshold.is_finite() && *threshold > 0.0);
        assert!(mean_unfixed_pred.is_finite());
        assert!(*cpu_capacity > 0);
        fired_sum += fired;
    }
    assert_eq!(fired_sum, outcome.fixes as u64, "every fix shows up in exactly one window");

    let runs: Vec<&Event> =
        events.iter().filter(|e| matches!(e, Event::RunSummary { .. })).collect();
    assert_eq!(runs.len(), 1);
    let Event::RunSummary { kernel: name, invocations, fixes, output_error, windows: w, .. } =
        runs[0]
    else {
        unreachable!()
    };
    assert_eq!(name, "gaussian");
    assert_eq!(*invocations, test.len() as u64);
    assert_eq!(*fixes, outcome.fixes as u64);
    assert_eq!(*output_error, outcome.output_error);
    assert_eq!(*w, windows.len() as u64);

    // Every emitted event survives the JSONL round trip (schema contract).
    for event in &events {
        assert_eq!(&Event::parse(&event.to_jsonl()).unwrap(), event);
    }
}

#[test]
fn telemetry_never_perturbs_the_run_outcome() {
    let serial = serialized();
    let (kernel, mut observed_system) = build_system(TuningMode::TargetQuality { toq: 0.95 });
    let (_, mut silent_system) = build_system(TuningMode::TargetQuality { toq: 0.95 });
    let test = kernel.generate(Split::Test, 42);

    let silent: RunOutcome = silent_system.run(kernel.as_ref(), &test).unwrap();
    let (_, observed) =
        with_memory_sink(&serial, || observed_system.run(kernel.as_ref(), &test).unwrap());
    assert_eq!(observed, silent, "sink must be purely observational");
}

#[test]
fn calibration_emits_a_sanitization_event() {
    let serial = serialized();
    let (events, cal) = with_memory_sink(&serial, || {
        calibrate_threshold_detailed(&[0.4, f64::NAN], &[0.4, 0.4], 0.05)
    });
    assert_eq!(cal.sanitized, 1);
    let matching = events
        .iter()
        .filter(|e| matches!(e, Event::Calibration { samples: 2, sanitized: 1, .. }))
        .count();
    assert_eq!(matching, 1);
}

#[test]
fn cache_probes_emit_hit_and_miss_events() {
    let serial = serialized();
    let kernel = kernel_by_name("gaussian").unwrap();
    let dir = std::env::temp_dir().join(format!("rumba-obs-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = TrainedModelCache::with_dir(&dir);
    let cfg = OfflineConfig::default();
    let rumba_topo = kernel.rumba_topology();
    let npu_topo = kernel.npu_topology();
    let topologies = (rumba_topo.as_slice(), npu_topo.as_slice());
    let nn_params = nn_params_for(kernel.as_ref());

    let (events, loaded) = with_memory_sink(&serial, || {
        // First training probes the empty cache (miss), then stores; the
        // explicit load afterwards hits.
        let _ = train_app_with_cache(kernel.as_ref(), &cfg, &cache).unwrap();
        cache.load(kernel.name(), topologies, &cfg, &nn_params)
    });
    assert!(loaded.is_some(), "entry stored by training must load");

    // Other tests' training (outside the sink lock) can interleave its own
    // probes into this stream, so assert existence, not position: the miss
    // comes from training against the empty temp cache, the hit from the
    // explicit load.
    let probes: Vec<&Event> = events.iter().filter(|e| matches!(e, Event::Cache { .. })).collect();
    let miss = probes
        .iter()
        .any(|e| matches!(e, Event::Cache { hit: false, key } if key.starts_with("gaussian-s")));
    let hit = probes
        .iter()
        .any(|e| matches!(e, Event::Cache { hit: true, key } if key.starts_with("gaussian-s")));
    assert!(miss && hit, "expected a miss and a hit in {probes:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
