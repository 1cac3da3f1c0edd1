//! One tenant of the serving layer: a calibrated Rumba pipeline behind a
//! bounded request queue.

use std::collections::VecDeque;

use rumba_accel::{CheckerUnit, Npu};
use rumba_apps::{kernel_by_name, Kernel};
use rumba_core::event_sim::{simulate_detailed_with_faults, QueueConfig};
use rumba_core::runtime::{
    invoke_routed, FixPolicy, RefitConfig, RumbaSystem, RuntimeConfig, WatchdogConfig,
};
use rumba_core::trainer::TrainedApp;
use rumba_core::tuner::{Tuner, TuningMode};
use rumba_core::zoo::ModelZoo;
use rumba_faults::FaultPlan;
use rumba_nn::{Matrix, Scratch};
use rumba_obs::Event;
use rumba_predict::{EmaDetector, ErrorEstimator, Sections};

use crate::prepared::{Prepared, PreparedStore};
use crate::snapshot::SnapshotParts;
use crate::ServeError;

/// Largest request-queue bound (`queue`) a session may ask for.
pub const MAX_QUEUE: usize = 1 << 16;

/// Largest tuning window (`window`) a session may ask for.
pub const MAX_WINDOW: usize = 1 << 20;

/// Largest model-zoo tier count (`zoo`) a session may ask for.
pub const MAX_ZOO: usize = 8;

/// Which online checker a session runs. Mirrors the CLI's checker choice,
/// restricted to the schemes that need no extra training pass at session
/// open (the serving layer opens sessions on the request path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckerKind {
    /// Linear per-output error model.
    Linear,
    /// Decision-tree error model (the paper's default).
    #[default]
    Tree,
    /// Exponential-moving-average output-drift detector.
    Ema,
    /// Error value prediction (EVP).
    Evp,
}

impl CheckerKind {
    /// Parses the protocol spelling (`"linear"`, `"tree"`, `"ema"`,
    /// `"evp"`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings.
    pub fn parse(text: &str) -> Result<Self, ServeError> {
        match text {
            "linear" => Ok(Self::Linear),
            "tree" => Ok(Self::Tree),
            "ema" => Ok(Self::Ema),
            "evp" => Ok(Self::Evp),
            other => Err(ServeError::InvalidConfig(format!(
                "unknown checker {other:?} (expected linear, tree, ema or evp)"
            ))),
        }
    }

    /// Protocol spelling of this checker.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Linear => "linear",
            Self::Tree => "tree",
            Self::Ema => "ema",
            Self::Evp => "evp",
        }
    }
}

/// What happens when a request arrives and the session's bounded queue is
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Reject the request (503-style). The caller is told and the
    /// rejection is counted; nothing enters the pipeline.
    #[default]
    Shed,
    /// Drain the session's queue through the pipeline first, then admit.
    /// Trades latency for completeness; the queue bound still holds.
    Block,
}

impl AdmissionPolicy {
    /// Parses the protocol spelling (`"shed"` or `"block"`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings.
    pub fn parse(text: &str) -> Result<Self, ServeError> {
        match text {
            "shed" => Ok(Self::Shed),
            "block" => Ok(Self::Block),
            other => Err(ServeError::InvalidConfig(format!(
                "unknown admission policy {other:?} (expected shed or block)"
            ))),
        }
    }

    /// Protocol spelling of this policy.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Shed => "shed",
            Self::Block => "block",
        }
    }
}

/// Everything needed to open a session. The calibration flow mirrors
/// `rumba run`: train (or cache-load) the app, probe the checker on the
/// train split, calibrate the firing threshold against the mode's error
/// target.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Benchmark kernel name (Table 1 of the paper).
    pub kernel: String,
    /// Master seed for training, calibration and fault injection.
    pub seed: u64,
    /// Online checker scheme.
    pub checker: CheckerKind,
    /// Tuning mode (TOQ / energy budget / best quality).
    pub mode: TuningMode,
    /// Iterations per tuning window.
    pub window: usize,
    /// Pipeline queue bounds; `input_capacity` is also the session's
    /// request-queue bound for admission control.
    pub queue: QueueConfig,
    /// Full-queue behaviour.
    pub admission: AdmissionPolicy,
    /// Optional deterministic fault plan, scoped to this session only.
    pub faults: Option<FaultPlan>,
    /// Optional quality watchdog for graceful degradation.
    pub watchdog: Option<WatchdogConfig>,
    /// What flagged invocations get: CPU re-execution (the default) or
    /// in-place compensation for the mildly wrong band.
    pub fix_policy: FixPolicy,
    /// Model-zoo size: 0 (the default) serves the single Rumba
    /// accelerator exactly as before; `N > 0` trains an `N`-tier
    /// quality/energy ladder and routes every request to the cheapest
    /// tier predicted to meet the session's quality target (exact CPU as
    /// the last resort). Under queue pressure the session degrades to
    /// cheaper tiers before any request is shed.
    pub zoo: usize,
    /// Opt-in online checker re-fit (`false`, the default, serves exactly
    /// as before, byte for byte): when set, the session arms the
    /// runtime's refit machinery — an exact-result audit channel feeding
    /// a bounded deterministic reservoir, re-fit and threshold
    /// re-calibration at the watchdog's `Recalibrated` rung — with the
    /// session's own quality budget as the re-calibration target. The
    /// reservoir and refit epoch travel in the snapshot, so a mid-refit
    /// migration continues bit-for-bit.
    pub refit: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            kernel: "gaussian".to_owned(),
            seed: 42,
            checker: CheckerKind::default(),
            mode: TuningMode::TargetQuality { toq: 0.9 },
            window: 64,
            queue: QueueConfig::default(),
            admission: AdmissionPolicy::default(),
            faults: None,
            watchdog: None,
            fix_policy: FixPolicy::default(),
            zoo: 0,
            refit: false,
        }
    }
}

/// One completed request, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Stream position (0-based invocation index within the session).
    pub index: usize,
    /// Merged output: accelerator result, or the exact CPU re-execution
    /// when the check fired.
    pub output: Vec<f64>,
    /// Whether the check fired and the invocation was re-executed.
    pub fired: bool,
    /// The checker's predicted error for this invocation.
    pub predicted_error: f64,
    /// True error of the merged output against the exact computation —
    /// the conformance harness's oracle.
    pub measured_error: f64,
}

/// Running counters for one session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests that went through the pipeline.
    pub processed: u64,
    /// Invocations re-executed on the CPU.
    pub fixes: u64,
    /// Invocations compensated in place (predicted error subtracted; no
    /// CPU re-execution).
    pub compensated: u64,
    /// Requests rejected by the shed policy.
    pub shed: u64,
    /// Requests that forced a blocking drain before admission.
    pub blocked: u64,
    /// Highest request-queue depth observed.
    pub queue_high_water: usize,
    /// Sum of measured output errors over processed requests.
    pub error_sum: f64,
    /// Pipeline drains executed.
    pub drains: u64,
    /// Drains whose event-level simulation saw accelerator back-pressure.
    pub back_pressured_drains: u64,
    /// Highest recovery-queue occupancy across all drains.
    pub recovery_high_water: usize,
    /// Total simulated pipeline cycles across all drains.
    pub total_cycles: f64,
    /// Simulated CPU re-execution cycles across all drains.
    pub cpu_busy_cycles: f64,
    /// Tuner threshold after the final window flush (set at close; 0
    /// while the session is live — read [`Session::threshold`] instead).
    pub final_threshold: f64,
}

impl SessionStats {
    /// Mean measured output error over processed requests (NaN before the
    /// first request completes).
    #[must_use]
    pub fn mean_error(&self) -> f64 {
        if self.processed == 0 {
            f64::NAN
        } else {
            self.error_sum / self.processed as f64
        }
    }

    /// Simulated CPU utilization across all drains (0 before the first).
    #[must_use]
    pub fn cpu_utilization(&self) -> f64 {
        if self.total_cycles > 0.0 {
            self.cpu_busy_cycles / self.total_cycles
        } else {
            0.0
        }
    }
}

/// Outcome of a submission attempt (see [`AdmissionPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Queued; the payload is the new queue depth.
    Accepted(usize),
    /// Rejected under the shed policy.
    Shed,
    /// Queue full under the block policy — the caller must drain this
    /// session and retry.
    MustDrain,
}

/// A session's pending requests, detached for batch compute. `base` is the
/// stream position of row 0, so offset batch invocation reproduces the
/// per-row fault stream bit-exactly.
#[derive(Debug)]
pub(crate) struct PendingBatch {
    pub(crate) base: usize,
    pub(crate) inputs: Matrix,
    /// Per-row zoo tier decisions, fixed serially at detach time by
    /// [`RumbaSystem::route_rows`] (`None` without a zoo). Routing before
    /// the parallel phase keeps the decision a pure function of (input,
    /// session state), independent of worker count.
    pub(crate) routes: Option<Vec<usize>>,
}

/// One tenant: calibrated pipeline, bounded request queue, completed
/// results, counters.
#[derive(Debug)]
pub struct Session {
    name: String,
    kernel: Box<dyn Kernel>,
    system: RumbaSystem,
    admission: AdmissionPolicy,
    queue: QueueConfig,
    fault_plan: Option<FaultPlan>,
    /// The full opening configuration, kept verbatim so a snapshot can
    /// reproduce this session on any shard or process.
    config: SessionConfig,
    cpu_cycles: f64,
    /// Flat row-major request queue (depth = `pending_rows`).
    pending_inputs: Vec<f64>,
    pending_rows: usize,
    completed: VecDeque<SessionResult>,
    scratch: Scratch,
    batch_out: Matrix,
    out_buf: Vec<f64>,
    exact_buf: Vec<f64>,
    stats: SessionStats,
}

impl Session {
    /// Opens a session: takes the app and its calibrations for the
    /// config from `store` (training, cache-loading and calibrating on
    /// the first open of the key), then arms the per-session fault plan
    /// and watchdog. The threshold is calibrated exactly as `rumba run`
    /// does.
    ///
    /// # Errors
    ///
    /// Fails on unknown kernels, invalid configuration, or offline
    /// training failures.
    pub fn open(
        store: &PreparedStore,
        name: &str,
        config: SessionConfig,
    ) -> Result<Self, ServeError> {
        let kernel = checked_kernel(&config)?;
        let prepared = store.get(kernel.as_ref(), config.seed)?;
        let threshold =
            prepared.threshold(kernel.as_ref(), config.checker, quality_budget(config.mode))?;
        let session = Self::assemble(name, config, kernel, &prepared, threshold)?;
        session.emit_session_event("open");
        Ok(session)
    }

    /// Rebuilds a session from a [`Session::snapshot`] line under `name`
    /// (which need not match the snapshotted session's name — placement is
    /// a pure hash of the name, so restoring under a new name migrates the
    /// stream to whatever shard owns it). The restored session continues
    /// bit-for-bit where the snapshot was taken: same tuner threshold,
    /// checker history, fault-stream position, queued inputs, and
    /// uncollected results. The snapshot's configuration is checked like
    /// an `open`'s before anything is built from it.
    ///
    /// # Errors
    ///
    /// Fails on malformed snapshot text, unknown kernels, invalid
    /// configuration, or offline training failures.
    pub fn restore(store: &PreparedStore, name: &str, text: &str) -> Result<Self, ServeError> {
        let invalid = |e: String| ServeError::InvalidConfig(format!("snapshot: {e}"));
        let SnapshotParts { config, mut sections } = SnapshotParts::parse(text).map_err(invalid)?;
        let kernel = checked_kernel(&config)?;
        let prepared = store.get(kernel.as_ref(), config.seed)?;
        // The placeholder threshold never fires: `import_state` rebuilds
        // the tuner at the snapshotted threshold (and the calibration
        // anchor), so the threshold calibration is skipped entirely.
        let mut session = Self::assemble(name, config, kernel, &prepared, 1.0)?;
        session.system.import_state(&mut sections).map_err(invalid)?;
        session.import_sections(&mut sections).map_err(invalid)?;
        sections.finish().map_err(invalid)?;
        session.emit_session_event("restore");
        Ok(session)
    }

    /// Serializes the session's full live state as one plain-text line of
    /// named sections (see [`crate::snapshot`] for the format). The
    /// session keeps running; the snapshot is a copy, not a detach.
    #[must_use]
    pub fn snapshot(&self) -> String {
        let mut sections = self.system.export_state();
        let s = &self.stats;
        let mut stats = sections.section("stats");
        for count in [s.submitted, s.processed, s.fixes, s.compensated, s.shed, s.blocked] {
            stats.word(count);
        }
        stats.word(s.drains).word(s.back_pressured_drains);
        stats.word(s.queue_high_water as u64).word(s.recovery_high_water as u64);
        for sum in [s.error_sum, s.total_cycles, s.cpu_busy_cycles, s.final_threshold] {
            stats.float(sum);
        }
        let queued = &self.pending_inputs[..self.pending_rows * self.kernel.input_dim()];
        sections.section("queue").word(self.pending_rows as u64).floats(queued);
        let mut completed = sections.section("completed");
        completed.word(self.completed.len() as u64);
        for r in &self.completed {
            completed.word(r.index as u64).flag(r.fired).float(r.predicted_error);
            completed.float(r.measured_error).floats(&r.output);
        }
        SnapshotParts { config: self.config.clone(), sections }.encode()
    }

    /// Reads the session's own snapshot sections — `stats`, `queue` (at
    /// most the queue bound of finite rows) and `completed` (outputs the
    /// kernel's width) — written by [`Session::snapshot`].
    fn import_sections(&mut self, sections: &mut Sections) -> Result<(), String> {
        let mut stats = sections.take("stats")?;
        let s = &mut self.stats;
        for count in [
            &mut s.submitted,
            &mut s.processed,
            &mut s.fixes,
            &mut s.compensated,
            &mut s.shed,
            &mut s.blocked,
            &mut s.drains,
            &mut s.back_pressured_drains,
        ] {
            *count = stats.counter()?;
        }
        for high_water in [&mut s.queue_high_water, &mut s.recovery_high_water] {
            *high_water = stats.counter()? as usize;
        }
        for sum in
            [&mut s.error_sum, &mut s.total_cycles, &mut s.cpu_busy_cycles, &mut s.final_threshold]
        {
            *sum = stats.float()?;
        }
        stats.end()?;

        let mut queue = sections.take("queue")?;
        let rows = queue.count(self.queue.input_capacity)?;
        let inputs = queue.floats(rows * self.kernel.input_dim())?;
        queue.ensure(inputs.iter().all(|v| v.is_finite()), || "non-finite input".to_owned())?;
        queue.end()?;
        self.pending_inputs.clear();
        self.pending_inputs.extend(inputs);
        self.pending_rows = rows;

        let mut completed = sections.take("completed")?;
        for _ in 0..completed.counter()? {
            let (index, fired) = (completed.counter()? as usize, completed.flag()?);
            let (predicted_error, measured_error) = (completed.float()?, completed.float()?);
            let output = completed.floats(self.kernel.output_dim())?;
            self.completed.push_back(SessionResult {
                index,
                output,
                fired,
                predicted_error,
                measured_error,
            });
        }
        completed.end()
    }

    /// Shared construction path of [`Session::open`] and
    /// [`Session::restore`]: assembles the pipeline around a prepared app
    /// at the given threshold.
    fn assemble(
        name: &str,
        config: SessionConfig,
        kernel: Box<dyn Kernel>,
        prepared: &Prepared,
        threshold: f64,
    ) -> Result<Self, ServeError> {
        let app = prepared.app();
        let checker = build_checker(config.checker, app, kernel.as_ref())?;
        let runtime = RuntimeConfig {
            window: config.window,
            recovery_queue_capacity: config.queue.recovery_capacity,
            watchdog: config.watchdog,
            fix_policy: config.fix_policy,
            ..RuntimeConfig::default()
        };
        let mut system = RumbaSystem::new(
            app.rumba_npu.clone(),
            CheckerUnit::new(checker),
            Tuner::new(config.mode, threshold)?,
            runtime,
        )?;
        system.set_session_label(name);
        system.set_fault_plan(config.faults.clone());
        if config.zoo > 0 {
            let budget = quality_budget(config.mode);
            let (zoo, bar, ceiling) =
                prepared.zoo(kernel.as_ref(), config.zoo, config.checker, budget)?;
            system.attach_zoo(zoo, bar)?;
            system.set_zoo_pressure_ceiling(ceiling);
        }
        // Armed before `begin_stream` (and thus before any `restore`
        // imports state), so a snapshot's `refit` and `reservoir`
        // sections land in an already-armed runtime.
        if config.refit {
            system.arm_refit(RefitConfig {
                quality_budget: quality_budget(config.mode),
                ..RefitConfig::default()
            })?;
        }
        system.begin_stream();

        let (input_dim, output_dim) = (kernel.input_dim(), kernel.output_dim());
        let cpu_cycles = kernel.cpu_cycles();
        Ok(Self {
            name: name.to_owned(),
            kernel,
            system,
            admission: config.admission,
            queue: config.queue,
            fault_plan: config.faults.clone(),
            cpu_cycles,
            // `checked_kernel` bounds the capacity, so this cannot overflow.
            pending_inputs: Vec::with_capacity(config.queue.input_capacity * input_dim),
            pending_rows: 0,
            completed: VecDeque::new(),
            scratch: Scratch::new(),
            batch_out: Matrix::default(),
            out_buf: vec![0.0; output_dim],
            exact_buf: vec![0.0; output_dim],
            stats: SessionStats::default(),
            config,
        })
    }

    fn emit_session_event(&self, action: &str) {
        if rumba_obs::enabled() {
            rumba_obs::global_sink().emit(&Event::Session {
                session: self.name.clone(),
                action: action.to_owned(),
                kernel: self.kernel.name().to_owned(),
                invocations: self.stats.processed,
                fixes: self.stats.fixes,
                shed: self.stats.shed,
                threshold: self.system.tuner().threshold(),
            });
        }
    }

    /// Session name (the telemetry label).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Kernel name served by this session.
    #[must_use]
    pub fn kernel_name(&self) -> &str {
        self.kernel.name()
    }

    /// Request payload width.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.kernel.input_dim()
    }

    /// Current request-queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.pending_rows
    }

    /// Configured request-queue bound (before fault-induced pressure).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.queue.input_capacity
    }

    /// Completed results waiting to be collected.
    #[must_use]
    pub fn results_ready(&self) -> usize {
        self.completed.len()
    }

    /// Running counters.
    #[must_use]
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Current firing threshold of the session's tuner.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.system.tuner().threshold()
    }

    /// Admission policy.
    #[must_use]
    pub fn admission(&self) -> AdmissionPolicy {
        self.admission
    }

    /// This drain's NPU (shared-topology accelerator state is immutable
    /// during serving, so the scheduler can borrow it across threads).
    #[must_use]
    pub(crate) fn npu(&self) -> &Npu {
        self.system.npu()
    }

    /// The session's model zoo, if one is attached (immutable during
    /// serving, so the scheduler can borrow it across threads like the
    /// NPU).
    #[must_use]
    pub(crate) fn zoo(&self) -> Option<&ModelZoo> {
        self.system.zoo()
    }

    /// The session's current queue-pressure degradation rung (0 = no
    /// degradation; meaningful only with a zoo attached).
    #[must_use]
    pub fn zoo_pressure(&self) -> u32 {
        self.system.zoo_pressure()
    }

    /// Whole-stream per-tier routing counts (`zoo + 1` slots, last =
    /// exact CPU; empty without a zoo).
    #[must_use]
    pub fn stream_tiers(&self) -> &[u64] {
        self.system.stream_tiers()
    }

    /// Queue bound after `QueuePressure` faults shrink it — never below 1,
    /// so a pressured session degrades to request-at-a-time service
    /// instead of deadlocking.
    #[must_use]
    pub fn effective_capacity(&self) -> usize {
        let cap = self.queue.input_capacity;
        match &self.fault_plan {
            Some(plan) => {
                let pressured = cap.saturating_sub(
                    plan.queue_pressure(self.system.stream_invocations() + self.pending_rows),
                );
                pressured.max(1)
            }
            None => cap,
        }
    }

    /// Attempts to queue one request. Does not run the pipeline; the
    /// `Block` full-queue case is reported as [`Admit::MustDrain`] for the
    /// registry to resolve (draining needs the scheduler).
    pub(crate) fn try_submit(&mut self, input: &[f64]) -> Result<Admit, ServeError> {
        let dim = self.kernel.input_dim();
        if input.len() != dim {
            return Err(ServeError::InvalidInput(format!(
                "kernel {} expects {dim} inputs, got {}",
                self.kernel.name(),
                input.len()
            )));
        }
        // A non-finite input (`1e999` parses to infinity) has no exact
        // result to check against, and would poison the refit reservoir.
        if input.iter().any(|v| !v.is_finite()) {
            return Err(ServeError::InvalidInput("inputs must be finite".to_owned()));
        }
        if self.pending_rows >= self.effective_capacity() {
            // Degrade before shedding: every full-queue event raises the
            // zoo's pressure rung (doubling the routing bar), sliding
            // subsequent traffic toward cheaper tiers so drains finish
            // sooner. The rung decays as drains run under-capacity; it
            // saturates at `MAX_ZOO_PRESSURE` and stays 0 without a zoo.
            self.system.set_zoo_pressure(self.system.zoo_pressure() + 1);
            return match self.admission {
                AdmissionPolicy::Shed => {
                    self.stats.shed += 1;
                    self.emit_admission();
                    Ok(Admit::Shed)
                }
                AdmissionPolicy::Block => Ok(Admit::MustDrain),
            };
        }
        self.pending_inputs.extend_from_slice(input);
        self.pending_rows += 1;
        self.stats.submitted += 1;
        self.stats.queue_high_water = self.stats.queue_high_water.max(self.pending_rows);
        Ok(Admit::Accepted(self.pending_rows))
    }

    /// Counts a blocking admission and emits its telemetry; the registry
    /// calls this right before the forced drain.
    pub(crate) fn note_blocked(&mut self) {
        self.stats.blocked += 1;
        self.emit_admission();
    }

    fn emit_admission(&self) {
        if rumba_obs::enabled() {
            rumba_obs::global_sink().emit(&Event::Admission {
                session: self.name.clone(),
                policy: self.admission.label().to_owned(),
                queue_depth: self.pending_rows as u64,
                capacity: self.effective_capacity() as u64,
                shed_total: self.stats.shed,
            });
        }
    }

    /// Detaches the pending queue as a batch for compute, stamped with its
    /// stream base position and routed serially at the drain-time bar
    /// (which only moves at window flushes and pressure changes), before
    /// any parallel compute sees it.
    pub(crate) fn take_pending(&mut self) -> Option<PendingBatch> {
        if self.pending_rows == 0 {
            return None;
        }
        let rows = std::mem::take(&mut self.pending_rows);
        let inputs = Matrix::from_flat(
            rows,
            self.kernel.input_dim(),
            std::mem::take(&mut self.pending_inputs),
        );
        let routes = self.system.route_rows(inputs.view());
        Some(PendingBatch { base: self.system.stream_invocations(), inputs, routes })
    }

    /// Replays a computed batch through the stateful decision path —
    /// checker, threshold, recovery, merge, window tuning — in arrival
    /// order, exactly as a solo stream would, and accounts the drain's
    /// event-level pipeline timing.
    pub(crate) fn absorb(
        &mut self,
        batch: PendingBatch,
        approx: Matrix,
    ) -> Result<usize, ServeError> {
        let rows = batch.inputs.rows();
        let out_dim = self.kernel.output_dim();
        let metric = self.kernel.metric();
        let mut fired = vec![false; rows];
        for (i, fired_slot) in fired.iter_mut().enumerate() {
            let input = batch.inputs.row(i);
            let route = batch.routes.as_ref().map(|routes| routes[i]);
            let outcome = self.system.process_routed(
                &*self.kernel,
                input,
                route,
                approx.row(i),
                &mut self.out_buf,
            )?;
            self.kernel.compute(input, &mut self.exact_buf);
            let err = metric.invocation_error(&self.exact_buf, &self.out_buf[..out_dim]);
            // CPU-routed rows occupy the CPU lane of the drain's pipeline
            // simulation exactly like a fired re-execution does.
            *fired_slot = outcome.fired || outcome.cpu_routed;
            self.stats.processed += 1;
            self.stats.error_sum += err;
            self.completed.push_back(SessionResult {
                index: batch.base + i,
                output: self.out_buf[..out_dim].to_vec(),
                fired: outcome.fired,
                predicted_error: outcome.predicted_error,
                measured_error: err,
            });
        }
        self.stats.fixes = self.system.stream_fixes() as u64;
        self.stats.compensated = self.system.stream_compensations() as u64;

        let run = simulate_detailed_with_faults(
            rows,
            self.system.npu().cycles_per_invocation() as f64,
            self.cpu_cycles,
            &fired,
            self.queue,
            self.fault_plan.as_ref(),
        );
        self.stats.drains += 1;
        if run.back_pressured() {
            self.stats.back_pressured_drains += 1;
        }
        self.stats.recovery_high_water =
            self.stats.recovery_high_water.max(run.recovery_high_water);
        self.stats.total_cycles += run.total_cycles;
        self.stats.cpu_busy_cycles += run.cpu_busy_cycles;

        // Under-capacity drains release queue-pressure degradation one
        // rung at a time, the inverse of the full-queue raise (a no-op
        // without a zoo).
        if rows * 2 < self.effective_capacity() {
            let rung = self.system.zoo_pressure();
            self.system.set_zoo_pressure(rung.saturating_sub(1));
        }

        // Hand the (now larger-capacity) buffers back for reuse.
        let inputs = batch.inputs.into_flat();
        if self.pending_inputs.capacity() < inputs.capacity() {
            self.pending_inputs = inputs;
            self.pending_inputs.clear();
        }
        self.batch_out = approx;
        Ok(rows)
    }

    /// Drains this session's queue through the pipeline serially (the
    /// single-tenant path; the registry's `drain_all` fans compute out
    /// instead).
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    pub fn drain(&mut self) -> Result<usize, ServeError> {
        let Some(batch) = self.take_pending() else { return Ok(0) };
        let mut out = std::mem::take(&mut self.batch_out);
        invoke_routed(
            self.system.npu(),
            self.system.zoo(),
            batch.base,
            batch.inputs.view(),
            batch.routes.as_deref(),
            &mut self.scratch,
            &mut out,
        )?;
        self.absorb(batch, out)
    }

    /// Collects all completed results in submission order.
    pub fn take_results(&mut self) -> Vec<SessionResult> {
        self.completed.drain(..).collect()
    }

    /// Closes the session: drains whatever is still queued, flushes the
    /// final partial tuning window, and emits the session-tagged run
    /// summary plus the close marker.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures from the final drain.
    pub fn finish(mut self) -> Result<(SessionStats, Vec<SessionResult>), ServeError> {
        self.drain()?;
        self.system.end_stream(&*self.kernel);
        self.stats.final_threshold = self.system.tuner().threshold();
        if rumba_obs::enabled() {
            let sink = rumba_obs::global_sink();
            sink.emit(&Event::RunSummary {
                kernel: self.kernel.name().to_owned(),
                invocations: self.stats.processed,
                fixes: self.stats.fixes,
                compensated: self.stats.compensated,
                output_error: self.stats.mean_error(),
                windows: self.system.windows_flushed(),
                cpu_utilization: self.stats.cpu_utilization(),
                final_threshold: self.system.tuner().threshold(),
                tiers: self.system.stream_tiers().to_vec(),
                session: self.name.clone(),
            });
            sink.emit(&Event::Session {
                session: self.name.clone(),
                action: "close".to_owned(),
                kernel: self.kernel.name().to_owned(),
                invocations: self.stats.processed,
                fixes: self.stats.fixes,
                shed: self.stats.shed,
                threshold: self.system.tuner().threshold(),
            });
        }
        let results = self.completed.into_iter().collect();
        Ok((self.stats, results))
    }
}

pub(crate) fn build_checker(
    kind: CheckerKind,
    app: &TrainedApp,
    kernel: &dyn Kernel,
) -> Result<Box<dyn ErrorEstimator>, ServeError> {
    Ok(match kind {
        CheckerKind::Linear => Box::new(app.linear.clone()),
        CheckerKind::Tree => Box::new(app.tree.clone()),
        CheckerKind::Ema => Box::new(EmaDetector::new(app.ema_window, kernel.output_dim())?),
        CheckerKind::Evp => Box::new(app.evp.clone()),
    })
}

/// Looks up the config's kernel and checks the config's sizes against
/// [`MAX_WINDOW`], [`MAX_QUEUE`] and [`MAX_ZOO`] — before anything is
/// trained, prepared or allocated for it, so an absurd `open` or a
/// tampered snapshot costs one in-band error.
fn checked_kernel(config: &SessionConfig) -> Result<Box<dyn Kernel>, ServeError> {
    let kernel = kernel_by_name(&config.kernel)
        .ok_or_else(|| ServeError::UnknownKernel(config.kernel.clone()))?;
    let bounded = |what: &str, value: usize, min: usize, max: usize| {
        if (min..=max).contains(&value) {
            Ok(())
        } else {
            Err(ServeError::InvalidConfig(format!("{what} must be in {min}..={max}, got {value}")))
        }
    };
    bounded("window", config.window, 1, MAX_WINDOW)?;
    bounded("queue capacity", config.queue.input_capacity, 1, MAX_QUEUE)?;
    bounded("output queue capacity", config.queue.output_capacity, 1, MAX_QUEUE)?;
    bounded("recovery queue capacity", config.queue.recovery_capacity, 1, MAX_QUEUE)?;
    bounded("zoo", config.zoo, 0, MAX_ZOO)?;
    config.queue.input_capacity.checked_mul(kernel.input_dim()).ok_or_else(|| {
        ServeError::InvalidConfig(format!(
            "queue capacity {} overflows at {} inputs per row",
            config.queue.input_capacity,
            kernel.input_dim()
        ))
    })?;
    Ok(kernel)
}

/// The session's mean-error budget: the threshold calibration target,
/// and — when a zoo is attached — the budget
/// [`ModelZoo::calibrate_bar`] fits the routing bar to.
fn quality_budget(mode: TuningMode) -> f64 {
    match mode {
        TuningMode::TargetQuality { toq } => 1.0 - toq,
        _ => 0.10,
    }
}
