//! The traced run: the workload's script replayed one boundary at a
//! time, entering the stack at each level in turn.
//!
//! | level | entry point                                    | span          |
//! |-------|------------------------------------------------|---------------|
//! | 0     | TCP client, lockstep                           | `tcp`         |
//! | 1     | `Router::route`                                | `route`       |
//! | 2     | `protocol::handle_line`                        | `handle_line` |
//! | 3     | `parse_object` + `ServeRuntime::{open, submit, drain, drain_all, restore, close}` + encode | `protocol.parse`, `registry.*`, `protocol.encode` |
//! | 4     | the rows level 3 drained, through `Npu::invoke_batch_at`, `ErrorEstimator::estimate`, `RumbaSystem::process_approx`, `Kernel::compute` | `accel.*`, `predict.estimate`, `core.process_approx`, `apps.compute` |
//!
//! Levels 0-3 are four stacks of their own (a TCP server, a router, two
//! runtimes) fed in one pass: every line goes to all four back to back,
//! in forward order on even lines and in reverse on odd ones, so a
//! layer's self time on a line — its span minus its child's span for the
//! same line — compares calls made microseconds apart under the same host
//! conditions. Level 4 replays the rows level 3 drained.
//!
//! Every span is taken in this file around a call into a layer's public
//! function; the program itself is not instrumented. A span carries the
//! script line it serves as its request id and its parent's name. Spans
//! are kept in memory and written to
//! `.perfbench_work/trace-<workload>-<seed>.jsonl` when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

use rumba_accel::CheckerUnit;
use rumba_apps::{kernel_by_name, Kernel, Split};
use rumba_core::cache::TrainedModelCache;
use rumba_core::runtime::{RumbaSystem, RuntimeConfig};
use rumba_core::trainer::{nn_params_for, train_app, OfflineConfig, TrainedApp};
use rumba_core::tuner::Tuner;
use rumba_nn::{Matrix, MatrixView, Scratch};
use rumba_obs::json::{parse_object, JsonWriter, ObjectExt};
use rumba_predict::{EmaDetector, ErrorEstimator};
use rumba_serve::protocol::handle_line;
use rumba_serve::shard::Router;
use rumba_serve::transport::NetServer;
use rumba_serve::{ServeRuntime, SessionResult, SessionStats, Submit};

use crate::client::Conn;
use crate::harness::{calibrate, run_kernel};
use crate::script::{
    training_set, Generator, Line, Op, SessionSpec, Snapshots, Workload, MODEL_SEED, SHARDS,
};
use crate::stats::{check_digest, mean, median, Digest};
use crate::{fresh_cache, train_set, Report};

type Res<T> = Result<T, String>;

/// One recorded call.
#[derive(Debug, Clone)]
struct Span {
    /// Script line (request) the call served.
    id: usize,
    name: &'static str,
    parent: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(
        &mut self,
        id: usize,
        name: &'static str,
        parent: &'static str,
        start_ns: u64,
    ) -> u64 {
        let end_ns = self.now();
        self.spans.push(Span { id, name, parent, start_ns, end_ns });
        end_ns - start_ns
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.parent, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Which script blocks the traced run replays.
fn traced_blocks(workload: Workload) -> usize {
    match workload {
        Workload::NarrowTcp => 8,
        Workload::WideStdio => 6,
        Workload::Churn => 12,
        Workload::Harness => 3,
    }
}

/// The traced script: prologue, the first blocks, epilogue; and where
/// the blocks lie in it.
fn script(workload: Workload, seed: u64) -> (Generator, Vec<Line>, Range<usize>) {
    let mut gen = Generator::new(workload, seed);
    let mut lines = gen.prologue();
    let start = lines.len();
    for b in 0..traced_blocks(workload) {
        lines.extend(gen.block(b));
    }
    let body = start..lines.len();
    lines.extend(gen.epilogue());
    (gen, lines, body)
}

/// One stack of levels 0-2: its duration on every line, its response
/// digest per connection, and the snapshots its own responses carried.
struct Level {
    ns: Vec<u64>,
    digests: Vec<Digest>,
    snapshots: Snapshots,
}

impl Level {
    fn new(gen: &Generator, lines: usize) -> Self {
        Self {
            ns: Vec::with_capacity(lines),
            digests: vec![Digest::default(); gen.connections()],
            snapshots: Snapshots::default(),
        }
    }

    fn answer(&mut self, line: &Line, ns: u64, response: &[String]) {
        self.ns.push(ns);
        for r in response {
            self.digests[line.conn].line(r);
        }
        self.snapshots.observe(line, response);
    }
}

// Response encoders, line for line the protocol's own (whose encoders
// are private to it): level 3 times `rumba_obs::json::JsonWriter`
// encoding the fields `handle_line` encodes, and its bytes are checked
// against `handle_line`'s.
fn result_line(session: &str, r: &SessionResult) -> String {
    let mut w = JsonWriter::object("result");
    w.string("session", session)
        .count("index", r.index as u64)
        .boolean("fired", r.fired)
        .float("predicted", r.predicted_error)
        .float("error", r.measured_error)
        .floats("output", &r.output);
    w.finish()
}

fn closed_line(session: &str, stats: &SessionStats) -> String {
    let mut w = JsonWriter::object("closed");
    w.string("session", session).count("processed", stats.processed).count("fixes", stats.fixes);
    if stats.compensated > 0 {
        w.count("compensated", stats.compensated);
    }
    w.count("shed", stats.shed)
        .count("blocked", stats.blocked)
        .float("mean_error", stats.mean_error())
        .float("cpu_utilization", stats.cpu_utilization())
        .float("threshold", stats.final_threshold);
    w.finish()
}

fn drain_ack(total: usize) -> String {
    let mut w = JsonWriter::object("ack");
    w.string("op", "drain").count("results", total as u64);
    w.finish()
}

/// A batch of rows one drain pushed through a session's pipeline.
struct Batch {
    session: usize,
    base: usize,
    rows: Vec<Vec<f64>>,
}

/// Level 3: each line parsed, dispatched straight to the registry and
/// encoded, with the drained rows captured for level 4.
struct Registry {
    rt: ServeRuntime,
    level: Level,
    parse: Vec<u64>,
    op: Vec<u64>,
    encode: Vec<u64>,
    batches: Vec<Batch>,
    /// Rows accepted but not yet drained, per session.
    pending: HashMap<usize, Vec<Vec<f64>>>,
    /// Rows drained so far, per session (the next batch's base index).
    position: HashMap<usize, usize>,
    drain_rows: usize,
    submits: usize,
    accepted: usize,
    snapshot_bytes: Vec<f64>,
}

/// What a registry call returned, encoded after the call's span closes.
enum Out {
    Open(usize, f64),
    Ack(String, usize, bool),
    Shed(String, u64),
    Results(Vec<(String, Vec<SessionResult>)>),
    Closed(Vec<(String, SessionStats, Vec<SessionResult>)>, bool),
    Snapshot(String, String),
    Restore(String, String, f64),
}

impl Registry {
    fn new(gen: &Generator, lines: usize) -> Self {
        Self {
            rt: ServeRuntime::new(),
            level: Level::new(gen, lines),
            parse: Vec::new(),
            op: Vec::new(),
            encode: Vec::new(),
            batches: Vec::new(),
            pending: HashMap::new(),
            position: HashMap::new(),
            drain_rows: 0,
            submits: 0,
            accepted: 0,
            snapshot_bytes: Vec::new(),
        }
    }

    /// Moves session `s`'s undrained rows into a batch.
    fn flush(&mut self, s: usize) {
        let rows = self.pending.remove(&s).unwrap_or_default();
        if !rows.is_empty() {
            let base = self.position.entry(s).or_default();
            let len = rows.len();
            self.batches.push(Batch { session: s, base: *base, rows });
            *base += len;
        }
    }

    /// Serves script line `i`; returns the registry call's duration.
    fn serve(&mut self, gen: &Generator, i: usize, line: &Line, tracer: &mut Tracer) -> Res<u64> {
        let text = self.level.snapshots.text(gen, line);
        let t = tracer.now();
        let obj = parse_object(&text).map_err(|e| format!("parse: {e}"))?;
        let input = match line.op {
            Op::Invoke { .. } => obj.numbers("input").ok_or("invoke without input")?,
            _ => Vec::new(),
        };
        self.parse.push(tracer.record(i, "protocol.parse", "handle_line", t));
        let t = tracer.now();
        let (out, span) = self.call(gen, line.op, &obj, input)?;
        let op_ns = tracer.record(i, span, "handle_line", t);
        self.op.push(op_ns);
        let t = tracer.now();
        let response = self.encode(gen, out);
        self.encode.push(tracer.record(i, "protocol.encode", "handle_line", t));
        self.level.answer(line, op_ns, &response);
        Ok(op_ns)
    }

    fn call(
        &mut self,
        gen: &Generator,
        op: Op,
        obj: &rumba_obs::json::JsonObject,
        input: Vec<f64>,
    ) -> Res<(Out, &'static str)> {
        let err = |e: rumba_serve::ServeError| e.to_string();
        let name = |s: usize| gen.sessions[s].name.as_str();
        let rt = &mut self.rt;
        Ok(match op {
            Op::Open(s) => {
                let threshold = rt.open(name(s), gen.sessions[s].config()).map_err(err)?;
                (Out::Open(s, threshold), "registry.open")
            }
            Op::Invoke { session, .. } => {
                self.submits += 1;
                let out = match rt.submit(name(session), &input).map_err(err)? {
                    Submit::Accepted { depth, blocked } => {
                        self.accepted += 1;
                        if blocked {
                            self.flush(session);
                        }
                        self.pending.entry(session).or_default().push(input);
                        Out::Ack(name(session).to_owned(), depth, blocked)
                    }
                    Submit::Shed => {
                        let shed = rt.session(name(session)).map_or(0, |s| s.stats().shed);
                        Out::Shed(name(session).to_owned(), shed)
                    }
                };
                (out, "registry.submit")
            }
            Op::Drain(s) => {
                let results = rt.drain(name(s)).map_err(err)?;
                self.flush(s);
                (Out::Results(vec![(name(s).to_owned(), results)]), "registry.drain")
            }
            Op::DrainAll => {
                rt.drain_all().map_err(err)?;
                let results = rt.take_all_results();
                let mut owners: Vec<usize> = self.pending.keys().copied().collect();
                owners.sort_unstable();
                for s in owners {
                    self.flush(s);
                }
                (Out::Results(results), "registry.drain_all")
            }
            Op::Snapshot(s) => {
                let state = rt.session(name(s)).ok_or("snapshot of a closed session")?.snapshot();
                self.snapshot_bytes.push(state.len() as f64);
                (Out::Snapshot(name(s).to_owned(), state), "snapshot.encode")
            }
            Op::Restore { session, .. } => {
                let state = obj.string("state").ok_or("restore without state")?;
                let threshold = rt.restore(name(session), state).map_err(err)?;
                let kernel = gen.sessions[session].kernel.to_owned();
                (Out::Restore(name(session).to_owned(), kernel, threshold), "registry.restore")
            }
            Op::Close(s) => {
                let (stats, results) = rt.close(name(s)).map_err(err)?;
                self.flush(s);
                (Out::Closed(vec![(name(s).to_owned(), stats, results)], false), "registry.close")
            }
            Op::Shutdown => {
                let closed = rt.close_all().map_err(err)?;
                (Out::Closed(closed, true), "registry.close_all")
            }
        })
    }

    fn encode(&mut self, gen: &Generator, out: Out) -> Vec<String> {
        let mut response = Vec::new();
        match out {
            Out::Open(s, threshold) => {
                let spec = &gen.sessions[s];
                let mut w = JsonWriter::object("ack");
                w.string("op", "open")
                    .string("session", &spec.name)
                    .string("kernel", spec.kernel)
                    .string("checker", spec.checker)
                    .float("threshold", threshold);
                response.push(w.finish());
            }
            Out::Ack(session, depth, blocked) => {
                let mut w = JsonWriter::object("ack");
                w.string("op", "invoke")
                    .string("session", &session)
                    .count("queued", depth as u64)
                    .boolean("blocked", blocked);
                response.push(w.finish());
            }
            Out::Shed(session, total) => {
                let mut w = JsonWriter::object("shed");
                w.string("session", &session).count("code", 503).count("shed_total", total);
                response.push(w.finish());
            }
            Out::Results(groups) => {
                let mut total = 0;
                for (session, results) in &groups {
                    total += results.len();
                    response.extend(results.iter().map(|r| result_line(session, r)));
                }
                self.drain_rows += total;
                response.push(drain_ack(total));
            }
            Out::Closed(groups, shutdown) => {
                for (session, stats, results) in &groups {
                    response.extend(results.iter().map(|r| result_line(session, r)));
                    response.push(closed_line(session, stats));
                }
                if shutdown {
                    let mut w = JsonWriter::object("ack");
                    w.string("op", "shutdown").count("sessions", groups.len() as u64);
                    response.push(w.finish());
                }
            }
            Out::Snapshot(session, state) => {
                let mut w = JsonWriter::object("snapshot");
                w.string("session", &session).string("state", &state);
                response.push(w.finish());
            }
            Out::Restore(session, kernel, threshold) => {
                let mut w = JsonWriter::object("ack");
                w.string("op", "restore")
                    .string("session", &session)
                    .string("kernel", &kernel)
                    .float("threshold", threshold);
                response.push(w.finish());
            }
        }
        response
    }
}

/// Levels 0-3 of one traced pass.
struct Pass {
    tcp: Level,
    route: Level,
    handle: Level,
    reg: Registry,
}

/// Feeds every line to the four stacks back to back, alternating the
/// order from line to line.
fn pass(gen: &Generator, lines: &[Line], tracer: &mut Tracer) -> Res<Pass> {
    let io = |e: std::io::Error| format!("tcp level: {e}");
    let server = NetServer::bind_tcp("127.0.0.1:0", SHARDS).map_err(io)?;
    let mut conns = (0..gen.connections())
        .map(|_| Conn::connect(server.addr(), tracer.epoch))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(io)?;
    let router = Router::new(SHARDS);
    let mut rt = ServeRuntime::new();
    let n = lines.len();
    let mut p = Pass {
        tcp: Level::new(gen, n),
        route: Level::new(gen, n),
        handle: Level::new(gen, n),
        reg: Registry::new(gen, n),
    };
    for (i, line) in lines.iter().enumerate() {
        for k in 0..4 {
            let level = if i % 2 == 0 { k } else { 3 - k };
            match level {
                0 => {
                    let text = p.tcp.snapshots.text(gen, line);
                    let t = tracer.now();
                    let response = conns[line.conn].call(&text).map_err(io)?;
                    let ns = tracer.record(i, "tcp", "", t);
                    p.tcp.answer(line, ns, &response);
                }
                1 => {
                    let text = p.route.snapshots.text(gen, line);
                    let t = tracer.now();
                    let response = router.route(&text);
                    let ns = tracer.record(i, "route", "tcp", t);
                    p.route.answer(line, ns, &response);
                }
                2 => {
                    let text = p.handle.snapshots.text(gen, line);
                    let t = tracer.now();
                    let (response, _) = handle_line(&mut rt, &text);
                    let ns = tracer.record(i, "handle_line", "route", t);
                    p.handle.answer(line, ns, &response);
                }
                _ => {
                    p.reg.serve(gen, i, line, tracer)?;
                }
            }
        }
    }
    drop(conns);
    server.join().map_err(io)?;
    Ok(p)
}

/// The traced run's cost. Two runtimes replay the script through
/// `handle_line`, one with a span per line and one without; the blocks
/// go in chunks of [`OVERHEAD_CHUNK`] lines, each chunk to both runtimes
/// back to back (alternating which goes first) and timed whole. The
/// figure is the ratio of traced over untraced time per chunk.
fn overhead_ratio(gen: &Generator, lines: &[Line], body: &Range<usize>) -> f64 {
    struct Replay<'a> {
        gen: &'a Generator,
        lines: &'a [Line],
        rt: ServeRuntime,
        snapshots: Snapshots,
        tracer: Option<Tracer>,
    }
    impl Replay<'_> {
        fn serve(&mut self, range: Range<usize>) -> f64 {
            let t = Instant::now();
            for i in range {
                let line = &self.lines[i];
                let text = self.snapshots.text(self.gen, line);
                let start = self.tracer.as_ref().map_or(0, Tracer::now);
                let (response, _) = handle_line(&mut self.rt, &text);
                if let Some(tracer) = &mut self.tracer {
                    tracer.record(i, "handle_line", "route", start);
                }
                self.snapshots.observe(line, &response);
            }
            t.elapsed().as_secs_f64()
        }
    }
    let replay = |tracer: Option<Tracer>| Replay {
        gen,
        lines,
        rt: ServeRuntime::new(),
        snapshots: Snapshots::default(),
        tracer,
    };
    let (mut traced, mut untraced) = (replay(Some(Tracer::new())), replay(None));
    traced.serve(0..body.start);
    untraced.serve(0..body.start);
    // Ratios by which replay went first: the second replay of a chunk
    // finds its text and models in cache, which the geometric mean of the
    // two medians cancels.
    let (mut traced_first, mut untraced_first) = (Vec::new(), Vec::new());
    for (c, start) in body.clone().step_by(OVERHEAD_CHUNK).enumerate() {
        let chunk = start..(start + OVERHEAD_CHUNK).min(body.end);
        if c % 2 == 0 {
            let t = traced.serve(chunk.clone());
            traced_first.push(t / untraced.serve(chunk));
        } else {
            let u = untraced.serve(chunk.clone());
            untraced_first.push(traced.serve(chunk) / u);
        }
    }
    (median(&traced_first) * median(&untraced_first)).sqrt()
}

/// Script lines per chunk of [`overhead_ratio`].
const OVERHEAD_CHUNK: usize = 32;

/// A session's pipeline rebuilt from public parts (`rumba run` style):
/// warm `train_app`, calibration, a plain `RumbaSystem`. Zoo routing and
/// checker re-fit are not rebuilt, so level 4 times the single-model path.
struct Plain {
    kernel: Box<dyn Kernel>,
    system: RumbaSystem,
    estimator: Box<dyn ErrorEstimator>,
    signed: bool,
}

fn estimator(
    spec: &SessionSpec,
    app: &TrainedApp,
    kernel: &dyn Kernel,
) -> Res<Box<dyn ErrorEstimator>> {
    Ok(match spec.checker {
        "linear" => Box::new(app.linear.clone()),
        "tree" => Box::new(app.tree.clone()),
        _ => Box::new(
            EmaDetector::new(app.ema_window, kernel.output_dim()).map_err(|e| e.to_string())?,
        ),
    })
}

/// Level-4 measurements.
#[derive(Default)]
struct Below {
    train_warm: Vec<u64>,
    calibrate: Vec<u64>,
    cache_hits: usize,
    forward: Vec<u64>,
    forward_serial: Vec<u64>,
    rows_per_call: Vec<f64>,
    estimate: Vec<u64>,
    replay: Vec<u64>,
    oracle: Vec<u64>,
    fixes: usize,
    compensations: usize,
    invocations: usize,
}

fn build_plain(
    spec: &SessionSpec,
    below: &mut Below,
    tracer: &mut Tracer,
    id: usize,
) -> Res<Plain> {
    let kernel = kernel_by_name(spec.kernel).ok_or("unknown kernel")?;
    let cfg = OfflineConfig { seed: MODEL_SEED, ..OfflineConfig::default() };
    let topologies = (kernel.rumba_topology(), kernel.npu_topology());
    let entry = TrainedModelCache::from_env().entry_path(
        kernel.name(),
        (&topologies.0, &topologies.1),
        &cfg,
        &nn_params_for(kernel.as_ref()),
    );
    below.cache_hits += usize::from(entry.is_file());
    let t = tracer.now();
    let app = train_app(kernel.as_ref(), &cfg).map_err(|e| e.to_string())?;
    below.train_warm.push(tracer.record(id, "core.train_app", "registry.open", t));
    let t = tracer.now();
    let train = kernel.generate(Split::Train, MODEL_SEED);
    let budget = match spec.mode {
        crate::script::Mode::Toq(toq) => 1.0 - toq,
        crate::script::Mode::Energy(_) => 0.10,
    };
    let threshold =
        calibrate(&app, &train, estimator(spec, &app, kernel.as_ref())?.as_mut(), budget)?;
    below.calibrate.push(tracer.record(id, "core.calibrate", "registry.open", t));
    let config = spec.config();
    let mut system = RumbaSystem::new(
        app.rumba_npu.clone(),
        CheckerUnit::new(estimator(spec, &app, kernel.as_ref())?),
        Tuner::new(spec.tuning(), threshold).map_err(|e| e.to_string())?,
        RuntimeConfig {
            window: config.window,
            recovery_queue_capacity: config.queue.recovery_capacity,
            watchdog: config.watchdog,
            fix_policy: config.fix_policy,
            ..RuntimeConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    system.set_fault_plan(config.faults.clone());
    system.begin_stream();
    Ok(Plain {
        estimator: estimator(spec, &app, kernel.as_ref())?,
        kernel,
        system,
        signed: spec.band.is_some(),
    })
}

/// Level 4: the rows level 3 drained, replayed through the layers below
/// the registry.
fn level_below(gen: &Generator, batches: &[Batch], tracer: &mut Tracer) -> Res<Below> {
    let mut below = Below::default();
    let mut plains: HashMap<usize, Plain> = HashMap::new();
    let mut scratch = Scratch::new();
    let mut approx = Matrix::default();
    for (id, batch) in batches.iter().enumerate() {
        let plain = match plains.entry(batch.session) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(build_plain(&gen.sessions[batch.session], &mut below, tracer, id)?)
            }
        };
        let dim = plain.kernel.input_dim();
        let flat: Vec<f64> = batch.rows.concat();
        let view = MatrixView::new(&flat, batch.rows.len(), dim);
        // The pool's fan-out cost: the same batch at the default pool size
        // and at one thread, alternating which runs first.
        let serial_first = id % 2 == 1;
        for pass in 0..2 {
            let serial = (pass == 0) == serial_first;
            rumba_parallel::set_thread_override(serial.then_some(1));
            let t = tracer.now();
            plain
                .system
                .npu()
                .invoke_batch_at(batch.base, view, &mut scratch, &mut approx)
                .map_err(|e| e.to_string())?;
            if serial {
                below.forward_serial.push(tracer.record(
                    id,
                    "accel.invoke_batch_at.serial",
                    "registry.drain",
                    t,
                ));
            } else {
                below.forward.push(tracer.record(id, "accel.invoke_batch_at", "registry.drain", t));
            }
        }
        rumba_parallel::set_thread_override(None);
        below.rows_per_call.push(batch.rows.len() as f64);
        let out_dim = plain.kernel.output_dim();
        let mut out = vec![0.0; out_dim];
        let mut exact = vec![0.0; out_dim];
        for (r, input) in batch.rows.iter().enumerate() {
            let row = approx.row(r);
            let t = tracer.now();
            let magnitude = plain.estimator.estimate(input, row);
            if plain.signed {
                std::hint::black_box(plain.estimator.estimate_signed(input, row, magnitude));
            }
            below.estimate.push(tracer.record(id, "predict.estimate", "registry.drain", t));
            let t = tracer.now();
            plain
                .system
                .process_approx(&*plain.kernel, input, row, &mut out)
                .map_err(|e| e.to_string())?;
            below.replay.push(tracer.record(id, "core.process_approx", "registry.drain", t));
            let t = tracer.now();
            plain.kernel.compute(input, &mut exact);
            below.oracle.push(tracer.record(id, "apps.compute", "registry.drain", t));
            std::hint::black_box(&exact);
        }
    }
    for plain in plains.values() {
        below.fixes += plain.system.stream_fixes();
        below.compensations += plain.system.stream_compensations();
        below.invocations += plain.system.stream_invocations();
    }
    Ok(below)
}

fn us(ns: &[u64]) -> f64 {
    mean(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>())
}

fn per_row_us(total: &[u64], rows: usize) -> f64 {
    total.iter().sum::<u64>() as f64 / 1e3 / rows as f64
}

/// Runs the traced replay of `workload` and reports the per-layer split.
#[allow(clippy::too_many_lines)]
pub fn run(workload: Workload, seed: u64, report: &mut Report) -> Res<()> {
    let mut tracer = Tracer::new();
    fresh_cache()?;
    let trained = train_set(workload)?;
    for t in &trained {
        report.note(&format!("nn.train_s.{}", t.kernel), t.train_s, "s");
        if let Some(zoo) = t.zoo_s {
            report.note(&format!("nn.zoo_train_s.{}", t.kernel), zoo, "s");
        }
    }
    report.metric("nn.train_s", trained.iter().map(|t| t.train_s).sum(), "s");
    let zoo: Vec<f64> = trained.iter().filter_map(|t| t.zoo_s).collect();
    if !zoo.is_empty() {
        report.note("nn.zoo_train_s", zoo.iter().sum(), "s");
    }

    let (gen, lines, body) = script(workload, seed);
    report.attempted += 4 * lines.len() as u64;
    let Pass { tcp, route, handle, reg } = pass(&gen, &lines, &mut tracer)?;
    let below = level_below(&gen, &reg.batches, &mut tracer)?;

    // Every level must answer exactly as `handle_line` does.
    for (level, digests) in
        [("tcp", &tcp.digests), ("router", &route.digests), ("registry", &reg.level.digests)]
    {
        for (c, (&got, &want)) in digests.iter().zip(&handle.digests).enumerate() {
            if let Err(e) = check_digest(&format!("{level} level, connection {c}"), want, got) {
                report.errors.push(e);
            }
        }
    }

    let requests: Vec<usize> = (0..lines.len()).filter(|&i| lines[i].is_request()).collect();
    // Self time of a level on a line: its span minus its child's span for
    // the same line, taken back to back. The median over request lines
    // keeps one-off stalls out of the difference; taking it separately on
    // even lines (outer level first) and odd lines (inner level first)
    // and averaging the two cancels the head start the second call of a
    // line gets from a warm cache.
    let self_us = |outer: &Level, inner: &[u64]| -> f64 {
        let on = |parity: usize| -> f64 {
            median(
                &requests
                    .iter()
                    .filter(|&&i| i % 2 == parity)
                    .map(|&i| (outer.ns[i] as f64 - inner[i] as f64) / 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        0.5 * (on(0) + on(1))
    };
    let pick = |v: &[u64], pred: &dyn Fn(&Op) -> bool| -> Vec<u64> {
        (0..lines.len()).filter(|&i| pred(&lines[i].op)).map(|i| v[i]).collect()
    };
    let on_requests = |v: &[u64]| -> Vec<u64> { requests.iter().map(|&i| v[i]).collect() };
    report.metric("transport.line_self_us", self_us(&tcp, &route.ns), "us");
    report.metric("shard.route_self_us", self_us(&route, &handle.ns), "us");
    report.metric("protocol.line_self_us", self_us(&handle, &reg.op), "us");
    report.metric("protocol.parse_us", us(&on_requests(&reg.parse)), "us");
    report.metric("protocol.encode_us", us(&on_requests(&reg.encode)), "us");
    report.metric(
        "registry.submit_us",
        us(&pick(&reg.op, &|op| matches!(op, Op::Invoke { .. }))),
        "us",
    );
    let drains = pick(&reg.op, &|op| matches!(op, Op::Drain(_) | Op::DrainAll));
    report.metric("registry.drain_row_us", per_row_us(&drains, reg.drain_rows), "us");
    let batch_rows: usize = reg.batches.iter().map(|b| b.rows.len()).sum();
    report.metric("registry.batch_rows", batch_rows as f64 / reg.batches.len() as f64, "count");
    report.metric("registry.admit_share", reg.accepted as f64 / reg.submits as f64, "ratio");
    report.metric(
        "registry.open_ms",
        us(&pick(&reg.op, &|op| matches!(op, Op::Open(_)))) / 1e3,
        "ms",
    );
    let restores = pick(&reg.op, &|op| matches!(op, Op::Restore { .. }));
    if !restores.is_empty() {
        report.note("registry.restore_ms", us(&restores) / 1e3, "ms");
        report.note(
            "snapshot.encode_us",
            us(&pick(&reg.op, &|op| matches!(op, Op::Snapshot(_)))),
            "us",
        );
        report.note("snapshot.bytes", mean(&reg.snapshot_bytes), "bytes");
    }

    let fanout: Vec<f64> = below
        .forward
        .iter()
        .zip(&below.forward_serial)
        .map(|(&p, &s)| (p as f64 - s as f64) / 1e3)
        .collect();
    // A batch that waits on a pool thread's wake-up stalls for far longer
    // than the forward takes; medians over batches keep those stalls out.
    report.metric("parallel.fanout_us", median(&fanout), "us");
    let forward_row: Vec<f64> = below
        .forward
        .iter()
        .zip(&below.rows_per_call)
        .map(|(&ns, &rows)| ns as f64 / 1e3 / rows)
        .collect();
    report.metric("accel.forward_row_us", median(&forward_row), "us");
    report.metric("accel.rows_per_call", mean(&below.rows_per_call), "count");
    report.metric("predict.estimate_row_us", us(&below.estimate), "us");
    let replay_self: Vec<u64> =
        below.replay.iter().zip(&below.estimate).map(|(&r, &e)| r.saturating_sub(e)).collect();
    report.metric("core.replay_row_us", us(&replay_self), "us");
    report.metric("core.fix_share", below.fixes as f64 / below.invocations as f64, "ratio");
    report.note(
        "core.compensate_share",
        below.compensations as f64 / below.invocations as f64,
        "ratio",
    );
    report.metric("core.train_app_warm_ms", us(&below.train_warm) / 1e3, "ms");
    report.metric("core.calibrate_ms", us(&below.calibrate) / 1e3, "ms");
    report.metric(
        "core.cache_hit_share",
        below.cache_hits as f64 / below.train_warm.len() as f64,
        "ratio",
    );
    report.metric("apps.oracle_row_us", us(&below.oracle), "us");

    // The batch `run` path on the workload's kernels at the harness seed
    // (the whole harness path, `Suite::build` included, on `harness`).
    if workload == Workload::Harness {
        let t = Instant::now();
        rumba_bench::Suite::build().map_err(|e| e.to_string())?;
        report.note("core.suite_build_s", t.elapsed().as_secs_f64(), "s");
    }
    let mut totals = crate::harness::RunTotals::default();
    let t = Instant::now();
    for (kernel, _) in training_set(workload) {
        let k = kernel_by_name(kernel).ok_or("unknown kernel")?;
        run_kernel(k.as_ref(), MODEL_SEED, &mut totals)?;
    }
    report.metric("core.run_row_us", t.elapsed().as_secs_f64() * 1e6 / totals.rows as f64, "us");

    report.metric("trace.overhead_ratio", overhead_ratio(&gen, &lines, &body), "ratio");
    report.note("trace.spans", tracer.spans.len() as f64, "count");
    let path = format!(".perfbench_work/trace-{}-{seed}.jsonl", workload.name());
    tracer.write(&path).map_err(|e| format!("writing {path}: {e}"))?;
    println!("{} trace written to {path}", workload.name());
    Ok(())
}
