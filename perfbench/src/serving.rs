//! The three serving workloads (`narrow_tcp`, `wide_stdio`, `churn`):
//! set-up, the timed run, and the timing-free reference replay every run
//! is checked against.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use rumba_obs::json::{parse_object, ObjectExt};
use rumba_serve::protocol::{handle_line, serve_loop};
use rumba_serve::transport::NetServer;
use rumba_serve::ServeRuntime;

use crate::client::Conn;
use crate::script::{
    Generator, Line, Op, Snapshots, Workload, CHURN_PROFILES, NARROW_BLOCK_NS, SHARDS,
};
use crate::stats::{check_digest, median, percentile, Digest};
use crate::{fresh_cache, process_cpu, thread_cpu, train_set, Cpu, CpuWindow, Report, SETUPS};

/// `wide_stdio` blocks per CPU window (about a second of work).
const WIDE_CPU_BLOCKS: usize = 64;

type Res<T> = Result<T, String>;

fn io(context: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Response accounting over one script, from the reference replay.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub error_lines: u64,
    pub shed: u64,
    pub accepted: u64,
    pub results: u64,
    pub error_sum: f64,
    pub processed: u64,
    pub fixes: u64,
    pub compensated: u64,
    /// Invokes submitted per session (a restored session inherits its
    /// source's count at snapshot time).
    sent: HashMap<usize, u64>,
    snapshot_sent: HashMap<usize, u64>,
    pub problems: Vec<String>,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

impl Tally {
    fn observe(&mut self, op: Op, response: &[String]) {
        match op {
            Op::Invoke { session, .. } => *self.sent.entry(session).or_default() += 1,
            Op::Snapshot(s) => {
                let n = self.sent.get(&s).copied().unwrap_or(0);
                self.snapshot_sent.insert(s, n);
            }
            Op::Restore { session, from } => {
                let n = self.snapshot_sent.get(&from).copied().unwrap_or(0);
                self.sent.insert(session, n);
            }
            _ => {}
        }
        for line in response {
            if line.starts_with("{\"type\":\"result\"") {
                self.results += 1;
                self.error_sum +=
                    field(line, "\"error\":").and_then(|v| v.parse().ok()).unwrap_or(f64::NAN);
            } else if line.starts_with("{\"type\":\"ack\",\"op\":\"invoke\"") {
                self.accepted += 1;
            } else if line.starts_with("{\"type\":\"shed\"") {
                self.shed += 1;
            } else if line.starts_with("{\"type\":\"error\"") {
                self.error_lines += 1;
                if self.problems.len() < 5 {
                    self.problems.push(format!("error response: {line}"));
                }
            } else if line.starts_with("{\"type\":\"closed\"") {
                let Ok(obj) = parse_object(line) else { continue };
                let processed = obj.count("processed").unwrap_or(0);
                let shed = obj.count("shed").unwrap_or(0);
                self.processed += processed;
                self.fixes += obj.count("fixes").unwrap_or(0);
                self.compensated += obj.count("compensated").unwrap_or(0);
                if let Op::Close(s) = op {
                    let sent = self.sent.get(&s).copied().unwrap_or(0);
                    if processed + shed != sent {
                        self.problems.push(format!(
                            "session {s}: processed {processed} + shed {shed} != submitted {sent}"
                        ));
                    }
                }
            }
        }
    }

    /// The accounting checks: no error lines, exactly one result line per
    /// accepted invoke, `processed + shed == submitted` per session.
    fn check(&self) -> Vec<String> {
        let mut problems = self.problems.clone();
        if self.results != self.accepted {
            problems.push(format!(
                "{} result lines for {} accepted invokes",
                self.results, self.accepted
            ));
        }
        problems
    }

    /// Mean measured error over result lines.
    #[must_use]
    pub fn mean_error(&self) -> f64 {
        self.error_sum / self.results as f64
    }

    /// CPU re-executions per processed request.
    #[must_use]
    pub fn fix_share(&self) -> f64 {
        self.fixes as f64 / self.processed as f64
    }
}

/// Output of the reference replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub digests: Vec<Digest>,
    pub tally: Tally,
    /// The tally `mean_error` and `fix_share` are read from: the whole
    /// script, except on `churn`, where it stops after the last complete
    /// rotation of profiles so every run weighs the profiles alike.
    pub quality: Tally,
    pub problems: Vec<String>,
}

/// Replays `blocks` blocks of the workload's script (plus prologue and
/// epilogue) through `handle_line` on a fresh in-process runtime, with
/// no timing and no transport: the byte stream each connection must
/// have received.
pub fn reference(workload: Workload, seed: u64, blocks: usize) -> Replay {
    let mut gen = Generator::new(workload, seed);
    let mut rt = ServeRuntime::new();
    let mut replay =
        Replay { digests: vec![Digest::default(); gen.connections()], ..Replay::default() };
    let mut snapshots = Snapshots::default();
    let mut closes: HashMap<usize, Vec<String>> = HashMap::new();
    let mut run = |gen: &Generator, lines: Vec<Line>, replay: &mut Replay| {
        for line in lines {
            let (response, _) = handle_line(&mut rt, &snapshots.text(gen, &line));
            for r in &response {
                replay.digests[line.conn].line(r);
            }
            replay.tally.observe(line.op, &response);
            snapshots.observe(&line, &response);
            if let (Op::Close(s), Workload::Churn) = (line.op, workload) {
                closes.insert(s, response);
            }
        }
    };
    let rotations_end = blocks / CHURN_PROFILES * CHURN_PROFILES;
    run(&gen, gen.prologue(), &mut replay);
    for b in 0..blocks {
        if workload == Workload::Churn && b == rotations_end {
            replay.quality = replay.tally.clone();
        }
        let lines = gen.block(b);
        run(&gen, lines, &mut replay);
    }
    run(&gen, gen.epilogue(), &mut replay);
    if workload != Workload::Churn || blocks == rotations_end {
        replay.quality = replay.tally.clone();
    }
    replay.problems = replay.tally.check();
    if workload == Workload::Churn {
        // Sessions come in (original, restored) pairs fed the same rows
        // after the snapshot: their close groups must match byte for
        // byte once the names are swapped.
        for (k, pair) in gen.sessions.chunks(2).enumerate() {
            let (a, b, ia) = (&pair[0].name, &pair[1].name, 2 * k);
            let got = closes.get(&(ia + 1)).cloned().unwrap_or_default();
            let want: Vec<String> = closes
                .get(&ia)
                .map(|g| {
                    g.iter().map(|l| l.replace(&format!("\"{a}\""), &format!("\"{b}\""))).collect()
                })
                .unwrap_or_default();
            if got.is_empty() || got != want {
                replay
                    .problems
                    .push(format!("restored session {b} diverged from uninterrupted {a}"));
                break;
            }
        }
    }
    replay
}

/// Compares measured per-connection digests with the reference replay
/// and folds the replay's own checks into the report.
fn verify(report: &mut Report, measured: &[Digest], replay: &Replay) {
    for (c, (&got, &want)) in measured.iter().zip(&replay.digests).enumerate() {
        if let Err(e) = check_digest(&format!("connection {c}"), want, got) {
            report.errors.push(e);
        }
    }
    report.errors.extend(replay.problems.iter().cloned());
    report.failed += replay.tally.error_lines + replay.tally.shed;
    report.quality(replay.quality.mean_error(), replay.quality.fix_share());
    let compensate = replay.tally.compensated as f64 / replay.tally.processed as f64;
    report.note("core.compensate_share", compensate, "ratio");
}

/// How the `narrow_tcp` generators pace their sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Each line at its due time: the benchmark's workload.
    OpenLoop,
    /// Each line as soon as fewer than [`CLOSED_LOOP_WINDOW`] requests of
    /// its connection are unanswered, ignoring due times: measures the
    /// rate the program sustains on the same script, connections and
    /// sessions.
    Closed,
}

/// Unanswered requests per connection under [`Pace::Closed`]: enough
/// that the server never waits on the client.
const CLOSED_LOOP_WINDOW: usize = 32;

/// `narrow_tcp`: open-loop traffic over two TCP connections (or, with
/// [`Pace::Closed`], the same script as fast as the program answers).
pub fn narrow(seed: u64, seconds: u64, pace: Pace, report: &mut Report) -> Res<()> {
    let mut gen = Generator::new(Workload::NarrowTcp, seed);
    let mut setup = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        fresh_cache()?;
        let t = Instant::now();
        train_set(Workload::NarrowTcp)?;
        let server = NetServer::bind_tcp("127.0.0.1:0", SHARDS).map_err(io("bind"))?;
        let mut conns = (0..gen.connections())
            .map(|_| Conn::connect(server.addr(), t))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(io("connect"))?;
        for line in gen.prologue() {
            conns[line.conn].call(&line.text).map_err(io("open"))?;
        }
        setup.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            conns[0].call("{\"op\":\"shutdown\"}").map_err(io("shutdown"))?;
            drop(conns);
            server.join().map_err(io("join"))?;
        } else {
            live = Some((server, conns));
        }
    }
    let (server, mut conns) = live.expect("at least one set-up");
    report.attempted += gen.prologue().len() as u64;

    let nblocks = (seconds * 1_000_000_000).div_ceil(NARROW_BLOCK_NS) as usize;
    let blocks: Vec<Vec<Line>> = (0..nblocks).map(|b| gen.block(b)).collect();
    let barrier = Barrier::new(conns.len());
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let logs: Vec<Res<ConnLog>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (blocks, barrier) = (&blocks, &barrier);
                s.spawn(move || drive(c, conn, blocks, barrier, t0, pace))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread")).collect()
    });
    let wall = t0.elapsed().as_secs_f64();

    let mut windows = vec![Vec::new(); seconds as usize + 1];
    let mut block_cpu = Vec::new();
    let mut block_client = vec![Cpu::default(); nblocks];
    let mut late = Vec::new();
    let mut backlog_max = 0;
    let mut requests = 0u64;
    for (conn, log) in conns.iter().zip(logs) {
        let log = log?;
        requests += log.due_ns.len() as u64;
        for (k, &due) in log.due_ns.iter().enumerate() {
            match conn.done_ns.get(k) {
                Some(&done) => windows[(due / 1_000_000_000) as usize]
                    .push(done.saturating_sub(due) as f64 / 1e3),
                None => report.failed += 1,
            }
        }
        late.extend(log.late_us);
        backlog_max = backlog_max.max(log.backlog_max);
        block_cpu.extend(log.block_cpu);
        for (total, client) in block_client.iter_mut().zip(log.block_client) {
            *total = *total + client;
        }
    }
    report.attempted += requests;
    for line in gen.epilogue() {
        conns[line.conn].call(&line.text).map_err(io("close"))?;
        report.attempted += 1;
    }
    let digests: Vec<Digest> = conns.iter().map(|c| c.digest).collect();
    drop(conns);
    server.join().map_err(io("join"))?;

    let tr = Instant::now();
    let replay = reference(Workload::NarrowTcp, seed, nblocks);
    report.note("reference_s", tr.elapsed().as_secs_f64(), "s");
    verify(report, &digests, &replay);
    report.setup(&setup);
    let invokes = |b: &[Line]| b.iter().filter(|l| matches!(l.op, Op::Invoke { .. })).count();
    if pace == Pace::Closed {
        let sent: usize = blocks.iter().map(|b| invokes(b)).sum();
        report.note("capacity_invokes_per_s", sent as f64 / wall, "1/s");
    } else {
        windows.retain(|w| !w.is_empty());
        report.latency_windowed(&windows, 0.99, "req");
    }
    report.rows_per_s(replay.tally.results as f64 / wall);
    // One-second CPU windows: four blocks each; the client threads' own
    // CPU (sleeps, wake-ups, polls, socket calls) is taken out.
    let cpu_windows: Vec<CpuWindow> = (0..nblocks / 4)
        .map(|w| {
            let before = |v: &[Cpu], start: Cpu| if w == 0 { start } else { v[4 * w - 1] };
            let rows: usize = blocks[4 * w..4 * w + 4].iter().map(|b| invokes(b)).sum();
            CpuWindow {
                process: block_cpu[4 * w + 3] - before(&block_cpu, cpu0),
                client: block_client[4 * w + 3] - before(&block_client, Cpu::default()),
                rows: rows as f64,
            }
        })
        .collect();
    report.cpu_per_row(&cpu_windows);
    let late_p99 = percentile(&late, 0.99).unwrap_or(f64::NAN);
    report.note("gen.late_p99_us", late_p99, "us");
    report.note("gen.late_p50_us", median(&late), "us");
    report.note("gen.backlog_max", backlog_max as f64, "count");
    // A generator that sends late makes the server look slower than it
    // is; such a run is flagged, not silently reported.
    if pace == Pace::OpenLoop && (late_p99.is_nan() || late_p99 > GEN_LATE_LIMIT_US) {
        report.flags.push(format!(
            "generator fell behind: lateness p99 {late_p99:.0} us > {GEN_LATE_LIMIT_US} us"
        ));
    }
    Ok(())
}

/// Generator lateness (send time minus due time, p99) beyond which a
/// `narrow_tcp` run is flagged as invalid.
const GEN_LATE_LIMIT_US: f64 = 2000.0;

#[derive(Debug, Default)]
struct ConnLog {
    due_ns: Vec<u64>,
    late_us: Vec<f64>,
    backlog_max: usize,
    /// Process CPU at the end of every block (connection 0).
    block_cpu: Vec<Cpu>,
    /// CPU this connection's sender and reader threads had used at the
    /// end of every block.
    block_client: Vec<Cpu>,
}

/// One generator: a sender that writes its connection's lines as its
/// [`Pace`] says (sleeping until the due time, which is precise to tens
/// of microseconds where a socket read timeout is not), and a reader
/// thread that timestamps every response group as it arrives. At each
/// block end both generators settle and meet at a barrier, connection 0
/// sends the global drain, and they meet again: a global drain sees the
/// same queues as in the reference replay, whatever the timing.
#[allow(clippy::too_many_lines)]
fn drive(
    c: usize,
    conn: &mut Conn,
    blocks: &[Vec<Line>],
    barrier: &Barrier,
    t0: Instant,
    pace: Pace,
) -> Res<ConnLog> {
    conn.restart(t0);
    let mut writer = conn.writer().map_err(io("clone socket"))?;
    let completed = AtomicUsize::new(0);
    let target = AtomicUsize::new(usize::MAX);
    let reader_failed = AtomicBool::new(false);
    // The reader's thread CPU after its latest read.
    let reader_cpu = Mutex::new(Cpu::default());
    let now = || t0.elapsed().as_nanos() as u64;
    let outcome = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            while conn.completed < target.load(Ordering::Acquire) {
                let read = conn.pump(Some(READER_POLL));
                *reader_cpu.lock().expect("reader CPU") = thread_cpu();
                if let Err(e) = read {
                    reader_failed.store(true, Ordering::Release);
                    return Err(format!("connection {c}: {e}"));
                }
                completed.store(conn.completed, Ordering::Release);
            }
            Ok(())
        });
        let mut log = ConnLog::default();
        let mut failure: Option<String> = None;
        let mut sent = 0usize;
        let release_ns = std::cell::Cell::new(0u64);
        // Waits until at most `limit` requests are unanswered.
        let wait_until = |limit: usize, sent: usize| -> std::io::Result<()> {
            while sent - completed.load(Ordering::Acquire) > limit {
                if reader_failed.load(Ordering::Acquire) {
                    return Err(std::io::Error::other("reader failed"));
                }
                std::thread::sleep(Duration::from_micros(20));
            }
            Ok(())
        };
        let mut send = |line: &Line, log: &mut ConnLog, sent: &mut usize| -> std::io::Result<()> {
            let due = line.due_ns;
            match pace {
                Pace::OpenLoop => {
                    let t = now();
                    if t < due {
                        std::thread::sleep(Duration::from_nanos(due - t));
                    }
                    let at = now();
                    if due >= release_ns.get() {
                        log.late_us.push(at.saturating_sub(due) as f64 / 1e3);
                    }
                }
                Pace::Closed => wait_until(CLOSED_LOOP_WINDOW - 1, *sent)?,
            }
            log.due_ns.push(due);
            writer.write_all(&line.wire())?;
            *sent += 1;
            log.backlog_max = log.backlog_max.max(*sent - completed.load(Ordering::Acquire));
            Ok(())
        };
        for block in blocks {
            if failure.is_none() {
                let step = (|| -> std::io::Result<()> {
                    for line in block.iter().filter(|l| l.conn == c && l.op != Op::DrainAll) {
                        send(line, &mut log, &mut sent)?;
                    }
                    wait_until(0, sent)
                })();
                if let Err(e) = step {
                    failure = Some(format!("connection {c}: {e}"));
                }
            }
            barrier.wait();
            if c == 0 && failure.is_none() {
                let drain = block.last().expect("blocks end with a global drain");
                if let Err(e) = send(drain, &mut log, &mut sent).and_then(|()| wait_until(0, sent))
                {
                    failure = Some(format!("connection {c}: {e}"));
                }
            }
            barrier.wait();
            release_ns.set(now());
            if c == 0 {
                log.block_cpu.push(process_cpu());
            }
            let reader = *reader_cpu.lock().expect("reader CPU");
            log.block_client.push(thread_cpu() + reader);
        }
        target.store(sent, Ordering::Release);
        let read = reader.join().expect("reader thread");
        match (failure, read) {
            (Some(e), _) | (None, Err(e)) => Err(e),
            (None, Ok(())) => Ok(log),
        }
    });
    // Requests went out through the cloned writer; every one is answered.
    conn.sent = conn.completed;
    outcome
}

/// How often a blocked reader wakes to check whether its sender is done.
const READER_POLL: Duration = Duration::from_millis(5);

/// In-memory writer for `serve_loop`: keeps every byte for the digest
/// (folded in by [`Recorder::settle`], outside the CPU window) and
/// timestamps every flush (the loop flushes once per request).
struct Recorder {
    digest: Digest,
    pending: Vec<u8>,
    flushes: Vec<u64>,
    epoch: Instant,
    timing: bool,
}

impl Recorder {
    fn new(epoch: Instant) -> Self {
        Self {
            digest: Digest::default(),
            pending: Vec::new(),
            flushes: Vec::new(),
            epoch,
            timing: false,
        }
    }

    /// Folds the bytes written so far into the digest.
    fn settle(&mut self) -> Digest {
        self.digest.update(&self.pending);
        self.pending.clear();
        self.digest
    }
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.timing {
            self.flushes.push(self.epoch.elapsed().as_nanos() as u64);
        }
        Ok(())
    }
}

fn script_bytes(lines: &[Line]) -> Vec<u8> {
    lines.iter().flat_map(Line::wire).collect()
}

/// `wide_stdio`: the `rumba serve` stdin loop over an in-memory script,
/// closed loop.
pub fn wide(seed: u64, seconds: u64, report: &mut Report) -> Res<()> {
    let mut gen = Generator::new(Workload::WideStdio, seed);
    let prologue = script_bytes(&gen.prologue());
    let mut setup = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        fresh_cache()?;
        let t = Instant::now();
        train_set(Workload::WideStdio)?;
        let mut rt = ServeRuntime::new();
        let mut rec = Recorder::new(t);
        serve_loop(&mut rt, prologue.as_slice(), &mut rec).map_err(io("open"))?;
        setup.push(t.elapsed().as_secs_f64());
        live = Some((rt, rec));
    }
    let (mut rt, mut rec) = live.expect("at least one set-up");
    report.attempted += gen.prologue().len() as u64;

    let mut busy = Duration::ZERO;
    let mut block_s = Vec::new();
    let mut cpu_windows = Vec::new();
    let mut latencies = Vec::new();
    let mut blocks = 0;
    let mut rows = 0u64;
    while busy < Duration::from_secs(seconds) {
        // A CPU window of WIDE_CPU_BLOCKS blocks (about a second), its
        // script generated first so the clock reads bracket only the
        // program's work.
        let window: Vec<(Vec<u8>, usize, usize)> = (blocks..blocks + WIDE_CPU_BLOCKS)
            .map(|b| {
                let lines = gen.block(b);
                let invokes = lines.iter().filter(|l| matches!(l.op, Op::Invoke { .. })).count();
                (script_bytes(&lines), invokes, lines.len())
            })
            .collect();
        let (cpu0, mut window_rows) = (process_cpu(), 0.0);
        for (bytes, block_rows, nlines) in &window {
            rec.flushes.clear();
            rec.timing = true;
            rec.epoch = Instant::now();
            serve_loop(&mut rt, bytes.as_slice(), &mut rec).map_err(io("serve"))?;
            let dt = rec.epoch.elapsed();
            rec.timing = false;
            busy += dt;
            block_s.push(dt.as_secs_f64());
            let mut prev = 0;
            for &f in &rec.flushes {
                latencies.push((f - prev) as f64 / 1e3);
                prev = f;
            }
            window_rows += *block_rows as f64;
            rows += *block_rows as u64;
            report.attempted += *nlines as u64;
            blocks += 1;
        }
        cpu_windows.push(CpuWindow {
            process: process_cpu() - cpu0,
            rows: window_rows,
            ..CpuWindow::default()
        });
        rec.settle();
    }
    let epilogue = gen.epilogue();
    report.attempted += epilogue.len() as u64;
    serve_loop(&mut rt, script_bytes(&epilogue).as_slice(), &mut rec).map_err(io("close"))?;

    let replay = reference(Workload::WideStdio, seed, blocks);
    verify(report, &[rec.settle()], &replay);
    report.setup(&setup);
    report.latency(&latencies, 0.99, "req");
    // Every block carries the same rows, so the median block time gives
    // the rate without the few blocks a scheduler stall stretched.
    report.rows_per_s(rows as f64 / blocks as f64 / median(&block_s));
    report.note("rows_per_s_mean", rows as f64 / busy.as_secs_f64(), "rows/s");
    report.cpu_per_row(&cpu_windows);
    report.note("blocks", blocks as f64, "count");
    Ok(())
}

/// `churn`: session lifecycles over one lockstep TCP connection.
pub fn churn(seed: u64, seconds: u64, report: &mut Report) -> Res<()> {
    let mut gen = Generator::new(Workload::Churn, seed);
    let mut setup = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        fresh_cache()?;
        let t = Instant::now();
        train_set(Workload::Churn)?;
        let server = NetServer::bind_tcp("127.0.0.1:0", SHARDS).map_err(io("bind"))?;
        let conn = Conn::connect(server.addr(), t).map_err(io("connect"))?;
        setup.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            let mut conn = conn;
            conn.call("{\"op\":\"shutdown\"}").map_err(io("shutdown"))?;
            drop(conn);
            server.join().map_err(io("join"))?;
        } else {
            live = Some((server, conn));
        }
    }
    let (server, mut conn) = live.expect("at least one set-up");

    let mut snapshots = Snapshots::default();
    let (mut opens, mut restores, mut snapshot_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut busy = Duration::ZERO;
    let mut rows = 0u64;
    let mut blocks = 0;
    // Lockstep time of each lifecycle, by rotation profile.
    let mut cycle_s: Vec<Vec<f64>> = vec![Vec::new(); CHURN_PROFILES];
    // CPU windows: one rotation of profiles each. This thread is the
    // client; the program runs on the server's threads.
    let mut cpu_windows = Vec::new();
    let (mut process0, mut client0, mut window_rows) = (process_cpu(), thread_cpu(), 0.0);
    let start = Instant::now();
    while blocks < CHURN_PROFILES || start.elapsed() < Duration::from_secs(seconds) {
        let cycle = busy;
        for line in gen.block(blocks) {
            let text = snapshots.text(&gen, &line);
            let t = Instant::now();
            let response = conn.call(&text).map_err(io("lifecycle"))?;
            let dt = t.elapsed();
            busy += dt;
            report.attempted += 1;
            let results = response.iter().filter(|l| l.starts_with("{\"type\":\"result\"")).count();
            rows += results as u64;
            window_rows += results as f64;
            match line.op {
                Op::Open(_) => opens.push(dt.as_secs_f64() * 1e3),
                Op::Restore { .. } => restores.push(dt.as_secs_f64() * 1e3),
                _ => {}
            }
            if let Some(state) = snapshots.observe(&line, &response) {
                snapshot_bytes.push(state.len() as f64);
            }
        }
        cycle_s[blocks % CHURN_PROFILES].push((busy - cycle).as_secs_f64());
        blocks += 1;
        if blocks % CHURN_PROFILES == 0 {
            let (process, client) = (process_cpu(), thread_cpu());
            cpu_windows.push(CpuWindow {
                process: process - process0,
                client: client - client0,
                rows: window_rows,
            });
            (process0, client0, window_rows) = (process, client, 0.0);
        }
    }
    for line in gen.epilogue() {
        conn.call(&line.text).map_err(io("shutdown"))?;
        report.attempted += 1;
    }
    let digest = conn.digest;
    drop(conn);
    server.join().map_err(io("join"))?;

    let replay = reference(Workload::Churn, seed, blocks);
    verify(report, &[digest], &replay);
    report.setup(&setup);
    let placements: Vec<f64> = opens.iter().chain(&restores).map(|ms| ms * 1e3).collect();
    report.latency(&placements, 0.90, "placement");
    // Every lifecycle returns the same number of rows; the rate is taken
    // from each profile's median lifecycle, so a stalled lifecycle does
    // not move it and the kernel mix is the same whatever the run length.
    let per_cycle = rows as f64 / blocks as f64;
    let rotation_s: f64 = cycle_s.iter().map(|c| median(c)).sum();
    report.rows_per_s(per_cycle * CHURN_PROFILES as f64 / rotation_s);
    report.note("rows_per_s_mean", rows as f64 / busy.as_secs_f64(), "rows/s");
    report.cpu_per_row(&cpu_windows);
    for (name, samples) in [("open", &opens), ("restore", &restores)] {
        report.note(&format!("{name}_p50_ms"), median(samples), "ms");
        report.note(&format!("{name}_p90_ms"), percentile(samples, 0.90).unwrap_or(f64::NAN), "ms");
        report.note(&format!("{name}_samples"), samples.len() as f64, "count");
    }
    report.note("snapshot.bytes", crate::stats::mean(&snapshot_bytes), "bytes");
    report.note("lifecycles", blocks as f64, "count");
    Ok(())
}
