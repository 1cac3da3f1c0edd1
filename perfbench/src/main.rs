//! The repository benchmark: one command, four workloads, end-to-end
//! metrics with tracing off and a per-layer split with `--trace 1`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload narrow_tcp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`); the
//! lines before it print every metric by name with its unit, the
//! machine facts, and any flags. See `perfbench/README.md` for why each
//! workload exists and which layers it loads.

mod client;
mod harness;
mod script;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use rumba_apps::kernel_by_name;
use rumba_core::trainer::{nn_params_for, train_app, OfflineConfig};
use rumba_core::zoo::train_zoo;

use crate::script::{training_set, Workload, MODEL_SEED};
use crate::stats::{median, percentile};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Work directory (under the current directory): the model cache and
/// trace files.
const WORK_DIR: &str = ".perfbench_work";

fn cache_dir() -> PathBuf {
    PathBuf::from(WORK_DIR).join("cache")
}

/// Empties the benchmark's model cache, so the next set-up trains from
/// scratch and nothing trained by another commit leaks in.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn fresh_cache() -> Result<(), String> {
    let dir = cache_dir();
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Cold training time of one kernel (and its zoo, if any), in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Trained {
    pub kernel: &'static str,
    pub train_s: f64,
    pub zoo_s: Option<f64>,
}

/// Trains the workload's kernels and zoo tiers into the model cache, the
/// kernels fanned out over the worker pool.
///
/// # Errors
///
/// Propagates training failures.
pub fn train_set(workload: Workload) -> Result<Vec<Trained>, String> {
    let mut set = training_set(workload);
    // Longest first (by epochs), so the pool never starts the longest
    // training last: set-up time then does not depend on which worker
    // happened to pick up which kernel.
    set.sort_by_key(|&(kernel, _)| {
        std::cmp::Reverse(kernel_by_name(kernel).map_or(0, |k| nn_params_for(k.as_ref()).epochs))
    });
    rumba_parallel::par_map_indexed(&set, |_, &(kernel, zoo)| {
        let k = kernel_by_name(kernel).ok_or_else(|| format!("unknown kernel {kernel}"))?;
        let cfg = OfflineConfig { seed: MODEL_SEED, ..OfflineConfig::default() };
        let t = Instant::now();
        let app = train_app(k.as_ref(), &cfg).map_err(|e| format!("training {kernel}: {e}"))?;
        let train_s = t.elapsed().as_secs_f64();
        let zoo_s = if zoo > 0 {
            let t = Instant::now();
            train_zoo(k.as_ref(), &app, &cfg, zoo).map_err(|e| format!("zoo {kernel}: {e}"))?;
            Some(t.elapsed().as_secs_f64())
        } else {
            None
        };
        Ok(Trained { kernel, train_s, zoo_s })
    })
    .into_iter()
    .collect()
}

/// CPU spent over one window of a timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuWindow {
    /// The whole process, every thread.
    pub process: Cpu,
    /// The benchmark's own client threads within it.
    pub client: Cpu,
    /// Rows served.
    pub rows: f64,
}

/// One run's result: the contract metrics, extra named figures, flags,
/// and the correctness verdict.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run report as
    /// failed instead of reporting its timings.
    pub errors: Vec<String>,
    /// Validity warnings (the run's numbers are suspect, not wrong).
    pub flags: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a metric that goes into the JSON result.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a figure printed for people but kept out of the JSON.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.to_owned(), value, unit));
    }

    /// `setup_s`: median over the run's set-ups.
    pub fn setup(&mut self, samples: &[f64]) {
        self.metric("setup_s", median(samples), "s");
        self.note("setup_samples", samples.len() as f64, "count");
    }

    /// `latency_p50_us` and `latency_tail_us` (the `tail` quantile; NaN
    /// when fewer than ten samples lie beyond it).
    pub fn latency(&mut self, samples_us: &[f64], tail: f64, what: &str) {
        self.note("latency_p50_us", median(samples_us), "us");
        self.note("latency_tail_us", percentile(samples_us, tail).unwrap_or(f64::NAN), "us");
        self.note(&format!("{what}_samples"), samples_us.len() as f64, "count");
        self.note("tail_quantile", tail, "ratio");
    }

    /// `latency_p50_us` and `latency_tail_us` as medians over one-second
    /// windows of the run, so a scheduler stall moves one window's figure
    /// rather than the run's; the whole-run quantiles are printed too.
    pub fn latency_windowed(&mut self, windows: &[Vec<f64>], tail: f64, what: &str) {
        let p50s: Vec<f64> = windows.iter().map(|w| median(w)).collect();
        let tails: Vec<f64> = windows.iter().filter_map(|w| percentile(w, tail)).collect();
        self.note("latency_p50_us", median(&p50s), "us");
        self.note("latency_tail_us", median(&tails), "us");
        let all = windows.concat();
        for q in [0.5, 0.9, 0.99] {
            if let Some(v) = percentile(&all, q) {
                self.note(&format!("{what}_p{:.0}_us", q * 100.0), v, "us");
            }
        }
        self.note(&format!("{what}_samples"), all.len() as f64, "count");
        self.note("tail_quantile", tail, "ratio");
    }

    /// `user_cpu_us_per_row`: user-mode CPU time the program spent per
    /// row, from windows of the timed phase (each about a second long);
    /// the median over windows, so a window the host slowed moves one
    /// sample rather than the figure. Printed too: the same with system
    /// time (`cpu_us_per_row`), whose system part follows the host's
    /// wake-up costs (see the README), the whole-run ratio, and the share
    /// of process CPU the benchmark's own client threads used (taken
    /// out).
    pub fn cpu_per_row(&mut self, windows: &[CpuWindow]) {
        let per_row = |f: fn(Cpu) -> f64| -> f64 {
            median(
                &windows.iter().map(|w| f(w.process - w.client) * 1e6 / w.rows).collect::<Vec<_>>(),
            )
        };
        self.metric("user_cpu_us_per_row", per_row(|c| c.user), "us");
        self.note("cpu_us_per_row", per_row(|c| c.total), "us");
        let (process, client, rows) =
            windows.iter().fold((Cpu::default(), Cpu::default(), 0.0), |(p, c, r), w| {
                (p + w.process, c + w.client, r + w.rows)
            });
        self.note("cpu_us_per_row_whole_run", (process - client).total * 1e6 / rows, "us");
        self.note("client_cpu_share", client.total / process.total, "ratio");
        self.note("cpu_windows", windows.len() as f64, "count");
    }

    /// `rows_per_s` (printed; wall-clock rates do not repeat within the
    /// bounds on a shared machine, see the README).
    pub fn rows_per_s(&mut self, value: f64) {
        self.note("rows_per_s", value, "rows/s");
    }

    /// `mean_error` and `fix_share`.
    pub fn quality(&mut self, mean_error: f64, fix_share: f64) {
        self.metric("mean_error", mean_error, "ratio");
        self.metric("fix_share", fix_share, "ratio");
    }

    fn print(&self, workload: &str) -> String {
        let mut errors = self.errors.clone();
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                errors.push(format!("metric {name} is {value}"));
            }
        }
        for (name, value, unit) in self.notes.iter().chain(&self.metrics) {
            println!("{workload} {name} = {value} {unit}");
        }
        for flag in &self.flags {
            println!("{workload} FLAG {flag}");
            eprintln!("warning: {flag}");
        }
        for e in &errors {
            println!("{workload} CHECK FAILED {e}");
            eprintln!("check failed: {e}");
        }
        let correct = errors.is_empty();
        let metrics: Vec<String> = if correct {
            self.metrics
                .iter()
                .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
                .collect()
        } else {
            Vec::new()
        };
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// CPU time used, in seconds: in user mode, and in total (user plus
/// system).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    pub user: f64,
    pub total: f64,
}

impl std::ops::Add for Cpu {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Self { user: self.user + o.user, total: self.total + o.total }
    }
}

impl std::ops::Sub for Cpu {
    type Output = Self;
    fn sub(self, o: Self) -> Self {
        Self { user: self.user - o.user, total: self.total - o.total }
    }
}

#[repr(C)]
struct Timeval {
    sec: std::os::raw::c_long,
    usec: std::os::raw::c_long,
}

/// Linux `struct rusage`: the two times, then fourteen counters.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [std::os::raw::c_long; 14],
}

extern "C" {
    fn getrusage(who: std::os::raw::c_int, usage: *mut Rusage) -> std::os::raw::c_int;
}

/// Linux `RUSAGE_SELF` and `RUSAGE_THREAD`.
const RUSAGE_SELF: std::os::raw::c_int = 0;
const RUSAGE_THREAD: std::os::raw::c_int = 1;

fn rusage(who: std::os::raw::c_int) -> Cpu {
    let zero = || Timeval { sec: 0, usec: 0 };
    let mut usage = Rusage { utime: zero(), stime: zero(), counters: [0; 14] };
    // SAFETY: `usage` is a valid, writable `struct rusage`, and both
    // `who` values exist on every Linux the benchmark runs on.
    if unsafe { getrusage(who, &mut usage) } != 0 {
        return Cpu { user: f64::NAN, total: f64::NAN };
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    let user = secs(&usage.utime);
    Cpu { user, total: user + secs(&usage.stime) }
}

/// CPU time this process has used, all threads, those already ended
/// included. The total is the scheduler's run time, to the microsecond
/// (the clock ticks of `/proc/self/stat` are 10 ms, as long as a whole
/// `wide_stdio` block); the kernel splits it into user and system time
/// by tick samples.
#[must_use]
pub fn process_cpu() -> Cpu {
    rusage(RUSAGE_SELF)
}

/// CPU time the calling thread has used: what the benchmark's own client
/// threads cost, to take out of [`process_cpu`].
#[must_use]
pub fn thread_cpu() -> Cpu {
    rusage(RUSAGE_THREAD)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git
/// (`unknown` outside a repository).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(PathBuf::from(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".to_owned() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_owned() };
    if let Some(rev) = read(reference) {
        return rev.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find(|l| l.ends_with(reference)).map(|l| l[..40.min(l.len())].to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    pace: serving::Pace,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    let mut pace = serving::Pace::OpenLoop;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--closed-loop" => {
                pace = if number()? != 0 { serving::Pace::Closed } else { serving::Pace::OpenLoop };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or(
        "usage: --workload narrow_tcp|wide_stdio|churn|harness [--seed N] [--seconds S] \
         [--trace 0|1] [--closed-loop 0|1 (narrow_tcp)]",
    )?;
    if pace != serving::Pace::OpenLoop && (workload != Workload::NarrowTcp || trace) {
        return Err("--closed-loop applies to untraced narrow_tcp runs only".to_owned());
    }
    Ok(Args { workload, seed, seconds, trace, pace })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Before any thread exists: the model cache is the benchmark's own,
    // telemetry is off, and the pool and SIMD dispatch are at the
    // defaults `rumba serve` users get.
    std::env::set_var("RUMBA_CACHE_DIR", cache_dir());
    for var in ["RUMBA_METRICS_OUT", "RUMBA_CACHE", "RUMBA_THREADS", "RUMBA_SIMD"] {
        std::env::remove_var(var);
    }
    let name = args.workload.name();
    println!(
        "{name} facts nproc={} isa={} simd={:?} pool={} rev={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(0, usize::from),
        rumba_nn::active_isa().name(),
        rumba_nn::simd_mode(),
        rumba_parallel::max_threads(),
        git_rev(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let mut report = Report::default();
    let outcome = if args.trace {
        trace::run(args.workload, args.seed, &mut report)
    } else {
        match args.workload {
            Workload::NarrowTcp => serving::narrow(args.seed, args.seconds, args.pace, &mut report),
            Workload::WideStdio => serving::wide(args.seed, args.seconds, &mut report),
            Workload::Churn => serving::churn(args.seed, args.seconds, &mut report),
            Workload::Harness => harness::run(args.seconds, &mut report),
        }
    };
    if let Err(e) = outcome {
        report.errors.push(e);
        report.failed += 1;
    }
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => report.note("peak_rss_mb", mb, "MB"),
            None => report.errors.push("cannot read peak RSS".to_owned()),
        }
    }
    let _ = std::fs::remove_dir_all(cache_dir());
    println!("{}", report.print(name));
}
