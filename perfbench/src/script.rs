//! Seeded request scripts. Every line the program receives is generated
//! here from `--seed`, block by block, so a block is a pure function of
//! `(workload, seed, block index)`: the timed run, the reference replay
//! and the traced replay all see the same bytes.

use std::collections::HashMap;

use rumba_apps::{kernel_by_name, Split};
use rumba_core::runtime::{FixPolicy, WatchdogConfig};
use rumba_core::tuner::TuningMode;
use rumba_faults::FaultPlan;
use rumba_nn::NnDataset;
use rumba_obs::json::{parse_object, JsonWriter, ObjectExt};
use rumba_serve::shard::shard_of;
use rumba_serve::{AdmissionPolicy, CheckerKind, SessionConfig};

use crate::stats::Rng;

/// Seed every session trains its models with. Fixed (the figure
/// harness's seed), so every run trains the same models and `--seed`
/// moves only the traffic; it also lets the harness and the serving
/// workloads share cache entries.
pub const MODEL_SEED: u64 = 42;

/// Shards behind the TCP server (and the in-process router replay).
pub const SHARDS: usize = 2;

/// Length of one `narrow_tcp` schedule block; each block ends with a
/// global `drain`.
pub const NARROW_BLOCK_NS: u64 = 250_000_000;

/// `narrow_tcp` offered load, in invokes per second over both
/// connections (per-session drains ride on top, one per four invokes):
/// about half of what the program sustains on the same script closed
/// loop (`--closed-loop 1`; the measurement is in `BASELINE.json`).
pub const NARROW_RATE: f64 = 6000.0;

/// Invokes per session between global drains on the closed-loop block
/// workloads (`wide_stdio` and the harness's serving replay).
pub const WIDE_BLOCK_INVOKES: usize = 64;

/// Profiles in the `churn` rotation.
pub const CHURN_PROFILES: usize = 8;

/// Invokes per phase of one `churn` lifecycle.
pub const CHURN_INVOKES: usize = 16;

/// Tuning mode of a session, in protocol terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Target output quality.
    Toq(f64),
    /// Re-execution budget per window.
    Energy(u64),
}

/// One session's opening configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    pub name: String,
    pub kernel: &'static str,
    pub checker: &'static str,
    pub mode: Mode,
    pub window: usize,
    pub queue: usize,
    pub block: bool,
    /// Compensation band (`fix:compensate`), if armed.
    pub band: Option<f64>,
    pub zoo: usize,
    /// Online checker re-fit (arms the watchdog too).
    pub refit: bool,
    pub faults: Option<&'static str>,
}

impl SessionSpec {
    fn new(name: &str, kernel: &'static str, checker: &'static str, mode: Mode) -> Self {
        Self {
            name: name.to_owned(),
            kernel,
            checker,
            mode,
            window: 32,
            queue: 8,
            block: false,
            band: None,
            zoo: 0,
            refit: false,
            faults: None,
        }
    }

    /// The protocol `open` line.
    #[must_use]
    pub fn open_line(&self) -> String {
        let mut w = JsonWriter::object("request");
        w.string("op", "open")
            .string("session", &self.name)
            .string("kernel", self.kernel)
            .count("seed", MODEL_SEED)
            .string("checker", self.checker);
        match self.mode {
            Mode::Toq(toq) => w.string("mode", "toq").float("toq", toq),
            Mode::Energy(budget) => w.string("mode", "energy").count("budget", budget),
        };
        w.count("window", self.window as u64)
            .count("queue", self.queue as u64)
            .string("admission", if self.block { "block" } else { "shed" });
        if let Some(faults) = self.faults {
            w.string("faults", faults).count("fault_seed", MODEL_SEED);
        }
        if self.refit {
            w.boolean("watchdog", true).boolean("refit", true);
        }
        if let Some(band) = self.band {
            w.string("fix", "compensate").float("band", band);
        }
        if self.zoo > 0 {
            w.count("zoo", self.zoo as u64);
        }
        strip_tag(&w.finish())
    }

    /// The same configuration as a [`SessionConfig`], for replays that
    /// call `ServeRuntime::open` directly.
    #[must_use]
    pub fn config(&self) -> SessionConfig {
        let mut config = SessionConfig {
            kernel: self.kernel.to_owned(),
            seed: MODEL_SEED,
            checker: CheckerKind::parse(self.checker).expect("script checkers are valid"),
            mode: self.tuning(),
            window: self.window,
            admission: if self.block { AdmissionPolicy::Block } else { AdmissionPolicy::Shed },
            zoo: self.zoo,
            refit: self.refit,
            ..SessionConfig::default()
        };
        config.queue.input_capacity = self.queue;
        if let Some(spec) = self.faults {
            config.faults = Some(FaultPlan::parse(MODEL_SEED, spec).expect("script faults parse"));
        }
        if self.refit {
            config.watchdog = Some(WatchdogConfig::default());
        }
        if let Some(band) = self.band {
            config.fix_policy = FixPolicy::Compensate { band };
        }
        config
    }

    /// The tuner mode.
    #[must_use]
    pub fn tuning(&self) -> TuningMode {
        match self.mode {
            Mode::Toq(toq) => TuningMode::TargetQuality { toq },
            Mode::Energy(budget) => TuningMode::EnergyBudget { budget: budget as usize },
        }
    }
}

fn strip_tag(line: &str) -> String {
    line.replacen("\"type\":\"request\",", "", 1)
}

/// What a script line asks for (sessions by index into
/// [`Generator::sessions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Open(usize),
    Invoke {
        session: usize,
        kernel_row: usize,
    },
    Drain(usize),
    DrainAll,
    Snapshot(usize),
    /// Restore `from`'s latest snapshot as `session`.
    Restore {
        session: usize,
        from: usize,
    },
    Close(usize),
    Shutdown,
}

/// One request line. `due_ns` (open-loop schedules only) is the send time
/// relative to the start of the timed phase. `text` is empty for
/// `Restore`, whose payload is the snapshot returned at run time.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub conn: usize,
    pub due_ns: u64,
    pub op: Op,
    pub text: String,
}

/// A request as written to a socket or stdin, newline included.
#[must_use]
pub fn wire(text: &str) -> Vec<u8> {
    let mut wire = Vec::with_capacity(text.len() + 1);
    wire.extend_from_slice(text.as_bytes());
    wire.push(b'\n');
    wire
}

impl Line {
    /// The line as written to a socket, newline included.
    #[must_use]
    pub fn wire(&self) -> Vec<u8> {
        wire(&self.text)
    }

    /// Whether this line is part of the timed request traffic (not a
    /// session open, restore or teardown).
    #[must_use]
    pub fn is_request(&self) -> bool {
        matches!(self.op, Op::Invoke { .. } | Op::Drain(_) | Op::DrainAll)
    }
}

/// Renders a `restore` line from a snapshot payload.
fn restore_line(name: &str, state: &str) -> String {
    let mut w = JsonWriter::object("request");
    w.string("op", "restore").string("session", name).string("state", state);
    strip_tag(&w.finish())
}

/// The snapshots a script run has taken so far, by session, which the
/// script's `restore` lines carry.
#[derive(Debug, Default)]
pub struct Snapshots(HashMap<usize, String>);

impl Snapshots {
    /// The text a script line sends: its own, or for a restore the
    /// snapshot its source session returned.
    #[must_use]
    pub fn text(&self, gen: &Generator, line: &Line) -> String {
        match line.op {
            Op::Restore { session, from } => restore_line(
                &gen.sessions[session].name,
                self.0.get(&from).map_or("", String::as_str),
            ),
            _ => line.text.clone(),
        }
    }

    /// Keeps the state a `snapshot` line's response carries; returns it.
    pub fn observe(&mut self, line: &Line, response: &[String]) -> Option<&str> {
        let Op::Snapshot(s) = line.op else { return None };
        let state = response
            .first()
            .and_then(|r| parse_object(r).ok())
            .and_then(|o| o.string("state").map(str::to_owned));
        self.0.insert(s, state.unwrap_or_default());
        self.0.get(&s).map(String::as_str)
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NarrowTcp,
    WideStdio,
    Churn,
    Harness,
}

impl Workload {
    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "narrow_tcp" => Some(Self::NarrowTcp),
            "wide_stdio" => Some(Self::WideStdio),
            "churn" => Some(Self::Churn),
            "harness" => Some(Self::Harness),
            _ => None,
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::NarrowTcp => "narrow_tcp",
            Self::WideStdio => "wide_stdio",
            Self::Churn => "churn",
            Self::Harness => "harness",
        }
    }
}

/// Long-lived `narrow_tcp` sessions: the five narrow kernels, the three
/// checkers, both tuning families and both admission policies, with one
/// session per opt-in lever. Session `i` talks over connection `i % 2`.
fn narrow_sessions() -> Vec<SessionSpec> {
    let toq = Mode::Toq(0.9);
    let mut s = vec![
        SessionSpec::new("n-gaussian-lin", "gaussian", "linear", toq),
        SessionSpec::new("n-fft-energy", "fft", "tree", Mode::Energy(8)),
        SessionSpec::new("n-ik2j-ema", "inversek2j", "ema", toq),
        SessionSpec::new("n-bs-comp", "blackscholes", "tree", Mode::Toq(0.97)),
        SessionSpec::new("n-sobel-lin", "sobel", "linear", toq),
        SessionSpec::new("n-gaussian-zoo", "gaussian", "tree", toq),
        SessionSpec::new("n-fft-refit", "fft", "linear", toq),
        SessionSpec::new("n-ik2j-faults", "inversek2j", "tree", Mode::Energy(8)),
    ];
    // A queue of 3 under `block` forces one blocking drain per four
    // invokes: the block path runs, and nothing is shed.
    s[3].block = true;
    s[3].queue = 3;
    s[3].band = Some(0.3);
    s[5].zoo = 2;
    s[6].refit = true;
    s[7].faults = Some("non_finite=0.01");
    s
}

/// `wide_stdio` sessions: the two wide kernels, two checkers each.
fn wide_sessions() -> Vec<SessionSpec> {
    let toq = Mode::Toq(0.9);
    let mut s = vec![
        SessionSpec::new("w-jpeg-tree", "jpeg", "tree", toq),
        SessionSpec::new("w-jpeg-lin", "jpeg", "linear", Mode::Energy(16)),
        SessionSpec::new("w-jmeint-tree", "jmeint", "tree", toq),
        SessionSpec::new("w-jmeint-ema", "jmeint", "ema", toq),
    ];
    for spec in &mut s {
        spec.window = 64;
        spec.queue = WIDE_BLOCK_INVOKES;
    }
    s
}

/// The harness's serving replay (traced runs only): one session per
/// Table-1 kernel at the `rumba run` operating point, so the batch `run`
/// path and the serving path can be compared on the same kernels.
fn harness_sessions() -> Vec<SessionSpec> {
    rumba_apps::all_kernels()
        .iter()
        .map(|k| {
            let mut spec =
                SessionSpec::new(&format!("h-{}", k.name()), k.name(), "tree", Mode::Toq(0.9));
            spec.window = 64;
            spec.queue = WIDE_BLOCK_INVOKES;
            spec
        })
        .collect()
}

/// The `churn` rotation: kernels × levers. Lifecycle `b` opens profile
/// `b % CHURN_PROFILES`.
fn churn_profile(i: usize) -> SessionSpec {
    let toq = Mode::Toq(0.9);
    let mut spec = match i % CHURN_PROFILES {
        0 => SessionSpec::new("", "gaussian", "tree", toq),
        1 => SessionSpec::new("", "fft", "linear", Mode::Toq(0.97)),
        2 => SessionSpec::new("", "inversek2j", "tree", toq),
        3 => SessionSpec::new("", "blackscholes", "ema", toq),
        4 => SessionSpec::new("", "gaussian", "linear", toq),
        5 => SessionSpec::new("", "fft", "tree", Mode::Energy(8)),
        6 => SessionSpec::new("", "jmeint", "tree", toq),
        _ => SessionSpec::new("", "sobel", "tree", toq),
    };
    match i % CHURN_PROFILES {
        1 => spec.band = Some(0.3),
        2 => spec.zoo = 2,
        4 => spec.refit = true,
        5 => spec.faults = Some("non_finite=0.01"),
        _ => {}
    }
    spec.queue = CHURN_INVOKES;
    spec
}

/// Kernels a workload trains at set-up, and how many zoo tiers each.
#[must_use]
pub fn training_set(workload: Workload) -> Vec<(&'static str, usize)> {
    let specs: Vec<SessionSpec> = match workload {
        Workload::NarrowTcp => narrow_sessions(),
        Workload::WideStdio => wide_sessions(),
        Workload::Churn => (0..CHURN_PROFILES).map(churn_profile).collect(),
        Workload::Harness => harness_sessions(),
    };
    let mut set: Vec<(&'static str, usize)> = Vec::new();
    for spec in specs {
        match set.iter_mut().find(|(k, _)| *k == spec.kernel) {
            Some(entry) => entry.1 = entry.1.max(spec.zoo),
            None => set.push((spec.kernel, spec.zoo)),
        }
    }
    set
}

/// Block-by-block script generator for one workload and seed.
#[derive(Debug)]
pub struct Generator {
    pub workload: Workload,
    pub seed: u64,
    /// Every session the script has opened so far (churn appends).
    pub sessions: Vec<SessionSpec>,
    pools: HashMap<&'static str, NnDataset>,
}

impl Generator {
    /// A generator. `seed` draws every row, its session and its send
    /// time from a fixed pool per kernel, the kernel's test split at the
    /// harness seed: regenerating the pools per seed (a new test image
    /// for sobel and jpeg) would move `mean_error` by more than its bound
    /// from one seed to the next.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Self {
        let sessions = match workload {
            Workload::NarrowTcp => narrow_sessions(),
            Workload::WideStdio => wide_sessions(),
            Workload::Harness => harness_sessions(),
            Workload::Churn => Vec::new(),
        };
        let mut pools = HashMap::new();
        for (kernel, _) in training_set(workload) {
            let k = kernel_by_name(kernel).expect("script kernels exist");
            pools.insert(kernel, k.generate(Split::Test, MODEL_SEED));
        }
        Self { workload, seed, sessions, pools }
    }

    /// Number of connections the script talks over.
    #[must_use]
    pub fn connections(&self) -> usize {
        match self.workload {
            Workload::NarrowTcp => 2,
            _ => 1,
        }
    }

    /// The input row `row` of `kernel`'s pool.
    fn input(&self, kernel: &str, row: usize) -> &[f64] {
        self.pools[kernel].input(row)
    }

    fn conn_of(&self, session: usize) -> usize {
        session % self.connections()
    }

    fn line(&self, due_ns: u64, op: Op) -> Line {
        let conn = match op {
            Op::Open(s)
            | Op::Invoke { session: s, .. }
            | Op::Drain(s)
            | Op::Snapshot(s)
            | Op::Restore { session: s, .. }
            | Op::Close(s) => self.conn_of(s),
            Op::DrainAll | Op::Shutdown => 0,
        };
        let name = |s: usize| self.sessions[s].name.as_str();
        let text = match op {
            Op::Open(s) => self.sessions[s].open_line(),
            Op::Invoke { session, kernel_row } => {
                let mut w = JsonWriter::object("request");
                w.string("op", "invoke")
                    .string("session", name(session))
                    .floats("input", self.input(self.sessions[session].kernel, kernel_row));
                strip_tag(&w.finish())
            }
            Op::Drain(s) => format!("{{\"op\":\"drain\",\"session\":\"{}\"}}", name(s)),
            Op::DrainAll => "{\"op\":\"drain\"}".to_owned(),
            Op::Snapshot(s) => format!("{{\"op\":\"snapshot\",\"session\":\"{}\"}}", name(s)),
            Op::Restore { .. } => String::new(),
            Op::Close(s) => format!("{{\"op\":\"close\",\"session\":\"{}\"}}", name(s)),
            Op::Shutdown => "{\"op\":\"shutdown\"}".to_owned(),
        };
        Line { conn, due_ns, op, text }
    }

    fn invoke(&self, rng: &mut Rng, due_ns: u64, session: usize) -> Line {
        let rows = self.pools[self.sessions[session].kernel].len();
        self.line(due_ns, Op::Invoke { session, kernel_row: rng.below(rows) })
    }

    /// Opens the long-lived sessions (empty for `churn`).
    #[must_use]
    pub fn prologue(&self) -> Vec<Line> {
        (0..self.sessions.len()).map(|s| self.line(0, Op::Open(s))).collect()
    }

    /// Block `b` of the script. Blocks must be generated in order (churn
    /// registers its sessions as it goes); each is a pure function of
    /// `(workload, seed, b)`.
    pub fn block(&mut self, b: usize) -> Vec<Line> {
        let mut rng = Rng::new(self.seed, b as u64 + 1);
        match self.workload {
            Workload::NarrowTcp => self.narrow_block(&mut rng, b),
            Workload::WideStdio | Workload::Harness => self.wide_block(&mut rng),
            Workload::Churn => self.churn_block(&mut rng, b),
        }
    }

    /// Open-loop traffic: Poisson arrivals on each connection, each to a
    /// uniformly chosen session of that connection; a session is drained
    /// right after every fourth invoke, and the block ends with a global
    /// drain due at the block boundary.
    fn narrow_block(&self, rng: &mut Rng, b: usize) -> Vec<Line> {
        let start = b as u64 * NARROW_BLOCK_NS;
        let end = start + NARROW_BLOCK_NS;
        let conns = self.connections();
        let mean_gap_ns = 1e9 * conns as f64 / NARROW_RATE;
        // Invokes since the last drain, per session. Every session starts
        // a block drained: the previous block ended with a global drain.
        let mut since_drain = vec![0usize; self.sessions.len()];
        let mut lines = Vec::new();
        for conn in 0..conns {
            let mine: Vec<usize> =
                (0..self.sessions.len()).filter(|&s| self.conn_of(s) == conn).collect();
            let mut t = start as f64 + rng.exp(mean_gap_ns);
            while (t as u64) < end {
                let s = mine[rng.below(mine.len())];
                lines.push(self.invoke(rng, t as u64, s));
                since_drain[s] += 1;
                if since_drain[s] == 4 {
                    since_drain[s] = 0;
                    lines.push(self.line(t as u64, Op::Drain(s)));
                }
                t += rng.exp(mean_gap_ns);
            }
        }
        // Stable: per-connection order (and drain-after-invoke) survives.
        lines.sort_by_key(|l| l.due_ns);
        lines.push(self.line(end, Op::DrainAll));
        lines
    }

    /// Closed-loop saturation: `WIDE_BLOCK_INVOKES` invokes per session in
    /// a seeded interleaving, then one global drain.
    fn wide_block(&self, rng: &mut Rng) -> Vec<Line> {
        let n = self.sessions.len();
        let mut left = vec![WIDE_BLOCK_INVOKES; n];
        let mut remaining = n * WIDE_BLOCK_INVOKES;
        let mut lines = Vec::with_capacity(remaining + 1);
        while remaining > 0 {
            let mut pick = rng.below(remaining);
            let s = (0..n)
                .find(|&s| {
                    if pick < left[s] {
                        true
                    } else {
                        pick -= left[s];
                        false
                    }
                })
                .expect("pick < remaining");
            left[s] -= 1;
            remaining -= 1;
            lines.push(self.invoke(rng, 0, s));
        }
        lines.push(self.line(0, Op::DrainAll));
        lines
    }

    /// One session lifecycle: open A → invokes → drain → snapshot →
    /// restore as B on the other shard → the same invokes to A and B →
    /// close both. A and B must then answer identically, which checks
    /// that a restored session continues the uninterrupted one.
    fn churn_block(&mut self, rng: &mut Rng, b: usize) -> Vec<Line> {
        // The rotation is the same for every seed (the seed moves only the
        // rows), so runs on different seeds serve the same kernel mix.
        let profile = b % CHURN_PROFILES;
        let mut a = churn_profile(profile);
        a.name = format!("c{b}a");
        let mut bspec = a.clone();
        bspec.name = (0..)
            .map(|k| format!("c{b}b{k}"))
            .find(|n| shard_of(n, SHARDS) != shard_of(&a.name, SHARDS))
            .expect("some name lands on the other shard");
        let ia = self.sessions.len();
        self.sessions.push(a);
        self.sessions.push(bspec);
        let ib = ia + 1;
        let mut lines = vec![self.line(0, Op::Open(ia))];
        for _ in 0..CHURN_INVOKES {
            lines.push(self.invoke(rng, 0, ia));
        }
        lines.push(self.line(0, Op::Drain(ia)));
        lines.push(self.line(0, Op::Snapshot(ia)));
        lines.push(self.line(0, Op::Restore { session: ib, from: ia }));
        for _ in 0..CHURN_INVOKES {
            let line = self.invoke(rng, 0, ia);
            let Op::Invoke { kernel_row, .. } = line.op else { unreachable!() };
            lines.push(line);
            lines.push(self.line(0, Op::Invoke { session: ib, kernel_row }));
        }
        lines.push(self.line(0, Op::Close(ia)));
        lines.push(self.line(0, Op::Close(ib)));
        lines
    }

    /// Closes the long-lived sessions and shuts the server down.
    #[must_use]
    pub fn epilogue(&self) -> Vec<Line> {
        let mut lines: Vec<Line> = match self.workload {
            Workload::Churn => Vec::new(),
            _ => (0..self.sessions.len()).map(|s| self.line(0, Op::Close(s))).collect(),
        };
        lines.push(self.line(0, Op::Shutdown));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(workload: Workload, seed: u64, n: usize) -> Vec<Line> {
        let mut g = Generator::new(workload, seed);
        let mut lines = g.prologue();
        for b in 0..n {
            lines.extend(g.block(b));
        }
        lines.extend(g.epilogue());
        lines
    }

    #[test]
    fn scripts_are_a_pure_function_of_the_seed() {
        for workload in
            [Workload::NarrowTcp, Workload::WideStdio, Workload::Churn, Workload::Harness]
        {
            let a = blocks(workload, 7, 3);
            assert_eq!(a, blocks(workload, 7, 3), "{workload:?} is not reproducible");
            assert_ne!(a, blocks(workload, 8, 3), "{workload:?} ignores the seed");
        }
    }

    #[test]
    fn narrow_blocks_drain_every_fourth_invoke_and_end_with_a_global_drain() {
        let mut g = Generator::new(Workload::NarrowTcp, 3);
        let block = g.block(0);
        assert_eq!(block.last().map(|l| l.op), Some(Op::DrainAll));
        assert!(block.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let mut pending = vec![0usize; g.sessions.len()];
        for line in &block {
            match line.op {
                Op::Invoke { session, .. } => {
                    pending[session] += 1;
                    assert!(pending[session] <= 4);
                    assert_eq!(line.conn, session % 2);
                }
                Op::Drain(s) => {
                    assert_eq!(pending[s], 4);
                    pending[s] = 0;
                }
                _ => {}
            }
        }
        let invokes = block.iter().filter(|l| matches!(l.op, Op::Invoke { .. })).count();
        let expected = NARROW_RATE * NARROW_BLOCK_NS as f64 / 1e9;
        assert!((invokes as f64 - expected).abs() < expected * 0.5, "{invokes} invokes");
    }

    #[test]
    fn churn_restores_onto_the_other_shard() {
        let mut g = Generator::new(Workload::Churn, 1);
        for b in 0..4 {
            g.block(b);
        }
        for pair in g.sessions.chunks(2) {
            assert_ne!(shard_of(&pair[0].name, SHARDS), shard_of(&pair[1].name, SHARDS));
            assert_eq!(pair[0].kernel, pair[1].kernel);
        }
    }

    #[test]
    fn open_lines_match_the_session_config() {
        for spec in narrow_sessions().iter().chain(&wide_sessions()) {
            let obj = parse_object(&spec.open_line()).unwrap();
            assert_eq!(obj.string("session"), Some(spec.name.as_str()));
            assert_eq!(obj.count("queue"), Some(spec.queue as u64));
            assert_eq!(spec.config().queue.input_capacity, spec.queue);
        }
    }
}
