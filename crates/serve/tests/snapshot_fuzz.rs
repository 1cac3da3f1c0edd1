//! Seeded snapshot mutation fuzzing: a tampered snapshot either costs one
//! in-band `error` or restores into a session the live system could have
//! reached — never a panic, never a session that stops tuning.
//!
//! The snapshots come from a rich session (a three-tier zoo, online refit,
//! compensation, a fault plan and the watchdog), taken after every
//! request, so they cover mid-window state with queued rows and
//! uncollected results. Each case applies one seeded mutation — a word
//! set to 0, 1, `u64::MAX`, NaN, −1.0 or ±inf bits; a word dropped or
//! duplicated; a section count changed; a section dropped, duplicated or
//! moved; a config token changed — and re-seals the checksum, so the
//! section validators rather than the checksum must catch it. The case
//! goes through `handle_line` on a runtime that also serves a clean
//! session, and must either answer `error` or restore a session whose
//! threshold is finite and above zero, whose tuning window closes within
//! `window` more rows, and whose re-snapshot restores again. The clean
//! session must answer bit-identically to an untouched reference
//! throughout. Cases are drawn from a fixed seed, in the style of the
//! vendored proptest shim, so a failure reproduces exactly. This binary
//! installs no telemetry sink.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use rumba_apps::{kernel_by_name, Split};
use rumba_faults::splitmix64;
use rumba_nn::NnDataset;
use rumba_obs::json::{parse_object, JsonWriter, ObjectExt};
use rumba_serve::protocol::handle_line;
use rumba_serve::snapshot::seal;
use rumba_serve::ServeRuntime;

/// Mutated snapshots driven per run.
const CASES: u64 = 2400;

/// Requests the source sessions serve; a snapshot follows each one.
const REQUESTS: usize = 120;

fn workload() -> &'static NnDataset {
    static DATA: OnceLock<NnDataset> = OnceLock::new();
    DATA.get_or_init(|| kernel_by_name("gaussian").unwrap().generate(Split::Test, 42))
}

/// The rich source session: every lever armed, a queue small enough that
/// blocking admissions leave uncollected results behind.
fn rich_open(name: &str) -> String {
    format!(
        "{{\"op\":\"open\",\"session\":\"{name}\",\"kernel\":\"gaussian\",\"seed\":42,\
         \"checker\":\"tree\",\"mode\":\"toq\",\"toq\":0.9,\"window\":8,\"queue\":4,\
         \"admission\":\"block\",\"fix\":\"compensate\",\"band\":0.3,\"zoo\":3,\
         \"refit\":true,\"watchdog\":true,\"fault_seed\":7,\"faults\":\"non_finite=0.03,\
         checker_blind=0.05,bit_flip=0.01,input_drift=24:16:2.0,queue_pressure=40:1\"}}"
    )
}

/// An EMA session under heavy NaN injection.
fn nan_open(name: &str) -> String {
    format!(
        "{{\"op\":\"open\",\"session\":\"{name}\",\"kernel\":\"gaussian\",\"seed\":42,\
         \"checker\":\"ema\",\"mode\":\"toq\",\"toq\":0.9,\"window\":8,\"queue\":4,\
         \"admission\":\"block\",\"watchdog\":true,\"fault_seed\":3,\
         \"faults\":\"non_finite=0.2\"}}"
    )
}

fn clean_open(name: &str) -> String {
    format!(
        "{{\"op\":\"open\",\"session\":\"{name}\",\"kernel\":\"gaussian\",\"seed\":42,\
         \"checker\":\"tree\",\"mode\":\"toq\",\"toq\":0.95,\"window\":16,\"queue\":8}}"
    )
}

fn invoke(name: &str, row: usize) -> String {
    let mut w = JsonWriter::object("request");
    let input = workload().input(row % workload().len());
    w.string("op", "invoke").string("session", name).floats("input", input);
    w.finish().replacen("\"type\":\"request\",", "", 1)
}

fn op(op: &str, name: &str) -> String {
    format!("{{\"op\":\"{op}\",\"session\":\"{name}\"}}")
}

fn restore(name: &str, state: &str) -> String {
    let mut w = JsonWriter::object("request");
    w.string("op", "restore").string("session", name).string("state", state);
    w.finish().replacen("\"type\":\"request\",", "", 1)
}

fn send(rt: &mut ServeRuntime, line: &str) -> Vec<String> {
    handle_line(rt, line).0
}

fn is_error(lines: &[String]) -> bool {
    lines.iter().any(|l| l.starts_with("{\"type\":\"error\""))
}

fn snapshot(rt: &mut ServeRuntime, name: &str) -> String {
    let lines = send(rt, &op("snapshot", name));
    parse_object(&lines[0]).unwrap().string("state").expect("state").to_owned()
}

/// A session's snapshot after every one of `REQUESTS` requests: invokes
/// (every fifth on a full queue forces a drain whose results stay
/// uncollected) with an explicit drain every seventh request.
fn live_snapshots(open: fn(&str) -> String) -> Vec<String> {
    let mut rt = ServeRuntime::new();
    assert!(!is_error(&send(&mut rt, &open("src"))));
    let mut snapshots = vec![snapshot(&mut rt, "src")];
    for k in 0..REQUESTS {
        let line = if k % 7 == 6 { op("drain", "src") } else { invoke("src", k * 13) };
        let response = send(&mut rt, &line);
        assert!(!is_error(&response), "{line}: {response:?}");
        snapshots.push(snapshot(&mut rt, "src"));
    }
    snapshots
}

fn rich_snapshots() -> &'static [String] {
    static SNAPS: OnceLock<Vec<String>> = OnceLock::new();
    SNAPS.get_or_init(|| live_snapshots(rich_open))
}

/// A snapshot split into its config tokens and `(name, words)` sections.
#[derive(Clone)]
struct Parts {
    config: Vec<String>,
    sections: Vec<(String, Vec<String>)>,
}

fn split(state: &str) -> Parts {
    let body = state.rsplit_once(" checksum=").map_or(state, |(body, _)| body);
    let mut tokens = body.split(' ').map(str::to_owned).peekable();
    let mut config = Vec::new();
    while let Some(token) = tokens.next_if(|t| t != "section") {
        config.push(token);
    }
    let mut sections = Vec::new();
    while tokens.next().is_some() {
        let name = tokens.next().unwrap();
        let count: usize = tokens.next().unwrap().parse().unwrap();
        sections.push((name, tokens.by_ref().take(count).collect()));
    }
    Parts { config, sections }
}

/// Renders `parts` back to a line; `count` overrides one section's
/// declared word count.
fn render(parts: &Parts, count: Option<(usize, usize)>) -> String {
    let mut out = parts.config.join(" ");
    for (i, (name, words)) in parts.sections.iter().enumerate() {
        let n = count.filter(|&(at, _)| at == i).map_or(words.len(), |(_, n)| n);
        out.push_str(&format!(" section {name} {n}"));
        for w in words {
            out.push(' ');
            out.push_str(w);
        }
    }
    out
}

/// The `window` section's window length and windows flushed.
fn window_position(state: &str) -> (u64, u64) {
    let parts = split(state);
    let words = &parts.sections.iter().find(|(name, _)| name == "window").unwrap().1;
    let word = |i: usize| u64::from_str_radix(&words[i], 16).unwrap();
    (word(0), word(7))
}

/// Config tokens a mutation may swap in (same key, another value).
const TOKENS: &[&str] = &[
    "kernel=doom",
    "seed=x",
    "checker=ema",
    "checker=linear",
    "checker=evp",
    "mode=best",
    "mode=energy:3",
    "mode=toq:7ff8000000000000",
    "mode=toq:3ff0000000000001",
    "window=0",
    "window=1",
    "window=7",
    "window=9",
    "window=4000000",
    "queue=1,16,64",
    "queue=4,0,64",
    "queue=4,16,0",
    "queue=100000,16,64",
    "admission=shed",
    "fix=reexecute",
    "fix=comp:7ff8000000000000",
    "fix=comp:0000000000000000",
    "fix=comp:3ff0000000000000",
    "watchdog=off",
    "watchdog=0000000000000000:3:6",
    "watchdog=3fc999999999999a:0:0",
    "zoo=0",
    "zoo=9",
    "refit=0",
    "refit=2",
    "fault_seed=1",
    "faults=",
    "faults=non_finite=1",
    "faults=input_drift=0:1:nan",
    "faults=stuck_at=0:1e300",
];

const SPECIAL_WORDS: [u64; 7] = [
    0,
    1,
    u64::MAX,
    0x7ff8_0000_0000_0000, // NaN
    0xbff0_0000_0000_0000, // -1.0
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // -inf
];

/// Applies one seeded mutation; returns its description and a count
/// override for the renderer.
fn mutate(
    parts: &mut Parts,
    mut draw: impl FnMut(usize) -> usize,
) -> (String, Option<(usize, usize)>) {
    let n = parts.sections.len();
    let kind = draw(16);
    let s = draw(n);
    let name = parts.sections[s].0.clone();
    let words = &mut parts.sections[s].1;
    match kind {
        0..=8 if words.is_empty() => ("no-op on an empty section".to_owned(), None),
        0..=6 => {
            let (i, value) = (draw(words.len()), SPECIAL_WORDS[draw(SPECIAL_WORDS.len())]);
            words[i] = format!("{value:016x}");
            (format!("{name}[{i}] = {value:#x}"), None)
        }
        7 => {
            let i = draw(words.len());
            words.remove(i);
            (format!("drop {name}[{i}]"), None)
        }
        8 => {
            let i = draw(words.len());
            words.insert(i, words[i].clone());
            (format!("duplicate {name}[{i}]"), None)
        }
        9 => {
            let count = [0, words.len().saturating_sub(1), words.len() + 1, 1 << 40][draw(4)];
            (format!("count of {name} = {count}"), Some((s, count)))
        }
        10 => {
            parts.sections.remove(s);
            (format!("drop section {name}"), None)
        }
        11 => {
            let copy = parts.sections[s].clone();
            parts.sections.insert(draw(n + 1), copy);
            (format!("duplicate section {name}"), None)
        }
        12 => {
            let section = parts.sections.remove(s);
            parts.sections.insert(draw(n), section);
            (format!("move section {name}"), None)
        }
        _ => {
            let token = TOKENS[draw(TOKENS.len())];
            let key = token.split_once('=').unwrap().0;
            let slot =
                parts.config.iter().position(|t| t.split_once('=').is_some_and(|kv| kv.0 == key));
            parts.config[slot.expect("every key is written")] = token.to_owned();
            (format!("config {token}"), None)
        }
    }
}

/// What a restored session must satisfy: a usable threshold, a window
/// that closes within `window` more rows, and a re-snapshot that restores.
fn check_restored(rt: &mut ServeRuntime, window: usize, row: usize) -> Result<(), String> {
    let threshold = rt.session("m").unwrap().threshold();
    if !(threshold.is_finite() && threshold > 0.0) {
        return Err(format!("restored threshold {threshold}"));
    }
    let (_, flushed) = window_position(&snapshot(rt, "m"));
    for line in std::iter::once(op("drain", "m"))
        .chain((0..window).flat_map(|k| [invoke("m", row + k), op("drain", "m")]))
    {
        let response = send(rt, &line);
        if is_error(&response) {
            return Err(format!("{line} failed after restore: {response:?}"));
        }
    }
    let state = snapshot(rt, "m");
    let (len, now) = window_position(&state);
    if now <= flushed {
        return Err(format!("no window closed in {window} rows (window length {len})"));
    }
    let threshold = rt.session("m").unwrap().threshold();
    if !(threshold.is_finite() && threshold > 0.0) {
        return Err(format!("threshold {threshold} after {window} rows"));
    }
    let again = send(rt, &restore("m2", &state));
    if is_error(&again) {
        return Err(format!("re-snapshot does not restore: {again:?}"));
    }
    send(rt, &op("close", "m2"));
    Ok(())
}

/// A runtime hosting only the clean session.
fn clean_runtime() -> ServeRuntime {
    let mut rt = ServeRuntime::new();
    assert!(!is_error(&send(&mut rt, &clean_open("clean"))));
    rt
}

#[test]
fn mutated_snapshots_fail_in_band_or_restore_into_a_reachable_state() {
    let sources = rich_snapshots();
    let (mut rt, mut reference) = (clean_runtime(), clean_runtime());
    let (mut accepted, mut rejected, mut invalid) = (0u32, 0u32, Vec::new());
    for case in 0..CASES {
        let mut state = splitmix64(0x5eed_f022 ^ case);
        let mut draw = |n: usize| {
            state = splitmix64(state);
            (state % n.max(1) as u64) as usize
        };
        let source = &sources[1 + draw(sources.len() - 1)];
        let sealed = source.contains(" checksum=");
        let mut parts = split(source);
        let (what, count) = mutate(&mut parts, &mut draw);
        let body = render(&parts, count);
        let text = if sealed { seal(body.clone()) } else { body.clone() };
        let window = parts
            .config
            .iter()
            .find_map(|t| t.strip_prefix("window="))
            .and_then(|w| w.parse().ok())
            .unwrap_or(8);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if sealed && body != split_body(source) {
                let unsealed = send(&mut rt, &restore("m", &format!("{body} checksum=0")));
                if !is_error(&unsealed) {
                    return Err("an unsealed mutation restored".to_owned());
                }
            }
            let response = send(&mut rt, &restore("m", &text));
            let verdict = if is_error(&response) {
                if rt.session("m").is_some() {
                    return Err("a refused restore left a session behind".to_owned());
                }
                Ok(false)
            } else {
                let checked = check_restored(&mut rt, window, case as usize);
                send(&mut rt, &op("close", "m"));
                checked.map(|()| true)
            };
            // The clean tenant answers exactly as its untouched reference.
            for line in [invoke("clean", case as usize), op("drain", "clean")] {
                if send(&mut rt, &line) != send(&mut reference, &line) {
                    return Err(format!("clean session diverged at {line}"));
                }
            }
            verdict
        }));
        match outcome {
            Ok(Ok(true)) => accepted += 1,
            Ok(Ok(false)) => rejected += 1,
            Ok(Err(why)) => invalid.push(format!("case {case} ({what}): {why}")),
            Err(_) => {
                invalid.push(format!("case {case} ({what}): panicked"));
                (rt, reference) = (clean_runtime(), clean_runtime());
            }
        }
    }
    eprintln!(
        "snapshot fuzz: {CASES} cases, {rejected} rejected in-band, {accepted} restored valid, \
         {} restored invalid",
        invalid.len()
    );
    assert!(
        invalid.is_empty(),
        "{} invalid outcomes, first: {:#?}",
        invalid.len(),
        &invalid[..invalid.len().min(12)]
    );
    assert!(accepted > 0 && rejected > 0, "the mutations must exercise both outcomes");
}

fn split_body(state: &str) -> &str {
    state.rsplit_once(" checksum=").map_or(state, |(body, _)| body)
}

#[test]
fn every_live_snapshot_restores_and_resnapshots_byte_identically() {
    let nan = live_snapshots(nan_open);
    let mut rt = ServeRuntime::new();
    for (i, state) in rich_snapshots().iter().chain(&nan).enumerate() {
        let response = send(&mut rt, &restore("r", state));
        assert!(!is_error(&response), "snapshot {i} refused: {response:?}\n{state}");
        assert_eq!(&snapshot(&mut rt, "r"), state, "snapshot {i} re-encodes differently");
        send(&mut rt, &op("close", "r"));
    }
    // The sources reached the states the fuzzer needs: queued rows,
    // uncollected results, reservoir rows, and quarantined (NaN) rows.
    let last = split(rich_snapshots().last().unwrap());
    let words = |name: &str| last.sections.iter().find(|(n, _)| n == name).map(|(_, w)| w.len());
    assert!(words("reservoir").unwrap() > 1, "the reservoir holds rows");
    let any = |states: &[String], name: &str, at: usize| {
        states.iter().any(|s| {
            split(s)
                .sections
                .iter()
                .any(|(n, w)| n == name && w.get(at).is_some_and(|w| w != "0000000000000000"))
        })
    };
    assert!(any(rich_snapshots(), "queue", 0), "some snapshot has queued rows");
    assert!(any(rich_snapshots(), "completed", 0), "some snapshot has uncollected results");
    assert!(any(&nan, "ladder", 5), "some snapshot has quarantined rows");
    assert!(rich_snapshots().iter().any(|s| window_position(s).0 > 0), "mid-window");
}
