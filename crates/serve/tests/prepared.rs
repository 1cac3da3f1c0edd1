//! The per-server prepared store: a session opened or restored from a
//! warm store must be the session a fresh runtime would build, bit for
//! bit, and the store must stay within its fixed bound.
//!
//! * Opens on a warm store equal opens on a fresh runtime — threshold
//!   bits and every response byte — for each checker, plain and with each
//!   opt-in lever (compensation, zoo, refit + watchdog, fault plan).
//! * A restore from a warm store continues the uninterrupted stream.
//! * More distinct `(kernel, seed)` keys than the capacity evict the
//!   least recently used entry; re-opening an evicted key rebuilds it.
//! * A failed open stores nothing.

use std::sync::OnceLock;

use rumba_apps::{kernel_by_name, Split};
use rumba_nn::NnDataset;
use rumba_obs::json::{parse_object, JsonWriter, ObjectExt};
use rumba_serve::prepared::STORE_CAPACITY;
use rumba_serve::protocol::handle_line;
use rumba_serve::snapshot::seal;
use rumba_serve::ServeRuntime;

const CHECKERS: [&str; 4] = ["linear", "tree", "ema", "evp"];

/// The opt-in levers, as the `open` fields after the checker and mode
/// (the first is the plain session).
const LEVERS: [&str; 6] = [
    ",\"queue\":8",
    ",\"queue\":8,\"fix\":\"compensate\",\"band\":0.3",
    ",\"queue\":8,\"zoo\":2",
    // A queue of 2 fills between drains, so queue pressure widens the
    // zoo's routing bar up to its ceiling.
    ",\"queue\":2,\"zoo\":2",
    ",\"queue\":8,\"refit\":true,\"watchdog\":true",
    ",\"queue\":8,\"faults\":\"non_finite=0.05\",\"fault_seed\":42",
];

/// The threshold moves between these quality targets on gaussian.
const TOQS: [f64; 2] = [0.95, 0.995];

fn workload() -> &'static NnDataset {
    static DATA: OnceLock<NnDataset> = OnceLock::new();
    DATA.get_or_init(|| kernel_by_name("gaussian").unwrap().generate(Split::Test, 42))
}

fn open_req(name: &str, seed: u64, checker: &str, lever: &str) -> String {
    open_req_at(name, seed, checker, 0.95, lever)
}

fn open_req_at(name: &str, seed: u64, checker: &str, toq: f64, lever: &str) -> String {
    format!(
        "{{\"op\":\"open\",\"session\":\"{name}\",\"kernel\":\"gaussian\",\"seed\":{seed},\
         \"checker\":\"{checker}\",\"mode\":\"toq\",\"toq\":{toq},\"window\":8{lever}}}"
    )
}

fn invoke_req(name: &str, input: &[f64]) -> String {
    let mut w = JsonWriter::object("request");
    w.string("op", "invoke").string("session", name).floats("input", input);
    w.finish().replacen("\"type\":\"request\",", "", 1)
}

/// Invokes rows `from..to` (stride 7 through the workload) with a drain
/// after every fourth.
fn invokes(name: &str, from: usize, to: usize) -> Vec<String> {
    let data = workload();
    let mut script = Vec::new();
    for k in from..to {
        script.push(invoke_req(name, data.input((k * 7) % data.len())));
        if k % 4 == 3 {
            script.push(format!("{{\"op\":\"drain\",\"session\":\"{name}\"}}"));
        }
    }
    script
}

fn tail(name: &str) -> Vec<String> {
    let mut script = invokes(name, 10, 20);
    script.push(format!("{{\"op\":\"stats\",\"session\":\"{name}\"}}"));
    script.push(format!("{{\"op\":\"close\",\"session\":\"{name}\"}}"));
    script
}

fn replay(rt: &mut ServeRuntime, script: &[String]) -> Vec<String> {
    script.iter().flat_map(|line| handle_line(rt, line).0).collect()
}

/// A whole session from its `open` line: 20 invokes with drains, stats,
/// close.
fn session_script(open: String, name: &str) -> Vec<String> {
    let mut script = vec![open];
    script.extend(invokes(name, 0, 10));
    script.extend(tail(name));
    script
}

#[test]
fn warm_store_opens_equal_fresh_opens_bit_for_bit() {
    let mut warm = ServeRuntime::new();
    // Two quality targets, so every derived value is also reused across
    // configs that differ only in the budget or only in the checker.
    for (checker, toq, lever) in CHECKERS
        .iter()
        .flat_map(|&c| TOQS.map(|t| (c, t)))
        .flat_map(|(c, t)| LEVERS.map(|l| (c, t, l)))
    {
        // Prime every value this config reads, then open it again.
        let primer = open_req_at("primer", 42, checker, toq, lever);
        replay(&mut warm, &session_script(primer, "primer"));
        let open = open_req_at("t0", 42, checker, toq, lever);
        let warm_ack = handle_line(&mut warm, &open).0;
        let warm_threshold = warm.session("t0").map(|s| s.threshold().to_bits());
        let mut fresh = ServeRuntime::new();
        let fresh_ack = handle_line(&mut fresh, &open).0;
        let fresh_threshold = fresh.session("t0").map(|s| s.threshold().to_bits());

        let context = format!("checker {checker}, toq {toq}, lever {lever:?}");
        assert!(warm_ack[0].starts_with("{\"type\":\"ack\""), "{context}: {warm_ack:?}");
        assert_eq!(warm_ack, fresh_ack, "{context}: open ack");
        assert_eq!(warm_threshold, fresh_threshold, "{context}: threshold bits");
        let rest: Vec<String> = invokes("t0", 0, 10).into_iter().chain(tail("t0")).collect();
        assert_eq!(replay(&mut warm, &rest), replay(&mut fresh, &rest), "{context}: stream");
    }
    // One (kernel, seed) key served all 48 configs.
    assert_eq!(warm.store().len(), 1);
}

#[test]
fn restore_from_a_warm_store_continues_the_uninterrupted_stream() {
    for lever in LEVERS {
        let head: Vec<String> = std::iter::once(open_req("src", 42, "tree", lever))
            .chain(invokes("src", 0, 10))
            .collect();
        let mut reference = ServeRuntime::new();
        replay(&mut reference, &head);
        let expected = replay(&mut reference, &tail("src"));

        // Snapshot and restore within one runtime: the restore hits the
        // entry the source's open prepared.
        let mut rt = ServeRuntime::new();
        replay(&mut rt, &head);
        let snap = handle_line(&mut rt, "{\"op\":\"snapshot\",\"session\":\"src\"}").0;
        let state = parse_object(&snap[0]).unwrap().string("state").unwrap().to_owned();
        handle_line(&mut rt, "{\"op\":\"close\",\"session\":\"src\"}");
        let mut w = JsonWriter::object("request");
        w.string("op", "restore").string("session", "dst").string("state", &state);
        let ack = handle_line(&mut rt, &w.finish().replacen("\"type\":\"request\",", "", 1)).0;
        assert!(ack[0].starts_with("{\"type\":\"ack\",\"op\":\"restore\""), "{ack:?}");
        assert_eq!(rt.store().len(), 1);

        let continued: Vec<String> = replay(&mut rt, &tail("dst"))
            .into_iter()
            .map(|l| l.replace("\"session\":\"dst\"", "\"session\":\"src\""))
            .collect();
        assert_eq!(continued, expected, "lever {lever:?}: restored stream diverged");
    }
}

#[test]
fn more_keys_than_the_capacity_stay_within_the_bound() {
    let mut rt = ServeRuntime::new();
    let seeds: Vec<u64> = (1..=STORE_CAPACITY as u64 + 2).collect();
    for &seed in &seeds {
        let script = session_script(open_req("s", seed, "tree", LEVERS[0]), "s");
        let served = replay(&mut rt, &script);
        assert!(rt.store().len() <= STORE_CAPACITY);
        assert!(rt.store().contains("gaussian", seed));
        assert_eq!(served, replay(&mut ServeRuntime::new(), &script), "seed {seed}");
    }
    assert_eq!(rt.store().len(), STORE_CAPACITY);
    // The two least recently used keys were evicted; re-opening one
    // rebuilds it, and the session is still the fresh one.
    assert!(!rt.store().contains("gaussian", 1) && !rt.store().contains("gaussian", 2));
    assert!(rt.store().contains("gaussian", 3));
    let script = session_script(open_req("again", 1, "tree", LEVERS[0]), "again");
    assert_eq!(replay(&mut rt, &script), replay(&mut ServeRuntime::new(), &script));
    assert!(rt.store().contains("gaussian", 1) && !rt.store().contains("gaussian", 3));
    assert_eq!(rt.store().len(), STORE_CAPACITY);
}

#[test]
fn failed_opens_store_nothing() {
    let mut rt = ServeRuntime::new();
    let base = open_req("x", 42, "tree", LEVERS[0]);
    let bad = [
        base.replace("\"gaussian\"", "\"doom\""),
        base.replace("\"window\":8", "\"window\":0"),
        base.replace("\"window\":8", "\"window\":1000000000000"),
        base.replace("\"queue\":8", "\"queue\":0"),
        base.replace("\"queue\":8", "\"queue\":1000000000000"),
        open_req("x", 42, "tree", ",\"queue\":8,\"zoo\":1000000"),
    ];
    for line in &bad {
        let response = handle_line(&mut rt, line).0;
        assert!(response[0].starts_with("{\"type\":\"error\""), "{line}: {response:?}");
        assert!(rt.store().is_empty(), "{line} left a store entry");
        assert!(rt.is_empty());
    }
    // A tampered (and re-sealed) snapshot config is rejected the same way.
    let mut donor = ServeRuntime::new();
    handle_line(&mut donor, &base);
    let snap = handle_line(&mut donor, "{\"op\":\"snapshot\",\"session\":\"x\"}").0;
    let state = parse_object(&snap[0]).unwrap().string("state").unwrap().to_owned();
    assert!(state.contains(" queue=8,"), "{state}");
    let tampered = [
        (" queue=8,", " queue=1000000000000,"),
        (" window=8 ", " window=0 "),
        (" section tuner ", " section tuner 999999999999999 "),
    ];
    let body = state.rsplit_once(" checksum=").unwrap().0;
    for (from, to) in tampered {
        let mut w = JsonWriter::object("request");
        w.string("op", "restore")
            .string("session", "y")
            .string("state", &seal(body.replace(from, to)));
        let response = handle_line(&mut rt, &w.finish().replacen("\"type\":\"request\",", "", 1)).0;
        assert!(response[0].starts_with("{\"type\":\"error\""), "{to}: {response:?}");
        assert!(rt.store().is_empty(), "restore with {to} left a store entry");
    }
}
