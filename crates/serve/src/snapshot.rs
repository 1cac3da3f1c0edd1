//! Session snapshot codec: one line of plain-text config-words.
//!
//! A snapshot is the serialized form of a live serving session — its
//! opening configuration plus every piece of online state (tuner
//! threshold, checker history, window counters, fault accounting, queued
//! inputs, uncollected results). The encoding follows the
//! `TrainedModelCache` family: human-readable tokens, floats as the
//! `{:016x}` hex of their IEEE-754 bits so round-trips are bit-exact, and
//! a versioned header so stale snapshots fail loudly instead of decoding
//! garbage.
//!
//! The whole snapshot is a single line (no newlines, characters drawn
//! from `[a-z0-9 =:,._-]`), so it embeds verbatim in a protocol JSON
//! string:
//!
//! ```text
//! rumba-session-snapshot v1 kernel=gaussian seed=7 checker=ema
//!     mode=toq:3feccccccccccccd window=16 queue=6,16,64 admission=shed
//!     section runtime 25 3f91a... section stats 13 ... section queue 3 ...
//! ```
//!
//! (wrapped here for readability). The session *name* is deliberately not
//! part of the snapshot: `restore` names the session, which is what lets
//! a snapshot migrate to a different shard — placement is a pure hash of
//! the name — or to a differently named session entirely.

use rumba_core::event_sim::QueueConfig;
use rumba_core::runtime::{FixPolicy, WatchdogConfig};
use rumba_core::tuner::TuningMode;
use rumba_faults::{FaultModel, FaultPlan};

use crate::session::{AdmissionPolicy, CheckerKind, SessionConfig};

/// Leading tokens of every snapshot; bump the version when the word
/// layout changes.
pub const FORMAT_HEADER: &str = "rumba-session-snapshot v1";

/// A parsed (or to-be-encoded) snapshot: the opening configuration plus
/// the raw word sections the session's components export.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SnapshotParts {
    /// Everything `Session::open` needs (fault plan and watchdog ride in
    /// their own sections of the encoded form).
    pub(crate) config: SessionConfig,
    /// `RumbaSystem::export_state` words (tuner, windows, checker, ...).
    pub(crate) runtime: Vec<u64>,
    /// The `SessionStats` counters (13, plus a trailing `compensated`
    /// word when nonzero).
    pub(crate) stats: Vec<u64>,
    /// Queued-but-undrained request rows: `[rows, input bits...]`.
    pub(crate) queue: Vec<u64>,
    /// Completed-but-uncollected results:
    /// `[count, (index, fired, predicted, measured, output bits...)...]`.
    pub(crate) completed: Vec<u64>,
}

impl SnapshotParts {
    /// Encodes the snapshot as its single-line text form.
    pub(crate) fn encode(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(
            64 + 17 * (self.runtime.len() + self.stats.len() + self.queue.len())
                + 17 * self.completed.len(),
        );
        out.push_str(FORMAT_HEADER);
        let c = &self.config;
        let _ = write!(out, " kernel={} seed={} checker={}", c.kernel, c.seed, c.checker.label());
        match c.mode {
            TuningMode::TargetQuality { toq } => {
                let _ = write!(out, " mode=toq:{:016x}", toq.to_bits());
            }
            TuningMode::EnergyBudget { budget } => {
                let _ = write!(out, " mode=energy:{budget}");
            }
            TuningMode::BestQuality => out.push_str(" mode=best"),
        }
        let _ = write!(
            out,
            " window={} queue={},{},{} admission={}",
            c.window,
            c.queue.input_capacity,
            c.queue.output_capacity,
            c.queue.recovery_capacity,
            c.admission.label()
        );
        // Omitted for the default re-execution policy, so snapshots of
        // sessions that never heard of compensation are byte-identical to
        // the pre-compensation encoding.
        if let FixPolicy::Compensate { band } = c.fix_policy {
            let _ = write!(out, " fix=comp:{:016x}", band.to_bits());
        }
        // Omitted for zoo-less sessions, so their snapshots stay
        // byte-identical to the pre-zoo encoding.
        if c.zoo > 0 {
            let _ = write!(out, " zoo={}", c.zoo);
        }
        // Omitted for refit-less sessions, so their snapshots stay
        // byte-identical to the pre-refit encoding. The token arms the
        // restore *before* the runtime words are imported — the runtime
        // section of a refit session carries a trailing reservoir/epoch
        // tail that only an armed system knows how to parse.
        if c.refit {
            out.push_str(" refit=1");
        }
        if let Some(plan) = &c.faults {
            push_section(&mut out, "faults", &encode_fault_plan(plan));
        }
        if let Some(w) = &c.watchdog {
            let words =
                [w.quality_limit.to_bits(), u64::from(w.patience), u64::from(w.fallback_patience)];
            push_section(&mut out, "watchdog", &words);
        }
        push_section(&mut out, "runtime", &self.runtime);
        push_section(&mut out, "stats", &self.stats);
        push_section(&mut out, "queue", &self.queue);
        push_section(&mut out, "completed", &self.completed);
        out
    }

    /// Parses the text form back into its parts, validating the header,
    /// every config token, and section arithmetic. The inverse of
    /// [`SnapshotParts::encode`], bit for bit.
    pub(crate) fn parse(text: &str) -> Result<Self, String> {
        let mut tokens = text.split_whitespace().peekable();
        let (magic, version) = (tokens.next(), tokens.next());
        if magic != Some("rumba-session-snapshot") || version != Some("v1") {
            return Err("not a rumba-session-snapshot v1".to_owned());
        }

        let mut config = SessionConfig::default();
        let mut seen_mode = false;
        while let Some(&token) = tokens.peek() {
            if token == "section" {
                break;
            }
            tokens.next();
            let (key, value) =
                token.split_once('=').ok_or_else(|| format!("malformed token {token:?}"))?;
            match key {
                "kernel" => config.kernel = value.to_owned(),
                "seed" => config.seed = parse_dec(value, "seed")?,
                "checker" => {
                    config.checker = CheckerKind::parse(value).map_err(|e| e.to_string())?;
                }
                "mode" => {
                    config.mode = parse_mode(value)?;
                    seen_mode = true;
                }
                "window" => config.window = parse_dec(value, "window")? as usize,
                "queue" => config.queue = parse_queue(value)?,
                "admission" => {
                    config.admission = AdmissionPolicy::parse(value).map_err(|e| e.to_string())?;
                }
                "fix" => config.fix_policy = parse_fix(value)?,
                "zoo" => config.zoo = parse_dec(value, "zoo")? as usize,
                "refit" => {
                    if value != "1" {
                        return Err(format!("bad refit value {value:?} (expected 1)"));
                    }
                    config.refit = true;
                }
                other => return Err(format!("unknown config key {other:?}")),
            }
        }
        if !seen_mode {
            return Err("snapshot is missing the mode token".to_owned());
        }

        let mut runtime = None;
        let mut stats = None;
        let mut queue = None;
        let mut completed = None;
        while let Some(keyword) = tokens.next() {
            if keyword != "section" {
                return Err(format!("expected section keyword, got {keyword:?}"));
            }
            let name = tokens.next().ok_or("section is missing its name")?;
            let count =
                parse_dec(tokens.next().ok_or("section is missing its word count")?, "count")?;
            // Every word takes at least two bytes of the text, which bounds
            // the preallocation whatever count a tampered line claims.
            let mut words = Vec::with_capacity((count as usize).min(text.len() / 2));
            for _ in 0..count {
                let hex = tokens
                    .next()
                    .ok_or_else(|| format!("section {name} truncated at word {}", words.len()))?;
                let word = u64::from_str_radix(hex, 16)
                    .map_err(|_| format!("section {name}: bad word {hex:?}"))?;
                words.push(word);
            }
            match name {
                "faults" => config.faults = Some(decode_fault_plan(&words)?),
                "watchdog" => {
                    if words.len() != 3 {
                        return Err(format!("watchdog section wants 3 words, got {}", words.len()));
                    }
                    let patience = u32::try_from(words[1])
                        .map_err(|_| "watchdog patience overflows u32".to_owned())?;
                    let fallback_patience = u32::try_from(words[2])
                        .map_err(|_| "watchdog fallback_patience overflows u32".to_owned())?;
                    config.watchdog = Some(WatchdogConfig {
                        quality_limit: f64::from_bits(words[0]),
                        patience,
                        fallback_patience,
                    });
                }
                "runtime" => runtime = Some(words),
                "stats" => stats = Some(words),
                "queue" => queue = Some(words),
                "completed" => completed = Some(words),
                other => return Err(format!("unknown section {other:?}")),
            }
        }

        Ok(Self {
            config,
            runtime: runtime.ok_or("snapshot is missing the runtime section")?,
            stats: stats.ok_or("snapshot is missing the stats section")?,
            queue: queue.ok_or("snapshot is missing the queue section")?,
            completed: completed.ok_or("snapshot is missing the completed section")?,
        })
    }
}

fn push_section(out: &mut String, name: &str, words: &[u64]) {
    use std::fmt::Write;
    let _ = write!(out, " section {name} {}", words.len());
    for w in words {
        let _ = write!(out, " {w:016x}");
    }
}

fn parse_dec(text: &str, what: &str) -> Result<u64, String> {
    text.parse::<u64>().map_err(|_| format!("bad {what} value {text:?}"))
}

fn parse_mode(value: &str) -> Result<TuningMode, String> {
    if value == "best" {
        return Ok(TuningMode::BestQuality);
    }
    let (tag, param) =
        value.split_once(':').ok_or_else(|| format!("malformed mode token {value:?}"))?;
    match tag {
        "toq" => {
            let bits =
                u64::from_str_radix(param, 16).map_err(|_| format!("bad toq bits {param:?}"))?;
            Ok(TuningMode::TargetQuality { toq: f64::from_bits(bits) })
        }
        "energy" => Ok(TuningMode::EnergyBudget { budget: parse_dec(param, "budget")? as usize }),
        other => Err(format!("unknown mode {other:?}")),
    }
}

fn parse_fix(value: &str) -> Result<FixPolicy, String> {
    let Some(("comp", bits)) = value.split_once(':') else {
        return Err(format!("malformed fix token {value:?} (expected comp:<band bits>)"));
    };
    let bits = u64::from_str_radix(bits, 16).map_err(|_| format!("bad band bits {bits:?}"))?;
    Ok(FixPolicy::Compensate { band: f64::from_bits(bits) })
}

fn parse_queue(value: &str) -> Result<QueueConfig, String> {
    let mut it = value.split(',');
    let mut next = |what: &str| -> Result<usize, String> {
        Ok(parse_dec(it.next().ok_or_else(|| format!("queue token missing {what}"))?, what)?
            as usize)
    };
    let config = QueueConfig {
        input_capacity: next("input_capacity")?,
        output_capacity: next("output_capacity")?,
        recovery_capacity: next("recovery_capacity")?,
    };
    if it.next().is_some() {
        return Err(format!("queue token has trailing fields: {value:?}"));
    }
    Ok(config)
}

/// `[plan seed, model count, (tag, p0, p1, p2) per model]` — numeric
/// params as raw bits (floats) or plain values (indices/counts), so the
/// decoded plan compares equal to the original and replays the identical
/// fault stream.
fn encode_fault_plan(plan: &FaultPlan) -> Vec<u64> {
    let mut words = Vec::with_capacity(2 + 4 * plan.models().len());
    words.push(plan.seed());
    words.push(plan.models().len() as u64);
    for model in plan.models() {
        let (tag, p0, p1, p2) = match *model {
            FaultModel::BitFlip { rate } => (0, rate.to_bits(), 0, 0),
            FaultModel::NonFinite { rate } => (1, rate.to_bits(), 0, 0),
            FaultModel::StuckAt { start, value } => (2, start as u64, value.to_bits(), 0),
            FaultModel::InputDrift { start, ramp, magnitude } => {
                (3, start as u64, ramp as u64, magnitude.to_bits())
            }
            FaultModel::CheckerBlind { rate } => (4, rate.to_bits(), 0, 0),
            FaultModel::QueuePressure { start, slots } => (5, start as u64, slots as u64, 0),
        };
        words.extend([tag, p0, p1, p2]);
    }
    words
}

fn decode_fault_plan(words: &[u64]) -> Result<FaultPlan, String> {
    let [seed, count, models @ ..] = words else {
        return Err("faults section wants at least 2 words".to_owned());
    };
    if models.len() != *count as usize * 4 {
        return Err(format!(
            "faults section declares {count} models but carries {} param words",
            models.len()
        ));
    }
    let mut plan = FaultPlan::new(*seed);
    for chunk in models.chunks_exact(4) {
        let [tag, p0, p1, p2] = [chunk[0], chunk[1], chunk[2], chunk[3]];
        let model = match tag {
            0 => FaultModel::BitFlip { rate: f64::from_bits(p0) },
            1 => FaultModel::NonFinite { rate: f64::from_bits(p0) },
            2 => FaultModel::StuckAt { start: p0 as usize, value: f64::from_bits(p1) },
            3 => FaultModel::InputDrift {
                start: p0 as usize,
                ramp: p1 as usize,
                magnitude: f64::from_bits(p2),
            },
            4 => FaultModel::CheckerBlind { rate: f64::from_bits(p0) },
            5 => FaultModel::QueuePressure { start: p0 as usize, slots: p1 as usize },
            other => return Err(format!("unknown fault model tag {other}")),
        };
        plan = plan.with(model);
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_config() -> SessionConfig {
        SessionConfig {
            kernel: "gaussian".to_owned(),
            seed: 9,
            checker: CheckerKind::Ema,
            mode: TuningMode::TargetQuality { toq: 0.93 },
            window: 16,
            queue: QueueConfig { input_capacity: 6, ..QueueConfig::default() },
            admission: AdmissionPolicy::Block,
            faults: Some(
                FaultPlan::new(11)
                    .with(FaultModel::NonFinite { rate: 0.05 })
                    .with(FaultModel::StuckAt { start: 3, value: -2.5 })
                    .with(FaultModel::InputDrift { start: 1, ramp: 4, magnitude: 0.25 })
                    .with(FaultModel::BitFlip { rate: 0.01 })
                    .with(FaultModel::CheckerBlind { rate: 0.02 })
                    .with(FaultModel::QueuePressure { start: 8, slots: 2 }),
            ),
            watchdog: Some(WatchdogConfig::default()),
            fix_policy: FixPolicy::Compensate { band: 0.125 },
            zoo: 2,
            refit: true,
        }
    }

    #[test]
    fn parts_round_trip_exactly() {
        let parts = SnapshotParts {
            config: rich_config(),
            runtime: vec![0.25f64.to_bits(), 7, u64::MAX],
            stats: vec![1; 13],
            queue: vec![2, 0.5f64.to_bits(), 0.75f64.to_bits()],
            completed: vec![0],
        };
        let text = parts.encode();
        assert!(!text.contains('\n'));
        let back = SnapshotParts::parse(&text).unwrap();
        assert_eq!(back.config.kernel, parts.config.kernel);
        assert_eq!(back.config.faults, parts.config.faults);
        assert_eq!(back.config.watchdog, parts.config.watchdog);
        assert_eq!(back, parts);
        // Encoding the parse is byte-identical: the codec is canonical.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn parse_rejects_corruption() {
        let parts = SnapshotParts {
            config: SessionConfig::default(),
            runtime: vec![1, 2],
            stats: vec![0; 13],
            queue: vec![0],
            completed: vec![0],
        };
        let text = parts.encode();
        assert!(SnapshotParts::parse("rumba-trained-model-cache v1").is_err());
        assert!(SnapshotParts::parse(&text.replace("v1", "v2")).is_err());
        assert!(
            SnapshotParts::parse(&text.replace("section stats 13", "section stats 14")).is_err()
        );
        assert!(SnapshotParts::parse(text.trim_end_matches(char::is_alphanumeric)).is_err());
        let truncated = text.rsplit_once(' ').unwrap().0;
        assert!(SnapshotParts::parse(truncated).is_err());
    }

    #[test]
    fn default_fix_policy_leaves_the_encoding_untouched() {
        let parts = SnapshotParts {
            config: SessionConfig::default(),
            runtime: vec![1],
            stats: vec![0; 13],
            queue: vec![0],
            completed: vec![0],
        };
        let text = parts.encode();
        assert!(!text.contains("fix="), "{text}");
        assert_eq!(SnapshotParts::parse(&text).unwrap().config.fix_policy, FixPolicy::Reexecute);

        let comp = SnapshotParts {
            config: SessionConfig {
                fix_policy: FixPolicy::Compensate { band: 0.25 },
                ..SessionConfig::default()
            },
            ..parts
        };
        let comp_text = comp.encode();
        assert!(comp_text.contains("fix=comp:"), "{comp_text}");
        assert_eq!(SnapshotParts::parse(&comp_text).unwrap(), comp);
        assert!(SnapshotParts::parse(&comp_text.replace("comp:", "warp:")).is_err());
    }

    #[test]
    fn zoo_less_sessions_leave_the_encoding_untouched() {
        let parts = SnapshotParts {
            config: SessionConfig::default(),
            runtime: vec![1],
            stats: vec![0; 13],
            queue: vec![0],
            completed: vec![0],
        };
        let text = parts.encode();
        assert!(!text.contains("zoo="), "{text}");
        assert_eq!(SnapshotParts::parse(&text).unwrap().config.zoo, 0);

        let zooed =
            SnapshotParts { config: SessionConfig { zoo: 3, ..SessionConfig::default() }, ..parts };
        let zoo_text = zooed.encode();
        assert!(zoo_text.contains(" zoo=3 "), "{zoo_text}");
        assert_eq!(SnapshotParts::parse(&zoo_text).unwrap(), zooed);
        assert!(SnapshotParts::parse(&zoo_text.replace("zoo=3", "zoo=x")).is_err());
    }

    #[test]
    fn refit_less_sessions_leave_the_encoding_untouched() {
        let parts = SnapshotParts {
            config: SessionConfig::default(),
            runtime: vec![1],
            stats: vec![0; 13],
            queue: vec![0],
            completed: vec![0],
        };
        let text = parts.encode();
        assert!(!text.contains("refit="), "{text}");
        assert!(!SnapshotParts::parse(&text).unwrap().config.refit);

        let armed = SnapshotParts {
            config: SessionConfig { refit: true, ..SessionConfig::default() },
            ..parts
        };
        let armed_text = armed.encode();
        assert!(armed_text.contains(" refit=1 "), "{armed_text}");
        assert_eq!(SnapshotParts::parse(&armed_text).unwrap(), armed);
        assert!(SnapshotParts::parse(&armed_text.replace("refit=1", "refit=2")).is_err());
    }
}
