//! Session snapshot codec: one checksummed line of named word sections.
//!
//! A snapshot is the serialized form of a live serving session — its
//! opening configuration plus every piece of online state (tuner
//! threshold, checker history, window counters, fault accounting, queued
//! inputs, uncollected results). The configuration is a fixed set of
//! `key=value` tokens, every one always written; the online state is the
//! [`Sections`] each component writes and validates itself (see
//! [`rumba_predict::codec`]): `section <name> <count> <hex>…`, floats as
//! the `{:016x}` hex of their IEEE-754 bits so round-trips are bit-exact.
//! The line ends with an FNV-1a checksum of everything before it, so a
//! damaged line fails before any section is read, and a versioned header
//! refuses stale layouts outright.
//!
//! The whole snapshot is a single line (no newlines, characters drawn
//! from `[a-z0-9 =:,._-]`), so it embeds verbatim in a protocol JSON
//! string:
//!
//! ```text
//! rumba-session-snapshot v2 kernel=gaussian seed=7 checker=ema
//!     mode=toq:3feccccccccccccd window=16 queue=6,16,64 admission=shed
//!     fix=reexecute watchdog=off zoo=0 refit=0 fault_seed=0 faults=
//!     section tuner 2 3f91a… section window 11 … section ema 3 …
//!     section stats 14 … section queue 1 … section completed 1 …
//!     checksum=5c1e…
//! ```
//!
//! (wrapped here for readability). The session *name* is deliberately not
//! part of the snapshot: `restore` names the session, which is what lets
//! a snapshot migrate to a different shard — placement is a pure hash of
//! the name — or to a differently named session entirely.

use std::fmt::Write;
use std::str::FromStr;

use rumba_core::event_sim::QueueConfig;
use rumba_core::runtime::{FixPolicy, WatchdogConfig};
use rumba_core::tuner::TuningMode;
use rumba_faults::FaultPlan;
use rumba_predict::codec::{fnv1a, FNV_OFFSET};
use rumba_predict::Sections;

use crate::session::{AdmissionPolicy, CheckerKind, SessionConfig};

/// Leading tokens of every snapshot; bump the version when the layout
/// changes.
pub const FORMAT_HEADER: &str = "rumba-session-snapshot v2";

/// The configuration keys, each written exactly once, in this order.
const CONFIG_KEYS: [&str; 13] = [
    "kernel",
    "seed",
    "checker",
    "mode",
    "window",
    "queue",
    "admission",
    "fix",
    "watchdog",
    "zoo",
    "refit",
    "fault_seed",
    "faults",
];

/// Appends the `checksum=` token — FNV-1a over every preceding byte — to a
/// snapshot body: the last step of encoding, and how a test re-seals a
/// deliberately edited snapshot so the section validators, not the
/// checksum, must catch the edit.
#[must_use]
pub fn seal(mut body: String) -> String {
    let checksum = fnv1a(FNV_OFFSET, body.as_bytes());
    let _ = write!(body, " checksum={checksum:016x}");
    body
}

/// A parsed (or to-be-encoded) snapshot: the opening configuration plus
/// the state sections the session's components write.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SnapshotParts {
    /// Everything `Session::open` needs.
    pub(crate) config: SessionConfig,
    /// The runtime's and the session's state sections.
    pub(crate) sections: Sections,
}

impl SnapshotParts {
    /// Encodes the snapshot as its single-line text form.
    pub(crate) fn encode(&self) -> String {
        let c = &self.config;
        let words: usize = self.sections.iter().map(|(_, w)| 3 + w.len()).sum();
        let mut out = String::with_capacity(320 + 17 * words);
        let mode = match c.mode {
            TuningMode::TargetQuality { toq } => format!("toq:{:016x}", toq.to_bits()),
            TuningMode::EnergyBudget { budget } => format!("energy:{budget}"),
            TuningMode::BestQuality => "best".to_owned(),
        };
        let fix = match c.fix_policy {
            FixPolicy::Reexecute => "reexecute".to_owned(),
            FixPolicy::Compensate { band } => format!("comp:{:016x}", band.to_bits()),
        };
        let watchdog = c.watchdog.map_or_else(
            || "off".to_owned(),
            |w| {
                format!("{:016x}:{}:{}", w.quality_limit.to_bits(), w.patience, w.fallback_patience)
            },
        );
        let (fault_seed, faults) =
            c.faults.as_ref().map_or((0, String::new()), |p| (p.seed(), p.to_string()));
        let q = &c.queue;
        let _ = write!(
            out,
            "{FORMAT_HEADER} kernel={} seed={} checker={} mode={mode} window={} queue={},{},{} \
             admission={} fix={fix} watchdog={watchdog} zoo={} refit={} fault_seed={fault_seed} \
             faults={faults}",
            c.kernel,
            c.seed,
            c.checker.label(),
            c.window,
            q.input_capacity,
            q.output_capacity,
            q.recovery_capacity,
            c.admission.label(),
            c.zoo,
            u8::from(c.refit),
        );
        for (name, words) in self.sections.iter() {
            let _ = write!(out, " section {name} {}", words.len());
            for w in words {
                let _ = write!(out, " {w:016x}");
            }
        }
        seal(out)
    }

    /// Parses the text form back into its parts, checking the header, the
    /// checksum, every config token and the section envelope; the
    /// sections' contents are checked by the components that read them.
    /// The inverse of [`SnapshotParts::encode`], bit for bit.
    pub(crate) fn parse(text: &str) -> Result<Self, String> {
        let text = text.trim();
        let mut tokens = text.split_whitespace();
        match (tokens.next(), tokens.next()) {
            (Some("rumba-session-snapshot"), Some("v2")) => {}
            (Some("rumba-session-snapshot"), Some(version)) => {
                return Err(format!("snapshot format {version} is not supported (expected v2)"));
            }
            _ => return Err("not a rumba-session-snapshot".to_owned()),
        }
        let (body, checksum) = text.rsplit_once(" checksum=").ok_or("snapshot has no checksum")?;
        if u64::from_str_radix(checksum, 16) != Ok(fnv1a(FNV_OFFSET, body.as_bytes())) {
            return Err("snapshot checksum mismatch".to_owned());
        }

        let mut tokens = body.split_whitespace().skip(2).peekable();
        let mut config = SessionConfig::default();
        let (mut seen, mut fault_seed, mut faults) = (Vec::new(), 0, "");
        while let Some(token) = tokens.next_if(|&t| t != "section") {
            let (key, value) =
                token.split_once('=').ok_or_else(|| format!("malformed token {token:?}"))?;
            if seen.contains(&key) {
                return Err(format!("duplicated config key {key:?}"));
            }
            seen.push(key);
            let text_err = |e: crate::ServeError| e.to_string();
            match key {
                "kernel" => config.kernel = value.to_owned(),
                "seed" => config.seed = parse_num(value, key)?,
                "checker" => config.checker = CheckerKind::parse(value).map_err(text_err)?,
                "mode" => config.mode = parse_mode(value)?,
                "window" => config.window = parse_num(value, key)?,
                "queue" => config.queue = parse_queue(value)?,
                "admission" => {
                    config.admission = AdmissionPolicy::parse(value).map_err(text_err)?
                }
                "fix" => config.fix_policy = parse_fix(value)?,
                "watchdog" => config.watchdog = parse_watchdog(value)?,
                "zoo" => config.zoo = parse_num(value, key)?,
                "refit" => {
                    config.refit = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad refit value {value:?} (expected 0 or 1)")),
                    };
                }
                "fault_seed" => fault_seed = parse_num(value, key)?,
                "faults" => faults = value,
                other => return Err(format!("unknown config key {other:?}")),
            }
        }
        if let Some(missing) = CONFIG_KEYS.iter().find(|key| !seen.contains(key)) {
            return Err(format!("snapshot is missing the {missing} token"));
        }
        config.faults = Some(FaultPlan::parse(fault_seed, faults)?).filter(|p| !p.is_empty());

        let mut sections = Sections::default();
        while let Some(keyword) = tokens.next() {
            if keyword != "section" {
                return Err(format!("expected section keyword, got {keyword:?}"));
            }
            let name = tokens.next().ok_or("section is missing its name")?;
            let count: u64 =
                parse_num(tokens.next().ok_or("section is missing its word count")?, "count")?;
            let mut section = sections.section(name);
            for i in 0..count {
                let hex =
                    tokens.next().ok_or_else(|| format!("section {name} ends at word {i}"))?;
                let word = u64::from_str_radix(hex, 16)
                    .map_err(|_| format!("section {name}: bad word {hex:?}"))?;
                section.word(word);
            }
        }
        Ok(Self { config, sections })
    }
}

fn parse_num<T: FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("bad {what} value {text:?}"))
}

fn parse_bits(text: &str, what: &str) -> Result<f64, String> {
    u64::from_str_radix(text, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad {what} bits {text:?}"))
}

fn parse_mode(value: &str) -> Result<TuningMode, String> {
    match value.split_once(':') {
        None if value == "best" => Ok(TuningMode::BestQuality),
        Some(("toq", bits)) => Ok(TuningMode::TargetQuality { toq: parse_bits(bits, "toq")? }),
        Some(("energy", budget)) => {
            Ok(TuningMode::EnergyBudget { budget: parse_num(budget, "budget")? })
        }
        _ => Err(format!("malformed mode token {value:?}")),
    }
}

fn parse_fix(value: &str) -> Result<FixPolicy, String> {
    match value.split_once(':') {
        None if value == "reexecute" => Ok(FixPolicy::Reexecute),
        Some(("comp", bits)) => Ok(FixPolicy::Compensate { band: parse_bits(bits, "band")? }),
        _ => Err(format!("malformed fix token {value:?} (expected reexecute or comp:<bits>)")),
    }
}

fn parse_watchdog(value: &str) -> Result<Option<WatchdogConfig>, String> {
    if value == "off" {
        return Ok(None);
    }
    let fields: Vec<&str> = value.split(':').collect();
    let [limit, patience, fallback_patience] = fields[..] else {
        return Err(format!("malformed watchdog token {value:?} (expected off or 3 fields)"));
    };
    let quality_limit = parse_bits(limit, "watchdog limit")?;
    if !(quality_limit > 0.0 && quality_limit.is_finite()) {
        return Err(format!("watchdog limit {quality_limit} must be finite and above zero"));
    }
    Ok(Some(WatchdogConfig {
        quality_limit,
        patience: parse_num(patience, "watchdog patience")?,
        fallback_patience: parse_num(fallback_patience, "watchdog fallback_patience")?,
    }))
}

fn parse_queue(value: &str) -> Result<QueueConfig, String> {
    let fields: Vec<&str> = value.split(',').collect();
    let [input, output, recovery] = fields[..] else {
        return Err(format!("malformed queue token {value:?} (expected 3 capacities)"));
    };
    Ok(QueueConfig {
        input_capacity: parse_num(input, "input_capacity")?,
        output_capacity: parse_num(output, "output_capacity")?,
        recovery_capacity: parse_num(recovery, "recovery_capacity")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumba_faults::FaultModel;

    fn configs() -> Vec<SessionConfig> {
        let rich = SessionConfig {
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
        };
        vec![
            SessionConfig::default(),
            rich,
            SessionConfig { mode: TuningMode::EnergyBudget { budget: 5 }, ..Default::default() },
            SessionConfig { mode: TuningMode::BestQuality, zoo: 3, ..Default::default() },
        ]
    }

    fn sections() -> Sections {
        let mut sections = Sections::default();
        sections.section("tuner").float(0.25).word(7).word(u64::MAX);
        sections.section("queue").word(2).float(0.5).float(f64::NAN);
        sections.section("empty");
        sections
    }

    #[test]
    fn every_config_round_trips_exactly_with_every_token_written() {
        for config in configs() {
            let parts = SnapshotParts { config, sections: sections() };
            let text = parts.encode();
            assert!(!text.contains('\n'));
            assert!(
                text.bytes().all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b' ' | b'='
                    | b':' | b',' | b'.' | b'_' | b'-')),
                "{text}"
            );
            for key in CONFIG_KEYS {
                assert_eq!(text.matches(&format!(" {key}=")).count(), 1, "{key} in {text}");
            }
            let back = SnapshotParts::parse(&text).unwrap();
            assert_eq!(back, parts);
            // Encoding the parse is byte-identical: the codec is canonical.
            assert_eq!(back.encode(), text);
        }
    }

    /// Replaces `from` with `to` and seals the result with a fresh checksum.
    fn resealed(text: &str, from: &str, to: &str) -> String {
        seal(text.rsplit_once(" checksum=").unwrap().0.replacen(from, to, 1))
    }

    #[test]
    fn parse_rejects_corruption() {
        let text = SnapshotParts { config: configs()[1].clone(), sections: sections() }.encode();
        assert!(SnapshotParts::parse(&resealed(&text, "", "")).is_ok());
        assert!(SnapshotParts::parse("rumba-trained-model-cache v2").is_err());
        let v1 = text.replace("v2", "v1");
        assert!(SnapshotParts::parse(&v1).unwrap_err().contains("v1 is not supported"));
        // Any unsealed edit fails the checksum.
        let edited = text.replacen("window=16", "window=17", 1);
        assert!(SnapshotParts::parse(&edited).unwrap_err().contains("checksum"));
        assert!(SnapshotParts::parse(text.rsplit_once(' ').unwrap().0).is_err());
        for (from, to) in [
            (" window=16", " window=16 window=16"),
            (" zoo=2", ""),
            (" zoo=2", " zoo=2 colour=blue"),
            ("refit=1", "refit=2"),
            ("fix=comp:", "fix=warp:"),
            ("watchdog=", "watchdog=1:"),
            ("faults=non_finite=0.05", "faults=non_finite=NaN"),
            ("faults=non_finite", "faults=martian"),
            ("mode=toq", "mode=tok"),
            ("queue=6,16,64", "queue=6,16"),
            (" section queue 3", " section queue 4"),
            (" section queue 3", " section queue x"),
            (" section queue", " chapter queue"),
            (" 0000000000000007", " 00000000000000z7"),
        ] {
            let bad = resealed(&text, from, to);
            assert!(SnapshotParts::parse(&bad).is_err(), "{from:?} -> {to:?} accepted: {bad}");
        }
    }
}
