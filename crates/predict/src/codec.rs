//! The session-state codec: named sections of `u64` words.
//!
//! Every stateful component writes its online state into its own named
//! section of a [`Sections`] bag and reads it back through a checked
//! [`SectionReader`]. Each read says what it expects — a bounded count, a
//! 0|1 flag, a finite or positive float, a slice of known length — and
//! [`SectionReader::end`] refuses unread words. Taking a missing or
//! duplicated section is an error, and so is leaving a section untaken
//! ([`Sections::finish`]), so a tampered or mismatched snapshot fails with
//! a message instead of restoring state the live system could never reach.
//! The text envelope (`section <name> <count> <hex>…` plus a checksum)
//! belongs to the serving layer's snapshot line.

/// Largest value [`SectionReader::counter`] accepts: far above any live
/// stream, and far enough below `u64::MAX` that a restored counter keeps
/// counting without overflow.
pub const COUNTER_MAX: u64 = 1 << 53;

/// FNV-1a offset basis: the starting state of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a state `hash` (start from [`FNV_OFFSET`]).
#[must_use]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// An ordered bag of named word sections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sections(Vec<(String, Vec<u64>)>);

impl Sections {
    /// Appends an empty section named `name` and returns its writer.
    pub fn section(&mut self, name: &str) -> SectionWriter<'_> {
        self.0.push((name.to_owned(), Vec::new()));
        SectionWriter(&mut self.0.last_mut().expect("just pushed").1)
    }

    /// The sections in write order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u64])> {
        self.0.iter().map(|(name, words)| (name.as_str(), words.as_slice()))
    }

    /// Removes section `name` for reading; fails when it is missing or
    /// present more than once.
    pub fn take(&mut self, name: &str) -> Result<SectionReader, String> {
        let mut found = (0..self.0.len()).filter(|&i| self.0[i].0 == name);
        match (found.next(), found.next()) {
            (None, _) => Err(format!("missing section {name}")),
            (Some(_), Some(_)) => Err(format!("duplicated section {name}")),
            (Some(i), None) => {
                let (name, words) = self.0.remove(i);
                Ok(SectionReader { name, words, pos: 0 })
            }
        }
    }

    /// Checks that every section was taken; fails naming the first
    /// section no reader asked for.
    pub fn finish(self) -> Result<(), String> {
        self.0.first().map_or(Ok(()), |(name, _)| Err(format!("unknown section {name}")))
    }
}

/// Appends fields to one section (see [`Sections::section`]).
#[derive(Debug)]
pub struct SectionWriter<'a>(&'a mut Vec<u64>);

impl SectionWriter<'_> {
    /// A raw word.
    pub fn word(&mut self, word: u64) -> &mut Self {
        self.0.push(word);
        self
    }

    /// A 0|1 flag.
    pub fn flag(&mut self, flag: bool) -> &mut Self {
        self.word(u64::from(flag))
    }

    /// A float as its IEEE-754 bits.
    pub fn float(&mut self, value: f64) -> &mut Self {
        self.word(value.to_bits())
    }

    /// Floats of a length the reader knows.
    pub fn floats(&mut self, values: &[f64]) -> &mut Self {
        self.0.extend(values.iter().map(|v| v.to_bits()));
        self
    }

    /// A length-prefixed float stream.
    pub fn stream(&mut self, values: &[f64]) -> &mut Self {
        self.word(values.len() as u64).floats(values)
    }
}

/// Reads one section's fields back, checking each (see
/// [`Sections::take`]). Every read fails — with a message naming the
/// section — when the section has no words left or the word breaks the
/// read's promise.
#[derive(Debug)]
pub struct SectionReader {
    name: String,
    words: Vec<u64>,
    pos: usize,
}

impl SectionReader {
    /// Fails with `detail` unless `ok`: the hook for checks that span
    /// several fields.
    pub fn ensure(&self, ok: bool, detail: impl FnOnce() -> String) -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(format!("section {}: {}", self.name, detail()))
        }
    }

    /// A raw word.
    pub fn word(&mut self) -> Result<u64, String> {
        let word = self.words.get(self.pos).copied();
        self.ensure(word.is_some(), || "ran out of words".to_owned())?;
        self.pos += 1;
        Ok(word.unwrap_or_default())
    }

    /// A count no larger than `max`.
    pub fn count(&mut self, max: usize) -> Result<usize, String> {
        let word = self.word()?;
        self.ensure(word <= max as u64, || format!("count {word} exceeds {max}"))?;
        Ok(word as usize)
    }

    /// A running counter, at most [`COUNTER_MAX`].
    pub fn counter(&mut self) -> Result<u64, String> {
        self.count(COUNTER_MAX as usize).map(|c| c as u64)
    }

    /// A 0|1 flag.
    pub fn flag(&mut self) -> Result<bool, String> {
        Ok(self.count(1)? == 1)
    }

    /// A float of any bit pattern, NaN included.
    pub fn float(&mut self) -> Result<f64, String> {
        self.word().map(f64::from_bits)
    }

    /// A finite float.
    pub fn finite(&mut self) -> Result<f64, String> {
        let value = self.float()?;
        self.ensure(value.is_finite(), || format!("{value} is not finite"))?;
        Ok(value)
    }

    /// A finite float above zero.
    pub fn positive(&mut self) -> Result<f64, String> {
        let value = self.finite()?;
        self.ensure(value > 0.0, || format!("{value} is not above zero"))?;
        Ok(value)
    }

    /// Exactly `n` floats of any bit pattern.
    pub fn floats(&mut self, n: usize) -> Result<Vec<f64>, String> {
        let left = self.words.len() - self.pos;
        self.ensure(n <= left, || format!("wants {n} more words, has {left}"))?;
        let values = self.words[self.pos..self.pos + n].iter().map(|&w| f64::from_bits(w));
        self.pos += n;
        Ok(values.collect())
    }

    /// A length-prefixed float stream written by [`SectionWriter::stream`].
    pub fn stream(&mut self) -> Result<Vec<f64>, String> {
        let n = self.count(self.words.len().saturating_sub(self.pos + 1))?;
        self.floats(n)
    }

    /// Checks that every word was read.
    pub fn end(self) -> Result<(), String> {
        let left = self.words.len() - self.pos;
        self.ensure(left == 0, || format!("{left} unread words"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_round_trip_and_every_read_is_checked() {
        let mut sections = Sections::default();
        sections.section("a").word(7).flag(true).float(0.5).stream(&[1.0, f64::NAN]);
        sections.section("b").float(f64::INFINITY).word(2);
        let mut a = sections.clone().take("a").unwrap();
        assert_eq!(a.count(7), Ok(7));
        assert_eq!(a.flag(), Ok(true));
        assert_eq!(a.positive(), Ok(0.5));
        let stream = a.stream().unwrap();
        assert_eq!((stream[0], stream[1].is_nan()), (1.0, true));
        assert!(a.end().is_ok());

        let mut b = sections.clone().take("b").unwrap();
        assert!(b.finite().unwrap_err().starts_with("section b: "));
        assert!(b.flag().is_err(), "2 is not a flag");
        let mut b = sections.clone().take("b").unwrap();
        assert!(b.word().is_ok() && b.floats(2).is_err());
        let mut a = sections.clone().take("a").unwrap();
        assert!(a.count(6).is_err(), "bounded count");
        let a = sections.clone().take("a").unwrap();
        assert!(a.end().unwrap_err().contains("unread"));

        let mut bag = sections.clone();
        assert!(bag.take("c").is_err());
        assert!(bag.take("a").is_ok());
        assert_eq!(bag.clone().finish(), Err("unknown section b".to_owned()));
        assert!(bag.take("b").is_ok() && bag.finish().is_ok());
        sections.section("a");
        assert!(sections.take("a").unwrap_err().contains("duplicated"));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"fo"), b"obar"), fnv1a(FNV_OFFSET, b"foobar"));
    }
}
