//! Small numeric helpers: quantiles that refuse to over-claim, medians,
//! and the response-stream digest the correctness checks compare.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-quantile (0 < p < 1) of `samples` by the nearest-rank rule,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it — a
/// tail percentile resting on a handful of samples is noise, not a
/// measurement.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    if n - 1 - rank(n, p) < MIN_BEYOND {
        return None;
    }
    Some(nearest_rank(samples, p))
}

/// Zero-based nearest-rank index of the `p`-quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).max(1) - 1
}

/// The `p`-quantile of `samples` by the nearest-rank rule, however few
/// samples lie beyond it (for figures printed with their sample count).
/// `NaN` for an empty slice.
#[must_use]
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p)]
}

/// Median by the nearest-rank rule (no minimum tail: the median is
/// always supported). `NaN` for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Arithmetic mean; `NaN` for an empty slice.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Incremental FNV-1a (64-bit) over a byte stream, plus a byte count, so
/// a response stream can be checked without keeping it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    hash: u64,
    bytes: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self { hash: 0xcbf2_9ce4_8422_2325, bytes: 0 }
    }
}

impl Digest {
    /// Folds `data` into the digest.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100_0000_01B3);
        }
        self.bytes += data.len() as u64;
    }

    /// Folds one response line plus its newline terminator, as it appears
    /// on the wire.
    pub fn line(&mut self, line: &str) {
        self.update(line.as_bytes());
        self.update(b"\n");
    }

    /// Digest of a whole byte string.
    #[cfg(test)]
    #[must_use]
    pub fn of(data: &[u8]) -> Self {
        let mut d = Self::default();
        d.update(data);
        d
    }
}

/// Compares a measured response stream's digest against the reference
/// replay's, naming the stream on mismatch.
///
/// # Errors
///
/// Returns a message when the hashes or lengths differ.
pub fn check_digest(stream: &str, expected: Digest, got: Digest) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "{stream}: response bytes differ from the reference replay \
             ({} bytes, hash {:016x}; reference {} bytes, hash {:016x})",
            got.bytes, got.hash, expected.bytes, expected.hash
        ))
    }
}

/// Seeded SplitMix64 stream: every generated input is a pure function of
/// the seed and the stream's salt.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, salt)`.
    #[must_use]
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Self(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90 with exactly ten samples (91..=100) beyond.
        assert_eq!(percentile(&samples, 0.90), Some(90.0));
        // p99 would rest on one sample.
        assert_eq!(percentile(&samples, 0.99), None);
        let more: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(percentile(&more, 0.99), Some(1089.0));
        assert_eq!(percentile(&more[..1000], 0.99), Some(990.0));
        assert_eq!(percentile(&more[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..50).map(|i| f64::from((i * 37) % 50)).collect();
        let a = percentile(&samples, 0.5);
        samples.reverse();
        assert_eq!(a, percentile(&samples, 0.5));
        assert_eq!(a, Some(24.0));
    }

    #[test]
    fn digest_rejects_one_flipped_byte() {
        let stream = b"{\"type\":\"result\",\"session\":\"a\",\"index\":0}\n{\"type\":\"ack\"}\n";
        let reference = Digest::of(stream);
        assert!(check_digest("conn0", reference, Digest::of(stream)).is_ok());
        for i in 0..stream.len() {
            for bit in 0..8 {
                let mut flipped = stream.to_vec();
                flipped[i] ^= 1 << bit;
                assert!(
                    check_digest("conn0", reference, Digest::of(&flipped)).is_err(),
                    "flip of bit {bit} in byte {i} went unnoticed"
                );
            }
        }
        // A truncated stream is rejected too.
        let short = Digest::of(&stream[..stream.len() - 1]);
        assert!(check_digest("conn0", reference, short).is_err());
    }

    #[test]
    fn line_digest_matches_wire_bytes() {
        let mut d = Digest::default();
        d.line("a");
        d.line("bc");
        assert_eq!(d, Digest::of(b"a\nbc\n"));
    }
}
