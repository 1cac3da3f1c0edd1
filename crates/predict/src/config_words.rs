//! Config-stream serialization of the trained checkers.
//!
//! The paper transfers checker coefficients to the accelerator's
//! coefficient buffers "via a config queue (the same queue used to transfer
//! accelerator configuration)" (§3.2). This module defines that wire format
//! for the two trainable checkers:
//!
//! - linear: `[LINEAR_MAGIC, n_weights, weights..., bias]`
//! - tree: `[TREE_MAGIC, n_nodes, nodes...]` with each node either
//!   `[0, value]` (leaf) or `[1, feature, threshold]` (decision), in
//!   preorder.
//! - EVP: `[EVP_MAGIC, n_models, eps, models...]` with each value model as
//!   `[n_weights, weights..., bias]`.
//!
//! A checker's signed companion (the compensation path's model) travels
//! in the same format as a second stream ([`encode_linear_model`],
//! [`encode_tree_model`]); the deployment image carries only the magnitude
//! model.

use crate::tree::{DecisionTree, TreeNodeWord};
use crate::{EvpErrors, LinearErrors, LinearModel, PredictError, Result, TreeErrors};

/// Magic word marking a linear-checker stream.
pub const LINEAR_MAGIC: f64 = 0x4C_49_4E as f64; // "LIN"
/// Magic word marking a tree-checker stream.
pub const TREE_MAGIC: f64 = 0x54_52_45 as f64; // "TRE"
/// Magic word marking an EVP-checker stream.
pub const EVP_MAGIC: f64 = 0x45_56_50 as f64; // "EVP"

/// Serializes a linear checker.
///
/// # Examples
///
/// ```
/// use rumba_predict::{decode_linear, encode_linear, ErrorEstimator, LinearErrors};
///
/// let rows = [vec![0.0], vec![1.0]];
/// let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
/// let le = LinearErrors::train(&refs, &[0.0, 0.5], 1e-9).unwrap();
/// let mut restored = decode_linear(&encode_linear(&le)).unwrap();
/// assert!((restored.estimate(&[0.5], &[]) - 0.25).abs() < 1e-6);
/// ```
#[must_use]
pub fn encode_linear(checker: &LinearErrors) -> Vec<f64> {
    encode_linear_model(checker.model())
}

/// Reconstructs a linear checker from [`encode_linear`] output.
///
/// # Errors
///
/// Returns [`PredictError::ShapeMismatch`] for a truncated or oversized
/// stream and [`PredictError::InvalidParam`] for a bad magic word.
pub fn decode_linear(words: &[f64]) -> Result<LinearErrors> {
    decode_linear_model(words).map(LinearErrors::from_model)
}

/// [`encode_linear`] for a bare affine model (a signed companion).
#[must_use]
pub fn encode_linear_model(model: &LinearModel) -> Vec<f64> {
    let mut words = vec![LINEAR_MAGIC, model.weights().len() as f64];
    words.extend_from_slice(model.weights());
    words.push(model.bias());
    words
}

/// Inverse of [`encode_linear_model`]; fails as [`decode_linear`] does.
pub fn decode_linear_model(words: &[f64]) -> Result<LinearModel> {
    if words.first() != Some(&LINEAR_MAGIC) {
        return Err(PredictError::InvalidParam {
            name: "linear magic",
            value: words.first().map_or("<empty>".into(), |w| w.to_string()),
        });
    }
    let n = count(words.get(1))?;
    if words.len() != 2 + n + 1 {
        return Err(PredictError::ShapeMismatch {
            detail: format!("linear stream length {} for {n} weights", words.len()),
        });
    }
    let weights = words[2..2 + n].to_vec();
    let bias = words[2 + n];
    Ok(LinearModel::from_parts(weights, bias))
}

/// Serializes a tree checker: preorder node stream.
#[must_use]
pub fn encode_tree(checker: &TreeErrors) -> Vec<f64> {
    encode_tree_model(checker.tree())
}

/// Reconstructs a tree checker from [`encode_tree`] output.
///
/// # Errors
///
/// Returns [`PredictError::InvalidParam`] for bad magic/tags and
/// [`PredictError::ShapeMismatch`] for malformed streams.
pub fn decode_tree(words: &[f64]) -> Result<TreeErrors> {
    decode_tree_model(words).map(TreeErrors::from_tree)
}

/// [`encode_tree`] for a bare decision tree (a signed companion).
#[must_use]
pub fn encode_tree_model(tree: &DecisionTree) -> Vec<f64> {
    let node_words = tree.to_node_words();
    let mut words = vec![TREE_MAGIC, node_words.len() as f64];
    for node in node_words {
        match node {
            TreeNodeWord::Leaf { value } => {
                words.push(0.0);
                words.push(value);
            }
            TreeNodeWord::Split { feature, threshold } => {
                words.push(1.0);
                words.push(feature as f64);
                words.push(threshold);
            }
        }
    }
    words
}

/// Inverse of [`encode_tree_model`]; fails as [`decode_tree`] does.
pub fn decode_tree_model(words: &[f64]) -> Result<DecisionTree> {
    if words.first() != Some(&TREE_MAGIC) {
        return Err(PredictError::InvalidParam {
            name: "tree magic",
            value: words.first().map_or("<empty>".into(), |w| w.to_string()),
        });
    }
    let n_nodes = count(words.get(1))?;
    let mut nodes = Vec::with_capacity(n_nodes.min(words.len()));
    let mut pos = 2usize;
    for _ in 0..n_nodes {
        let tag = *words.get(pos).ok_or_else(|| truncated(words.len()))?;
        pos += 1;
        match tag as i64 {
            0 => {
                let value = *words.get(pos).ok_or_else(|| truncated(words.len()))?;
                pos += 1;
                nodes.push(TreeNodeWord::Leaf { value });
            }
            1 => {
                let feature = count(words.get(pos))?;
                let threshold = *words.get(pos + 1).ok_or_else(|| truncated(words.len()))?;
                pos += 2;
                nodes.push(TreeNodeWord::Split { feature, threshold });
            }
            _ => {
                return Err(PredictError::InvalidParam {
                    name: "tree node tag",
                    value: tag.to_string(),
                })
            }
        }
    }
    if pos != words.len() {
        return Err(PredictError::ShapeMismatch {
            detail: format!("tree stream has {} trailing words", words.len() - pos),
        });
    }
    DecisionTree::from_node_words(&nodes)
}

/// Serializes an EVP checker: one value model per output element plus the
/// relative-error denominator guard.
#[must_use]
pub fn encode_evp(checker: &EvpErrors) -> Vec<f64> {
    let mut words = vec![EVP_MAGIC, checker.models().len() as f64, checker.eps()];
    for model in checker.models() {
        words.push(model.weights().len() as f64);
        words.extend_from_slice(model.weights());
        words.push(model.bias());
    }
    words
}

/// Reconstructs an EVP checker from [`encode_evp`] output.
///
/// # Errors
///
/// Returns [`PredictError::InvalidParam`] for a bad magic word and
/// [`PredictError::ShapeMismatch`] for truncated or oversized streams.
pub fn decode_evp(words: &[f64]) -> Result<EvpErrors> {
    if words.first() != Some(&EVP_MAGIC) {
        return Err(PredictError::InvalidParam {
            name: "evp magic",
            value: words.first().map_or("<empty>".into(), |w| w.to_string()),
        });
    }
    let n_models = count(words.get(1))?;
    let eps = *words.get(2).ok_or_else(|| truncated(words.len()))?;
    let mut models = Vec::with_capacity(n_models.min(words.len()));
    let mut pos = 3usize;
    for _ in 0..n_models {
        let n = count(words.get(pos))?;
        pos += 1;
        let end = pos + n + 1;
        if words.len() < end {
            return Err(truncated(words.len()));
        }
        let weights = words[pos..pos + n].to_vec();
        let bias = words[pos + n];
        models.push(LinearModel::from_parts(weights, bias));
        pos = end;
    }
    if pos != words.len() {
        return Err(PredictError::ShapeMismatch {
            detail: format!("evp stream has {} trailing words", words.len() - pos),
        });
    }
    Ok(EvpErrors::from_parts(models, eps))
}

fn count(word: Option<&f64>) -> Result<usize> {
    match word {
        Some(&w) if w >= 0.0 && w.fract() == 0.0 && w < 1e9 => Ok(w as usize),
        Some(&w) => Err(PredictError::InvalidParam { name: "config count", value: w.to_string() }),
        None => Err(PredictError::ShapeMismatch { detail: "missing count word".into() }),
    }
}

fn truncated(len: usize) -> PredictError {
    PredictError::ShapeMismatch { detail: format!("config stream truncated at {len} words") }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErrorEstimator, TreeParams};

    fn trained_pair() -> (LinearErrors, TreeErrors) {
        let rows: Vec<Vec<f64>> =
            (0..200).map(|i| vec![i as f64 / 200.0, (i % 13) as f64 / 13.0]).collect();
        let errors: Vec<f64> =
            rows.iter().map(|r| if r[0] > 0.6 { 0.4 + r[1] * 0.1 } else { 0.02 }).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        (
            LinearErrors::train(&refs, &errors, 1e-6).unwrap(),
            TreeErrors::train(&refs, &errors, &TreeParams::default()).unwrap(),
        )
    }

    #[test]
    fn linear_round_trip_is_exact() {
        let (linear, _) = trained_pair();
        let mut restored = decode_linear(&encode_linear(&linear)).unwrap();
        let mut original = linear;
        for i in 0..20 {
            let x = [i as f64 / 20.0, (i % 3) as f64 / 3.0];
            assert_eq!(original.estimate(&x, &[]), restored.estimate(&x, &[]));
        }
    }

    #[test]
    fn tree_round_trip_is_exact() {
        let (_, tree) = trained_pair();
        let mut restored = decode_tree(&encode_tree(&tree)).unwrap();
        let mut original = tree;
        for i in 0..50 {
            let x = [i as f64 / 50.0, (i % 7) as f64 / 7.0];
            assert_eq!(original.estimate(&x, &[]), restored.estimate(&x, &[]));
        }
        assert_eq!(original.tree().depth(), restored.tree().depth());
        assert_eq!(original.tree().node_count(), restored.tree().node_count());
    }

    fn trained_evp() -> EvpErrors {
        let rows: Vec<Vec<f64>> =
            (0..120).map(|i| vec![i as f64 / 120.0, (i % 5) as f64 / 5.0]).collect();
        let outs: Vec<Vec<f64>> =
            rows.iter().map(|r| vec![2.0 * r[0] + r[1], 1.0 - r[0], r[1] * 0.5]).collect();
        let r: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let o: Vec<&[f64]> = outs.iter().map(Vec::as_slice).collect();
        EvpErrors::train(&r, &o, 1e-9).unwrap()
    }

    #[test]
    fn evp_round_trip_is_exact() {
        let evp = trained_evp();
        let mut restored = decode_evp(&encode_evp(&evp)).unwrap();
        let mut original = evp;
        assert_eq!(restored.models().len(), original.models().len());
        assert_eq!(restored.eps().to_bits(), original.eps().to_bits());
        for i in 0..30 {
            let x = [i as f64 / 30.0, (i % 4) as f64 / 4.0];
            let a = [x[0] * 1.9, 1.0 - x[0] * 1.1, x[1] * 0.4];
            assert_eq!(
                original.estimate(&x, &a).to_bits(),
                restored.estimate(&x, &a).to_bits(),
                "row {i}"
            );
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let (linear, tree) = trained_pair();
        let evp = trained_evp();
        // Each decoder must reject the others' streams.
        assert!(decode_linear(&encode_tree(&tree)).is_err());
        assert!(decode_tree(&encode_linear(&linear)).is_err());
        assert!(decode_evp(&encode_linear(&linear)).is_err());
        assert!(decode_linear(&encode_evp(&evp)).is_err());
        assert!(decode_tree(&encode_evp(&evp)).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let (linear, tree) = trained_pair();
        let lw = encode_linear(&linear);
        let tw = encode_tree(&tree);
        assert!(decode_linear(&lw[..lw.len() - 1]).is_err());
        assert!(decode_tree(&tw[..tw.len() - 1]).is_err());
        let ew = encode_evp(&trained_evp());
        for cut in [ew.len() - 1, 2, 3] {
            assert!(decode_evp(&ew[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = ew;
        trailing.push(0.25);
        assert!(decode_evp(&trailing).is_err());
    }

    #[test]
    fn trailing_words_rejected() {
        let (_, tree) = trained_pair();
        let mut tw = encode_tree(&tree);
        tw.push(0.5);
        assert!(decode_tree(&tw).is_err());
    }
}
