//! Light-weight approximation-error predictors — Rumba's "checkers" (§3.2).
//!
//! A dynamic checker never sees the exact result; it must predict, for every
//! accelerator invocation, how large the approximation error will be, using
//! either the accelerator's *inputs* (input-based methods) or its
//! approximate *outputs* (output-based methods):
//!
//! - [`LinearErrors`] — §3.2.1's linear model over the inputs (EEP),
//! - [`TreeErrors`] — §3.2.2's decision tree of depth ≤ 7 (EEP),
//! - [`EmaDetector`] — §3.2.3's exponential moving average (output-based),
//! - [`EvpErrors`] — the Errors-by-Value-Prediction alternative (predict the
//!   output, then difference it against the accelerator output) the paper
//!   evaluates against EEP and rejects.
//!
//! All checkers expose a [`CheckerCost`] describing the hardware work one
//! prediction costs (multiply-accumulates, comparisons, table reads), which
//! the accelerator and energy models consume.
//!
//! # Examples
//!
//! Train a decision-tree checker on observed errors and query it:
//!
//! ```
//! use rumba_predict::{ErrorEstimator, TreeErrors, TreeParams};
//!
//! // Error is high exactly when the (single) input is negative.
//! let inputs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 100.0 - 1.0]).collect();
//! let errors: Vec<f64> = inputs.iter().map(|x| if x[0] < 0.0 { 0.8 } else { 0.05 }).collect();
//! let rows: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
//! let mut tree = TreeErrors::train(&rows, &errors, &TreeParams::default()).unwrap();
//! assert!(tree.estimate(&[-0.5], &[]) > 0.5);
//! assert!(tree.estimate(&[0.5], &[]) < 0.2);
//! ```

pub mod codec;
mod config_words;
mod cost;
mod ema;
mod ensemble;
mod evp;
pub mod linalg;
mod linear;
mod table;
mod tree;

use std::error::Error;
use std::fmt;

pub use codec::Sections;
pub use config_words::{
    decode_evp, decode_linear, decode_linear_model, decode_tree, decode_tree_model, encode_evp,
    encode_linear, encode_linear_model, encode_tree, encode_tree_model, EVP_MAGIC, LINEAR_MAGIC,
    TREE_MAGIC,
};
pub use cost::CheckerCost;
pub use ema::EmaDetector;
pub use ensemble::MaxEnsemble;
pub use evp::EvpErrors;
pub use linear::{LinearErrors, LinearModel};
pub use table::{TableErrors, TableParams};
pub use tree::{DecisionTree, TreeErrors, TreeNodeWord, TreeParams};

/// Errors produced while training predictors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PredictError {
    /// No training rows were supplied.
    EmptyTrainingSet,
    /// Training rows disagree on feature width, or targets have a different
    /// length than the inputs.
    ShapeMismatch {
        /// Description of the disagreement.
        detail: String,
    },
    /// The normal-equations system was singular even after ridge damping.
    SingularSystem,
    /// A hyper-parameter was out of range.
    InvalidParam {
        /// Name of the offending parameter.
        name: &'static str,
        /// Offending value rendered as text.
        value: String,
    },
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::EmptyTrainingSet => write!(f, "training set contains no rows"),
            PredictError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            PredictError::SingularSystem => {
                write!(f, "normal equations are singular; increase the ridge term")
            }
            PredictError::InvalidParam { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
        }
    }
}

impl Error for PredictError {}

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, PredictError>;

/// A dynamic checker: predicts the approximation error of one invocation.
///
/// Input-based estimators (linear, tree, EVP) look only at `input`;
/// output-based estimators (EMA) look only at `approx_output`. The estimate
/// is on the same scale as the application's invocation error metric, so
/// the detection module can compare it directly against the tuning
/// threshold.
///
/// Estimators take `&mut self` because output-based methods carry online
/// state (the moving average); [`ErrorEstimator::reset`] clears that state
/// between runs.
pub trait ErrorEstimator: fmt::Debug + Send {
    /// Short scheme name as used in the paper's figures, e.g.
    /// `"linearErrors"`.
    fn name(&self) -> &'static str;

    /// Predicts the invocation's approximation error.
    fn estimate(&mut self, input: &[f64], approx_output: &[f64]) -> f64;

    /// Predicts the invocation's *signed* output-space error — the mean of
    /// `approx[j] − exact[j]` over the output elements — so the runtime can
    /// compensate by subtracting it from the approximate output in place.
    ///
    /// `magnitude` is the value [`ErrorEstimator::estimate`] returned for
    /// this same invocation; the default implementation echoes it back
    /// (magnitude-only checkers compensate as if the error were positive).
    /// Implementations must be pure (`&self`): the runtime calls this only
    /// *after* `estimate` for the row, and it must not advance any online
    /// state — compensated rows follow the same quarantine discipline as
    /// forced-exact ones.
    fn estimate_signed(&self, input: &[f64], approx_output: &[f64], magnitude: f64) -> f64 {
        let _ = (input, approx_output);
        magnitude
    }

    /// Scores `n` invocations from flat row-major buffers, appending one
    /// estimate per row to `scores` (cleared first). `inputs` is
    /// `n × input_dim` and `approx_outputs` is `n × output_dim`; a width of
    /// zero means "no data on that port" and hands every row an empty
    /// slice. Rows are scored in ascending order, so stateful estimators
    /// see the same sequence as a per-row loop — the default implementation
    /// *is* that loop, and implementors must preserve its bit-exact
    /// behaviour.
    fn estimate_batch(
        &mut self,
        n: usize,
        inputs: &[f64],
        input_dim: usize,
        approx_outputs: &[f64],
        output_dim: usize,
        scores: &mut Vec<f64>,
    ) {
        debug_assert_eq!(inputs.len(), n * input_dim);
        debug_assert_eq!(approx_outputs.len(), n * output_dim);
        scores.clear();
        scores.reserve(n);
        for i in 0..n {
            let x =
                if input_dim == 0 { &[][..] } else { &inputs[i * input_dim..(i + 1) * input_dim] };
            let a = if output_dim == 0 {
                &[][..]
            } else {
                &approx_outputs[i * output_dim..(i + 1) * output_dim]
            };
            scores.push(self.estimate(x, a));
        }
    }

    /// Hardware work one prediction costs.
    fn cost(&self) -> CheckerCost;

    /// Clears any online state. Stateless estimators need not override.
    fn reset(&mut self) {}

    /// Writes the estimator's *online* state (not its trained
    /// coefficients) as its own named section of a session snapshot.
    /// Stateless estimators (linear, tree, EVP: everything they know is in
    /// the trained model) write nothing; only online detectors like the
    /// EMA override.
    fn export_state(&self, out: &mut Sections) {
        let _ = out;
    }

    /// Restores state written by [`ErrorEstimator::export_state`] on an
    /// identically configured estimator, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when the estimator's section
    /// is missing or does not decode for its configuration.
    fn import_state(&mut self, sections: &mut Sections) -> std::result::Result<(), String> {
        let _ = sections;
        Ok(())
    }

    /// Re-fits the estimator's *trained* model — and its signed companion —
    /// from ground truth collected online: `rows` are accelerator input
    /// rows, `targets` the observed invocation-error magnitudes, and
    /// `signed_targets` the per-row mean signed output errors
    /// (`mean_j(approx[j] − exact[j])`). The runtime's watchdog calls this
    /// at the `Recalibrated` rung with the rows its recovery reservoir
    /// accumulated, so a checker trained before an input-distribution
    /// shift can re-learn the drifted regime without an offline pass.
    ///
    /// The default declines: output-based detectors (EMA) and composite
    /// estimators carry no refittable model, and the runtime falls back to
    /// its reset-only recalibration when refit is unsupported.
    ///
    /// # Errors
    ///
    /// Returns a description of why the refit was refused or failed; on
    /// error the estimator's trained model is unchanged.
    fn refit(
        &mut self,
        rows: &[&[f64]],
        targets: &[f64],
        signed_targets: &[f64],
    ) -> std::result::Result<(), String> {
        let _ = (rows, targets, signed_targets);
        Err(format!("{} does not support online refit", self.name()))
    }

    /// The estimator's *trained* model and its signed companion (when
    /// attached) as config-queue streams ([`encode_linear_model`],
    /// [`encode_tree_model`]), so a session snapshot can migrate a checker
    /// that was re-fitted online — [`ErrorEstimator::export_state`] covers
    /// only online state and assumes the trained model is reproducible
    /// from the offline pipeline, which stops being true after the first
    /// [`ErrorEstimator::refit`]. `None` for estimators without refit
    /// support (their trained state never diverges from offline training).
    fn export_model(&self) -> Option<(Vec<f64>, Option<Vec<f64>>)> {
        None
    }

    /// Restores streams produced by [`ErrorEstimator::export_model`], bit
    /// for bit, for accelerator inputs `input_dim` wide.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when a stream does not decode
    /// for this estimator kind or reads features outside `input_dim`, or
    /// when the estimator does not support trained-model transport at all.
    fn import_model(
        &mut self,
        input_dim: usize,
        model: &[f64],
        signed: Option<&[f64]>,
    ) -> std::result::Result<(), String> {
        let _ = (input_dim, model, signed);
        Err(format!("{} does not support trained-model import", self.name()))
    }

    /// A deterministic fingerprint of the estimator's *configuration* —
    /// kind plus the shape parameters that govern how
    /// [`ErrorEstimator::export_state`] words decode (EMA alpha window and
    /// slot count, model widths, tree size). Two estimators whose state
    /// words are interchangeable bit-for-bit must agree on this word; two
    /// whose word counts merely coincide (an EMA under a different alpha, a
    /// linear snapshot restored as tree) must not. The serving layer stores
    /// it alongside the state words and rejects restores onto a
    /// differently-configured checker.
    fn state_config_word(&self) -> u64 {
        config_fingerprint(self.name(), &[])
    }

    /// Whether the estimator reads accelerator inputs (true) or approximate
    /// outputs (false) — §3.5's placement constraint: only input-based
    /// detectors can run before/parallel to the accelerator.
    fn is_input_based(&self) -> bool;
}

/// Ridge damping used by [`ErrorEstimator::refit`] implementations.
/// Stiffer than the offline trainer's default because refit reservoirs
/// are small and biased toward fired rows, which leaves the normal
/// equations ill-conditioned under the offline damping.
pub const REFIT_RIDGE: f64 = 1e-4;

/// FNV-1a over the estimator name and its shape parameters — the default
/// currency of [`ErrorEstimator::state_config_word`].
#[must_use]
pub fn config_fingerprint(name: &str, params: &[u64]) -> u64 {
    params.iter().fold(codec::fnv1a(codec::FNV_OFFSET, name.as_bytes()), |h, p| {
        codec::fnv1a(h, &p.to_le_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase() {
        for e in [
            PredictError::EmptyTrainingSet,
            PredictError::ShapeMismatch { detail: "x".into() },
            PredictError::SingularSystem,
            PredictError::InvalidParam { name: "depth", value: "0".into() },
        ] {
            let s = e.to_string();
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<PredictError>();
    }
}
