//! §3.2.1 — error prediction using a linear model.
//!
//! `err = w0*x0 + w1*x1 + ... + w(N-1)*x(N-1) + c` (Equation 1), with the
//! weights and constant determined by offline ridge least squares on
//! training errors. One online prediction costs `N` multiply-adds plus one
//! threshold comparison.

use crate::linalg::ridge_fit;
use crate::{
    decode_linear_model, encode_linear_model, CheckerCost, ErrorEstimator, Result, REFIT_RIDGE,
};

/// A plain affine function `w · x + c`, reusable for value prediction (EVP)
/// as well as error prediction (EEP).
///
/// # Examples
///
/// ```
/// use rumba_predict::LinearModel;
///
/// let rows: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + 1.0).collect();
/// let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
/// let m = LinearModel::fit(&refs, &ys, 1e-9).unwrap();
/// assert!((m.predict(&[10.0]) - 21.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    weights: Vec<f64>,
    bias: f64,
}

impl LinearModel {
    /// Fits the model by ridge least squares.
    ///
    /// # Errors
    ///
    /// Propagates shape and singularity errors from the solver.
    pub fn fit(rows: &[&[f64]], targets: &[f64], ridge: f64) -> Result<Self> {
        let w = ridge_fit(rows, targets, ridge)?;
        let (bias, weights) = w.split_last().expect("solver output is dim+1 wide");
        Ok(Self { weights: weights.to_vec(), bias: *bias })
    }

    /// Evaluates `w · x + c`. Extra trailing features are ignored; missing
    /// ones are treated as zero, mirroring a fixed-width hardware MAC chain.
    #[must_use]
    pub fn predict(&self, input: &[f64]) -> f64 {
        let mut acc = self.bias;
        for (w, x) in self.weights.iter().zip(input) {
            acc += w * x;
        }
        acc
    }

    /// Rebuilds a model from raw coefficients (the config-stream decoder's
    /// constructor).
    #[must_use]
    pub fn from_parts(weights: Vec<f64>, bias: f64) -> Self {
        Self { weights, bias }
    }

    /// Fitted feature weights.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted constant term.
    #[must_use]
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

/// The `linearErrors` checker: an input-based EEP estimator backed by one
/// [`LinearModel`] trained directly on observed invocation errors, plus an
/// optional second model fit on *signed* output-space errors for the
/// compensation path.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearErrors {
    model: LinearModel,
    signed: Option<LinearModel>,
}

impl LinearErrors {
    /// Trains on `(input row, observed invocation error)` pairs gathered by
    /// the offline trainer.
    ///
    /// # Errors
    ///
    /// Propagates shape and singularity errors from the solver.
    pub fn train(rows: &[&[f64]], errors: &[f64], ridge: f64) -> Result<Self> {
        Ok(Self { model: LinearModel::fit(rows, errors, ridge)?, signed: None })
    }

    /// Wraps an already-built model (the config-stream decoder's
    /// constructor).
    #[must_use]
    pub fn from_model(model: LinearModel) -> Self {
        Self { model, signed: None }
    }

    /// Attaches a model fit on signed output-space errors (mean of
    /// `approx[j] − exact[j]` per row); [`ErrorEstimator::estimate_signed`]
    /// evaluates it unclamped.
    #[must_use]
    pub fn with_signed_model(mut self, signed: LinearModel) -> Self {
        self.signed = Some(signed);
        self
    }

    /// The underlying affine model (weights feed the coefficient buffer).
    #[must_use]
    pub fn model(&self) -> &LinearModel {
        &self.model
    }

    /// The signed-error model, when one was attached.
    #[must_use]
    pub fn signed_model(&self) -> Option<&LinearModel> {
        self.signed.as_ref()
    }
}

impl ErrorEstimator for LinearErrors {
    fn name(&self) -> &'static str {
        "linearErrors"
    }

    fn estimate(&mut self, input: &[f64], _approx_output: &[f64]) -> f64 {
        // Magnitude estimates stay nonnegative; clamp the affine output.
        // The signed path below is deliberately unclamped.
        self.model.predict(input).max(0.0)
    }

    fn estimate_signed(&self, input: &[f64], _approx_output: &[f64], magnitude: f64) -> f64 {
        match &self.signed {
            Some(m) => m.predict(input),
            None => magnitude,
        }
    }

    fn state_config_word(&self) -> u64 {
        crate::config_fingerprint(
            self.name(),
            &[self.model.weights().len() as u64, u64::from(self.signed.is_some())],
        )
    }

    fn cost(&self) -> CheckerCost {
        CheckerCost {
            macs: self.model.weights().len() + 1,
            comparisons: 1,
            table_reads: self.model.weights().len() + 1,
        }
    }

    fn refit(
        &mut self,
        rows: &[&[f64]],
        targets: &[f64],
        signed_targets: &[f64],
    ) -> std::result::Result<(), String> {
        // Fit both models before swapping either, so a failed signed fit
        // cannot leave a half-replaced checker behind.
        let model = LinearModel::fit(rows, targets, REFIT_RIDGE).map_err(|e| e.to_string())?;
        let signed =
            LinearModel::fit(rows, signed_targets, REFIT_RIDGE).map_err(|e| e.to_string())?;
        self.model = model;
        self.signed = Some(signed);
        Ok(())
    }

    fn export_model(&self) -> Option<(Vec<f64>, Option<Vec<f64>>)> {
        Some((encode_linear_model(&self.model), self.signed.as_ref().map(encode_linear_model)))
    }

    fn import_model(
        &mut self,
        input_dim: usize,
        model: &[f64],
        signed: Option<&[f64]>,
    ) -> std::result::Result<(), String> {
        let decode = |words: &[f64]| {
            let model = decode_linear_model(words).map_err(|e| e.to_string())?;
            if model.weights().len() != input_dim {
                return Err(format!(
                    "linear model has {} weights for {input_dim} inputs",
                    model.weights().len()
                ));
            }
            if !model.weights().iter().chain([&model.bias()]).all(|v| v.is_finite()) {
                return Err("linear model has non-finite coefficients".to_owned());
            }
            Ok(model)
        };
        let (model, signed) = (decode(model)?, signed.map(decode).transpose()?);
        self.model = model;
        self.signed = signed;
        Ok(())
    }

    fn is_input_based(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn affine_rows(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![i as f64 / n as f64, ((i * 37) % n) as f64 / n as f64]).collect();
        let ys = rows.iter().map(|r| 0.3 * r[0] - 0.1 * r[1] + 0.5).collect();
        (rows, ys)
    }

    #[test]
    fn recovers_affine_coefficients() {
        let (rows, ys) = affine_rows(64);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let m = LinearModel::fit(&refs, &ys, 1e-9).unwrap();
        assert!((m.weights()[0] - 0.3).abs() < 1e-6);
        assert!((m.weights()[1] + 0.1).abs() < 1e-6);
        assert!((m.bias() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn estimate_is_clamped_nonnegative() {
        let rows = [vec![0.0], vec![1.0]];
        let errors = [0.0, -0.0];
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let mut le = LinearErrors::train(&refs, &errors, 1e-6).unwrap();
        assert!(le.estimate(&[-100.0], &[]) >= 0.0);
    }

    #[test]
    fn cost_scales_with_input_width() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64; 5]).collect();
        let errors: Vec<f64> = (0..10).map(|i| i as f64 * 0.01).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let le = LinearErrors::train(&refs, &errors, 1e-3).unwrap();
        assert_eq!(le.cost().macs, 6);
        assert!(le.is_input_based());
    }

    #[test]
    fn name_matches_paper_label() {
        let rows = [vec![0.0], vec![1.0]];
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let le = LinearErrors::train(&refs, &[0.1, 0.2], 1e-6).unwrap();
        assert_eq!(le.name(), "linearErrors");
    }

    #[test]
    fn refit_replaces_both_models_deterministically() {
        let (rows, ys) = affine_rows(64);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let mut le = LinearErrors::train(&refs, &ys, 1e-6).unwrap();
        assert!(le.signed_model().is_none());
        let new_targets: Vec<f64> = rows.iter().map(|r| 0.9 * r[0] + 0.2).collect();
        let signed: Vec<f64> = rows.iter().map(|r| 0.5 * r[1] - 0.1).collect();
        le.refit(&refs, &new_targets, &signed).unwrap();
        assert!((le.model().predict(&[1.0, 0.0]) - 1.1).abs() < 1e-3);
        assert!(le.signed_model().is_some());
        let mut again = LinearErrors::train(&refs, &ys, 1e-6).unwrap();
        again.refit(&refs, &new_targets, &signed).unwrap();
        assert_eq!(le.model().weights(), again.model().weights());
    }

    #[test]
    fn model_words_round_trip_bit_for_bit() {
        let (rows, ys) = affine_rows(32);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let signed: Vec<f64> = rows.iter().map(|r| r[0] - r[1]).collect();
        let mut le = LinearErrors::train(&refs, &ys, 1e-6).unwrap();
        le.refit(&refs, &ys, &signed).unwrap();
        let (model, signed) = le.export_model().unwrap();
        let mut other = LinearErrors::train(&refs, &ys, 1e-6).unwrap();
        other.import_model(2, &model, signed.as_deref()).unwrap();
        assert_eq!(other, le);
        assert_eq!(
            le.model().predict(&[0.3, 0.7]).to_bits(),
            other.model().predict(&[0.3, 0.7]).to_bits()
        );
        // Truncated, garbage and wrongly shaped streams are rejected.
        assert!(other.import_model(2, &model[..model.len() - 1], None).is_err());
        assert!(other.import_model(2, &[f64::NAN], None).is_err());
        assert!(other.import_model(3, &model, None).unwrap_err().contains("3 inputs"));
        let mut nan_bias = model.clone();
        *nan_bias.last_mut().unwrap() = f64::NAN;
        assert!(other.import_model(2, &nan_bias, None).unwrap_err().contains("non-finite"));
    }

    #[test]
    fn predict_tolerates_width_mismatch() {
        let m = LinearModel { weights: vec![1.0, 2.0], bias: 0.0 };
        assert_eq!(m.predict(&[1.0]), 1.0);
        assert_eq!(m.predict(&[1.0, 1.0, 9.0]), 3.0);
    }
}
