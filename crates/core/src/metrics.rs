//! Evaluation metrics: pairwise accuracy, ROC curves and AUC (§VI-B).

/// A scored prediction: `(score, label)` where `score` is the model's
/// probability that the first program is slower and `label ∈ {0, 1}`.
pub type Scored = (f32, f32);

/// Fraction of predictions on the correct side of `threshold`.
///
/// Returns 0.5 (chance) for an empty slice so callers can fold results
/// without special cases.
pub fn accuracy_at(scored: &[Scored], threshold: f32) -> f64 {
    if scored.is_empty() {
        return 0.5;
    }
    let correct = scored
        .iter()
        .filter(|&&(score, label)| (score >= threshold) == (label >= 0.5))
        .count();
    correct as f64 / scored.len() as f64
}

/// Accuracy at the conventional 0.5 threshold — the paper's headline
/// metric.
pub fn accuracy(scored: &[Scored]) -> f64 {
    accuracy_at(scored, 0.5)
}

/// A receiver-operating-characteristic curve with its area.
#[derive(Debug, Clone, PartialEq)]
pub struct RocCurve {
    /// `(false positive rate, true positive rate)` points, sweeping the
    /// confidence threshold from +∞ down to −∞ (so FPR ascends).
    pub points: Vec<(f64, f64)>,
    /// Area under the curve (trapezoidal).
    pub auc: f64,
}

/// Builds the ROC curve over scored predictions (Figure 4 of the paper).
///
/// Ties in scores are handled by grouping: threshold steps happen between
/// distinct score values, which yields the standard staircase with
/// diagonal tie segments.
pub fn roc(scored: &[Scored]) -> RocCurve {
    let pos = scored.iter().filter(|&&(_, l)| l >= 0.5).count() as f64;
    let neg = scored.len() as f64 - pos;
    if pos == 0.0 || neg == 0.0 {
        return RocCurve {
            points: vec![(0.0, 0.0), (1.0, 1.0)],
            auc: 0.5,
        };
    }
    let mut sorted: Vec<Scored> = scored.to_vec();
    sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN score"));

    let mut points = vec![(0.0, 0.0)];
    let (mut tp, mut fp) = (0.0f64, 0.0f64);
    let mut i = 0;
    while i < sorted.len() {
        let score = sorted[i].0;
        // Consume the whole tie group before emitting a point.
        while i < sorted.len() && sorted[i].0 == score {
            if sorted[i].1 >= 0.5 {
                tp += 1.0;
            } else {
                fp += 1.0;
            }
            i += 1;
        }
        points.push((fp / neg, tp / pos));
    }
    if *points.last().expect("nonempty") != (1.0, 1.0) {
        points.push((1.0, 1.0));
    }

    let mut auc = 0.0;
    for w in points.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        auc += (x1 - x0) * (y0 + y1) / 2.0;
    }
    RocCurve { points, auc }
}

/// Summary of a model evaluation on a pair set.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// All scored predictions.
    pub scored: Vec<Scored>,
    /// Accuracy at threshold 0.5.
    pub accuracy: f64,
}

impl EvalResult {
    /// Builds the summary from raw scored predictions.
    pub fn from_scored(scored: Vec<Scored>) -> EvalResult {
        let accuracy = accuracy(&scored);
        EvalResult { scored, accuracy }
    }

    /// The ROC curve of these predictions.
    pub fn roc(&self) -> RocCurve {
        roc(&self.scored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_correct_sides() {
        let scored = vec![(0.9, 1.0), (0.2, 0.0), (0.6, 0.0), (0.4, 1.0)];
        assert_eq!(accuracy(&scored), 0.5);
        assert_eq!(accuracy(&[(0.8, 1.0), (0.1, 0.0)]), 1.0);
        assert_eq!(accuracy(&[]), 0.5);
    }

    #[test]
    fn perfect_classifier_auc_is_one() {
        let scored = vec![(0.9, 1.0), (0.8, 1.0), (0.3, 0.0), (0.1, 0.0)];
        let curve = roc(&scored);
        assert!((curve.auc - 1.0).abs() < 1e-9, "{curve:?}");
    }

    #[test]
    fn reversed_classifier_auc_is_zero() {
        let scored = vec![(0.1, 1.0), (0.2, 1.0), (0.8, 0.0), (0.9, 0.0)];
        let curve = roc(&scored);
        assert!(curve.auc.abs() < 1e-9);
    }

    #[test]
    fn random_scores_auc_near_half() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let scored: Vec<Scored> = (0..4000)
            .map(|_| (rng.random::<f32>(), rng.random_bool(0.5) as i32 as f32))
            .collect();
        let curve = roc(&scored);
        assert!((curve.auc - 0.5).abs() < 0.05, "auc {}", curve.auc);
    }

    #[test]
    fn auc_hand_computed_case() {
        // Scores: pos at 0.9, neg at 0.5, pos at 0.3 → one mistake.
        // AUC = P(score_pos > score_neg) = (1 + 0) / 2 = 0.5? No: pairs are
        // (0.9 vs 0.5)=win, (0.3 vs 0.5)=loss → AUC = 1/2.
        let scored = vec![(0.9, 1.0), (0.5, 0.0), (0.3, 1.0)];
        let curve = roc(&scored);
        assert!((curve.auc - 0.5).abs() < 1e-9, "{curve:?}");
    }

    #[test]
    fn roc_monotone_and_bounded() {
        let scored: Vec<Scored> = (0..100)
            .map(|i| ((i as f32) / 100.0, ((i % 3) == 0) as i32 as f32))
            .collect();
        let curve = roc(&scored);
        for w in curve.points.windows(2) {
            assert!(w[1].0 >= w[0].0, "FPR must be non-decreasing");
            assert!(w[1].1 >= w[0].1, "TPR must be non-decreasing");
        }
        assert!(curve.auc >= 0.0 && curve.auc <= 1.0);
        assert_eq!(curve.points[0], (0.0, 0.0));
        assert_eq!(*curve.points.last().unwrap(), (1.0, 1.0));
    }

    #[test]
    fn degenerate_single_class() {
        let scored = vec![(0.7, 1.0), (0.6, 1.0)];
        assert_eq!(roc(&scored).auc, 0.5);
    }

    #[test]
    fn auc_invariant_to_monotone_score_transform() {
        let scored = vec![
            (0.9f32, 1.0f32),
            (0.5, 0.0),
            (0.3, 1.0),
            (0.8, 1.0),
            (0.2, 0.0),
        ];
        let transformed: Vec<Scored> = scored.iter().map(|&(s, l)| (s * s * 10.0, l)).collect();
        assert!((roc(&scored).auc - roc(&transformed).auc).abs() < 1e-12);
    }
}
