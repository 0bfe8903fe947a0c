//! Prediction-sensitivity analysis (§VI-E, Figure 6).
//!
//! "We sort the evaluation sets and record accuracy for pairs with a
//! difference beyond a certain threshold": accuracy is recomputed over the
//! subset of test pairs whose true runtime gap `|tᵢ − tⱼ|` is at least a
//! minimum, sweeping that minimum upward. Accuracy rises with the
//! threshold because large gaps come from structurally obvious differences
//! (extra loop nests, much longer code) while small gaps are dominated by
//! measurement noise.

use ccsa_corpus::Submission;

use ccsa_model::metrics::accuracy;
use ccsa_model::pair::Pair;

/// One point of the sensitivity curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityPoint {
    /// Minimum runtime difference (ms) for a pair to be counted.
    pub min_diff_ms: f64,
    /// Accuracy over the retained pairs.
    pub accuracy: f64,
    /// Number of retained pairs.
    pub pairs: usize,
}

/// Computes the Figure-6 curve: accuracy over pairs whose runtime gap is at
/// least each threshold.
///
/// `scored` must align 1:1 with `pairs` (as produced by
/// [`evaluate`](ccsa_model::trainer::evaluate)). Thresholds are taken at
/// `steps` evenly spaced quantile positions of the observed gaps, so the
/// curve spans the dataset's actual range whatever its units.
pub fn sensitivity_curve(
    subs: &[Submission],
    pairs: &[Pair],
    scored: &[(f32, f32)],
    steps: usize,
) -> Vec<SensitivityPoint> {
    assert_eq!(pairs.len(), scored.len(), "pairs and scores must align");
    let gaps: Vec<f64> = pairs
        .iter()
        .map(|p| (subs[p.a].runtime_ms - subs[p.b].runtime_ms).abs())
        .collect();
    let mut sorted_gaps = gaps.clone();
    sorted_gaps.sort_by(|a, b| a.partial_cmp(b).expect("NaN gap"));
    let steps = steps.max(2);

    let mut curve = Vec::with_capacity(steps);
    for s in 0..steps {
        // Quantile positions from 0 % to 90 % keep ≥ 10 % of pairs at the
        // deepest threshold.
        let q = 0.9 * s as f64 / (steps - 1) as f64;
        let threshold = sorted_gaps[((sorted_gaps.len() - 1) as f64 * q) as usize];
        let retained: Vec<(f32, f32)> = gaps
            .iter()
            .zip(scored)
            .filter(|(g, _)| **g >= threshold)
            .map(|(_, s)| *s)
            .collect();
        curve.push(SensitivityPoint {
            min_diff_ms: threshold,
            accuracy: accuracy(&retained),
            pairs: retained.len(),
        });
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsa_corpus::{CorpusConfig, ProblemDataset, ProblemSpec, ProblemTag};

    /// A synthetic "model" whose noise is independent of the gap: accuracy
    /// must rise with the threshold because close pairs are noise-labelled.
    #[test]
    fn accuracy_rises_with_threshold_for_noisy_scores() {
        let ds =
            ProblemDataset::generate(ProblemSpec::curated(ProblemTag::E), &CorpusConfig::tiny(31))
                .unwrap();
        let subs = &ds.submissions;
        let indices: Vec<usize> = (0..subs.len()).collect();
        let pairs = ccsa_model::pair::sample_pairs(
            subs,
            &indices,
            &ccsa_model::pair::PairConfig {
                max_pairs: 400,
                symmetric: false,
                exclude_self: true,
            },
            1,
        );
        // Oracle on the *true* cost ordering before noise: emulate by
        // predicting from runtime with additive disturbance, creating
        // mistakes concentrated at small gaps.
        let scored: Vec<(f32, f32)> = pairs
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let gap = subs[p.a].runtime_ms - subs[p.b].runtime_ms;
                let noise = ((k * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
                let pred = if gap + noise * 20.0 >= 0.0 {
                    0.9f32
                } else {
                    0.1
                };
                (pred, p.label)
            })
            .collect();
        let curve = sensitivity_curve(subs, &pairs, &scored, 6);
        assert_eq!(curve.len(), 6);
        assert!(
            curve.last().unwrap().accuracy >= curve.first().unwrap().accuracy,
            "accuracy should not fall with larger gaps: {curve:?}"
        );
        for w in curve.windows(2) {
            assert!(w[1].min_diff_ms >= w[0].min_diff_ms);
            assert!(w[1].pairs <= w[0].pairs);
        }
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        let ds =
            ProblemDataset::generate(ProblemSpec::curated(ProblemTag::H), &CorpusConfig::tiny(1))
                .unwrap();
        let pairs = ccsa_model::pair::sample_pairs(
            &ds.submissions,
            &[0, 1, 2],
            &ccsa_model::pair::PairConfig::default(),
            1,
        );
        let _ = sensitivity_curve(&ds.submissions, &pairs, &[], 4);
    }
}
