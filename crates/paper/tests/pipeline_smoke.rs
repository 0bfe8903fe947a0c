//! End-to-end smoke test of the experiment-sweep path.
//!
//! The `--scale full` sweeps had not been re-validated since the
//! workspace became hermetic (the vendored rand/proptest shims changed
//! every random stream). This pins the exact code path the sweep
//! binaries drive — `Cli::pipeline` → corpus generation → pair sampling
//! → fused-batch training of the 3-layer alternating tree-LSTM →
//! held-out evaluation — at `Scale::Tiny`, asserting the trained model
//! beats chance. If a shim/RNG change breaks the sweeps again, this
//! fails in CI instead of at paper-scale runtime.

use ccsa_corpus::ProblemTag;
use ccsa_model::comparator::EncoderConfig;
use ccsa_paper::{Cli, Scale};

#[test]
fn tiny_scale_sweep_path_trains_above_chance() {
    let cli = Cli {
        scale: Scale::Tiny,
        seed: 42,
        threads: 0,
    };
    let pipeline = cli.pipeline(EncoderConfig::TreeLstm(cli.treelstm_config()));
    let outcome = pipeline
        .run_single(ProblemTag::E)
        .expect("corpus generation");
    assert!(
        outcome.test_accuracy > 0.5,
        "sweep-path tiny run must beat chance, got {}",
        outcome.test_accuracy
    );
    assert!(
        outcome
            .report
            .epoch_loss
            .iter()
            .all(|l| l.is_finite() && *l > 0.0),
        "losses must stay finite: {:?}",
        outcome.report.epoch_loss
    );
}

#[test]
fn tiny_scale_gcn_baseline_runs_end_to_end() {
    // The GCN baseline shares the fused trainer (block-diagonal
    // union-graph encode_batch); a tiny run must stay finite and
    // produce probabilities.
    let cli = Cli {
        scale: Scale::Tiny,
        seed: 7,
        threads: 0,
    };
    let pipeline = cli.pipeline(EncoderConfig::Gcn(cli.gcn_config()));
    let outcome = pipeline
        .run_single(ProblemTag::H)
        .expect("corpus generation");
    assert!((0.0..=1.0).contains(&outcome.test_accuracy));
    assert!(outcome.report.epoch_loss.iter().all(|l| l.is_finite()));
}
