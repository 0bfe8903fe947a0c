//! The comparative performance-prediction pipeline (the paper's primary
//! contribution).
//!
//! Given a corpus of labelled submissions (see [`ccsa_corpus`]), this crate
//! implements everything in the paper's Figure 1 and evaluation section:
//!
//! * [`pair`] — code-pair generation with Eq.-(1) labels, random-subset
//!   sampling, symmetric augmentation, disjoint train/test splits (§II-B);
//! * [`comparator`] — shared encoder F (tree-LSTM or GCN) + concatenated
//!   codes + fully connected sigmoid classifier C (§III-A, §IV-D);
//! * [`trainer`] — BCE training with Adam, data-parallel gradients,
//!   deterministic evaluation (§IV-C);
//! * [`metrics`] — pairwise accuracy and ROC/AUC (§VI-B);
//! * [`persist`] — versioned binary model serialisation;
//! * [`pipeline`] — one-call end-to-end driver.
//!
//! The paper's tables and figures, with the analyses only they use
//! (t-SNE, the runtime-gap sweep, the §V-C search, box statistics), live
//! in the `ccsa-paper` crate, a client of this one.
//!
//! # Example
//!
//! ```
//! use ccsa_model::pipeline::{Pipeline, PipelineConfig};
//! use ccsa_corpus::ProblemTag;
//!
//! let outcome = Pipeline::new(PipelineConfig::tiny(1)).run_single(ProblemTag::H)?;
//! println!("held-out accuracy: {:.3}", outcome.test_accuracy);
//! # Ok::<(), ccsa_corpus::InterpError>(())
//! ```

pub mod comparator;
pub mod metrics;
pub mod pair;
pub mod persist;
pub mod pipeline;
pub mod trainer;

pub use comparator::{Comparator, EncoderConfig};
pub use metrics::{accuracy, roc, EvalResult, RocCurve};
pub use pair::{label_of, sample_pairs, split_indices, Pair, PairConfig};
pub use pipeline::{Comparison, Pipeline, PipelineConfig, SingleOutcome, TrainedModel};
pub use trainer::{evaluate, train, TrainConfig, TrainReport};
