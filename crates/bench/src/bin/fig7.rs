//! Figure 7 — t-SNE of learned node embeddings and code embeddings.
//!
//! (a) projects the trained λ-dimensional node-kind embeddings to 2-D,
//! tagged with the paper's colour categories (operations, expressions,
//! statements, literals, support);
//! (b) projects code vectors of submissions from three different problems.
//!
//! Prints both point sets as TSV (x, y, label) and reports the quantitative
//! analogue of the paper's visual claim: code embeddings of the same
//! problem sit closer together than across problems.

use ccsa_bench::{header, rule, Cli, DatasetCache};
use ccsa_corpus::ProblemTag;
use ccsa_cppast::NodeKind;
use ccsa_model::comparator::EncoderConfig;
use ccsa_model::tsne::{tsne, TsneConfig};

fn main() {
    let cli = Cli::parse();
    header("Figure 7 — t-SNE of node and code embeddings", &cli);
    let corpus = cli.corpus_config();
    let mut cache = DatasetCache::new();
    let ds = cache.curated(ProblemTag::E, &corpus).clone();

    // Train a model so embeddings are learned, not random.
    let pipeline = cli.pipeline(EncoderConfig::TreeLstm(cli.treelstm_config()));
    let outcome = pipeline.run_on_dataset(ds);
    let model = &outcome.model;

    // (a) Node embeddings: rows of the learned table.
    let table = model.params.get("tree.emb");
    let rows: Vec<Vec<f32>> = (0..ccsa_cppast::VOCAB_SIZE)
        .map(|k| table.row(k).as_slice().to_vec())
        .collect();
    let layout = tsne(
        &rows,
        &TsneConfig {
            perplexity: 8.0,
            iterations: 300,
            seed: cli.seed,
            ..TsneConfig::default()
        },
    );
    println!("\n(a) node embeddings — x<TAB>y<TAB>kind<TAB>category");
    rule(60);
    for (k, point) in layout.iter().enumerate() {
        let kind = NodeKind::from_id(k as u16);
        println!(
            "{:.3}\t{:.3}\t{kind}\t{}",
            point[0],
            point[1],
            kind.category()
        );
    }

    // (b) Code embeddings for three problems, 30 submissions each.
    let tags = [ProblemTag::A, ProblemTag::F, ProblemTag::H];
    let mut codes = Vec::new();
    let mut labels = Vec::new();
    for &tag in &tags {
        let ds = cache.curated(tag, &corpus).clone();
        let graphs: Vec<_> = ds.submissions.iter().take(30).map(|s| &s.graph).collect();
        for z in model.comparator.encode_codes(&model.params, &graphs) {
            codes.push(z.as_slice().to_vec());
            labels.push(tag);
        }
    }
    let layout = tsne(
        &codes,
        &TsneConfig {
            perplexity: 12.0,
            iterations: 300,
            seed: cli.seed,
            ..TsneConfig::default()
        },
    );
    println!("\n(b) code embeddings — x<TAB>y<TAB>problem");
    rule(60);
    for (point, tag) in layout.iter().zip(&labels) {
        println!("{:.3}\t{:.3}\t{tag}", point[0], point[1]);
    }

    // Quantitative cluster check (the paper argues problems separate).
    let centroid = |tag: ProblemTag| -> [f64; 2] {
        let pts: Vec<&[f64; 2]> = layout
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l == tag)
            .map(|(p, _)| p)
            .collect();
        let n = pts.len() as f64;
        [
            pts.iter().map(|p| p[0]).sum::<f64>() / n,
            pts.iter().map(|p| p[1]).sum::<f64>() / n,
        ]
    };
    let dist = |a: [f64; 2], b: [f64; 2]| ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt();
    let mut intra = 0.0;
    for (&tag, point) in labels.iter().zip(&layout) {
        intra += dist(*point, centroid(tag)) / layout.len() as f64;
    }
    let c: Vec<[f64; 2]> = tags.iter().map(|&t| centroid(t)).collect();
    let inter = (dist(c[0], c[1]) + dist(c[1], c[2]) + dist(c[0], c[2])) / 3.0;
    rule(60);
    println!(
        "cluster check: mean intra-problem distance {intra:.2}, mean inter-centroid {inter:.2}\n\
         (paper claim: problems form distinctly separated clusters — expect inter > intra)"
    );
}
