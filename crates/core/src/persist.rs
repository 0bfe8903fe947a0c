//! Model persistence: a small, versioned binary format for [`Params`] and
//! complete trained models, plus a directory layout for *versioned* model
//! artefacts that the serving engine's registry loads from.
//!
//! Parameter-block layout (all integers little-endian):
//!
//! ```text
//! magic   b"CCSA"
//! version u32 (currently 1)
//! count   u32
//! per parameter:
//!   name_len u32, name bytes (UTF-8)
//!   rank     u8, dims (u32 × rank)
//!   data     f32 × len
//! ```
//!
//! A full model artefact (`save_model`/`load_model`) prepends the encoder
//! architecture so the comparator can be reconstructed without any
//! out-of-band configuration:
//!
//! ```text
//! magic   b"CCSM"
//! version u32 (currently 1)
//! encoder u8 tag (0 = tree-LSTM, 1 = GCN) + architecture fields
//! params  (the CCSA block above)
//! ```
//!
//! Versioned artefacts live in a directory as `model-v<N>.ccsm`;
//! [`save_version`] appends the next version and [`load_version`] loads a
//! specific or the latest one — the registry's load-by-version API.
//!
//! Hand-rolled rather than serde: the format is trivial, stable, and keeps
//! serialisation out of the public dependency set.

use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ccsa_nn::gcn::{Activation, GcnConfig};
use ccsa_nn::param::Params;
use ccsa_nn::treelstm::{Direction, TreeLstmConfig};
use ccsa_tensor::{Shape, Tensor};

use crate::comparator::{Comparator, EncoderConfig};
use crate::pipeline::TrainedModel;

const MAGIC: &[u8; 4] = b"CCSA";
const VERSION: u32 = 1;
const MODEL_MAGIC: &[u8; 4] = b"CCSM";
const MODEL_VERSION: u32 = 1;

/// Why loading failed.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a CCSA parameter file.
    BadMagic,
    /// File version unsupported by this build.
    BadVersion(u32),
    /// Structurally invalid content.
    Corrupt(String),
    /// A versioned-model directory holds no artefacts (or not the
    /// requested version).
    MissingVersion(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a CCSA parameter file"),
            PersistError::BadVersion(v) => write!(f, "unsupported file version {v}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt parameter file: {msg}"),
            PersistError::MissingVersion(msg) => write!(f, "missing model version: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

/// Serialises parameters to a writer.
///
/// # Errors
///
/// Propagates writer I/O errors.
pub fn save_params<W: Write>(params: &Params, mut w: W) -> Result<(), PersistError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(params.len() as u32).to_le_bytes())?;
    for (name, tensor) in params.iter() {
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name.as_bytes())?;
        let shape = tensor.shape();
        let dims = shape.dims();
        w.write_all(&[dims.len() as u8])?;
        for &d in dims {
            w.write_all(&(d as u32).to_le_bytes())?;
        }
        for &v in tensor.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Deserialises parameters from a reader.
///
/// # Errors
///
/// Returns [`PersistError`] on I/O failure or malformed content.
pub fn load_params<R: Read>(mut r: R) -> Result<Params, PersistError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let count = read_u32(&mut r)? as usize;
    if count > 1_000_000 {
        return Err(PersistError::Corrupt(format!(
            "implausible parameter count {count}"
        )));
    }
    let mut params = Params::new();
    for _ in 0..count {
        let name_len = read_u32(&mut r)? as usize;
        if name_len > 4096 {
            return Err(PersistError::Corrupt(format!(
                "implausible name length {name_len}"
            )));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| PersistError::Corrupt("non-UTF-8 parameter name".into()))?;
        let mut rank = [0u8; 1];
        r.read_exact(&mut rank)?;
        let rank = rank[0] as usize;
        if rank > 2 {
            return Err(PersistError::Corrupt(format!("rank {rank} exceeds 2")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u32(&mut r)? as usize);
        }
        let shape = match rank {
            0 => Shape::SCALAR,
            1 => Shape::vector(dims[0]),
            _ => Shape::matrix(dims[0], dims[1]),
        };
        if shape.len() > 100_000_000 {
            return Err(PersistError::Corrupt(format!(
                "implausible tensor size {}",
                shape.len()
            )));
        }
        let mut data = vec![0.0f32; shape.len()];
        let mut buf = [0u8; 4];
        for v in &mut data {
            r.read_exact(&mut buf)?;
            *v = f32::from_le_bytes(buf);
        }
        params.insert(name, Tensor::from_vec(data, shape));
    }
    Ok(params)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, PersistError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u8<R: Read>(r: &mut R) -> Result<u8, PersistError> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(buf[0])
}

fn write_encoder_config<W: Write>(config: &EncoderConfig, w: &mut W) -> Result<(), PersistError> {
    match config {
        EncoderConfig::TreeLstm(c) => {
            w.write_all(&[0u8])?;
            w.write_all(&(c.embed_dim as u32).to_le_bytes())?;
            w.write_all(&(c.hidden as u32).to_le_bytes())?;
            w.write_all(&(c.layers as u32).to_le_bytes())?;
            let dir = match c.direction {
                Direction::Uni => 0u8,
                Direction::Bi => 1,
                Direction::Alternating => 2,
            };
            w.write_all(&[dir, c.sigmoid_candidate as u8])?;
        }
        EncoderConfig::Gcn(c) => {
            w.write_all(&[1u8])?;
            w.write_all(&(c.embed_dim as u32).to_le_bytes())?;
            w.write_all(&(c.hidden as u32).to_le_bytes())?;
            w.write_all(&(c.layers as u32).to_le_bytes())?;
            let act = match c.activation {
                Activation::Relu => 0u8,
                Activation::Tanh => 1,
            };
            w.write_all(&[act])?;
        }
    }
    Ok(())
}

fn read_encoder_config<R: Read>(r: &mut R) -> Result<EncoderConfig, PersistError> {
    match read_u8(r)? {
        0 => {
            let embed_dim = read_u32(r)? as usize;
            let hidden = read_u32(r)? as usize;
            let layers = read_u32(r)? as usize;
            let direction = match read_u8(r)? {
                0 => Direction::Uni,
                1 => Direction::Bi,
                2 => Direction::Alternating,
                d => return Err(PersistError::Corrupt(format!("unknown direction tag {d}"))),
            };
            let sigmoid_candidate = match read_u8(r)? {
                0 => false,
                1 => true,
                s => return Err(PersistError::Corrupt(format!("bad sigmoid flag {s}"))),
            };
            Ok(EncoderConfig::TreeLstm(TreeLstmConfig {
                embed_dim,
                hidden,
                layers,
                direction,
                sigmoid_candidate,
            }))
        }
        1 => {
            let embed_dim = read_u32(r)? as usize;
            let hidden = read_u32(r)? as usize;
            let layers = read_u32(r)? as usize;
            let activation = match read_u8(r)? {
                0 => Activation::Relu,
                1 => Activation::Tanh,
                a => return Err(PersistError::Corrupt(format!("unknown activation tag {a}"))),
            };
            Ok(EncoderConfig::Gcn(GcnConfig {
                embed_dim,
                hidden,
                layers,
                activation,
            }))
        }
        t => Err(PersistError::Corrupt(format!("unknown encoder tag {t}"))),
    }
}

/// Serialises a complete trained model (architecture + weights).
///
/// # Errors
///
/// Propagates writer I/O errors.
pub fn save_model<W: Write>(model: &TrainedModel, mut w: W) -> Result<(), PersistError> {
    w.write_all(MODEL_MAGIC)?;
    w.write_all(&MODEL_VERSION.to_le_bytes())?;
    write_encoder_config(model.comparator.config(), &mut w)?;
    save_params(&model.params, w)
}

/// Deserialises a complete trained model: the comparator is rebuilt from
/// the stored architecture and its weights are replaced with the stored
/// tensors (names and shapes are cross-checked against a fresh
/// construction, so file/architecture drift is caught at load time).
/// Tree-LSTM cells load only in the fused gate layout; a checkpoint
/// with per-gate tensors (`….w_i`, …) fails that check.
///
/// # Errors
///
/// Returns [`PersistError`] on I/O failure, malformed content, or a
/// parameter set inconsistent with the stored architecture.
pub fn load_model<R: Read>(mut r: R) -> Result<TrainedModel, PersistError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MODEL_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = read_u32(&mut r)?;
    if version != MODEL_VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let config = read_encoder_config(&mut r)?;
    let params = load_params(r)?;

    // Rebuild the architecture into a scratch parameter store: this both
    // reconstructs the Comparator and yields the reference name/shape
    // registry the stored weights must match. The RNG seed is irrelevant —
    // every scratch tensor is replaced.
    let mut scratch = Params::new();
    let comparator = Comparator::new(&config, &mut scratch, &mut StdRng::seed_from_u64(0));
    if scratch.len() != params.len() {
        return Err(PersistError::Corrupt(format!(
            "architecture expects {} parameters, file holds {}",
            scratch.len(),
            params.len()
        )));
    }
    for ((expect_name, expect_tensor), (got_name, got_tensor)) in scratch.iter().zip(params.iter())
    {
        if expect_name != got_name {
            return Err(PersistError::Corrupt(format!(
                "parameter order mismatch: expected '{expect_name}', file holds '{got_name}'"
            )));
        }
        if expect_tensor.shape() != got_tensor.shape() {
            return Err(PersistError::Corrupt(format!(
                "parameter '{got_name}' has shape {:?}, architecture expects {:?}",
                got_tensor.shape().dims(),
                expect_tensor.shape().dims()
            )));
        }
    }
    Ok(TrainedModel { comparator, params })
}

/// The artefact path for one model version inside `dir`.
pub fn version_path(dir: &Path, version: u32) -> PathBuf {
    dir.join(format!("model-v{version}.ccsm"))
}

/// Versions present in a model directory, ascending. A missing directory
/// reads as empty.
///
/// # Errors
///
/// Propagates directory-read failures other than "not found".
pub fn list_versions(dir: &Path) -> Result<Vec<u32>, PersistError> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(PersistError::Io(e)),
    };
    let mut versions = Vec::new();
    for entry in entries {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(v) = name
            .strip_prefix("model-v")
            .and_then(|rest| rest.strip_suffix(".ccsm"))
            .and_then(|num| num.parse::<u32>().ok())
        {
            versions.push(v);
        }
    }
    versions.sort_unstable();
    Ok(versions)
}

/// Saves `model` as the *next* version in `dir` (creating the directory
/// if needed) and returns the assigned version number.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn save_version(dir: &Path, model: &TrainedModel) -> Result<u32, PersistError> {
    fs::create_dir_all(dir)?;
    let next = list_versions(dir)?.last().copied().unwrap_or(0) + 1;
    let mut buf = Vec::new();
    save_model(model, &mut buf)?;
    fs::write(version_path(dir, next), buf)?;
    Ok(next)
}

/// Loads the requested version from `dir` (`None` → the latest), returning
/// the resolved version number alongside the model.
///
/// # Errors
///
/// Returns [`PersistError::MissingVersion`] when the directory holds no
/// artefacts or lacks the requested version; otherwise propagates load
/// failures.
pub fn load_version(dir: &Path, version: Option<u32>) -> Result<(u32, TrainedModel), PersistError> {
    let available = list_versions(dir)?;
    let resolved = match version {
        Some(v) => {
            if !available.contains(&v) {
                return Err(PersistError::MissingVersion(format!(
                    "version {v} not in {} (available: {available:?})",
                    dir.display()
                )));
            }
            v
        }
        None => *available.last().ok_or_else(|| {
            PersistError::MissingVersion(format!("no model artefacts in {}", dir.display()))
        })?,
    };
    let bytes = fs::read(version_path(dir, resolved))?;
    Ok((resolved, load_model(bytes.as_slice())?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_params() -> Params {
        let mut p = Params::new();
        p.insert(
            "emb",
            Tensor::from_vec((0..12).map(|x| x as f32 * 0.5).collect(), [3, 4]),
        );
        p.insert("bias", Tensor::from_vec(vec![-1.0, 2.5], [2]));
        p.insert("scalar", Tensor::scalar(3.75));
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = sample_params();
        let mut buf = Vec::new();
        save_params(&p, &mut buf).unwrap();
        let q = load_params(buf.as_slice()).unwrap();
        assert_eq!(p.len(), q.len());
        for ((n1, t1), (n2, t2)) in p.iter().zip(q.iter()) {
            assert_eq!(n1, n2, "order must be preserved");
            assert_eq!(t1.shape(), t2.shape());
            assert_eq!(t1.as_slice(), t2.as_slice());
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            load_params(&b"NOPE"[..]),
            Err(PersistError::BadMagic)
        ));
        assert!(load_params(&b"CC"[..]).is_err());
        let mut buf = Vec::new();
        save_params(&sample_params(), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(
            load_params(buf.as_slice()).is_err(),
            "truncated file must fail"
        );
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        save_params(&sample_params(), &mut buf).unwrap();
        buf[4] = 99;
        assert!(matches!(
            load_params(buf.as_slice()),
            Err(PersistError::BadVersion(99))
        ));
    }

    // ── Full-model artefacts ─────────────────────────────────────────

    use ccsa_cppast::{parse_program, AstGraph};
    use ccsa_nn::treelstm::{Direction, TreeLstmConfig};

    fn sample_model(seed: u64) -> TrainedModel {
        let config = EncoderConfig::TreeLstm(TreeLstmConfig {
            embed_dim: 6,
            hidden: 6,
            layers: 2,
            direction: Direction::Alternating,
            sigmoid_candidate: false,
        });
        let mut params = Params::new();
        let comparator = Comparator::new(&config, &mut params, &mut StdRng::seed_from_u64(seed));
        TrainedModel { comparator, params }
    }

    fn graphs() -> (AstGraph, AstGraph) {
        let a = AstGraph::from_program(
            &parse_program(
                "int main() { int s = 0; for (int i = 0; i < 9; i++) s += i; return s; }",
            )
            .unwrap(),
        );
        let b = AstGraph::from_program(&parse_program("int main() { return 7; }").unwrap());
        (a, b)
    }

    #[test]
    fn model_roundtrip_preserves_predictions_exactly() {
        let model = sample_model(21);
        let (a, b) = graphs();
        let before_ab = model.compare_graphs(&a, &b).prob_first_slower;
        let before_ba = model.compare_graphs(&b, &a).prob_first_slower;

        let mut buf = Vec::new();
        save_model(&model, &mut buf).unwrap();
        let loaded = load_model(buf.as_slice()).unwrap();

        assert_eq!(model.comparator.config(), loaded.comparator.config());
        assert_eq!(before_ab, loaded.compare_graphs(&a, &b).prob_first_slower);
        assert_eq!(before_ba, loaded.compare_graphs(&b, &a).prob_first_slower);
    }

    #[test]
    fn gcn_model_roundtrips() {
        let config = EncoderConfig::Gcn(ccsa_nn::gcn::GcnConfig::small(5));
        let mut params = Params::new();
        let comparator = Comparator::new(&config, &mut params, &mut StdRng::seed_from_u64(3));
        let model = TrainedModel { comparator, params };
        let (a, b) = graphs();
        let before = model.compare_graphs(&a, &b).prob_first_slower;
        let mut buf = Vec::new();
        save_model(&model, &mut buf).unwrap();
        let loaded = load_model(buf.as_slice()).unwrap();
        assert_eq!(before, loaded.compare_graphs(&a, &b).prob_first_slower);
    }

    #[test]
    fn model_load_rejects_corruption() {
        let model = sample_model(5);
        let mut buf = Vec::new();
        save_model(&model, &mut buf).unwrap();
        assert!(matches!(
            load_model(&b"NOPE"[..]),
            Err(PersistError::BadMagic)
        ));
        let mut truncated = buf.clone();
        truncated.truncate(truncated.len() / 2);
        assert!(load_model(truncated.as_slice()).is_err());
        let mut bad_tag = buf.clone();
        bad_tag[8] = 9; // encoder tag
        assert!(load_model(bad_tag.as_slice()).is_err());
        // A per-gate checkpoint (a cell's `….w` split into `….w_i` and
        // siblings) fails the name cross-check: refused, not migrated.
        let mut per_gate = Params::new();
        let mut renamed = 0;
        for (name, t) in model.params.iter() {
            if renamed == 0 && name.ends_with(".up.w") {
                per_gate.insert(format!("{name}_i"), t.clone());
                renamed += 1;
            } else {
                per_gate.insert(name, t.clone());
            }
        }
        assert_eq!(renamed, 1, "the sample model has an upward cell");
        let mut legacy = Vec::new();
        legacy.extend_from_slice(MODEL_MAGIC);
        legacy.extend_from_slice(&MODEL_VERSION.to_le_bytes());
        write_encoder_config(model.comparator.config(), &mut legacy).unwrap();
        save_params(&per_gate, &mut legacy).unwrap();
        assert!(matches!(
            load_model(legacy.as_slice()),
            Err(PersistError::Corrupt(_))
        ));
    }

    fn temp_model_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ccsa-persist-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn versioned_directory_assigns_sequential_versions() {
        let dir = temp_model_dir("seq");
        assert_eq!(list_versions(&dir).unwrap(), Vec::<u32>::new());
        let m1 = sample_model(1);
        let m2 = sample_model(2);
        assert_eq!(save_version(&dir, &m1).unwrap(), 1);
        assert_eq!(save_version(&dir, &m2).unwrap(), 2);
        assert_eq!(list_versions(&dir).unwrap(), vec![1, 2]);

        // Latest resolves to v2 and its weights, not v1's.
        let (latest, loaded) = load_version(&dir, None).unwrap();
        assert_eq!(latest, 2);
        let (a, b) = graphs();
        assert_eq!(
            loaded.compare_graphs(&a, &b).prob_first_slower,
            m2.compare_graphs(&a, &b).prob_first_slower
        );
        // Specific versions load independently.
        let (v, first) = load_version(&dir, Some(1)).unwrap();
        assert_eq!(v, 1);
        assert_eq!(
            first.compare_graphs(&a, &b).prob_first_slower,
            m1.compare_graphs(&a, &b).prob_first_slower
        );
        // Missing versions are a typed error.
        assert!(matches!(
            load_version(&dir, Some(9)),
            Err(PersistError::MissingVersion(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_is_a_missing_version_error() {
        let dir = temp_model_dir("empty");
        assert!(matches!(
            load_version(&dir, None),
            Err(PersistError::MissingVersion(_))
        ));
    }
}
