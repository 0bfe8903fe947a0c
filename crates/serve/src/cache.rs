//! The embedding cache: an O(1) LRU keyed by canonical AST hash.
//!
//! Encoders are pure functions of the [`AstGraph`](ccsa_cppast::AstGraph),
//! and [`AstGraph::canonical_hash`](ccsa_cppast::AstGraph::canonical_hash)
//! is a pure function of the graph — so a cached latent code can be
//! reused for *any* resubmission of structurally identical source (same
//! code re-scored against a new candidate, identifier renames, literal
//! tweaks). On a hit, serving skips the tree-LSTM/GCN encoder entirely
//! and only the 2·d-weight classifier head runs.
//!
//! Implementation: each stripe is an [`Lru`] (shared with the source
//! memo), so `get`, `insert` and eviction are all O(1).
//!
//! # Quantized storage
//!
//! At millions of entries the cache is the process's memory bill, and
//! latent codes are tanh-bounded — ideal for narrow formats. A cache
//! can be configured ([`CachePrecision`]) to hold codes as f16 bits
//! (2× capacity per byte) or per-code affine int8 (≈4×): codes are
//! quantized once on insert ([`StoredCode::encode`]) and dequantized on
//! every read, so the classifier head always runs in f32. Each stripe
//! tracks its at-rest payload bytes ([`ShardedCache::bytes`] sums them),
//! the number behind the `ccsa_cache_bytes` gauge.
//!
//! # Persistence
//!
//! Canonical AST hashes are stable across processes, so a cache can be
//! spilled to disk ([`ShardedCache::snapshot_to`]) and reloaded into a
//! fresh process ([`ShardedCache::load_from`]) to start warm. Cache
//! *keys* are salted per model registration (see the engine), which is
//! process-local — so both calls take the salt and store the *unsalted*
//! canonical hash on disk, plus a caller-chosen `tag` identifying which
//! model's entries to spill (entries are tagged at insert time via
//! [`ShardedCache::insert_tagged`]). A latent code is only meaningful
//! for the weights that produced it, so every snapshot carries a weights
//! `digest` and loading verifies it: a snapshot from a retrained model
//! is refused ([`SnapshotError::WrongModel`]) instead of silently
//! serving stale embeddings.

use std::io::{Read, Write};
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use crate::lockdep::DMutex;
use crate::lru::Lru;

use ccsa_tensor::Tensor;

/// Stripe count [`ShardedCache`] uses when a config leaves it at 0.
pub const DEFAULT_CACHE_STRIPES: usize = 16;

/// Magic prefix of a cache snapshot file.
const SNAPSHOT_MAGIC: &[u8; 4] = b"CCSC";
/// Current snapshot format version. v1 (f32 only, no precision tag) is
/// still read; v2 adds one precision byte after the weights digest and
/// per-precision entry payloads.
const SNAPSHOT_VERSION: u32 = 2;
/// Upper bounds on snapshot contents: snapshots may come from disk that
/// rotted or was tampered with, so implausible sizes are rejected instead
/// of allocated.
const MAX_SNAPSHOT_ENTRIES: u32 = 16_000_000;
const MAX_CODE_LEN: u32 = 1 << 20;

/// How a cache stores latent codes at rest.
///
/// Latent codes are tanh-bounded (every element in (-1, 1)), which is
/// the friendliest possible regime for narrow formats: `F16` keeps
/// ~3 decimal digits (max element error 2⁻¹¹ on that range, half the
/// memory), `Int8` keeps ~2 digits (max element error `scale/2` with a
/// per-code affine scale, a quarter of the memory). `F32` is lossless.
/// The classifier head always runs in f32 — narrow codes are
/// dequantized on read — so quantization trades a bounded embedding
/// perturbation for 2–4× effective cache capacity at the same byte
/// budget. `F16` additionally preserves NaN/∞; `Int8` assumes finite
/// codes (non-finite elements clamp instead of poisoning the code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePrecision {
    /// Full-precision storage (lossless; 4 bytes/element).
    #[default]
    F32,
    /// IEEE-754 binary16 bits (2 bytes/element, round-to-nearest-even).
    F16,
    /// Per-code affine u8 quantization (1 byte/element + 8 bytes of
    /// scale/offset per code).
    Int8,
}

impl CachePrecision {
    /// Storage bytes per code element (excluding per-code constants).
    pub fn bytes_per_element(self) -> usize {
        match self {
            CachePrecision::F32 => 4,
            CachePrecision::F16 => 2,
            CachePrecision::Int8 => 1,
        }
    }

    fn tag_byte(self) -> u8 {
        match self {
            CachePrecision::F32 => 0,
            CachePrecision::F16 => 1,
            CachePrecision::Int8 => 2,
        }
    }

    fn from_tag_byte(tag: u8) -> Option<CachePrecision> {
        match tag {
            0 => Some(CachePrecision::F32),
            1 => Some(CachePrecision::F16),
            2 => Some(CachePrecision::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for CachePrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CachePrecision::F32 => "f32",
            CachePrecision::F16 => "f16",
            CachePrecision::Int8 => "int8",
        })
    }
}

impl FromStr for CachePrecision {
    type Err = String;

    fn from_str(s: &str) -> Result<CachePrecision, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f32" | "fp32" => Ok(CachePrecision::F32),
            "f16" | "fp16" | "half" => Ok(CachePrecision::F16),
            "int8" | "i8" | "u8" => Ok(CachePrecision::Int8),
            other => Err(format!(
                "unknown cache precision '{other}' (expected f32, f16 or int8)"
            )),
        }
    }
}

/// f32 → IEEE-754 binary16 bits, round-to-nearest-even (hand-rolled:
/// the build is hermetic, so no `half` crate). Overflow goes to ±∞,
/// NaN stays NaN (quieted, payload truncated), subnormals are exact.
pub fn f32_to_f16_bits(value: f32) -> u16 {
    use std::cmp::Ordering;
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    if abs >= 0x7f80_0000 {
        // ∞ or NaN.
        return if abs > 0x7f80_0000 {
            sign | 0x7e00
        } else {
            sign | 0x7c00
        };
    }
    let exp = ((abs >> 23) as i32) - 127 + 15;
    let mant = abs & 0x007f_ffff;
    if exp >= 31 {
        return sign | 0x7c00; // overflow → ±∞
    }
    if exp <= 0 {
        if exp < -10 {
            return sign; // underflow → ±0
        }
        // Subnormal result: implicit leading 1, shifted into 10 bits.
        let m = mant | 0x0080_0000;
        let shift = (14 - exp) as u32;
        let half = m >> shift;
        let rem = m & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let rounded = match rem.cmp(&halfway) {
            Ordering::Greater => half + 1,
            Ordering::Equal => half + (half & 1),
            Ordering::Less => half,
        };
        return sign | rounded as u16;
    }
    let mut h = ((exp as u32) << 10) | (mant >> 13);
    match (mant & 0x1fff).cmp(&0x1000) {
        // A mantissa carry rolls into the exponent, which is exactly
        // the right behavior (including rounding up to ∞).
        Ordering::Greater => h += 1,
        Ordering::Equal => h += h & 1,
        Ordering::Less => {}
    }
    sign | h as u16
}

/// The dequantize-on-read lookup table: all 65536 f16 bit patterns
/// expanded to f32, built once on first use (256 KiB — smaller than one
/// cached batch of codes). The branchy [`f16_bits_to_f32`] converter
/// cost ~4.6× an f32 read per element on the cache-hit path (measured
/// in PR 8); a table read is one indexed load.
/// [`f16_bits_to_f32`] remains the reference — an exhaustive test pins
/// the table to it over every bit pattern.
fn f16_table() -> &'static [f32; 65536] {
    static TABLE: OnceLock<Box<[f32; 65536]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = vec![0.0f32; 65536].into_boxed_slice();
        for (h, slot) in t.iter_mut().enumerate() {
            *slot = f16_bits_to_f32(h as u16);
        }
        t.try_into().expect("65536 entries")
    })
}

/// Table-driven f16 → f32 for the read path (see [`f16_table`]).
#[inline]
pub fn f16_bits_to_f32_lut(h: u16) -> f32 {
    f16_table()[h as usize]
}

/// IEEE-754 binary16 bits → f32 (exact: every f16 value is
/// representable in f32). Reference converter; the hot read path uses
/// [`f16_bits_to_f32_lut`].
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1f;
    let mant = (h & 0x3ff) as u32;
    match exp {
        0 => {
            // ±0 or subnormal: mant × 2⁻²⁴, exact in f32.
            let v = mant as f32 * f32::from_bits(0x3380_0000);
            if sign != 0 {
                -v
            } else {
                v
            }
        }
        31 => f32::from_bits(sign | 0x7f80_0000 | (mant << 13)),
        _ => f32::from_bits(sign | ((exp as u32 + 112) << 23) | (mant << 13)),
    }
}

/// A latent code at rest, in one of the [`CachePrecision`] formats.
///
/// Narrow variants share their payload behind an [`Arc`] so cloning an
/// entry out of the cache (get, snapshot extraction) never copies the
/// quantized bytes. Snapshots store this exact representation, so a
/// quantize → snapshot → load round-trip is bit-exact (no re-quantize
/// drift).
#[derive(Debug, Clone, PartialEq)]
pub enum StoredCode {
    /// Lossless f32 (the tensor's buffer is already `Arc`-backed).
    F32(Tensor),
    /// binary16 bits per element.
    F16(Arc<Vec<u16>>),
    /// Affine u8: `value = min + q · scale`.
    Int8 {
        /// Quantized elements.
        q: Arc<Vec<u8>>,
        /// Step between adjacent quantization levels.
        scale: f32,
        /// Value of level 0.
        min: f32,
    },
}

impl StoredCode {
    /// Quantizes a code for storage at `precision`.
    pub fn encode(code: &Tensor, precision: CachePrecision) -> StoredCode {
        match precision {
            CachePrecision::F32 => StoredCode::F32(code.clone()),
            CachePrecision::F16 => StoredCode::F16(Arc::new(
                code.as_slice()
                    .iter()
                    .map(|&v| f32_to_f16_bits(v))
                    .collect(),
            )),
            CachePrecision::Int8 => {
                let data = code.as_slice();
                // f32::min/max skip NaN operands, so a poisoned element
                // degrades to a clamped level instead of a NaN range.
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for &v in data {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                let (min, scale) = if lo.is_finite() && hi.is_finite() && hi > lo {
                    (lo, (hi - lo) / 255.0)
                } else if lo.is_finite() {
                    (lo, 0.0) // constant code (or empty): one level
                } else {
                    (0.0, 0.0)
                };
                let q = data
                    .iter()
                    .map(|&v| {
                        if scale == 0.0 {
                            0
                        } else {
                            // NaN clamps to 0.0 (NaN comparisons are
                            // false), then casts to level 0.
                            ((v - min) / scale).round().clamp(0.0, 255.0) as u8
                        }
                    })
                    .collect();
                StoredCode::Int8 {
                    q: Arc::new(q),
                    scale,
                    min,
                }
            }
        }
    }

    /// Dequantizes back to an f32 tensor for the classifier head.
    pub fn decode(&self) -> Tensor {
        match self {
            StoredCode::F32(t) => t.clone(),
            StoredCode::F16(bits) => {
                // Table lookup per element (not the branchy converter)
                // into a pooled buffer: a warm cache hit allocates
                // nothing.
                let table = f16_table();
                let mut out = ccsa_tensor::pool::take_cap(bits.len());
                out.extend(bits.iter().map(|&h| table[h as usize]));
                Tensor::from_vec(out, [bits.len()])
            }
            StoredCode::Int8 { q, scale, min } => {
                let mut out = ccsa_tensor::pool::take_cap(q.len());
                out.extend(q.iter().map(|&level| min + level as f32 * scale));
                Tensor::from_vec(out, [q.len()])
            }
        }
    }

    /// Which precision this payload is stored at.
    pub fn precision(&self) -> CachePrecision {
        match self {
            StoredCode::F32(_) => CachePrecision::F32,
            StoredCode::F16(_) => CachePrecision::F16,
            StoredCode::Int8 { .. } => CachePrecision::Int8,
        }
    }

    /// Element count of the stored code.
    pub fn len(&self) -> usize {
        match self {
            StoredCode::F32(t) => t.len(),
            StoredCode::F16(bits) => bits.len(),
            StoredCode::Int8 { q, .. } => q.len(),
        }
    }

    /// `true` when the code has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes this code occupies at rest (the number the
    /// `ccsa_cache_bytes` gauge sums; per-entry bookkeeping overhead is
    /// identical across precisions and excluded).
    pub fn payload_bytes(&self) -> usize {
        match self {
            StoredCode::F32(t) => t.len() * 4,
            StoredCode::F16(bits) => bits.len() * 2,
            StoredCode::Int8 { q, .. } => q.len() + 8,
        }
    }
}

struct Entry {
    tag: u64,
    code: StoredCode,
}

/// Cache observability counters (monotonic; snapshot via
/// [`ShardedCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a code.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A least-recently-used map from canonical AST hash to latent code:
/// one stripe of a [`ShardedCache`].
struct EmbeddingCache {
    capacity: usize,
    precision: CachePrecision,
    lru: Lru<u64, Entry>,
    stats: CacheStats,
    bytes: usize, // payload bytes at rest, maintained incrementally
}

impl EmbeddingCache {
    /// A cache holding at most `capacity` codes stored at `precision`
    /// (quantized on insert, dequantized on read). Capacity 0 disables
    /// caching (every lookup misses, nothing is stored).
    fn with_precision(capacity: usize, precision: CachePrecision) -> EmbeddingCache {
        EmbeddingCache {
            capacity,
            precision,
            lru: Lru::with_capacity(capacity.min(1 << 20)),
            stats: CacheStats::default(),
            bytes: 0,
        }
    }

    /// Payload bytes currently at rest (see
    /// [`StoredCode::payload_bytes`]). O(1): maintained on every
    /// insert, refresh, eviction and clear.
    fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of cached codes.
    fn len(&self) -> usize {
        self.lru.len()
    }

    /// Counter snapshot.
    fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every entry (counters are preserved — they are monotonic
    /// telemetry, not contents).
    fn clear(&mut self) {
        self.lru.clear();
        self.bytes = 0;
    }

    /// Looks a code up, promoting the entry to most-recently-used.
    /// Quantized entries are dequantized here — the classifier head
    /// always sees f32.
    fn get(&mut self, key: u64) -> Option<Tensor> {
        match self.lru.get(&key) {
            Some(entry) => {
                self.stats.hits += 1;
                Some(entry.code.decode())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peeks without touching recency or counters (used by tests and
    /// diagnostics). Dequantizes like `get`.
    fn peek(&self, key: u64) -> Option<Tensor> {
        self.lru.peek(&key).map(|entry| entry.code.decode())
    }

    /// Inserts (or refreshes) a code under an owner `tag` — typically the
    /// registration uid of the model that produced it — evicting the
    /// least-recently-used entry if the cache is at capacity, so
    /// [`ShardedCache::snapshot_to`] can later spill exactly that
    /// model's entries. The code is quantized to the cache's precision
    /// here, on the insert path, so reads only ever pay dequantization.
    fn insert_tagged(&mut self, key: u64, tag: u64, code: Tensor) {
        self.insert_stored(key, tag, StoredCode::encode(&code, self.precision));
    }

    /// Inserts an already-encoded payload (snapshot warm path: the
    /// stored bytes are inserted exactly, no re-quantization drift).
    /// Callers must match the cache precision — [`ShardedCache::
    /// load_from`] refuses mismatched snapshots before getting here —
    /// so a stray mismatched payload is re-encoded through f32 rather
    /// than stored heterogeneously.
    fn insert_stored(&mut self, key: u64, tag: u64, code: StoredCode) {
        if self.capacity == 0 {
            return;
        }
        let code = if code.precision() == self.precision {
            code
        } else {
            StoredCode::encode(&code.decode(), self.precision)
        };
        self.bytes += code.payload_bytes();
        if let Some(entry) = self.lru.get(&key) {
            // Refresh: replace payload and owner (the lookup promoted).
            self.bytes -= entry.code.payload_bytes();
            *entry = Entry { tag, code };
            return;
        }
        if self.lru.len() == self.capacity {
            let (_, evicted) = self.lru.pop_lru().expect("a full stripe has a tail");
            self.bytes -= evicted.code.payload_bytes();
            self.stats.evictions += 1;
        }
        self.lru.insert(key, Entry { tag, code });
        self.stats.insertions += 1;
    }

    /// Keys from most- to least-recently used.
    #[cfg(test)]
    fn recency_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.lru.iter_oldest_first().map(|(k, _)| *k).collect();
        keys.reverse();
        keys
    }

    /// Extracts every entry tagged `tag` as (canonical hash, latent
    /// code) pairs, least- to most-recently used. `salt` is the
    /// process-local key salt the entries were inserted under: keys are
    /// un-salted (XOR is involutive) so the pairs carry the stable
    /// canonical hashes, valid in any future process.
    ///
    /// This is the cheap, in-memory half of snapshotting: callers that
    /// hold this cache behind a lock extract under the lock and hand the
    /// pairs to [`write_snapshot`] *after* releasing it, so disk I/O
    /// never stalls serving traffic. Entries are extracted in their
    /// stored (possibly quantized) representation — cloning is O(1) per
    /// entry, and the snapshot preserves the exact at-rest bytes.
    fn tagged_entries(&self, tag: u64, salt: u64) -> Vec<(u64, StoredCode)> {
        self.lru
            .iter_oldest_first()
            .filter(|(_, entry)| entry.tag == tag)
            .map(|(key, entry)| (key ^ salt, entry.code.clone()))
            .collect()
    }
}

/// An N-way striped LRU from canonical AST hash to latent code: the
/// serving-side cache.
///
/// One global cache mutex serializes every lookup across
/// every connection — on a loaded engine the lock, not the hash map,
/// becomes the hot path. Striping splits the key space over N
/// independent per-stripe LRUs, each behind its own mutex, so
/// concurrent lookups for different keys proceed in parallel and a
/// contended lock only ever serializes 1/N of the traffic.
///
/// Keys are already salted canonical hashes; the stripe selector
/// re-mixes them ([`crate::hash::splitmix64`]) so even an adversarial
/// salt cannot alias the whole key space onto one stripe. The
/// configured capacity is split as evenly as possible and totals
/// *exactly* the configured capacity (the stripe count is capped at the
/// capacity, so no stripe is ever left slotless), and total memory
/// matches the unsharded cache.
///
/// Snapshot compatibility: the stripe count is a process-local layout
/// choice that never reaches disk, so a snapshot written with 1 stripe
/// loads into 8 and vice versa.
pub struct ShardedCache {
    stripes: Vec<DMutex<EmbeddingCache>>,
    capacity: usize,
    precision: CachePrecision,
}

impl ShardedCache {
    /// A cache of `capacity` total codes split over `stripes` stripes
    /// (0 stripes → [`DEFAULT_CACHE_STRIPES`]) at full (f32) precision.
    /// Capacity 0 disables caching entirely (every lookup misses,
    /// nothing is stored).
    pub fn new(capacity: usize, stripes: usize) -> ShardedCache {
        ShardedCache::with_precision(capacity, stripes, CachePrecision::F32)
    }

    /// Like [`ShardedCache::new`], with codes stored at `precision`
    /// (every stripe quantizes on insert, dequantizes on read).
    pub fn with_precision(
        capacity: usize,
        stripes: usize,
        precision: CachePrecision,
    ) -> ShardedCache {
        let requested = if stripes == 0 {
            DEFAULT_CACHE_STRIPES
        } else {
            stripes
        };
        // Per-stripe capacities sum to exactly `capacity`: floor split
        // with the remainder spread over the first stripes, and the
        // stripe count capped at the capacity so a tiny cache over many
        // stripes never leaves a stripe slotless (capacity 0 keeps the
        // requested count — every stripe disabled, as unsharded).
        let n = if capacity == 0 {
            requested
        } else {
            requested.min(capacity)
        };
        ShardedCache {
            stripes: (0..n)
                .map(|i| {
                    let per = if capacity == 0 {
                        0
                    } else {
                        capacity / n + usize::from(i < capacity % n)
                    };
                    DMutex::new(
                        "serve.cache.stripe",
                        EmbeddingCache::with_precision(per, precision),
                    )
                })
                .collect(),
            capacity,
            precision,
        }
    }

    /// The storage precision every stripe holds codes at.
    pub fn precision(&self) -> CachePrecision {
        self.precision
    }

    /// Total payload bytes at rest across all stripes. Each stripe is
    /// locked once, independently (its counter is O(1)).
    pub fn bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("cache stripe poisoned").bytes())
            .sum()
    }

    fn stripe_for(&self, key: u64) -> &DMutex<EmbeddingCache> {
        let ix = (crate::hash::splitmix64(key) % self.stripes.len() as u64) as usize;
        &self.stripes[ix]
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The configured total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total cached codes across all stripes.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("cache stripe poisoned").len())
            .sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot, aggregated over stripes.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for stripe in &self.stripes {
            let s = stripe.lock().expect("cache stripe poisoned").stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.insertions += s.insertions;
        }
        total
    }

    /// Per-stripe counter snapshots plus current entry counts and
    /// payload bytes, in stripe order — the observability surface for
    /// skew diagnosis (one hot stripe shows up here long before the
    /// aggregate hit-rate moves). Each stripe is locked once,
    /// independently; no cross-stripe lock is ever held.
    pub fn stripe_stats(&self) -> Vec<(CacheStats, usize, usize)> {
        self.stripes
            .iter()
            .map(|stripe| {
                let guard = stripe.lock().expect("cache stripe poisoned");
                (guard.stats(), guard.len(), guard.bytes())
            })
            .collect()
    }

    /// Drops every entry (telemetry counters survive).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            stripe.lock().expect("cache stripe poisoned").clear();
        }
    }

    /// Looks a code up, promoting it within its stripe's LRU. Only the
    /// owning stripe is locked.
    pub fn get(&self, key: u64) -> Option<Tensor> {
        self.stripe_for(key)
            .lock()
            .expect("cache stripe poisoned")
            .get(key)
    }

    /// Peeks without touching recency or counters.
    pub fn peek(&self, key: u64) -> Option<Tensor> {
        self.stripe_for(key)
            .lock()
            .expect("cache stripe poisoned")
            .peek(key)
    }

    /// Inserts (or refreshes) a code under an owner `tag` — typically the
    /// registration uid of the model that produced it, so
    /// [`ShardedCache::snapshot_to`] can later spill exactly that model's
    /// entries. Quantizes to the cache's precision; evicts the stripe's
    /// least-recently-used entry at capacity. Only the owning stripe is
    /// locked.
    pub fn insert_tagged(&self, key: u64, tag: u64, code: Tensor) {
        self.stripe_for(key)
            .lock()
            .expect("cache stripe poisoned")
            .insert_tagged(key, tag, code);
    }

    /// Extracts every entry tagged `tag` as (canonical hash, stored
    /// code) pairs, stripe by stripe (within a stripe: least- to
    /// most-recently used). `salt` is the process-local key salt the
    /// entries were inserted under; keys are un-salted so the pairs stay
    /// valid in any future process. Locks one stripe at a time, so a
    /// live snapshot never stalls the whole cache; hand the pairs to
    /// [`write_snapshot`] after the call so disk I/O holds no lock.
    pub fn tagged_entries(&self, tag: u64, salt: u64) -> Vec<(u64, StoredCode)> {
        let mut entries = Vec::new();
        for stripe in &self.stripes {
            entries.extend(
                stripe
                    .lock()
                    .expect("cache stripe poisoned")
                    .tagged_entries(tag, salt),
            );
        }
        entries
    }

    /// Inserts already-read snapshot entries, routing each key to its
    /// stripe. The shared loading half of [`ShardedCache::load_from`]
    /// and the engine's warm path. Payloads matching the cache
    /// precision are stored byte-exact; mismatches are re-encoded
    /// through f32 (prefer [`transcode_snapshot`] + a matching load,
    /// which makes the conversion explicit).
    pub fn insert_entries(&self, entries: Vec<(u64, StoredCode)>, tag: u64, salt: u64) {
        for (canonical, code) in entries {
            self.stripe_for(canonical ^ salt)
                .lock()
                .expect("cache stripe poisoned")
                .insert_stored(canonical ^ salt, tag, code);
        }
    }

    /// Spills every entry tagged `tag` to `w` in the CCSC format (see
    /// [`write_snapshot`]), returning how many were written. `digest`
    /// identifies the weights that produced the codes;
    /// [`ShardedCache::load_from`] refuses a snapshot whose digest does
    /// not match.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O failures.
    pub fn snapshot_to<W: Write>(
        &self,
        w: W,
        tag: u64,
        salt: u64,
        digest: u64,
    ) -> Result<usize, SnapshotError> {
        write_snapshot(w, digest, self.precision, &self.tagged_entries(tag, salt))
    }

    /// Loads a CCSC snapshot (written with any stripe count), re-salting
    /// every stored canonical hash with `salt` and inserting the codes
    /// under `tag`. Returns how many entries were inserted (capacity
    /// eviction applies as usual, so a small cache keeps only the
    /// most-recently-used suffix of a large snapshot).
    ///
    /// The snapshot's precision must match the cache's: codes are
    /// inserted byte-exact, and silently re-quantizing (f32 → int8) or
    /// pretending to un-quantize (int8 → f32) would change serving
    /// behavior behind the operator's back. Cross-precision warming
    /// requires the explicit [`transcode_snapshot`] step.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on I/O failure, malformed content, a
    /// weights-digest mismatch (codes from different weights), or a
    /// precision mismatch; a failed load inserts nothing.
    pub fn load_from<R: Read>(
        &self,
        r: R,
        tag: u64,
        salt: u64,
        expected_digest: u64,
    ) -> Result<usize, SnapshotError> {
        let (precision, entries) = read_snapshot(r, expected_digest)?;
        if precision != self.precision {
            return Err(SnapshotError::PrecisionMismatch {
                snapshot: precision,
                cache: self.precision,
            });
        }
        let count = entries.len();
        self.insert_entries(entries, tag, salt);
        Ok(count)
    }
}

/// Writes (canonical hash, stored code) pairs as a snapshot document
/// at `precision` (which every payload must already be encoded at).
/// `digest` identifies the weights that produced the codes (see
/// [`SnapshotError::WrongModel`]). Returns the number of entries
/// written.
///
/// # Errors
///
/// Propagates writer I/O failures.
pub fn write_snapshot<W: Write>(
    mut w: W,
    digest: u64,
    precision: CachePrecision,
    entries: &[(u64, StoredCode)],
) -> Result<usize, SnapshotError> {
    w.write_all(SNAPSHOT_MAGIC)?;
    w.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
    w.write_all(&digest.to_le_bytes())?;
    w.write_all(&[precision.tag_byte()])?;
    w.write_all(&(entries.len() as u32).to_le_bytes())?;
    // Entry payloads are framed into one buffer per entry (bulk writes,
    // not one syscall-layer call per float) and run through a checksum:
    // the trailing value lets the reader reject bit rot in the body, not
    // just a damaged header.
    let mut checksum = crate::hash::Fnv1a::new();
    let mut frame: Vec<u8> = Vec::new();
    for (canonical, code) in entries {
        debug_assert_eq!(code.precision(), precision, "heterogeneous snapshot");
        frame.clear();
        frame.extend_from_slice(&canonical.to_le_bytes());
        frame.extend_from_slice(&(code.len() as u32).to_le_bytes());
        match code {
            StoredCode::F32(t) => {
                for &v in t.as_slice() {
                    frame.extend_from_slice(&v.to_le_bytes());
                }
            }
            StoredCode::F16(bits) => {
                for &h in bits.iter() {
                    frame.extend_from_slice(&h.to_le_bytes());
                }
            }
            StoredCode::Int8 { q, scale, min } => {
                frame.extend_from_slice(&scale.to_le_bytes());
                frame.extend_from_slice(&min.to_le_bytes());
                frame.extend_from_slice(q);
            }
        }
        checksum.write(&frame);
        w.write_all(&frame)?;
    }
    w.write_all(&checksum.finish().to_le_bytes())?;
    Ok(entries.len())
}

/// Reads a snapshot document back into its precision and (canonical
/// hash, stored code) pairs, verifying the stored weights digest
/// against `expected_digest`. v1 documents (written before the
/// precision tag existed) read as [`CachePrecision::F32`].
///
/// # Errors
///
/// Returns [`SnapshotError`] on I/O failure, malformed content, or a
/// digest mismatch.
pub fn read_snapshot<R: Read>(
    r: R,
    expected_digest: u64,
) -> Result<(CachePrecision, Vec<(u64, StoredCode)>), SnapshotError> {
    let (_, precision, entries) = read_snapshot_impl(r, Some(expected_digest))?;
    Ok((precision, entries))
}

/// A fully decoded snapshot: (weights digest, storage precision,
/// `(canonical hash, stored code)` entries).
pub type SnapshotContents = (u64, CachePrecision, Vec<(u64, StoredCode)>);

/// Reads a snapshot document without a digest expectation, returning
/// the stored digest alongside the contents — the read half of
/// [`transcode_snapshot`], which must preserve the original digest.
///
/// # Errors
///
/// Returns [`SnapshotError`] on I/O failure or malformed content.
pub fn read_snapshot_any<R: Read>(r: R) -> Result<SnapshotContents, SnapshotError> {
    read_snapshot_impl(r, None)
}

fn read_snapshot_impl<R: Read>(
    mut r: R,
    expected_digest: Option<u64>,
) -> Result<SnapshotContents, SnapshotError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::Corrupt(
            "not a CCSA cache snapshot".to_string(),
        ));
    }
    let version = read_u32(&mut r)?;
    if version == 0 || version > SNAPSHOT_VERSION {
        return Err(SnapshotError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let mut digest = [0u8; 8];
    r.read_exact(&mut digest)?;
    let found = u64::from_le_bytes(digest);
    if let Some(expected) = expected_digest {
        if found != expected {
            return Err(SnapshotError::WrongModel { expected, found });
        }
    }
    // v1 predates quantized storage: no precision byte, f32 payloads.
    let precision = if version == 1 {
        CachePrecision::F32
    } else {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        CachePrecision::from_tag_byte(tag[0])
            .ok_or_else(|| SnapshotError::Corrupt(format!("unknown precision tag {}", tag[0])))?
    };
    let count = read_u32(&mut r)?;
    if count > MAX_SNAPSHOT_ENTRIES {
        return Err(SnapshotError::Corrupt(format!(
            "implausible entry count {count}"
        )));
    }
    let mut checksum = crate::hash::Fnv1a::new();
    let mut entries = Vec::with_capacity(count.min(4096) as usize);
    for _ in 0..count {
        let mut head = [0u8; 12];
        r.read_exact(&mut head)?;
        checksum.write(&head);
        let canonical = u64::from_le_bytes(head[..8].try_into().expect("8-byte slice"));
        let len = u32::from_le_bytes(head[8..].try_into().expect("4-byte slice"));
        if len > MAX_CODE_LEN {
            return Err(SnapshotError::Corrupt(format!(
                "implausible code length {len}"
            )));
        }
        let len = len as usize;
        let code = match precision {
            CachePrecision::F32 => {
                let mut raw = vec![0u8; len * 4];
                r.read_exact(&mut raw)?;
                checksum.write(&raw);
                let data: Vec<f32> = raw
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                    .collect();
                StoredCode::F32(Tensor::from_vec(data, [len]))
            }
            CachePrecision::F16 => {
                let mut raw = vec![0u8; len * 2];
                r.read_exact(&mut raw)?;
                checksum.write(&raw);
                let bits: Vec<u16> = raw
                    .chunks_exact(2)
                    .map(|c| u16::from_le_bytes(c.try_into().expect("2-byte chunk")))
                    .collect();
                StoredCode::F16(Arc::new(bits))
            }
            CachePrecision::Int8 => {
                let mut params = [0u8; 8];
                r.read_exact(&mut params)?;
                checksum.write(&params);
                let scale = f32::from_le_bytes(params[..4].try_into().expect("4-byte slice"));
                let min = f32::from_le_bytes(params[4..].try_into().expect("4-byte slice"));
                let mut q = vec![0u8; len];
                r.read_exact(&mut q)?;
                checksum.write(&q);
                StoredCode::Int8 {
                    q: Arc::new(q),
                    scale,
                    min,
                }
            }
        };
        entries.push((canonical, code));
    }
    let mut stored = [0u8; 8];
    r.read_exact(&mut stored)?;
    if u64::from_le_bytes(stored) != checksum.finish() {
        return Err(SnapshotError::Corrupt(
            "body checksum mismatch (bit rot or tampering)".to_string(),
        ));
    }
    Ok((found, precision, entries))
}

/// Explicitly converts a snapshot to `target` precision, preserving
/// the stored weights digest — the only supported way to warm a cache
/// whose precision differs from the snapshot's. The conversion routes
/// through f32, so narrowing (f32 → f16/int8) loses exactly the
/// quantization error and widening (int8 → f32) recovers only the
/// dequantized values, not the originals. Returns the entry count.
///
/// # Errors
///
/// Returns [`SnapshotError`] on read failure, malformed content, or
/// writer I/O failure.
pub fn transcode_snapshot<R: Read, W: Write>(
    r: R,
    w: W,
    target: CachePrecision,
) -> Result<usize, SnapshotError> {
    let (digest, _, entries) = read_snapshot_any(r)?;
    let converted: Vec<(u64, StoredCode)> = entries
        .into_iter()
        .map(|(canonical, code)| (canonical, StoredCode::encode(&code.decode(), target)))
        .collect();
    write_snapshot(w, digest, target, &converted)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, SnapshotError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Why a cache snapshot failed to write or load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid snapshot content.
    Corrupt(String),
    /// The snapshot was written under different model weights — loading
    /// it would serve another model's embeddings.
    WrongModel {
        /// The digest of the weights being warmed.
        expected: u64,
        /// The digest stored in the snapshot.
        found: u64,
    },
    /// The snapshot stores codes at a different precision than the
    /// cache being warmed — loading would either silently re-quantize
    /// or silently widen; use [`transcode_snapshot`] to convert
    /// explicitly.
    PrecisionMismatch {
        /// Precision stored in the snapshot.
        snapshot: CachePrecision,
        /// Precision of the cache refusing it.
        cache: CachePrecision,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "cache snapshot i/o error: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt cache snapshot: {msg}"),
            SnapshotError::WrongModel { expected, found } => write!(
                f,
                "cache snapshot was written under different model weights \
                 (digest {found:016x}, expected {expected:016x})"
            ),
            SnapshotError::PrecisionMismatch { snapshot, cache } => write!(
                f,
                "cache snapshot stores {snapshot} codes but the cache is \
                 configured for {cache}; transcode the snapshot explicitly \
                 to warm across precisions"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Corrupt(_)
            | SnapshotError::WrongModel { .. }
            | SnapshotError::PrecisionMismatch { .. } => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(v: f32) -> Tensor {
        Tensor::from_vec(vec![v, v + 1.0], [2])
    }

    /// Most- to least-recently used keys of a 1-stripe cache.
    fn recency_keys(c: &ShardedCache) -> Vec<u64> {
        assert_eq!(c.stripe_count(), 1);
        c.stripes[0].lock().unwrap().recency_keys()
    }

    #[test]
    fn hit_and_miss_counters() {
        let c = ShardedCache::new(4, 1);
        assert!(c.get(1).is_none());
        c.insert_tagged(1, 0, code(1.0));
        assert_eq!(c.get(1).unwrap().as_slice(), &[1.0, 2.0]);
        assert!(c.get(2).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 2, 1, 0));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used_at_capacity() {
        let c = ShardedCache::new(3, 1);
        c.insert_tagged(1, 0, code(1.0));
        c.insert_tagged(2, 0, code(2.0));
        c.insert_tagged(3, 0, code(3.0));
        assert_eq!(c.len(), 3);
        // Touch 1 so 2 becomes the LRU.
        assert!(c.get(1).is_some());
        c.insert_tagged(4, 0, code(4.0));
        assert_eq!(c.len(), 3, "capacity must hold");
        assert!(c.peek(2).is_none(), "LRU entry 2 should have been evicted");
        assert!(c.peek(1).is_some() && c.peek(3).is_some() && c.peek(4).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(recency_keys(&c), vec![4, 1, 3]);
    }

    #[test]
    fn sustained_pressure_keeps_len_at_capacity() {
        let c = ShardedCache::new(8, 1);
        for k in 0..1000u64 {
            c.insert_tagged(k, 0, code(k as f32));
            assert!(c.len() <= 8);
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.stats().evictions, 992);
        // The survivors are exactly the 8 most recent keys.
        for k in 992..1000 {
            assert!(c.peek(k).is_some());
        }
    }

    #[test]
    fn refresh_updates_payload_without_growth() {
        let c = ShardedCache::new(2, 1);
        c.insert_tagged(7, 0, code(1.0));
        c.insert_tagged(7, 0, code(9.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(7).unwrap().as_slice(), &[9.0, 10.0]);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let c = ShardedCache::new(0, 1);
        c.insert_tagged(1, 0, code(1.0));
        assert!(c.is_empty());
        assert!(c.get(1).is_none());
    }

    #[test]
    fn snapshot_roundtrips_tagged_entries_with_resalting() {
        let c = ShardedCache::new(8, 1);
        let (old_salt, new_salt, tag) = (0xAAAA_BBBB_CCCC_DDDD, 0x1111_2222_3333_4444, 7);
        // Three entries for `tag`, one foreign entry that must not spill.
        c.insert_tagged(10 ^ old_salt, tag, code(1.0));
        c.insert_tagged(20 ^ old_salt, tag, code(2.0));
        c.insert_tagged(30 ^ old_salt, tag, code(3.0));
        c.insert_tagged(99, 5, code(9.0));
        // Touch 10 so recency is 10 > 30 > 20 within the tag.
        assert!(c.get(10 ^ old_salt).is_some());

        let mut buf = Vec::new();
        assert_eq!(c.snapshot_to(&mut buf, tag, old_salt, 0xD1).unwrap(), 3);

        // A fresh process: new cache, new salt for the same model.
        let fresh = ShardedCache::new(8, 1);
        assert_eq!(
            fresh
                .load_from(buf.as_slice(), tag, new_salt, 0xD1)
                .unwrap(),
            3
        );
        assert_eq!(fresh.len(), 3);
        assert_eq!(
            fresh.peek(10 ^ new_salt).unwrap().as_slice(),
            &[1.0, 2.0],
            "canonical hash must resolve under the new salt"
        );
        assert!(fresh.peek(99).is_none(), "foreign tag must not leak");
        // Recency order survived: MRU first.
        assert_eq!(
            recency_keys(&fresh),
            vec![10 ^ new_salt, 30 ^ new_salt, 20 ^ new_salt]
        );
    }

    #[test]
    fn snapshot_load_respects_capacity() {
        let c = ShardedCache::new(16, 1);
        for k in 0..10u64 {
            c.insert_tagged(k, 1, code(k as f32));
        }
        let mut buf = Vec::new();
        assert_eq!(c.snapshot_to(&mut buf, 1, 0, 0).unwrap(), 10);
        // A smaller cache keeps only the most-recent suffix.
        let small = ShardedCache::new(4, 1);
        assert_eq!(small.load_from(buf.as_slice(), 1, 0, 0).unwrap(), 10);
        assert_eq!(small.len(), 4);
        for k in 6..10u64 {
            assert!(small.peek(k).is_some(), "key {k} should have survived");
        }
    }

    #[test]
    fn snapshot_load_rejects_garbage() {
        let c = ShardedCache::new(4, 1);
        assert!(matches!(
            c.load_from(&b"NOPE"[..], 0, 0, 0),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(c.load_from(&b"CC"[..], 0, 0, 0).is_err());
        // Truncated snapshot: error, nothing inserted (all-or-nothing).
        let full = ShardedCache::new(4, 1);
        full.insert_tagged(1, 1, code(1.0));
        full.insert_tagged(2, 1, code(2.0));
        let mut buf = Vec::new();
        full.snapshot_to(&mut buf, 1, 0, 0).unwrap();
        buf.truncate(buf.len() - 3);
        let partial = ShardedCache::new(4, 1);
        assert!(partial.load_from(buf.as_slice(), 1, 0, 0).is_err());
        assert!(partial.is_empty(), "a bad snapshot must insert nothing");
    }

    #[test]
    fn snapshot_load_rejects_flipped_body_bits() {
        // The trailing checksum covers the body: single-bit rot in a
        // stored code (or key) must be refused, not silently served.
        let c = ShardedCache::new(4, 1);
        c.insert_tagged(1, 1, code(1.0));
        c.insert_tagged(2, 1, code(2.0));
        let mut buf = Vec::new();
        c.snapshot_to(&mut buf, 1, 0, 0).unwrap();
        let mut rotted = buf.clone();
        let mid = 24 + (rotted.len() - 24 - 8) / 2; // inside the body
        rotted[mid] ^= 0x10;
        let fresh = ShardedCache::new(4, 1);
        let err = fresh.load_from(rotted.as_slice(), 1, 0, 0).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Corrupt(m) if m.contains("checksum")),
            "{err}"
        );
        assert!(fresh.is_empty());
        // The pristine copy still loads.
        assert_eq!(fresh.load_from(buf.as_slice(), 1, 0, 0).unwrap(), 2);
    }

    #[test]
    fn snapshot_load_rejects_wrong_weights_digest() {
        // A snapshot from one set of weights must never warm another:
        // latent codes are only meaningful under the weights that
        // produced them.
        let c = ShardedCache::new(4, 1);
        c.insert_tagged(1, 1, code(1.0));
        let mut buf = Vec::new();
        c.snapshot_to(&mut buf, 1, 0, 0xAAAA).unwrap();
        let fresh = ShardedCache::new(4, 1);
        assert!(matches!(
            fresh.load_from(buf.as_slice(), 1, 0, 0xBBBB),
            Err(SnapshotError::WrongModel {
                expected: 0xBBBB,
                found: 0xAAAA
            })
        ));
        assert!(fresh.is_empty());
        // The right digest still loads.
        assert_eq!(fresh.load_from(buf.as_slice(), 1, 0, 0xAAAA).unwrap(), 1);
    }

    #[test]
    fn sharded_cache_basic_ops_and_capacity_split() {
        let c = ShardedCache::new(64, 4);
        assert_eq!(c.stripe_count(), 4);
        assert_eq!(c.capacity(), 64);
        assert!(c.is_empty());
        for k in 0..6u64 {
            c.insert_tagged(k, 1, code(k as f32));
        }
        assert_eq!(c.len(), 6);
        assert_eq!(c.get(3).unwrap().as_slice(), &[3.0, 4.0]);
        assert!(c.get(99).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 6));
        c.clear();
        assert!(c.is_empty());
        // Zero capacity disables storage; zero stripes falls back to the
        // default stripe count rather than panicking on modulo 0.
        let off = ShardedCache::new(0, 0);
        assert_eq!(off.stripe_count(), DEFAULT_CACHE_STRIPES);
        off.insert_tagged(1, 1, code(1.0));
        assert!(off.is_empty());
    }

    #[test]
    fn sharded_cache_evicts_per_stripe_under_pressure() {
        // 1000 inserts into capacity 16 over 4 stripes: the per-stripe
        // capacities sum to exactly the configured budget, so the total
        // length can never exceed it.
        let c = ShardedCache::new(16, 4);
        for k in 0..1000u64 {
            c.insert_tagged(k, 1, code(k as f32));
        }
        assert!(c.len() <= 16, "len {} exceeds configured capacity", c.len());
        assert!(c.stats().evictions >= 1000 - 16);
        // A capacity smaller than the stripe count shrinks the stripe
        // count instead of over-allocating (16 stripes × ≥1 slot would
        // quadruple a budget of 4).
        let tiny = ShardedCache::new(4, 16);
        assert_eq!(tiny.stripe_count(), 4);
        for k in 0..100u64 {
            tiny.insert_tagged(k, 1, code(k as f32));
        }
        assert!(tiny.len() <= 4, "tiny len {}", tiny.len());
    }

    #[test]
    fn sharded_snapshot_roundtrips_across_stripe_counts() {
        // Stripe count is process-local layout: a snapshot written with
        // one stripe must load into eight (and back) byte-for-byte.
        let (old_salt, new_salt, tag, digest) = (0xAAAA, 0x1111, 7u64, 0xD1u64);
        let single = ShardedCache::new(64, 1);
        for k in 0..10u64 {
            single.insert_tagged((k * 1_000_003) ^ old_salt, tag, code(k as f32));
        }
        let mut buf1 = Vec::new();
        assert_eq!(
            single
                .snapshot_to(&mut buf1, tag, old_salt, digest)
                .unwrap(),
            10
        );

        let striped = ShardedCache::new(64, 8);
        assert_eq!(
            striped
                .load_from(buf1.as_slice(), tag, new_salt, digest)
                .unwrap(),
            10
        );
        assert_eq!(striped.len(), 10);
        for k in 0..10u64 {
            assert_eq!(
                striped.get((k * 1_000_003) ^ new_salt).unwrap().as_slice(),
                &[k as f32, k as f32 + 1.0],
                "entry {k} must survive re-striping"
            );
        }

        // And back: 8 stripes → 1 stripe.
        let mut buf8 = Vec::new();
        assert_eq!(
            striped
                .snapshot_to(&mut buf8, tag, new_salt, digest)
                .unwrap(),
            10
        );
        let back = ShardedCache::new(64, 1);
        assert_eq!(back.load_from(buf8.as_slice(), tag, 0, digest).unwrap(), 10);
        for k in 0..10u64 {
            assert_eq!(
                back.peek(k * 1_000_003).unwrap().as_slice(),
                &[k as f32, k as f32 + 1.0]
            );
        }
    }

    #[test]
    fn sharded_load_enforces_weights_digest_and_all_or_nothing() {
        let c = ShardedCache::new(8, 4);
        c.insert_tagged(1, 1, code(1.0));
        c.insert_tagged(2, 1, code(2.0));
        let mut buf = Vec::new();
        c.snapshot_to(&mut buf, 1, 0, 0xAAAA).unwrap();

        let fresh = ShardedCache::new(8, 8);
        assert!(matches!(
            fresh.load_from(buf.as_slice(), 1, 0, 0xBBBB),
            Err(SnapshotError::WrongModel {
                expected: 0xBBBB,
                found: 0xAAAA
            })
        ));
        assert!(fresh.is_empty(), "digest refusal must insert nothing");
        let mut truncated = buf.clone();
        truncated.truncate(buf.len() - 3);
        assert!(fresh.load_from(truncated.as_slice(), 1, 0, 0xAAAA).is_err());
        assert!(fresh.is_empty(), "truncation must insert nothing");
        assert_eq!(fresh.load_from(buf.as_slice(), 1, 0, 0xAAAA).unwrap(), 2);
    }

    #[test]
    fn sharded_cache_concurrent_salted_access_never_serves_stale_entries() {
        // The tentpole safety property under concurrency: 8 threads
        // hammering get/insert with two different registration salts
        // (two "models") must never observe another salt's code — the
        // payload of every entry encodes (salt id, canonical hash), so a
        // cross-salt or cross-key leak is detectable on every get.
        use std::sync::Arc;
        let cache = Arc::new(ShardedCache::new(256, 8));
        let salts = [0x1111_2222_3333_4444u64, 0xAAAA_BBBB_CCCC_DDDDu64];
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let which = t % 2;
                    let salt = salts[which];
                    for i in 0..2000u64 {
                        let canonical = (t as u64 * 10_000) + (i % 97);
                        let key = canonical ^ salt;
                        cache.insert_tagged(
                            key,
                            which as u64 + 1,
                            Tensor::from_vec(vec![which as f32, canonical as f32], [2]),
                        );
                        // Probe a key from OUR salt space drawn across all
                        // threads' canonical ranges.
                        let probe_canonical = ((i * 31) % 97) + (i % 8) * 10_000;
                        if let Some(code) = cache.get(probe_canonical ^ salt) {
                            let got = code.as_slice();
                            assert_eq!(
                                got[0], which as f32,
                                "salt {which} observed a code inserted under the other salt"
                            );
                            assert_eq!(
                                got[1], probe_canonical as f32,
                                "key {probe_canonical} served another key's code"
                            );
                        }
                    }
                });
            }
        });
        // Both salt spaces saw traffic: every thread's 97 distinct keys
        // were freshly inserted at least once (repeat inserts are
        // refreshes, which the insertion counter does not count).
        let s = cache.stats();
        assert!(s.insertions >= 8 * 97, "insertions {}", s.insertions);
        assert!(s.hits + s.misses > 0);
    }

    #[test]
    fn clear_preserves_telemetry() {
        let c = ShardedCache::new(2, 1);
        c.insert_tagged(1, 0, code(1.0));
        let _ = c.get(1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
        c.insert_tagged(2, 0, code(2.0));
        assert_eq!(c.get(2).unwrap().as_slice(), &[2.0, 3.0]);
    }

    // ---- quantized storage ------------------------------------------

    #[test]
    fn f16_bit_conversion_edge_cases() {
        // Values exactly representable in binary16 survive unchanged.
        for v in [
            0.0f32,
            1.0,
            -1.0,
            0.5,
            2.0,
            1.0 - 2f32.powi(-11),
            65504.0,
            -65504.0,
        ] {
            assert_eq!(f16_bits_to_f32(f32_to_f16_bits(v)), v, "exact value {v}");
        }
        // Signed zero keeps its sign bit.
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        // Round-to-nearest-even: 1 + 2⁻¹¹ sits exactly halfway between
        // 1.0 and 1 + 2⁻¹⁰; the tie goes to the even mantissa (1.0).
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1.0 + 2f32.powi(-11))), 1.0);
        // Just above the tie rounds up.
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(1.0 + 2f32.powi(-11) + 2f32.powi(-13))),
            1.0 + 2f32.powi(-10)
        );
        // Subnormals (multiples of 2⁻²⁴ below 2⁻¹⁴) convert exactly.
        let sub = 3.0 * 2f32.powi(-24);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(sub)), sub);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-sub)), -sub);
        // Underflow flushes to zero, overflow saturates to ±∞.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e-10)), 0.0);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e9)), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-1e9)), f32::NEG_INFINITY);
        // Specials survive; NaN is quieted but stays NaN.
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert_eq!(f32_to_f16_bits(f32::NAN) & 0x7fff, 0x7e00);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn lut_matches_reference_converter_for_every_bit_pattern() {
        // The read path is table-driven; the branchy converter is the
        // reference. Exhaustive: all 65536 f16 bit patterns, compared
        // by bits so NaN payloads and signed zeros must agree too.
        for h in 0u16..=u16::MAX {
            assert_eq!(
                f16_bits_to_f32_lut(h).to_bits(),
                f16_bits_to_f32(h).to_bits(),
                "bit pattern {h:#06x}"
            );
        }
    }

    #[test]
    fn stored_code_quantization_error_is_bounded() {
        // A spread of tanh-range values, the regime cached codes live in.
        let n = 257usize;
        let vals: Vec<f32> = (0..n)
            .map(|i| {
                let t = i as f32 / (n - 1) as f32;
                (2.0 * (2.0 * t - 1.0) + (i as f32 * 0.37).sin() * 0.01).tanh()
            })
            .collect();
        let t = Tensor::from_vec(vals.clone(), [n]);

        // f16: relative error ≤ 2⁻¹¹ (half-ulp), plus the subnormal floor.
        let f16 = StoredCode::encode(&t, CachePrecision::F16);
        assert_eq!(f16.precision(), CachePrecision::F16);
        assert_eq!(f16.payload_bytes(), n * 2);
        for (&v, &d) in vals.iter().zip(f16.decode().as_slice()) {
            assert!(
                (v - d).abs() <= v.abs() * 2f32.powi(-11) + 2f32.powi(-24),
                "f16 error for {v}: got {d}"
            );
        }

        // int8: affine error ≤ scale/2 with scale = (max − min)/255.
        let int8 = StoredCode::encode(&t, CachePrecision::Int8);
        assert_eq!(int8.precision(), CachePrecision::Int8);
        assert_eq!(int8.payload_bytes(), n + 8);
        let (lo, hi) = vals
            .iter()
            .fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let scale = (hi - lo) / 255.0;
        for (&v, &d) in vals.iter().zip(int8.decode().as_slice()) {
            assert!(
                (v - d).abs() <= scale / 2.0 + 1e-7,
                "int8 error for {v}: got {d} (scale {scale})"
            );
        }

        // f32 is lossless and the endpoints of the int8 range are exact.
        let f32c = StoredCode::encode(&t, CachePrecision::F32);
        assert_eq!(f32c.payload_bytes(), n * 4);
        assert_eq!(f32c.decode().as_slice(), &vals[..]);
        let deq = int8.decode();
        let deq = deq.as_slice();
        let lo_idx = vals.iter().position(|&v| v == lo).unwrap();
        let hi_idx = vals.iter().position(|&v| v == hi).unwrap();
        assert_eq!(deq[lo_idx], lo);
        assert!((deq[hi_idx] - hi).abs() <= 1e-6);

        // Constant codes collapse to one level (scale 0) and are exact.
        let c = Tensor::from_vec(vec![0.75; 16], [16]);
        let stored = StoredCode::encode(&c, CachePrecision::Int8);
        assert_eq!(stored.decode().as_slice(), c.as_slice());
        // Empty codes survive every precision.
        let empty = Tensor::from_vec(Vec::new(), [0]);
        for p in [
            CachePrecision::F32,
            CachePrecision::F16,
            CachePrecision::Int8,
        ] {
            let s = StoredCode::encode(&empty, p);
            assert!(s.is_empty());
            assert_eq!(s.decode().len(), 0);
        }
    }

    #[test]
    fn int8_affine_quantization_roundtrip_is_a_projection() {
        // Quantize → dequantize → quantize must be a fixed point: the
        // second pass may not move any value (idempotence is what makes
        // repeated snapshot/restore cycles safe at Int8 precision).
        // Pinned for the Miri job: this exercises the unsafe-free but
        // cast-heavy affine path end to end under the interpreter.
        let vals: Vec<f32> = (0..64)
            .map(|i| ((i as f32) * 0.193).sin() * 1.7 - 0.3)
            .collect();
        let t = Tensor::from_vec(vals, [64]);
        let once = StoredCode::encode(&t, CachePrecision::Int8).decode();
        let twice = StoredCode::encode(&once, CachePrecision::Int8).decode();
        assert_eq!(once.as_slice(), twice.as_slice());
        // And the re-encoded payload is byte-identical in size/precision.
        let again = StoredCode::encode(&once, CachePrecision::Int8);
        assert_eq!(again.precision(), CachePrecision::Int8);
        assert_eq!(
            again.payload_bytes(),
            StoredCode::encode(&t, CachePrecision::Int8).payload_bytes()
        );
    }

    #[test]
    fn f16_preserves_specials_and_int8_degrades_them_finitely() {
        let t = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.5], [4]);
        let d = StoredCode::encode(&t, CachePrecision::F16).decode();
        assert!(d.as_slice()[0].is_nan());
        assert_eq!(d.as_slice()[1], f32::INFINITY);
        assert_eq!(d.as_slice()[2], f32::NEG_INFINITY);
        assert_eq!(d.as_slice()[3], 0.5);
        // int8 assumes finite codes: a non-finite range collapses to one
        // level at 0.0 instead of poisoning every element with NaN.
        let d = StoredCode::encode(&t, CachePrecision::Int8).decode();
        assert!(d.as_slice().iter().all(|v| v.is_finite()));
        // NaN elements among finite neighbors clamp to the minimum level.
        let t = Tensor::from_vec(vec![f32::NAN, 1.0, 3.0], [3]);
        let d = StoredCode::encode(&t, CachePrecision::Int8).decode();
        assert_eq!(d.as_slice()[0], 1.0);
        assert_eq!(d.as_slice()[1], 1.0);
        assert!((d.as_slice()[2] - 3.0).abs() <= 1e-6);
    }

    #[test]
    fn snapshot_roundtrip_is_bit_exact_per_precision() {
        for precision in [
            CachePrecision::F32,
            CachePrecision::F16,
            CachePrecision::Int8,
        ] {
            let c = ShardedCache::with_precision(32, 1, precision);
            assert_eq!(c.precision(), precision);
            for k in 0..12u64 {
                c.insert_tagged(
                    k * 7 + 1,
                    3,
                    Tensor::from_vec(
                        (0..5).map(|i| ((k * 5 + i) as f32 * 0.631).sin()).collect(),
                        [5],
                    ),
                );
            }
            let mut buf = Vec::new();
            assert_eq!(c.snapshot_to(&mut buf, 3, 0, 99).unwrap(), 12);
            let back = ShardedCache::with_precision(32, 1, precision);
            assert_eq!(back.load_from(buf.as_slice(), 3, 0, 99).unwrap(), 12);
            // Snapshots persist the stored (already-quantized) payload,
            // so the round trip is bit-exact — no re-quantization drift.
            for k in 0..12u64 {
                let key = k * 7 + 1;
                let a = c.peek(key).expect("source entry");
                let b = back.peek(key).expect("restored entry");
                let (a, b) = (a.as_slice(), b.as_slice());
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "precision {precision} key {key}");
                }
            }
            // A 4-stripe cache restores the same snapshot identically.
            let sharded = ShardedCache::with_precision(32, 4, precision);
            assert_eq!(sharded.load_from(buf.as_slice(), 3, 0, 99).unwrap(), 12);
            let a = c.peek(8).unwrap();
            let b = sharded.peek(8).unwrap();
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn snapshot_refuses_cross_precision_loads() {
        let f16 = ShardedCache::with_precision(8, 1, CachePrecision::F16);
        f16.insert_tagged(1, 1, code(1.0));
        f16.insert_tagged(2, 1, code(2.0));
        let mut buf = Vec::new();
        f16.snapshot_to(&mut buf, 1, 0, 7).unwrap();

        let flat = ShardedCache::new(8, 1); // f32 default
        assert!(matches!(
            flat.load_from(buf.as_slice(), 1, 0, 7),
            Err(SnapshotError::PrecisionMismatch {
                snapshot: CachePrecision::F16,
                cache: CachePrecision::F32,
            })
        ));
        assert!(flat.is_empty(), "precision refusal must insert nothing");

        let sharded = ShardedCache::with_precision(8, 2, CachePrecision::Int8);
        assert!(matches!(
            sharded.load_from(buf.as_slice(), 1, 0, 7),
            Err(SnapshotError::PrecisionMismatch {
                snapshot: CachePrecision::F16,
                cache: CachePrecision::Int8,
            })
        ));
        assert!(sharded.is_empty(), "precision refusal must insert nothing");
        // The digest gate still runs before the precision gate.
        assert!(matches!(
            flat.load_from(buf.as_slice(), 1, 0, 8),
            Err(SnapshotError::WrongModel { .. })
        ));
    }

    /// Hand-builds a version-1 snapshot (pre-quantization format: no
    /// precision tag byte, f32 payloads) and checks the back-compat
    /// path: an f32 cache loads it, narrow caches refuse it.
    #[test]
    fn v1_snapshot_loads_into_f32_caches_only() {
        let digest = 0x5150u64;
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CCSC");
        buf.extend_from_slice(&1u32.to_le_bytes()); // version 1
        buf.extend_from_slice(&digest.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes()); // entry count
        let mut checksum = crate::hash::Fnv1a::new();
        for (key, vals) in [(11u64, [0.25f32, -0.5]), (12u64, [1.5f32, 2.5])] {
            let mut frame = Vec::new();
            frame.extend_from_slice(&key.to_le_bytes());
            frame.extend_from_slice(&2u32.to_le_bytes());
            for v in vals {
                frame.extend_from_slice(&v.to_le_bytes());
            }
            checksum.write(&frame);
            buf.extend_from_slice(&frame);
        }
        buf.extend_from_slice(&checksum.finish().to_le_bytes());

        let flat = ShardedCache::new(8, 1);
        assert_eq!(flat.load_from(buf.as_slice(), 0, 0, digest).unwrap(), 2);
        assert_eq!(flat.peek(11).unwrap().as_slice(), &[0.25, -0.5]);
        assert_eq!(flat.peek(12).unwrap().as_slice(), &[1.5, 2.5]);

        let f16 = ShardedCache::with_precision(8, 1, CachePrecision::F16);
        assert!(matches!(
            f16.load_from(buf.as_slice(), 0, 0, digest),
            Err(SnapshotError::PrecisionMismatch {
                snapshot: CachePrecision::F32,
                cache: CachePrecision::F16,
            })
        ));
    }

    #[test]
    fn transcode_snapshot_preserves_digest_and_bounds_error() {
        let digest = 0xD1CEu64;
        let f32c = ShardedCache::new(16, 1);
        for k in 0..6u64 {
            f32c.insert_tagged(
                k + 1,
                2,
                Tensor::from_vec(
                    (0..4)
                        .map(|i| ((k * 4 + i) as f32 * 0.417).cos() * 0.9)
                        .collect(),
                    [4],
                ),
            );
        }
        let mut wide = Vec::new();
        f32c.snapshot_to(&mut wide, 2, 0, digest).unwrap();

        // f32 → int8: digest survives, values move by at most scale/2.
        let mut narrow = Vec::new();
        assert_eq!(
            transcode_snapshot(wide.as_slice(), &mut narrow, CachePrecision::Int8).unwrap(),
            6
        );
        let (found, precision, _) = read_snapshot_any(narrow.as_slice()).unwrap();
        assert_eq!(found, digest);
        assert_eq!(precision, CachePrecision::Int8);
        let int8 = ShardedCache::with_precision(16, 1, CachePrecision::Int8);
        assert_eq!(int8.load_from(narrow.as_slice(), 2, 0, digest).unwrap(), 6);
        for k in 0..6u64 {
            let orig = f32c.peek(k + 1).unwrap();
            let deq = int8.peek(k + 1).unwrap();
            let (orig, deq) = (orig.as_slice(), deq.as_slice());
            let (lo, hi) = orig
                .iter()
                .fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let bound = (hi - lo) / 255.0 / 2.0 + 1e-7;
            for (a, b) in orig.iter().zip(deq) {
                assert!((a - b).abs() <= bound, "key {}: {a} vs {b}", k + 1);
            }
        }

        // int8 → f32: widening recovers the dequantized values exactly
        // and the result loads into a default-precision cache.
        let mut widened = Vec::new();
        assert_eq!(
            transcode_snapshot(narrow.as_slice(), &mut widened, CachePrecision::F32).unwrap(),
            6
        );
        let back = ShardedCache::new(16, 1);
        assert_eq!(back.load_from(widened.as_slice(), 2, 0, digest).unwrap(), 6);
        assert_eq!(
            back.peek(3).unwrap().as_slice(),
            int8.peek(3).unwrap().as_slice()
        );
    }

    #[test]
    fn cache_bytes_tracks_insert_refresh_evict_and_clear() {
        let c = ShardedCache::with_precision(2, 1, CachePrecision::Int8);
        assert_eq!(c.bytes(), 0);
        c.insert_tagged(1, 0, Tensor::from_vec(vec![0.1; 6], [6])); // 6 + 8
        assert_eq!(c.bytes(), 14);
        c.insert_tagged(2, 0, Tensor::from_vec(vec![0.2; 10], [10])); // + 10 + 8
        assert_eq!(c.bytes(), 32);
        // Refreshing a key with a different-length code re-accounts it.
        c.insert_tagged(1, 0, Tensor::from_vec(vec![0.3; 2], [2])); // 6+8 → 2+8
        assert_eq!(c.bytes(), 28);
        // Eviction releases the displaced entry's bytes (key 2 is LRU).
        c.insert_tagged(3, 0, Tensor::from_vec(vec![0.4; 4], [4]));
        assert_eq!(c.bytes(), 10 + 12);
        c.clear();
        assert_eq!(c.bytes(), 0);
        // The sharded aggregate equals the sum over stripes, and f16
        // storage costs exactly half of f32.
        let s16 = ShardedCache::with_precision(64, 4, CachePrecision::F16);
        let s32 = ShardedCache::with_precision(64, 4, CachePrecision::F32);
        for k in 0..16u64 {
            let t = Tensor::from_vec(vec![k as f32 * 0.01; 8], [8]);
            s16.insert_tagged(k, 0, t.clone());
            s32.insert_tagged(k, 0, t);
        }
        assert_eq!(s16.bytes() * 2, s32.bytes());
        assert_eq!(s32.bytes(), 16 * 8 * 4);
    }
}
