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
//! memo), so `get`, `insert` and eviction are all O(1). Codes are held
//! as the f32 tensors the encoder produced, so a hit hands back an `Arc`
//! clone of exactly what a fresh encode would compute. Each stripe
//! tracks its payload bytes ([`ShardedCache::bytes`] sums them), the
//! number behind the `ccsa_cache_bytes` gauge.
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
//!
//! A snapshot has one layout: magic `CCSC`, version `2`, the weights
//! digest, a format byte that is always `0` (f32), the entry count, the
//! entries, and a checksum over them. Any other version or format byte
//! is refused as [`SnapshotError::Corrupt`].

use std::io::{Read, Write};

use crate::lockdep::DMutex;
use crate::lru::Lru;

use ccsa_tensor::Tensor;

/// Stripe count [`ShardedCache`] uses when a config leaves it at 0.
pub const DEFAULT_CACHE_STRIPES: usize = 16;

/// Magic prefix of a cache snapshot file.
const SNAPSHOT_MAGIC: &[u8; 4] = b"CCSC";
/// The one snapshot format version.
const SNAPSHOT_VERSION: u32 = 2;
/// The format byte after the weights digest: f32 codes, the only kind a
/// cache holds.
const SNAPSHOT_F32_TAG: u8 = 0;
/// Upper bounds on snapshot contents: snapshots may come from disk that
/// rotted or was tampered with, so implausible sizes are rejected instead
/// of allocated.
const MAX_SNAPSHOT_ENTRIES: u32 = 16_000_000;
const MAX_CODE_LEN: u32 = 1 << 20;

struct Entry {
    tag: u64,
    code: Tensor,
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

/// Payload bytes of one cached code (per-entry bookkeeping excluded).
fn payload_bytes(code: &Tensor) -> usize {
    code.len() * std::mem::size_of::<f32>()
}

/// A least-recently-used map from canonical AST hash to latent code:
/// one stripe of a [`ShardedCache`].
struct EmbeddingCache {
    capacity: usize,
    lru: Lru<u64, Entry>,
    stats: CacheStats,
    bytes: usize, // payload bytes held, maintained incrementally
}

impl EmbeddingCache {
    /// A cache holding at most `capacity` codes. Capacity 0 disables
    /// caching (every lookup misses, nothing is stored).
    fn new(capacity: usize) -> EmbeddingCache {
        EmbeddingCache {
            capacity,
            lru: Lru::with_capacity(capacity.min(1 << 20)),
            stats: CacheStats::default(),
            bytes: 0,
        }
    }

    /// Payload bytes currently held. O(1): maintained on every insert,
    /// refresh, eviction and clear.
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

    /// Looks a code up, promoting the entry to most-recently-used. A hit
    /// is an `Arc` clone of the stored tensor.
    fn get(&mut self, key: u64) -> Option<Tensor> {
        match self.lru.get(&key) {
            Some(entry) => {
                self.stats.hits += 1;
                Some(entry.code.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peeks without touching recency or counters (used by tests and
    /// diagnostics).
    fn peek(&self, key: u64) -> Option<Tensor> {
        self.lru.peek(&key).map(|entry| entry.code.clone())
    }

    /// Inserts (or refreshes) a code under an owner `tag` — typically the
    /// registration uid of the model that produced it — evicting the
    /// least-recently-used entry if the cache is at capacity, so
    /// [`ShardedCache::snapshot_to`] can later spill exactly that
    /// model's entries.
    fn insert_tagged(&mut self, key: u64, tag: u64, code: Tensor) {
        if self.capacity == 0 {
            return;
        }
        self.bytes += payload_bytes(&code);
        if let Some(entry) = self.lru.get(&key) {
            // Refresh: replace payload and owner (the lookup promoted).
            self.bytes -= payload_bytes(&entry.code);
            *entry = Entry { tag, code };
            return;
        }
        if self.lru.len() == self.capacity {
            let (_, evicted) = self.lru.pop_lru().expect("a full stripe has a tail");
            self.bytes -= payload_bytes(&evicted.code);
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
    /// This is the cheap, in-memory half of snapshotting: cloning is an
    /// `Arc` bump per entry, so the stripe lock is released before
    /// [`write_snapshot`] touches the disk.
    fn tagged_entries(&self, tag: u64, salt: u64) -> Vec<(u64, Tensor)> {
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
}

impl ShardedCache {
    /// A cache of `capacity` total codes split over `stripes` stripes
    /// (0 stripes → [`DEFAULT_CACHE_STRIPES`]). Capacity 0 disables
    /// caching entirely (every lookup misses, nothing is stored).
    pub fn new(capacity: usize, stripes: usize) -> ShardedCache {
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
                    DMutex::new("serve.cache.stripe", EmbeddingCache::new(per))
                })
                .collect(),
            capacity,
        }
    }

    /// Total payload bytes held across all stripes. Each stripe is
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
    /// entries. Evicts the stripe's least-recently-used entry at
    /// capacity. Only the owning stripe is locked.
    pub fn insert_tagged(&self, key: u64, tag: u64, code: Tensor) {
        self.stripe_for(key)
            .lock()
            .expect("cache stripe poisoned")
            .insert_tagged(key, tag, code);
    }

    /// Extracts every entry tagged `tag` as (canonical hash, code)
    /// pairs, stripe by stripe (within a stripe: least- to
    /// most-recently used). `salt` is the process-local key salt the
    /// entries were inserted under; keys are un-salted so the pairs stay
    /// valid in any future process. Locks one stripe at a time, so a
    /// live snapshot never stalls the whole cache.
    fn tagged_entries(&self, tag: u64, salt: u64) -> Vec<(u64, Tensor)> {
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

    /// Spills every entry tagged `tag` to `w` in the CCSC format (see the
    /// module docs), returning how many were written. `digest`
    /// identifies the weights that produced the codes;
    /// [`ShardedCache::load_from`] refuses a snapshot whose digest does
    /// not match. Stripe locks are released before the first write.
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
        write_snapshot(w, digest, &self.tagged_entries(tag, salt))
    }

    /// Loads a CCSC snapshot (written with any stripe count), re-salting
    /// every stored canonical hash with `salt` and inserting the codes
    /// under `tag`. Returns how many entries were inserted (capacity
    /// eviction applies as usual, so a small cache keeps only the
    /// most-recently-used suffix of a large snapshot).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on I/O failure, malformed content (any
    /// version or format byte but the one this build writes included),
    /// or a weights-digest mismatch (codes from different weights); a
    /// failed load inserts nothing.
    pub fn load_from<R: Read>(
        &self,
        r: R,
        tag: u64,
        salt: u64,
        expected_digest: u64,
    ) -> Result<usize, SnapshotError> {
        let entries = read_snapshot(r, expected_digest)?;
        let count = entries.len();
        for (canonical, code) in entries {
            self.insert_tagged(canonical ^ salt, tag, code);
        }
        Ok(count)
    }
}

/// Writes (canonical hash, code) pairs as a snapshot document. `digest`
/// identifies the weights that produced the codes (see
/// [`SnapshotError::WrongModel`]). Returns the number of entries
/// written.
fn write_snapshot<W: Write>(
    mut w: W,
    digest: u64,
    entries: &[(u64, Tensor)],
) -> Result<usize, SnapshotError> {
    w.write_all(SNAPSHOT_MAGIC)?;
    w.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
    w.write_all(&digest.to_le_bytes())?;
    w.write_all(&[SNAPSHOT_F32_TAG])?;
    w.write_all(&(entries.len() as u32).to_le_bytes())?;
    // Entry payloads are framed into one buffer per entry (bulk writes,
    // not one syscall-layer call per float) and run through a checksum:
    // the trailing value lets the reader reject bit rot in the body, not
    // just a damaged header.
    let mut checksum = crate::hash::Fnv1a::new();
    let mut frame: Vec<u8> = Vec::new();
    for (canonical, code) in entries {
        frame.clear();
        frame.extend_from_slice(&canonical.to_le_bytes());
        frame.extend_from_slice(&(code.len() as u32).to_le_bytes());
        for &v in code.as_slice() {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        checksum.write(&frame);
        w.write_all(&frame)?;
    }
    w.write_all(&checksum.finish().to_le_bytes())?;
    Ok(entries.len())
}

/// Reads a snapshot document back into (canonical hash, code) pairs,
/// verifying the stored weights digest against `expected_digest`.
/// Nothing is returned unless the whole document, checksum included,
/// is valid.
fn read_snapshot<R: Read>(
    mut r: R,
    expected_digest: u64,
) -> Result<Vec<(u64, Tensor)>, SnapshotError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::Corrupt(
            "not a CCSA cache snapshot".to_string(),
        ));
    }
    let version = read_u32(&mut r)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let mut digest = [0u8; 8];
    r.read_exact(&mut digest)?;
    let found = u64::from_le_bytes(digest);
    if found != expected_digest {
        return Err(SnapshotError::WrongModel {
            expected: expected_digest,
            found,
        });
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    if tag[0] != SNAPSHOT_F32_TAG {
        return Err(SnapshotError::Corrupt(format!(
            "unsupported code format tag {}",
            tag[0]
        )));
    }
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
        let mut raw = vec![0u8; len * 4];
        r.read_exact(&mut raw)?;
        checksum.write(&raw);
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        entries.push((canonical, Tensor::from_vec(data, [len])));
    }
    let mut stored = [0u8; 8];
    r.read_exact(&mut stored)?;
    if u64::from_le_bytes(stored) != checksum.finish() {
        return Err(SnapshotError::Corrupt(
            "body checksum mismatch (bit rot or tampering)".to_string(),
        ));
    }
    Ok(entries)
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
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Corrupt(_) | SnapshotError::WrongModel { .. } => None,
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

    /// A snapshot in the one CCSC layout, built by hand: magic, version
    /// 2, digest, format byte 0, entry count, framed entries, FNV-1a
    /// checksum over the frames.
    fn v2_snapshot(digest: u64, entries: &[(u64, &[f32])]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CCSC");
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&digest.to_le_bytes());
        buf.push(0);
        buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        let mut checksum = crate::hash::Fnv1a::new();
        for (key, vals) in entries {
            let mut frame = Vec::new();
            frame.extend_from_slice(&key.to_le_bytes());
            frame.extend_from_slice(&(vals.len() as u32).to_le_bytes());
            for v in *vals {
                frame.extend_from_slice(&v.to_le_bytes());
            }
            checksum.write(&frame);
            buf.extend_from_slice(&frame);
        }
        buf.extend_from_slice(&checksum.finish().to_le_bytes());
        buf
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
        // Any other version or format byte is refused, not guessed at: a
        // version-1 or version-3 header, and the f16 (1) and int8 (2)
        // format tags of the retired narrow stores.
        let good = v2_snapshot(0, &[(1, &[1.0, 2.0])]);
        for (offset, byte) in [(4, 1u8), (4, 3), (16, 1), (16, 2)] {
            let mut bad = good.clone();
            bad[offset] = byte;
            let fresh = ShardedCache::new(4, 1);
            let err = fresh.load_from(bad.as_slice(), 1, 0, 0).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Corrupt(_)),
                "byte {byte} at offset {offset}: {err}"
            );
            assert!(fresh.is_empty(), "a refused snapshot must insert nothing");
        }
        let fresh = ShardedCache::new(4, 1);
        assert_eq!(fresh.load_from(good.as_slice(), 1, 0, 0).unwrap(), 1);
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

    /// The on-disk layout is pinned twice: a hand-built file (the bytes
    /// every f32 cache has written since the format byte was added)
    /// loads bit-exactly, and the writer reproduces it byte for byte.
    #[test]
    fn v2_snapshot_layout_is_pinned_and_loads_bit_exactly() {
        let digest = 0x5150u64;
        // Awkward bit patterns: a NaN payload, negative zero, a subnormal.
        let a = [0.25f32, -0.5, f32::from_bits(0x7fc0_1234)];
        let b = [-0.0f32, f32::from_bits(1), 2.5];
        let file = v2_snapshot(digest, &[(11, &a), (12, &b)]);

        let flat = ShardedCache::new(8, 1);
        assert_eq!(flat.load_from(file.as_slice(), 0, 0, digest).unwrap(), 2);
        for (key, want) in [(11u64, &a), (12, &b)] {
            let got = flat.peek(key).unwrap();
            let got: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "key {key}");
        }
        let mut written = Vec::new();
        assert_eq!(flat.snapshot_to(&mut written, 0, 0, digest).unwrap(), 2);
        assert_eq!(written, file, "the writer must emit the pinned layout");
    }

    #[test]
    fn cache_bytes_tracks_insert_refresh_evict_and_clear() {
        let c = ShardedCache::new(2, 1);
        assert_eq!(c.bytes(), 0);
        c.insert_tagged(1, 0, Tensor::from_vec(vec![0.1; 6], [6])); // 6 × 4
        assert_eq!(c.bytes(), 24);
        c.insert_tagged(2, 0, Tensor::from_vec(vec![0.2; 10], [10])); // + 10 × 4
        assert_eq!(c.bytes(), 64);
        // Refreshing a key with a different-length code re-accounts it.
        c.insert_tagged(1, 0, Tensor::from_vec(vec![0.3; 2], [2])); // 24 → 8
        assert_eq!(c.bytes(), 48);
        // Eviction releases the displaced entry's bytes (key 2 is LRU).
        c.insert_tagged(3, 0, Tensor::from_vec(vec![0.4; 4], [4]));
        assert_eq!(c.bytes(), 8 + 16);
        c.clear();
        assert_eq!(c.bytes(), 0);
        // The sharded aggregate equals the sum over stripes.
        let s = ShardedCache::new(64, 4);
        for k in 0..16u64 {
            s.insert_tagged(k, 0, Tensor::from_vec(vec![k as f32 * 0.01; 8], [8]));
        }
        assert_eq!(s.bytes(), 16 * 8 * 4);
        let per_stripe: usize = s.stripe_stats().iter().map(|(_, _, b)| b).sum();
        assert_eq!(per_stripe, s.bytes());
    }
}
