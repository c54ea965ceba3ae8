//! Crash-safe, versioned snapshots of Engine state.
//!
//! Everything the [`crate::Engine`] knows — the mined candidate set, the
//! warmed seed tidsets, fitted models — dies with the process unless it
//! is persisted; this module is the durability layer that lets a
//! restarted server warm from disk instead of paying a full re-mine,
//! under the standing contract that a **warm-started engine is
//! bit-identical to a cold-started one**.
//!
//! # File format
//!
//! A snapshot is a little-endian binary file of checksummed sections:
//!
//! ```text
//! [magic "TV2SNAP1" 8B] [version u32] [section-count u32]
//! repeated per section:
//!   [tag u32] [payload-len u64] [payload ...] [crc32(payload) u32]
//! [trailer magic "TV2END\0\0" 8B] [crc32(everything above) u32]
//! ```
//!
//! Section tags: `1` IDENTITY (dataset schema + per-column
//! [`Tidset::fingerprint`]), `2` CACHE (mining config + candidates),
//! `3` SEEDS (optional), `4` MODEL (a fitted [`TranslatorModel`]). An
//! engine snapshot holds IDENTITY+CACHE[+SEEDS]; a model snapshot holds
//! IDENTITY+MODEL.
//!
//! SEEDS holds the cache's warmed [`SeedSets`]: per side (left, then
//! right), a `u64` count and then one repr-tagged tidset per distinct
//! itemset of that side, in id order. The ids themselves are not stored:
//! they follow from candidate order ([`ItemsetIds::new`]), so the reader
//! re-derives them from the CACHE section, checks each side's count
//! against the distinct itemsets, every tidset's universe against the
//! dataset and every candidate's support against the lengths of its two
//! tidsets (its rows hold both itemsets, so it can be no larger), and the
//! cache re-meters the set through its `SeedBudget`. The length check
//! reads two numbers per candidate; tidsets whose bits changed but whose
//! lengths still cover every support are not detected by it.
//! Candidates repeat their view projections, so this is far smaller than
//! a pair per candidate: on Adult at paper scale (490 candidates at
//! minsup 4 885), 156 tidsets and a 0.98 MB file, where version 2 stored
//! 980 tidsets.
//!
//! Integrity is layered: each section carries its own CRC (localises
//! damage for [`inspect`]), the trailer CRC covers the whole file
//! (catches truncation after a valid section), and the IDENTITY section
//! pins the snapshot to the *content* of the dataset it was built from —
//! schema plus a representation-independent fingerprint of every item
//! column — so a snapshot can never warm an engine over different data.
//! Both CRC layers are computed on every save and load.
//!
//! # Failure is always recoverable
//!
//! Writes are crash-safe: bytes go to a unique temp file, are fsynced,
//! and reach the final path only via atomic rename (plus a parent-dir
//! fsync), so readers observe either the old file or the complete new
//! one — never a half-write. The reader trusts nothing: bad magic,
//! version skew, truncation anywhere, a single flipped bit, a dataset
//! mismatch — every failure surfaces as a [`SnapshotError`] the engine
//! maps to "fall back to re-mining", never a panic and never a wrong
//! model. The `snapshot.write_fail` / `snapshot.torn` /
//! `snapshot.corrupt` fault points (see [`twoview_runtime::faults`])
//! inject exactly those damages deterministically for the chaos drills.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use twoview_data::codec::{crc32, ByteReader, ByteWriter, CodecError};
use twoview_data::prelude::*;
use twoview_mining::{CandidateCache, ItemsetIds, SeedSets, TwoViewCandidate};
use twoview_runtime::faults::{self, points};
use twoview_runtime::obs;

use crate::model::{ModelScore, TraceStep, TranslatorModel};
use crate::rule::{Direction, TranslationRule};
use crate::table::TranslationTable;

/// Leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"TV2SNAP1";
/// The format version this build writes and accepts. Version 3 stores
/// one seed tidset per distinct itemset per side; version 2 stored a
/// `(supp(X), supp(Y))` pair per candidate, and version 1 could store
/// tidsets run-length encoded. No older reader is kept: a v1 or v2 file
/// is refused as version skew and the engine re-mines (and writes v3).
pub const SNAPSHOT_VERSION: u32 = 3;
/// File name of the engine snapshot inside a snapshot directory
/// (see `EngineBuilder::snapshot_dir`).
pub const ENGINE_SNAPSHOT_FILE: &str = "engine.snap";

const TRAILER_MAGIC: &[u8; 8] = b"TV2END\0\0";

const SEC_IDENTITY: u32 = 1;
const SEC_CACHE: u32 = 2;
const SEC_SEEDS: u32 = 3;
const SEC_MODEL: u32 = 4;

fn section_name(tag: u32) -> &'static str {
    match tag {
        SEC_IDENTITY => "identity",
        SEC_CACHE => "cache",
        SEC_SEEDS => "seeds",
        SEC_MODEL => "model",
        _ => "unknown",
    }
}

/// Why a snapshot could not be written or loaded. Every load-side
/// variant is **recoverable by design**: the engine counts the
/// rejection and re-mines; nothing here ever panics serving paths.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file was written by a different format version.
    VersionSkew {
        /// Version found in the file header.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The file ended before the declared structure was complete.
    Truncated(String),
    /// A section (or the whole-file trailer) failed its CRC.
    Checksum(String),
    /// Structure or values violate a format invariant.
    Malformed(String),
    /// The snapshot was built from a different dataset (schema or
    /// per-column fingerprint mismatch against the live dataset).
    DatasetMismatch(String),
    /// A required section is absent.
    MissingSection(&'static str),
}

impl SnapshotError {
    /// Stable short label for observability fields and stats
    /// (`engine.snapshot.reject` events carry it as `reason`).
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotError::Io(_) => "io",
            SnapshotError::BadMagic => "bad_magic",
            SnapshotError::VersionSkew { .. } => "version_skew",
            SnapshotError::Truncated(_) => "truncated",
            SnapshotError::Checksum(_) => "checksum",
            SnapshotError::Malformed(_) => "malformed",
            SnapshotError::DatasetMismatch(_) => "dataset_mismatch",
            SnapshotError::MissingSection(_) => "missing_section",
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "snapshot has bad magic (not a TV2SNAP file)"),
            SnapshotError::VersionSkew { found, supported } => write!(
                f,
                "snapshot version {found} unsupported (this build reads version {supported})"
            ),
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated: {what}"),
            SnapshotError::Checksum(what) => write!(f, "snapshot checksum mismatch: {what}"),
            SnapshotError::Malformed(what) => write!(f, "snapshot malformed: {what}"),
            SnapshotError::DatasetMismatch(what) => {
                write!(f, "snapshot dataset mismatch: {what}")
            }
            SnapshotError::MissingSection(name) => {
                write!(f, "snapshot missing required section: {name}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { need, have } => {
                SnapshotError::Truncated(format!("needed {need} bytes, had {have}"))
            }
            CodecError::Malformed(why) => SnapshotError::Malformed(why),
        }
    }
}

// ----------------------------------------------------------------- writing

/// Assembles the framed section stream (header, sections, trailer).
struct SnapshotFile {
    out: ByteWriter,
    sections: u32,
}

impl SnapshotFile {
    fn new() -> SnapshotFile {
        let mut out = ByteWriter::new();
        out.put_raw(SNAPSHOT_MAGIC);
        out.put_u32(SNAPSHOT_VERSION);
        out.put_u32(0); // section count, patched in finish()
        SnapshotFile { out, sections: 0 }
    }

    fn section(&mut self, tag: u32, payload: &[u8]) {
        self.out.put_u32(tag);
        self.out.put_u64(payload.len() as u64);
        self.out.put_raw(payload);
        self.out.put_u32(crc32(payload));
        self.sections += 1;
    }

    fn finish(self) -> Vec<u8> {
        let mut bytes = self.out.into_bytes();
        bytes[12..16].copy_from_slice(&self.sections.to_le_bytes());
        bytes.extend_from_slice(TRAILER_MAGIC);
        let file_crc = crc32(&bytes);
        bytes.extend_from_slice(&file_crc.to_le_bytes());
        bytes
    }
}

/// Monotonic discriminator for temp-file names, so concurrent saves to
/// one path never collide before their atomic renames.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` crash-safely: unique temp file in the same
/// directory → `fsync` → atomic rename → parent-directory `fsync`.
/// Readers therefore see the old content or the complete new content,
/// never a prefix. The three snapshot fault points hook in here:
/// `snapshot.write_fail` fails before any I/O; `snapshot.torn`
/// truncates the written bytes at a seeded offset and `snapshot.corrupt`
/// flips a seeded bit — both then *complete* the rename, planting the
/// damaged file at the final path exactly as a crash without write
/// discipline (or at-rest bit rot) would.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    if faults::should_fire(points::SNAPSHOT_WRITE_FAIL) {
        return Err(SnapshotError::Io(io::Error::other(
            "injected fault: snapshot.write_fail",
        )));
    }
    let mut damaged: Option<Vec<u8>> = None;
    if let Some(draw) = faults::fire_value(points::SNAPSHOT_TORN) {
        let cut = (draw as usize) % bytes.len().max(1);
        damaged = Some(bytes[..cut].to_vec());
    }
    if let Some(draw) = faults::fire_value(points::SNAPSHOT_CORRUPT) {
        let mut v = damaged.take().unwrap_or_else(|| bytes.to_vec());
        if !v.is_empty() {
            let bit = (draw as usize) % (v.len() * 8);
            v[bit / 8] ^= 1 << (bit % 8);
        }
        damaged = Some(v);
    }
    let payload: &[u8] = damaged.as_deref().unwrap_or(bytes);

    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    fs::create_dir_all(&dir)?;
    let file_name = path
        .file_name()
        .ok_or_else(|| SnapshotError::Io(io::Error::other("snapshot path has no file name")))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    let result = (|| -> Result<(), SnapshotError> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(payload)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        #[cfg(unix)]
        {
            // Make the rename itself durable: fsync the directory entry.
            fs::File::open(&dir)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

// ----------------------------------------------------------------- reading

/// Strictly parses the framed stream: magic, version, every section CRC,
/// trailer CRC, exact end-of-file. Returns `(tag, payload)` in file
/// order.
fn parse_sections(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let magic = r
        .get_raw(8)
        .map_err(|_| SnapshotError::Truncated("file shorter than the magic".into()))?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::VersionSkew {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let n_sections = r.get_u32()?;
    let mut sections = Vec::with_capacity(n_sections.min(64) as usize);
    for i in 0..n_sections {
        let tag = r.get_u32()?;
        let len = r.get_len()?;
        let payload = r.get_raw(len).map_err(|_| {
            SnapshotError::Truncated(format!(
                "section {i} ({}) declares {len} payload bytes, only {} remain",
                section_name(tag),
                r.remaining()
            ))
        })?;
        let stored = r.get_u32()?;
        let computed = crc32(payload);
        if stored != computed {
            return Err(SnapshotError::Checksum(format!(
                "section {i} ({}): stored {stored:#010x}, computed {computed:#010x}",
                section_name(tag)
            )));
        }
        sections.push((tag, payload));
    }
    let trailer_start = r.pos();
    let trailer = r
        .get_raw(8)
        .map_err(|_| SnapshotError::Truncated("missing trailer magic".into()))?;
    if trailer != TRAILER_MAGIC {
        return Err(SnapshotError::Malformed("bad trailer magic".into()));
    }
    let stored = r.get_u32().map_err(SnapshotError::from)?;
    let computed = crc32(&bytes[..trailer_start + 8]);
    if stored != computed {
        return Err(SnapshotError::Checksum(format!(
            "file trailer: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    r.expect_end()
        .map_err(|_| SnapshotError::Malformed("trailing bytes after the trailer".into()))?;
    Ok(sections)
}

fn find_section<'a>(sections: &[(u32, &'a [u8])], tag: u32) -> Result<&'a [u8], SnapshotError> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, payload)| *payload)
        .ok_or(SnapshotError::MissingSection(section_name(tag)))
}

// ---------------------------------------------------------------- identity

fn identity_payload(data: &TwoViewDataset) -> Vec<u8> {
    let vocab = data.vocab();
    let mut w = ByteWriter::new();
    w.put_str(data.name());
    w.put_u64(data.n_transactions() as u64);
    w.put_u64(vocab.n_left() as u64);
    w.put_u64(vocab.n_right() as u64);
    for item in 0..vocab.n_items() as ItemId {
        w.put_str(vocab.name(item));
        w.put_u64(data.tidset(item).fingerprint());
    }
    w.into_bytes()
}

/// Checks the identity section against the live dataset: transaction
/// count, vocabulary sizes and names, and every column's
/// representation-independent tidset fingerprint. The dataset's display
/// *name* is stored for [`inspect`] but not compared — identity is
/// content, not label.
fn verify_identity(payload: &[u8], data: &TwoViewDataset) -> Result<(), SnapshotError> {
    let vocab = data.vocab();
    let mut r = ByteReader::new(payload);
    let _name = r.get_str()?;
    let n_transactions = r.get_len()?;
    let n_left = r.get_len()?;
    let n_right = r.get_len()?;
    if n_transactions != data.n_transactions() {
        return Err(SnapshotError::DatasetMismatch(format!(
            "snapshot has {n_transactions} transactions, live dataset has {}",
            data.n_transactions()
        )));
    }
    if n_left != vocab.n_left() || n_right != vocab.n_right() {
        return Err(SnapshotError::DatasetMismatch(format!(
            "snapshot vocabulary {n_left}+{n_right}, live {}+{}",
            vocab.n_left(),
            vocab.n_right()
        )));
    }
    for item in 0..vocab.n_items() as ItemId {
        let name = r.get_str()?;
        let fingerprint = r.get_u64()?;
        if name != vocab.name(item) {
            return Err(SnapshotError::DatasetMismatch(format!(
                "item {item} named {name:?} in the snapshot, {:?} live",
                vocab.name(item)
            )));
        }
        let live = data.tidset(item).fingerprint();
        if fingerprint != live {
            return Err(SnapshotError::DatasetMismatch(format!(
                "column fingerprint of item {item} ({name:?}) differs: \
                 snapshot {fingerprint:#018x}, live {live:#018x}"
            )));
        }
    }
    r.expect_end().map_err(SnapshotError::from)
}

// ------------------------------------------------------------------- cache

fn encode_itemset(w: &mut ByteWriter, set: &ItemSet) {
    w.put_u64(set.len() as u64);
    for item in set.iter() {
        w.put_u32(item);
    }
}

/// Decodes an itemset confined to one view: `bounds` is the half-open
/// global-id range of the side the set must live on.
fn decode_itemset(
    r: &mut ByteReader<'_>,
    bounds: std::ops::Range<ItemId>,
    what: &str,
) -> Result<ItemSet, SnapshotError> {
    let n = r.get_len()?;
    let mut items: Vec<ItemId> = Vec::with_capacity(n.min(r.remaining() / 4));
    for _ in 0..n {
        items.push(r.get_u32()?);
    }
    let sorted = items.windows(2).all(|w| w[0] < w[1]);
    let in_bounds = items.iter().all(|i| bounds.contains(i));
    if items.is_empty() || !sorted || !in_bounds {
        return Err(SnapshotError::Malformed(format!(
            "{what} itemset must be non-empty, strictly ascending, within items {}..{}",
            bounds.start, bounds.end
        )));
    }
    Ok(ItemSet::from_sorted(items))
}

fn cache_payload(cache: &CandidateCache, mine_valve: usize) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(cache.minsup() as u64);
    w.put_u8(cache.closed() as u8);
    w.put_u8(cache.truncated() as u8);
    w.put_u64(mine_valve as u64);
    w.put_u64(cache.len() as u64);
    for c in cache.candidates() {
        encode_itemset(&mut w, &c.left);
        encode_itemset(&mut w, &c.right);
        w.put_u64(c.support as u64);
    }
    w.into_bytes()
}

/// The reassembled pieces of an engine snapshot (see
/// [`read_engine_snapshot`]); `CandidateCache::from_parts` turns them
/// back into a serving cache.
#[derive(Debug)]
pub struct EngineSnapshotParts {
    /// Base minsup the cached candidates were mined at.
    pub minsup: usize,
    /// Whether the cache holds closed candidates.
    pub closed: bool,
    /// Whether mining hit the candidate valve.
    pub truncated: bool,
    /// The `max_candidates` valve the cache was mined under.
    pub mine_valve: usize,
    /// The cached candidates, in miner enumeration order.
    pub candidates: Vec<TwoViewCandidate>,
    /// The warmed seed sets of `candidates` (ids re-derived from their
    /// order), when the snapshot carried them.
    pub seeds: Option<SeedSets>,
}

fn decode_cache(
    payload: &[u8],
    data: &TwoViewDataset,
) -> Result<(usize, bool, bool, usize, Vec<TwoViewCandidate>), SnapshotError> {
    let vocab = data.vocab();
    let left_range = vocab.items_on(Side::Left);
    let right_range = vocab.items_on(Side::Right);
    let mut r = ByteReader::new(payload);
    let minsup = r.get_len()?;
    let closed = get_flag(&mut r, "closed")?;
    let truncated = get_flag(&mut r, "truncated")?;
    let mine_valve = r.get_len()?;
    let n = r.get_len()?;
    if minsup == 0 {
        return Err(SnapshotError::Malformed("cache minsup must be >= 1".into()));
    }
    // A candidate takes at least 32 payload bytes (two non-empty itemsets,
    // each a `u64` length and a `u32` item, and a `u64` support), so a
    // count field cannot reserve more candidates than the payload holds.
    let mut candidates = Vec::with_capacity(n.min(payload.len() / 32));
    for _ in 0..n {
        let left = decode_itemset(&mut r, left_range.clone(), "candidate left")?;
        let right = decode_itemset(&mut r, right_range.clone(), "candidate right")?;
        let support = r.get_len()?;
        if support < minsup || support > data.n_transactions() {
            return Err(SnapshotError::Malformed(format!(
                "candidate support {support} outside [{minsup}, {}]",
                data.n_transactions()
            )));
        }
        candidates.push(TwoViewCandidate {
            left,
            right,
            support,
        });
    }
    r.expect_end()?;
    Ok((minsup, closed, truncated, mine_valve, candidates))
}

/// A boolean stored as one byte: `0` or `1`, nothing else, so every
/// accepted file re-encodes to the same bytes.
fn get_flag(r: &mut ByteReader<'_>, what: &str) -> Result<bool, SnapshotError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(SnapshotError::Malformed(format!(
            "{what} flag must be 0 or 1, found {other}"
        ))),
    }
}

// ------------------------------------------------------------------- seeds

fn seeds_payload(tidsets: &[Vec<Tidset>; 2]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for side in tidsets {
        w.put_u64(side.len() as u64);
        for tidset in side {
            tidset.encode(&mut w);
        }
    }
    w.into_bytes()
}

/// Decodes the SEEDS section of `candidates`, whose itemsets `ids`
/// interns: per side, exactly one tidset per distinct itemset, each over
/// the dataset's transactions. The supports are the tidsets' lengths, and
/// no candidate's support may exceed either of its itemsets' (its rows
/// hold both). That check reads one pair of lengths per candidate and
/// intersects nothing.
fn decode_seeds(
    payload: &[u8],
    ids: ItemsetIds,
    candidates: &[TwoViewCandidate],
    n_transactions: usize,
) -> Result<SeedSets, SnapshotError> {
    let mut r = ByteReader::new(payload);
    let mut tidsets = [Vec::new(), Vec::new()];
    for side in Side::BOTH {
        let n = r.get_len()?;
        let distinct = ids.first(side).len();
        if n != distinct {
            return Err(SnapshotError::Malformed(format!(
                "seeds section holds {n} {side} tidsets for {distinct} distinct itemsets"
            )));
        }
        let sets = &mut tidsets[side.index()];
        sets.reserve_exact(n);
        for _ in 0..n {
            let tidset = Tidset::decode(&mut r)?;
            if tidset.universe() != n_transactions {
                return Err(SnapshotError::Malformed(format!(
                    "seed tidset universe differs from the {n_transactions}-transaction dataset"
                )));
            }
            sets.push(tidset);
        }
    }
    r.expect_end()?;
    let support: [Vec<usize>; 2] = tidsets
        .each_ref()
        .map(|sets| sets.iter().map(Tidset::len).collect());
    for (c, &[l, r]) in candidates.iter().zip(ids.ids()) {
        let (left, right) = (support[0][l as usize], support[1][r as usize]);
        if c.support > left.min(right) {
            return Err(SnapshotError::Malformed(format!(
                "candidate support {} exceeds its seed tidsets' {left} and {right} tids",
                c.support
            )));
        }
    }
    Ok(SeedSets {
        ids,
        support,
        tidsets: Some(tidsets),
    })
}

// ------------------------------------------------------------------- model

fn encode_rule(w: &mut ByteWriter, rule: &TranslationRule) {
    encode_itemset(w, &rule.left);
    encode_itemset(w, &rule.right);
    w.put_u8(match rule.direction {
        Direction::Forward => 0,
        Direction::Backward => 1,
        Direction::Both => 2,
    });
}

fn decode_rule(
    r: &mut ByteReader<'_>,
    vocab: &Vocabulary,
) -> Result<TranslationRule, SnapshotError> {
    let left = decode_itemset(r, vocab.items_on(Side::Left), "rule left")?;
    let right = decode_itemset(r, vocab.items_on(Side::Right), "rule right")?;
    let direction = match r.get_u8()? {
        0 => Direction::Forward,
        1 => Direction::Backward,
        2 => Direction::Both,
        other => {
            return Err(SnapshotError::Malformed(format!(
                "unknown rule direction tag {other}"
            )))
        }
    };
    Ok(TranslationRule {
        left,
        right,
        direction,
    })
}

fn encode_score(w: &mut ByteWriter, score: &ModelScore) {
    w.put_f64(score.l_empty);
    w.put_f64(score.l_total);
    w.put_f64(score.l_table);
    w.put_f64(score.l_correction_left);
    w.put_f64(score.l_correction_right);
    w.put_u64(score.correction_ones as u64);
    w.put_u64(score.total_cells as u64);
}

fn decode_score(r: &mut ByteReader<'_>) -> Result<ModelScore, SnapshotError> {
    Ok(ModelScore {
        l_empty: r.get_f64()?,
        l_total: r.get_f64()?,
        l_table: r.get_f64()?,
        l_correction_left: r.get_f64()?,
        l_correction_right: r.get_f64()?,
        correction_ones: r.get_len()?,
        total_cells: r.get_len()?,
    })
}

fn model_payload(model: &TranslatorModel) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(model.table.len() as u64);
    for rule in model.table.iter() {
        encode_rule(&mut w, rule);
    }
    encode_score(&mut w, &model.score);
    w.put_u64(model.trace.len() as u64);
    for step in &model.trace {
        w.put_u64(step.rule_index as u64);
        encode_rule(&mut w, &step.rule);
        w.put_f64(step.gain);
        w.put_f64(step.l_total);
        w.put_f64(step.l_table);
        w.put_f64(step.l_correction_left);
        w.put_f64(step.l_correction_right);
        w.put_u64(step.uncovered_left as u64);
        w.put_u64(step.uncovered_right as u64);
        w.put_u64(step.errors_left as u64);
        w.put_u64(step.errors_right as u64);
    }
    w.put_u64(model.n_candidates as u64);
    w.put_u8(model.truncated as u8);
    w.into_bytes()
}

fn decode_model(payload: &[u8], vocab: &Vocabulary) -> Result<TranslatorModel, SnapshotError> {
    let mut r = ByteReader::new(payload);
    let n_rules = r.get_len()?;
    let mut rules = Vec::with_capacity(n_rules.min(payload.len() / 8));
    for _ in 0..n_rules {
        rules.push(decode_rule(&mut r, vocab)?);
    }
    let score = decode_score(&mut r)?;
    let n_steps = r.get_len()?;
    let mut trace = Vec::with_capacity(n_steps.min(payload.len() / 64));
    for _ in 0..n_steps {
        let rule_index = r.get_len()?;
        let rule = decode_rule(&mut r, vocab)?;
        trace.push(TraceStep {
            rule_index,
            rule,
            gain: r.get_f64()?,
            l_total: r.get_f64()?,
            l_table: r.get_f64()?,
            l_correction_left: r.get_f64()?,
            l_correction_right: r.get_f64()?,
            uncovered_left: r.get_len()?,
            uncovered_right: r.get_len()?,
            errors_left: r.get_len()?,
            errors_right: r.get_len()?,
        });
    }
    let n_candidates = r.get_len()?;
    let truncated = get_flag(&mut r, "truncated")?;
    r.expect_end()?;
    Ok(TranslatorModel {
        table: TranslationTable::from_rules(rules),
        score,
        trace,
        n_candidates,
        truncated,
    })
}

// -------------------------------------------------------------- public API

/// Number of seed tidsets `seeds` holds, both sides together.
fn seed_tidsets(seeds: Option<&SeedSets>) -> usize {
    seeds
        .and_then(|s| s.tidsets.as_ref())
        .map_or(0, |[left, right]| left.len() + right.len())
}

/// Writes an engine snapshot (IDENTITY + CACHE, plus SEEDS when the
/// cache is warmed) crash-safely to `path`. Saving never warms the
/// cache as a side effect — an unwarmed cache simply snapshots without
/// a seeds section. Runs under a `persist.save` span carrying the file's
/// `bytes` and its `seed_tidsets`.
pub fn write_engine_snapshot(
    path: &Path,
    data: &TwoViewDataset,
    cache: &CandidateCache,
    mine_valve: usize,
) -> Result<(), SnapshotError> {
    let mut span = obs::span("persist.save");
    let seeds = cache.warmed();
    let mut file = SnapshotFile::new();
    file.section(SEC_IDENTITY, &identity_payload(data));
    file.section(SEC_CACHE, &cache_payload(cache, mine_valve));
    if let Some(tidsets) = seeds.and_then(|s| s.tidsets.as_ref()) {
        file.section(SEC_SEEDS, &seeds_payload(tidsets));
    }
    let bytes = file.finish();
    span.field("bytes", bytes.len())
        .field("seed_tidsets", seed_tidsets(seeds));
    write_atomic(path, &bytes)
}

/// Loads and fully validates an engine snapshot against the live
/// dataset: structure and CRCs (`parse_sections`-level), dataset
/// identity (schema + per-column fingerprints), candidate and seed
/// invariants. Any failure is a recoverable [`SnapshotError`]; on
/// success the returned parts reproduce the saved cache exactly. Runs
/// under a `persist.load` span carrying the file's `bytes` and the
/// `seed_tidsets` loaded.
pub fn read_engine_snapshot(
    path: &Path,
    data: &TwoViewDataset,
) -> Result<EngineSnapshotParts, SnapshotError> {
    let mut span = obs::span("persist.load");
    let bytes = fs::read(path)?;
    span.field("bytes", bytes.len());
    let sections = parse_sections(&bytes)?;
    verify_identity(find_section(&sections, SEC_IDENTITY)?, data)?;
    let (minsup, closed, truncated, mine_valve, candidates) =
        decode_cache(find_section(&sections, SEC_CACHE)?, data)?;
    let seeds = match find_section(&sections, SEC_SEEDS) {
        Ok(payload) => Some(decode_seeds(
            payload,
            ItemsetIds::new(&candidates),
            &candidates,
            data.n_transactions(),
        )?),
        Err(SnapshotError::MissingSection(_)) => None,
        Err(e) => return Err(e),
    };
    span.field("seed_tidsets", seed_tidsets(seeds.as_ref()));
    Ok(EngineSnapshotParts {
        minsup,
        closed,
        truncated,
        mine_valve,
        candidates,
        seeds,
    })
}

/// Writes a fitted model (IDENTITY + MODEL) crash-safely to `path`.
pub fn write_model_snapshot(
    path: &Path,
    data: &TwoViewDataset,
    model: &TranslatorModel,
) -> Result<(), SnapshotError> {
    let mut file = SnapshotFile::new();
    file.section(SEC_IDENTITY, &identity_payload(data));
    file.section(SEC_MODEL, &model_payload(model));
    write_atomic(path, &file.finish())
}

/// Loads a fitted model, validating structure, checksums and dataset
/// identity. The round-trip is bit-exact: scores and trace floats are
/// stored as IEEE-754 bit patterns.
pub fn read_model_snapshot(
    path: &Path,
    data: &TwoViewDataset,
) -> Result<TranslatorModel, SnapshotError> {
    let bytes = fs::read(path)?;
    let sections = parse_sections(&bytes)?;
    verify_identity(find_section(&sections, SEC_IDENTITY)?, data)?;
    decode_model(find_section(&sections, SEC_MODEL)?, data.vocab())
}

// ----------------------------------------------------------------- inspect

/// Per-section findings of a lenient [`inspect`] walk.
#[derive(Debug)]
pub struct SectionReport {
    /// Section tag as stored.
    pub tag: u32,
    /// Human name of the tag (`identity` / `cache` / `seeds` / `model`).
    pub name: &'static str,
    /// File offset of the payload.
    pub offset: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// CRC stored in the file.
    pub crc_stored: u32,
    /// CRC computed over the payload as found.
    pub crc_computed: u32,
}

impl SectionReport {
    /// Whether the stored and computed CRCs agree.
    pub fn crc_ok(&self) -> bool {
        self.crc_stored == self.crc_computed
    }
}

/// Identity summary surfaced by [`inspect`] when the identity section
/// is present and intact.
#[derive(Debug)]
pub struct IdentityReport {
    /// Stored dataset display name.
    pub dataset: String,
    /// Stored transaction count.
    pub n_transactions: usize,
    /// Stored left-vocabulary size.
    pub n_left: usize,
    /// Stored right-vocabulary size.
    pub n_right: usize,
    /// FNV-1a fold of every per-column fingerprint — one digest for the
    /// whole dataset content.
    pub columns_digest: u64,
}

/// What a lenient walk of a (possibly damaged) snapshot found — the
/// debugging view behind `twoview snapshot --inspect`. Unlike the strict
/// loaders, inspection keeps going past damage and *reports* it; only a
/// filesystem error aborts.
#[derive(Debug)]
pub struct InspectReport {
    /// Total file length in bytes.
    pub file_len: usize,
    /// Whether the leading magic matched.
    pub magic_ok: bool,
    /// Version from the header (when readable).
    pub version: Option<u32>,
    /// Whether the header version equals [`SNAPSHOT_VERSION`].
    pub version_ok: bool,
    /// Declared section count (when readable).
    pub declared_sections: Option<u32>,
    /// Sections found walking the file, damaged or not.
    pub sections: Vec<SectionReport>,
    /// Whether the walk ended at a well-formed trailer whose whole-file
    /// CRC matched.
    pub trailer_ok: bool,
    /// Identity summary, when that section parsed.
    pub identity: Option<IdentityReport>,
}

impl InspectReport {
    /// Whether every layer checked out (what a strict load would accept,
    /// short of dataset comparison).
    pub fn intact(&self) -> bool {
        self.magic_ok
            && self.version_ok
            && self.trailer_ok
            && self.declared_sections.map(|n| n as usize) == Some(self.sections.len())
            && self.sections.iter().all(|s| s.crc_ok())
    }

    /// Renders the report as a JSON object (the CLI's output format).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    '\n' => "\\n".chars().collect(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"file_len\": {},\n", self.file_len));
        out.push_str(&format!("  \"magic_ok\": {},\n", self.magic_ok));
        match self.version {
            Some(v) => out.push_str(&format!("  \"version\": {v},\n")),
            None => out.push_str("  \"version\": null,\n"),
        }
        out.push_str(&format!("  \"version_ok\": {},\n", self.version_ok));
        match self.declared_sections {
            Some(n) => out.push_str(&format!("  \"declared_sections\": {n},\n")),
            None => out.push_str("  \"declared_sections\": null,\n"),
        }
        out.push_str("  \"sections\": [\n");
        for (i, s) in self.sections.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"tag\": {}, \"name\": \"{}\", \"offset\": {}, \"payload_len\": {}, \
                 \"crc_stored\": \"{:#010x}\", \"crc_computed\": \"{:#010x}\", \"crc_ok\": {}}}{}\n",
                s.tag,
                s.name,
                s.offset,
                s.payload_len,
                s.crc_stored,
                s.crc_computed,
                s.crc_ok(),
                if i + 1 < self.sections.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"trailer_ok\": {},\n", self.trailer_ok));
        match &self.identity {
            Some(id) => out.push_str(&format!(
                "  \"identity\": {{\"dataset\": \"{}\", \"n_transactions\": {}, \
                 \"n_left\": {}, \"n_right\": {}, \"columns_digest\": \"{:#018x}\"}},\n",
                esc(&id.dataset),
                id.n_transactions,
                id.n_left,
                id.n_right,
                id.columns_digest,
            )),
            None => out.push_str("  \"identity\": null,\n"),
        }
        out.push_str(&format!("  \"intact\": {}\n", self.intact()));
        out.push('}');
        out
    }
}

/// Walks a snapshot file leniently, reporting header fields, per-section
/// checksums and the identity summary without rejecting damage (the
/// whole point is debugging files the strict loaders refuse). Only a
/// filesystem error is fatal.
pub fn inspect(path: &Path) -> Result<InspectReport, SnapshotError> {
    let bytes = fs::read(path)?;
    let mut report = InspectReport {
        file_len: bytes.len(),
        magic_ok: false,
        version: None,
        version_ok: false,
        declared_sections: None,
        sections: Vec::new(),
        trailer_ok: false,
        identity: None,
    };
    let mut r = ByteReader::new(&bytes);
    match r.get_raw(8) {
        Ok(magic) => report.magic_ok = magic == SNAPSHOT_MAGIC,
        Err(_) => return Ok(report),
    }
    if let Ok(v) = r.get_u32() {
        report.version = Some(v);
        report.version_ok = v == SNAPSHOT_VERSION;
    } else {
        return Ok(report);
    }
    let declared = match r.get_u32() {
        Ok(n) => n,
        Err(_) => return Ok(report),
    };
    report.declared_sections = Some(declared);
    for _ in 0..declared {
        let Ok(tag) = r.get_u32() else { break };
        let Ok(len) = r.get_len() else { break };
        let offset = r.pos();
        let Ok(payload) = r.get_raw(len) else { break };
        let Ok(stored) = r.get_u32() else { break };
        let section = SectionReport {
            tag,
            name: section_name(tag),
            offset,
            payload_len: len,
            crc_stored: stored,
            crc_computed: crc32(payload),
        };
        if tag == SEC_IDENTITY && section.crc_ok() {
            report.identity = parse_identity_report(payload);
        }
        report.sections.push(section);
    }
    let trailer_start = r.pos();
    if let (Ok(trailer), Ok(stored)) = (r.get_raw(8), r.get_u32()) {
        report.trailer_ok = trailer == TRAILER_MAGIC
            && stored == crc32(&bytes[..trailer_start + 8])
            && r.is_empty();
    }
    Ok(report)
}

fn parse_identity_report(payload: &[u8]) -> Option<IdentityReport> {
    let mut r = ByteReader::new(payload);
    let dataset = r.get_str().ok()?.to_string();
    let n_transactions = r.get_len().ok()?;
    let n_left = r.get_len().ok()?;
    let n_right = r.get_len().ok()?;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..n_left.checked_add(n_right)? {
        let _name = r.get_str().ok()?;
        let fingerprint = r.get_u64().ok()?;
        digest ^= fingerprint;
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Some(IdentityReport {
        dataset,
        n_transactions,
        n_left,
        n_right,
        columns_digest: digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoview_mining::MinerConfig;

    fn toy() -> TwoViewDataset {
        let vocab = Vocabulary::new(["a", "b"], ["x", "y"]);
        TwoViewDataset::from_transactions(
            vocab,
            &[
                vec![0, 2],
                vec![0, 2],
                vec![0, 2],
                vec![1, 3],
                vec![1, 3],
                vec![0, 1, 2, 3],
            ],
        )
    }

    fn toy_cache(data: &TwoViewDataset) -> CandidateCache {
        let cfg = MinerConfig::builder()
            .minsup(1)
            .max_itemsets(10_000)
            .build();
        let cache = CandidateCache::mine(data, &cfg, true);
        assert!(cache.tidsets(data).is_some(), "toy cache must warm");
        cache
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "twoview-persist-test-{}-{}",
            std::process::id(),
            name
        ))
    }

    #[test]
    fn engine_snapshot_round_trips_exactly() {
        let data = toy();
        let cache = toy_cache(&data);
        let path = tmp_path("roundtrip.snap");
        write_engine_snapshot(&path, &data, &cache, 2_000_000).unwrap();

        let parts = read_engine_snapshot(&path, &data).unwrap();
        assert_eq!(parts.minsup, 1);
        assert!(parts.closed);
        assert!(!parts.truncated);
        assert_eq!(parts.mine_valve, 2_000_000);
        assert_eq!(parts.candidates, cache.candidates().to_vec());
        let seeds = parts.seeds.as_ref().expect("warmed cache stores seeds");
        let live = cache.warmed().unwrap();
        assert_eq!(seeds.ids.ids(), live.ids.ids(), "ids re-derived");
        assert_eq!(seeds.support, live.support);
        let (stored, held) = (seeds.tidsets.as_ref(), live.tidsets.as_ref());
        let (stored, held) = (stored.unwrap(), held.unwrap());
        for (s, l) in stored.iter().flatten().zip(held.iter().flatten()) {
            assert_eq!(s.fingerprint(), l.fingerprint());
            assert_eq!(s.heap_bytes(), l.heap_bytes());
        }
        // One tidset per distinct itemset, not a pair per candidate.
        let distinct = Side::BOTH.map(|side| live.ids.first(side).len());
        assert_eq!(stored.each_ref().map(Vec::len), distinct);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn seed_tidsets_shorter_than_a_candidate_support_are_refused() {
        let data = toy();
        let cache = toy_cache(&data);
        let seeds = cache.warmed().unwrap();
        let mut tidsets = seeds.tidsets.clone().unwrap();
        // A candidate whose rows are all of its left itemset's rows: one
        // tid fewer in that itemset's tidset leaves it too short.
        let (i, c) = cache
            .candidates()
            .iter()
            .enumerate()
            .find(|&(i, c)| c.support == seeds.support[0][seeds.ids.ids()[i][0] as usize])
            .expect("the toy data has a candidate as frequent as its left itemset");
        let l = seeds.ids.ids()[i][0] as usize;
        let short: Vec<u32> = tidsets[0][l].iter().skip(1).map(|t| t as u32).collect();
        assert!(short.len() < c.support);
        let sealed = |tidsets: &[Vec<Tidset>; 2]| {
            // Framed as the writer frames, so every CRC holds.
            let mut file = SnapshotFile::new();
            file.section(SEC_IDENTITY, &identity_payload(&data));
            file.section(SEC_CACHE, &cache_payload(&cache, 2_000_000));
            file.section(SEC_SEEDS, &seeds_payload(tidsets));
            let path = tmp_path("short-seeds.snap");
            fs::write(&path, file.finish()).unwrap();
            let read = read_engine_snapshot(&path, &data);
            let _ = fs::remove_file(&path);
            read
        };
        assert!(sealed(&tidsets).is_ok(), "the intact seed sets load");
        tidsets[0][l] = Tidset::from_sorted(data.n_transactions(), short);
        let err = sealed(&tidsets).expect_err("a seed tidset lost tids");
        assert_eq!(err.kind(), "malformed", "{err}");
    }

    #[test]
    fn model_snapshot_is_bit_exact() {
        let data = toy();
        let model = crate::select::translator_select(
            &data,
            &crate::select::SelectConfig::builder()
                .k(2)
                .minsup(1)
                .build(),
        );
        let path = tmp_path("model.snap");
        write_model_snapshot(&path, &data, &model).unwrap();
        let back = read_model_snapshot(&path, &data).unwrap();

        assert_eq!(back.table.rules(), model.table.rules());
        assert_eq!(back.score.l_total.to_bits(), model.score.l_total.to_bits());
        assert_eq!(back.score.l_empty.to_bits(), model.score.l_empty.to_bits());
        assert_eq!(back.score.correction_ones, model.score.correction_ones);
        assert_eq!(back.trace.len(), model.trace.len());
        for (a, b) in back.trace.iter().zip(&model.trace) {
            assert_eq!(a.rule_index, b.rule_index);
            assert_eq!(a.rule, b.rule);
            assert_eq!(a.gain.to_bits(), b.gain.to_bits());
            assert_eq!(a.l_total.to_bits(), b.l_total.to_bits());
            assert_eq!(a.uncovered_left, b.uncovered_left);
            assert_eq!(a.errors_right, b.errors_right);
        }
        assert_eq!(back.n_candidates, model.n_candidates);
        assert_eq!(back.truncated, model.truncated);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn reader_rejects_every_structural_damage() {
        let data = toy();
        let cache = toy_cache(&data);
        let path = tmp_path("damage.snap");
        write_engine_snapshot(&path, &data, &cache, 100).unwrap();
        let good = fs::read(&path).unwrap();
        let _ = fs::remove_file(&path);

        let check = |bytes: &[u8], want_kind: &str, what: &str| {
            let p = tmp_path("damage-case.snap");
            fs::write(&p, bytes).unwrap();
            let err = read_engine_snapshot(&p, &data).expect_err(what);
            assert_eq!(err.kind(), want_kind, "{what}: got {err}");
            let _ = fs::remove_file(&p);
        };

        // Bad magic.
        let mut b = good.clone();
        b[0] ^= 0xff;
        check(&b, "bad_magic", "flipped magic byte");

        // Version skew.
        let mut b = good.clone();
        b[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        check(&b, "version_skew", "bumped version");

        // Truncation at every prefix length is *some* rejection, never Ok.
        for cut in 0..good.len() {
            let p = tmp_path("trunc.snap");
            fs::write(&p, &good[..cut]).unwrap();
            let err =
                read_engine_snapshot(&p, &data).expect_err("truncated snapshot must not load");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated(_)
                        | SnapshotError::Checksum(_)
                        | SnapshotError::Malformed(_)
                        | SnapshotError::BadMagic
                ),
                "cut at {cut}: unexpected error {err}"
            );
            let _ = fs::remove_file(&p);
        }

        // Any single-bit flip in a payload or CRC region is caught.
        for &pos in &[20usize, good.len() / 2, good.len() - 5, good.len() - 1] {
            let mut b = good.clone();
            b[pos] ^= 0x04;
            let p = tmp_path("flip.snap");
            fs::write(&p, &b).unwrap();
            assert!(
                read_engine_snapshot(&p, &data).is_err(),
                "bit flip at byte {pos} must reject"
            );
            let _ = fs::remove_file(&p);
        }
    }

    #[test]
    fn reader_rejects_dataset_mismatch() {
        let data = toy();
        let cache = toy_cache(&data);
        let path = tmp_path("identity.snap");
        write_engine_snapshot(&path, &data, &cache, 100).unwrap();

        // Same schema, different content: one extra item in one row.
        let vocab = Vocabulary::new(["a", "b"], ["x", "y"]);
        let other = TwoViewDataset::from_transactions(
            vocab,
            &[
                vec![0, 2],
                vec![0, 2],
                vec![0, 2, 3],
                vec![1, 3],
                vec![1, 3],
                vec![0, 1, 2, 3],
            ],
        );
        let err = read_engine_snapshot(&path, &other).unwrap_err();
        assert_eq!(err.kind(), "dataset_mismatch");

        // Different schema entirely.
        let vocab = Vocabulary::new(["a"], ["x"]);
        let small = TwoViewDataset::from_transactions(vocab, &vec![vec![0, 1]; 6]);
        let err = read_engine_snapshot(&path, &small).unwrap_err();
        assert_eq!(err.kind(), "dataset_mismatch");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let data = toy();
        let err = read_engine_snapshot(&tmp_path("nope.snap"), &data).unwrap_err();
        assert_eq!(err.kind(), "io");
    }

    #[test]
    fn inspect_reports_intact_and_damaged_files() {
        let data = toy();
        let cache = toy_cache(&data);
        let path = tmp_path("inspect.snap");
        write_engine_snapshot(&path, &data, &cache, 100).unwrap();

        let report = inspect(&path).unwrap();
        assert!(report.intact());
        assert!(report.magic_ok && report.version_ok && report.trailer_ok);
        assert_eq!(report.version, Some(SNAPSHOT_VERSION));
        assert_eq!(report.declared_sections, Some(3));
        assert_eq!(
            report.sections.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["identity", "cache", "seeds"]
        );
        let id = report.identity.as_ref().expect("identity parses");
        assert_eq!(id.n_transactions, 6);
        assert_eq!((id.n_left, id.n_right), (2, 2));
        let json = report.to_json();
        assert!(json.contains("\"intact\": true"));
        assert!(json.contains("\"name\": \"cache\""));

        // Damage the cache payload: inspect still walks, flags the CRC.
        let mut bytes = fs::read(&path).unwrap();
        let cache_off = report.sections[1].offset;
        bytes[cache_off] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let damaged = inspect(&path).unwrap();
        assert!(!damaged.intact());
        assert!(damaged.sections[0].crc_ok());
        assert!(!damaged.sections[1].crc_ok());
        assert!(damaged.to_json().contains("\"intact\": false"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn atomic_write_fault_points_inject_deterministically() {
        let data = toy();
        let cache = toy_cache(&data);
        let path = tmp_path("faults.snap");

        // write_fail: save errors, nothing lands at the path.
        faults::configure(faults::FaultPlan::new().point(points::SNAPSHOT_WRITE_FAIL, 1.0, 7));
        let err = write_engine_snapshot(&path, &data, &cache, 100).unwrap_err();
        assert_eq!(err.kind(), "io");
        faults::clear();
        assert!(!path.exists());

        // torn: the file lands, truncated, and the reader rejects it.
        faults::configure(faults::FaultPlan::new().point(points::SNAPSHOT_TORN, 1.0, 7));
        write_engine_snapshot(&path, &data, &cache, 100).unwrap();
        faults::clear();
        let torn_len = fs::metadata(&path).unwrap().len();
        assert!(read_engine_snapshot(&path, &data).is_err());

        // Same seed, same tear point.
        faults::configure(faults::FaultPlan::new().point(points::SNAPSHOT_TORN, 1.0, 7));
        write_engine_snapshot(&path, &data, &cache, 100).unwrap();
        faults::clear();
        assert_eq!(fs::metadata(&path).unwrap().len(), torn_len);

        // corrupt: full length, one flipped bit, rejected.
        faults::configure(faults::FaultPlan::new().point(points::SNAPSHOT_CORRUPT, 1.0, 11));
        write_engine_snapshot(&path, &data, &cache, 100).unwrap();
        faults::clear();
        let good_len = {
            write_engine_snapshot(&tmp_path("clean.snap"), &data, &cache, 100).unwrap();
            let n = fs::metadata(tmp_path("clean.snap")).unwrap().len();
            let _ = fs::remove_file(tmp_path("clean.snap"));
            n
        };
        assert_eq!(fs::metadata(&path).unwrap().len(), good_len);
        assert!(read_engine_snapshot(&path, &data).is_err());
        let _ = fs::remove_file(&path);
    }
}
