//! Seeded mutation fuzzer for the engine snapshot decoder
//! (`persist::read_engine_snapshot`).
//!
//! The seed files are version-3 engine snapshots that cold `Engine`
//! builds wrote: dense, sparse and mixed seed tidsets, and one unwarmed
//! cache saved without a SEEDS section. Each mutant applies a few edits
//! drawn from a splitmix64 stream seeded by `TWOVIEW_CHAOS_SEED`
//! (default 1): byte flips, splices, cuts, new values for the length,
//! count, flag and representation-tag fields inside the CACHE and SEEDS
//! payloads, and dropped, repeated, swapped or retagged sections. It
//! then re-frames the file
//! with fresh section CRCs and a fresh trailer CRC, so that the mutant
//! gets past both checksums to the section decoders. One mutant in
//! sixteen is also cut after framing, which the framing layer must
//! refuse.
//!
//! Every mutant must satisfy:
//! * the reader never panics, and an error is a typed `SnapshotError`
//!   (never `Io`: the file is there);
//! * parts it returns reassemble a cache whose re-saved CACHE and SEEDS
//!   payloads equal the mutant's byte for byte (IDENTITY is checked by
//!   content against the live dataset, so it is not compared);
//! * the read allocates at most `ALLOC_FACTOR` × file bytes +
//!   `ALLOC_SLACK` at its peak, counted by this binary's global
//!   allocator, whatever the length fields claim.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use twoview::core::persist::{
    read_engine_snapshot, write_engine_snapshot, ENGINE_SNAPSHOT_FILE, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
use twoview::data::codec::crc32;
use twoview::data::synthetic::{self, StructureSpec, SyntheticSpec};
use twoview::prelude::*;

/// Counts live and peak heap bytes; the counters are statistics that
/// publish no other data, so `Relaxed` suffices.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s contract is the caller's contract; the bookkeeping touches
// only two atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards `layout` to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: forwards `layout` to `System.alloc_zeroed` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: `ptr` and `layout` come from this allocator, which got them
    // from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: `ptr` and `layout` come from this allocator, which got them
    // from `System`; `new_size` is forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        out
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak bytes a read may allocate per byte of file. The file itself is
/// one; each candidate takes 56 bytes in memory for at least 32 in the
/// file, and a hostile count may reserve one candidate per 8 payload
/// bytes before the payload runs out.
const ALLOC_FACTOR: usize = 12;
/// Peak bytes a read may allocate beyond `ALLOC_FACTOR` per file byte:
/// the section list, error messages and hash-map minimums.
const ALLOC_SLACK: usize = 16 << 10;

const SEC_IDENTITY: u32 = 1;
const SEC_CACHE: u32 = 2;
const SEC_SEEDS: u32 = 3;
const TRAILER_MAGIC: &[u8; 8] = b"TV2END\0\0";

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn chaos_seed() -> u64 {
    std::env::var("TWOVIEW_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1)
}

type Sections = Vec<(u32, Vec<u8>)>;

/// Frames `sections` as the writer does: header, each section with its
/// CRC, trailer with the whole-file CRC.
fn frame(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in sections {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
    }
    out.extend_from_slice(TRAILER_MAGIC);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The sections of a well-framed file, in file order.
fn unframe(bytes: &[u8]) -> Sections {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let n = u32_at(12);
    let mut at = 16;
    let mut out = Vec::new();
    for _ in 0..n {
        let tag = u32_at(at);
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        out.push((tag, bytes[at + 12..at + 12 + len].to_vec()));
        at += 12 + len + 4;
    }
    out
}

fn first(sections: &[(u32, Vec<u8>)], tag: u32) -> Option<&[u8]> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, p)| p.as_slice())
}

/// The `(offset, width)` of the length and count fields (`u64`, width 8)
/// and of the flag and representation-tag bytes (width 1) of a CACHE or
/// SEEDS payload, found by walking the format as far as the bytes allow.
fn fields(tag: u32, p: &[u8]) -> Vec<(usize, usize)> {
    let mut out = walk_fields(tag, p);
    out.retain(|&(at, width)| at.checked_add(width).is_some_and(|end| end <= p.len()));
    out
}

fn walk_fields(tag: u32, p: &[u8]) -> Vec<(usize, usize)> {
    let u64_at = |at: usize| -> Option<usize> {
        let bytes = p.get(at..at.checked_add(8)?)?;
        usize::try_from(u64::from_le_bytes(bytes.try_into().unwrap())).ok()
    };
    let mut out = Vec::new();
    match tag {
        SEC_CACHE => {
            // minsup, closed, truncated, valve, count.
            out.extend([(0, 8), (8, 1), (9, 1), (10, 8), (18, 8)]);
            let Some(n) = u64_at(18) else { return out };
            let mut at = 26;
            for _ in 0..n.min(p.len()) {
                for _ in 0..2 {
                    let Some(len) = u64_at(at) else { return out };
                    out.push((at, 8));
                    at = at.saturating_add(8).saturating_add(len.saturating_mul(4));
                }
                out.push((at, 8));
                at = at.saturating_add(8);
            }
        }
        SEC_SEEDS => {
            let mut at = 0;
            for _ in 0..2 {
                let Some(n) = u64_at(at) else { return out };
                out.push((at, 8));
                at += 8;
                for _ in 0..n.min(p.len()) {
                    // universe, repr tag, word or tid count.
                    let (Some(_), Some(&repr), Some(len)) = (
                        u64_at(at),
                        p.get(at.saturating_add(8)),
                        u64_at(at.saturating_add(9)),
                    ) else {
                        return out;
                    };
                    out.extend([(at, 8), (at + 8, 1), (at + 9, 8)]);
                    let width = if repr == 0 { 4 } else { 8 };
                    at = at
                        .saturating_add(17)
                        .saturating_add(len.saturating_mul(width));
                }
            }
        }
        _ => {}
    }
    out
}

/// One edit to `sections`.
fn mutate(rng: &mut Rng, sections: &mut Sections) {
    if sections.is_empty() {
        return;
    }
    if rng.below(10) == 0 {
        // Framing: drop, repeat, swap or retag a section.
        let i = rng.below(sections.len());
        match rng.below(4) {
            0 => {
                sections.remove(i);
            }
            1 => {
                let copy = sections[i].clone();
                sections.insert(rng.below(sections.len() + 1), copy);
            }
            2 => {
                let j = rng.below(sections.len());
                sections.swap(i, j);
            }
            _ => sections[i].0 = [SEC_CACHE, SEC_SEEDS, 9][rng.below(3)],
        }
        return;
    }
    // Mostly CACHE and SEEDS; IDENTITY now and then.
    let want = [SEC_CACHE, SEC_SEEDS, SEC_CACHE, SEC_SEEDS, SEC_IDENTITY][rng.below(5)];
    let i = sections
        .iter()
        .position(|(t, _)| *t == want)
        .unwrap_or_else(|| rng.below(sections.len()));
    let donor = sections[rng.below(sections.len())].1.clone();
    let (tag, p) = &mut sections[i];
    match rng.below(5) {
        0 if !p.is_empty() => {
            let at = rng.below(p.len());
            p[at] ^= 1 << rng.below(8);
        }
        1 if !p.is_empty() => {
            let at = rng.below(p.len());
            p[at] = rng.next() as u8;
        }
        2 if !donor.is_empty() => {
            // Splice a run of a section into this one, over or between
            // its bytes.
            let from = rng.below(donor.len());
            let run = &donor[from..(from + 1 + rng.below(64)).min(donor.len())];
            let at = rng.below(p.len() + 1);
            if rng.below(2) == 0 {
                p.splice(at..at, run.iter().copied());
            } else {
                let end = (at + run.len()).min(p.len());
                p.splice(at..end, run.iter().copied());
            }
        }
        3 => {
            // Cut the tail, or a run from the middle.
            let at = rng.below(p.len() + 1);
            if rng.below(2) == 0 {
                p.truncate(at);
            } else {
                let end = (at + 1 + rng.below(32)).min(p.len());
                p.drain(at..end);
            }
        }
        _ => {
            // A byte field half the time: they are few among the lengths.
            let width = [1, 8][rng.below(2)];
            let fields: Vec<usize> = fields(*tag, p)
                .into_iter()
                .filter(|&(_, w)| w == width)
                .map(|(at, _)| at)
                .collect();
            if fields.is_empty() {
                return;
            }
            let at = fields[rng.below(fields.len())];
            if width == 1 {
                p[at] = [0, 1, 2, 0xff, rng.next() as u8][rng.below(5)];
                return;
            }
            let old = u64::from_le_bytes(p[at..at + 8].try_into().unwrap());
            let new = match rng.below(9) {
                0 => 0,
                1 => 1,
                2 => old.wrapping_add(1),
                3 => old.wrapping_sub(1),
                4 => old.wrapping_mul(2),
                5 => u32::MAX as u64,
                6 => 1 << 40,
                7 => u64::MAX,
                _ => rng.next() >> rng.below(64),
            };
            p[at..at + 8].copy_from_slice(&new.to_le_bytes());
        }
    }
}

#[derive(Default)]
struct Tally {
    accepted: usize,
    accepted_with_seeds: usize,
    rejected: BTreeMap<&'static str, usize>,
    /// Largest peak allocation of a read per file byte.
    max_ratio: f64,
}

/// Reads `bytes` as a snapshot of `data` and checks the outcome; `Some`
/// says what went wrong.
fn check(
    data: &TwoViewDataset,
    bytes: &[u8],
    paths: &[PathBuf; 2],
    tally: &mut Tally,
) -> Option<String> {
    std::fs::write(&paths[0], bytes).expect("write the mutant");
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let read = panic::catch_unwind(|| read_engine_snapshot(&paths[0], data));
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    tally.max_ratio = tally.max_ratio.max(peak as f64 / bytes.len() as f64);
    if peak > ALLOC_FACTOR * bytes.len() + ALLOC_SLACK {
        return Some(format!(
            "the read peaked at {peak} bytes for a {}-byte file",
            bytes.len()
        ));
    }
    let parts = match read {
        Err(_) => return Some("read_engine_snapshot panicked".into()),
        Ok(Err(e)) if e.kind() == "io" => return Some(format!("io error on a written file: {e}")),
        Ok(Err(e)) => {
            *tally.rejected.entry(e.kind()).or_default() += 1;
            return None;
        }
        Ok(Ok(parts)) => parts,
    };
    let had_seeds = parts.seeds.is_some();
    let cache = CandidateCache::from_parts(
        parts.minsup,
        parts.closed,
        parts.truncated,
        parts.candidates,
        parts.seeds,
    );
    if had_seeds && cache.warmed().is_none() {
        return Some("the loaded seed sets were not installed".into());
    }
    if let Err(e) = write_engine_snapshot(&paths[1], data, &cache, parts.mine_valve) {
        return Some(format!("the re-save failed: {e}"));
    }
    let (mutant, again) = (unframe(bytes), unframe(&std::fs::read(&paths[1]).unwrap()));
    for (tag, name) in [(SEC_CACHE, "cache"), (SEC_SEEDS, "seeds")] {
        if first(&mutant, tag) != first(&again, tag) {
            return Some(format!("the re-saved {name} section differs"));
        }
    }
    tally.accepted += 1;
    tally.accepted_with_seeds += had_seeds as usize;
    None
}

fn dataset(name: &str, n: usize, density: f64, seed: u64) -> TwoViewDataset {
    let spec = SyntheticSpec {
        name: name.into(),
        n_transactions: n,
        n_left: 12,
        n_right: 10,
        density_left: density,
        density_right: density,
        structure: StructureSpec::strong(3),
        seed,
    };
    synthetic::generate(&spec).expect("valid spec").dataset
}

/// Snapshots written by cold engine builds, each with its dataset: dense,
/// sparse and adaptive seed tidsets, and one unwarmed cache saved
/// without a SEEDS section.
fn corpus(dir: &Path) -> Vec<(TwoViewDataset, Vec<u8>)> {
    let dense = dataset("fuzz-snapshot-dense", 160, 0.3, 3);
    let sparse = dataset("fuzz-snapshot-sparse", 1200, 0.08, 5);
    let mut out = Vec::new();
    for (data, mode) in [
        (&dense, TidsetMode::ForceDense),
        (&dense, TidsetMode::ForceSparse),
        (&sparse, TidsetMode::Adaptive),
    ] {
        set_tidset_mode(mode);
        let _ = std::fs::remove_file(dir.join(ENGINE_SNAPSHOT_FILE));
        let engine = Engine::builder()
            .dataset(data.clone())
            .minsup(3)
            .snapshot_dir(dir)
            .build()
            .expect("the engine builds");
        assert_eq!(engine.stats().snapshots_loaded, 0, "a cold build");
        drop(engine);
        let bytes = std::fs::read(dir.join(ENGINE_SNAPSHOT_FILE)).expect("the build saved");
        out.push((data.clone(), bytes));
    }
    set_tidset_mode(TidsetMode::Adaptive);
    let unwarmed = CandidateCache::mine(&dense, &MinerConfig::builder().minsup(3).build(), true);
    let path = dir.join("unwarmed.snap");
    write_engine_snapshot(&path, &dense, &unwarmed, 2_000_000).expect("save");
    out.push((dense, std::fs::read(&path).expect("saved")));
    out
}

#[test]
fn snapshot_reads_are_typed_or_resave_identically_in_bounded_memory() {
    const MUTANTS: usize = 2000;

    let dir = std::env::temp_dir().join(format!("twoview-fuzz-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = corpus(&dir);
    let paths = [dir.join("mutant.snap"), dir.join("resaved.snap")];
    for (_, bytes) in &corpus {
        let sections = unframe(bytes);
        assert_eq!(&frame(&sections), bytes, "the test frames as the writer");
        assert!(bytes.len() > 4 * ALLOC_SLACK, "{} bytes", bytes.len());
    }
    let seeded = corpus
        .iter()
        .filter(|(_, b)| first(&unframe(b), SEC_SEEDS).is_some())
        .count();
    assert_eq!(seeded, 3, "three seed files carry seed sets");

    let mut rng = Rng(chaos_seed());
    let mut tally = Tally::default();
    let mut failures: Vec<(String, Vec<u8>)> = Vec::new();
    // A panic is reported as a failing input; keep it off stderr.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        for (data, bytes) in &corpus {
            if let Some(why) = check(data, bytes, &paths, &mut tally) {
                failures.push((why, bytes.clone()));
            }
        }
        for _ in 0..MUTANTS {
            let (data, bytes) = &corpus[rng.below(corpus.len())];
            let mut sections = unframe(bytes);
            for _ in 0..1 + rng.below(3) {
                mutate(&mut rng, &mut sections);
            }
            let mut mutant = frame(&sections);
            if rng.below(16) == 0 {
                mutant.truncate(rng.below(mutant.len()));
            }
            if let Some(why) = check(data, &mutant, &paths, &mut tally) {
                failures.push((why, mutant));
            }
        }
    }));
    panic::set_hook(hook);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(payload) = run {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("?");
        panic!("the fuzz harness itself panicked: {msg}");
    }

    eprintln!(
        "fuzz_snapshot: {} accepted ({} with seeds), rejected {:?}, peak read allocation \
         {:.2} bytes per file byte",
        tally.accepted, tally.accepted_with_seeds, tally.rejected, tally.max_ratio
    );
    for (why, mutant) in failures.iter().take(5) {
        eprintln!("{why}: {} bytes", mutant.len());
    }
    assert!(failures.is_empty(), "{} failing mutants", failures.len());
    // Both outcomes must be reached, with seed sets loaded and refused by
    // the section decoders, or the fuzzer checks nothing.
    let refused = |kind: &str| tally.rejected.get(kind).copied().unwrap_or(0);
    assert!(
        tally.accepted_with_seeds > 50 && refused("malformed") > 300 && refused("truncated") > 100,
        "accepted {} ({} with seeds), rejected {:?}",
        tally.accepted,
        tally.accepted_with_seeds,
        tally.rejected
    );
}
