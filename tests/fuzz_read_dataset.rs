//! Seeded mutation fuzzer for `io::read_dataset`.
//!
//! The seed files are `.2v` texts written by `write_dataset` from
//! synthetic and paper-analogue datasets, plus hand-written files with
//! what the writer never emits: multi-byte names, `\r\n` line endings,
//! comments, blank lines, `# name:` lines and `T` lines before the `L`
//! and `R` lines. Each mutant applies a few byte and line edits drawn from
//! a splitmix64 stream seeded by `TWOVIEW_CHAOS_SEED` (default
//! `0x2f1e_5eed`), and is parsed twice: by the library and by
//! [`reference`], the line-by-line parser that allocated a `String` per
//! line and per name, kept here as the oracle.
//!
//! Every mutant must satisfy:
//! * the library never panics;
//! * where the reference accepts, the library returns the same dataset
//!   (name, vocabulary order, per-transaction items, columns and their
//!   representations), and that dataset survives a `write_dataset` round
//!   trip unchanged;
//! * where the reference returns an error, the library returns an error of
//!   the same kind (`Format` or `Io`);
//! * where the reference panics (a name listed twice across the `L` and
//!   `R` lines, or a record line starting with a multi-byte character),
//!   the library returns a `Format` error.

use std::panic::{self, AssertUnwindSafe};

use twoview::data::error::DataError;
use twoview::data::io::{read_dataset, write_dataset};
use twoview::data::synthetic::{generate, generate_with_vocab, StructureSpec, SyntheticSpec};
use twoview::prelude::*;

/// The line-by-line `.2v` parser the library used before it parsed from
/// one buffer, verbatim but for paths.
fn reference<R: std::io::Read>(reader: R) -> Result<TwoViewDataset, DataError> {
    use std::io::{BufRead, BufReader};
    const MAGIC: &str = "#2v1";
    let mut lines = BufReader::new(reader).lines();
    let first = lines
        .next()
        .ok_or_else(|| DataError::Format("empty input".into()))??;
    if first.trim() != MAGIC {
        return Err(DataError::Format(format!(
            "bad magic: expected {MAGIC:?}, got {:?}",
            first.trim()
        )));
    }

    let mut left: Option<Vec<String>> = None;
    let mut right: Option<Vec<String>> = None;
    let mut name = String::new();
    let mut raw_transactions: Vec<(Vec<String>, Vec<String>)> = Vec::new();

    for (lineno, line) in lines.enumerate() {
        let line = line?;
        let line = line.trim();
        let lineno = lineno + 2; // 1-based, after the magic line
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# name:") {
            name = rest.trim().to_string();
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (tag, rest) = line.split_at(1);
        match tag {
            "L" => left = Some(rest.split_whitespace().map(str::to_string).collect()),
            "R" => right = Some(rest.split_whitespace().map(str::to_string).collect()),
            "T" => {
                let mut parts = rest.splitn(2, '|');
                let l = parts.next().unwrap_or("");
                let r = parts.next().ok_or_else(|| {
                    DataError::Format(format!("line {lineno}: transaction missing '|'"))
                })?;
                raw_transactions.push((
                    l.split_whitespace().map(str::to_string).collect(),
                    r.split_whitespace().map(str::to_string).collect(),
                ));
            }
            other => {
                return Err(DataError::Format(format!(
                    "line {lineno}: unknown record tag {other:?}"
                )))
            }
        }
    }

    let left = left.ok_or_else(|| DataError::Format("missing L vocabulary line".into()))?;
    let right = right.ok_or_else(|| DataError::Format("missing R vocabulary line".into()))?;
    let vocab = Vocabulary::new(left, right);

    let mut transactions: Vec<Vec<ItemId>> = Vec::with_capacity(raw_transactions.len());
    for (t, (l, r)) in raw_transactions.iter().enumerate() {
        let mut items = Vec::with_capacity(l.len() + r.len());
        for (names, expected, word) in [(l, Side::Left, "left"), (r, Side::Right, "right")] {
            for n in names {
                let id = vocab.id_of(n).ok_or_else(|| {
                    DataError::Format(format!("transaction {t}: unknown item {n:?}"))
                })?;
                if vocab.side_of(id) != expected {
                    return Err(DataError::Format(format!(
                        "transaction {t}: item {n:?} is not a {word}-view item"
                    )));
                }
                items.push(id);
            }
        }
        transactions.push(items);
    }

    Ok(TwoViewDataset::from_transactions(vocab, &transactions).with_name(name))
}

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
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

fn to_2v(data: &TwoViewDataset) -> Vec<u8> {
    let mut buf = Vec::new();
    write_dataset(data, &mut buf).expect("writing to memory succeeds");
    buf
}

/// Seed files: written datasets plus hand-written edge cases.
fn corpus() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for (seed, burst) in [(1, 1), (2, 6)] {
        let structure = if burst > 1 {
            StructureSpec::bursty(3, burst)
        } else {
            StructureSpec::strong(3)
        };
        let spec = SyntheticSpec {
            name: format!("synthetic-{seed}"),
            n_transactions: 40,
            n_left: 12,
            n_right: 10,
            density_left: 0.15,
            density_right: 0.15,
            structure,
            seed,
        };
        out.push(to_2v(&generate(&spec).expect("valid spec").dataset));
    }
    let spec = SyntheticSpec {
        name: "multi-byte".into(),
        n_transactions: 30,
        n_left: 5,
        n_right: 4,
        density_left: 0.3,
        density_right: 0.3,
        structure: StructureSpec::strong(2),
        seed: 3,
    };
    let vocab = Vocabulary::new(
        ["é", "日本", "a:b", "naïve", "x=1"],
        ["ß", "Ω", "emoji🙂", "r_2"],
    );
    out.push(to_2v(
        &generate_with_vocab(&spec, vocab)
            .expect("valid spec")
            .dataset,
    ));
    for ds in PaperDataset::ALL {
        out.push(to_2v(&ds.generate_scaled(12).dataset));
    }
    for text in [
        "#2v1\r\n# name: crlf\r\nL a b c\r\nR x y\r\nT a b | x\r\nT | y\r\nT c |\r\n",
        "#2v1\nT a | x y\n\n# a comment\nT b b | \nL a b\n  R x y  \nT | x\n",
        "  #2v1  \n# name:  spaced name \n\nLa\tb\nR x\u{a0}y\nT a\u{b}b | x\nT\t|\ty\n",
        "#2v1\nL é 日\nR ß\nT é 日 | ß\nT 日 |\n# name: ünïcode\n",
        "#2v1\nL a\nL a b\nR x\nT b | x\n",
        "#2v1\nL a b\nR x\nT a | x | x\n",
        "#2v1\nL a a\nR x\nT a | x\n",
        "#2v1\nL a\nR x a\nT a | x\n",
        "#2v1\nL a\nR x\né a | x\n",
    ] {
        out.push(text.as_bytes().to_vec());
    }
    out
}

/// Bytes the mutator writes: record syntax, whitespace (ASCII, U+000B,
/// which only Unicode splitting treats as a separator, and multi-byte),
/// multi-byte names and malformed UTF-8.
const FRAGMENTS: [&[u8]; 20] = [
    b" ",
    b"\t",
    b"\n",
    b"\r",
    b"\r\n",
    b"|",
    b"#",
    b"L",
    b"R",
    b"T",
    b"a",
    b"\x0b",
    "\u{a0}".as_bytes(),
    "\u{2003}".as_bytes(),
    "é".as_bytes(),
    "日".as_bytes(),
    b"\xc3",
    b"\xff",
    b"\x00",
    b"# name:",
];

/// Whole lines the mutator inserts.
const LINES: [&str; 12] = [
    "#2v1",
    "",
    "# comment",
    "# name: mutant",
    "L",
    "R",
    "T",
    "T |",
    "é a | x",
    "X a | b",
    "L a a",
    "R L0 L0",
];

fn mutate(rng: &mut Rng, input: &mut Vec<u8>) {
    let pos = |rng: &mut Rng, input: &Vec<u8>| rng.below(input.len() + 1);
    match rng.below(10) {
        0 if !input.is_empty() => {
            let at = rng.below(input.len());
            input.splice(at..at + 1, rng.pick(&FRAGMENTS).iter().copied());
        }
        1 => {
            let at = pos(rng, input);
            input.splice(at..at, rng.pick(&FRAGMENTS).iter().copied());
        }
        2 if !input.is_empty() => {
            let at = rng.below(input.len());
            input.remove(at);
        }
        3 => {
            let at = pos(rng, input);
            input.truncate(at);
        }
        op => {
            let mut lines: Vec<Vec<u8>> =
                input.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
            let i = rng.below(lines.len());
            let j = rng.below(lines.len());
            match op {
                4 => {
                    lines.remove(i);
                }
                5 => {
                    let copy = lines[i].clone();
                    lines.insert(j, copy);
                }
                6 => lines.swap(i, j),
                7 => lines.insert(i, rng.pick(&LINES).as_bytes().to_vec()),
                _ => {
                    // Move one name from line `j` into line `i`: repeated
                    // vocabulary names, unknown items, items on the wrong
                    // side.
                    let names: Vec<Vec<u8>> = lines[j]
                        .split(|b| b.is_ascii_whitespace())
                        .skip(1)
                        .filter(|n| !n.is_empty())
                        .map(<[u8]>::to_vec)
                        .collect();
                    if !names.is_empty() {
                        let name = rng.pick(&names).clone();
                        let at = rng.below(lines[i].len() + 1);
                        lines[i].splice(at..at, [b" ".as_slice(), &name, b" "].concat());
                    }
                }
            }
            *input = lines.join(&b'\n');
        }
    }
}

fn kind(e: &DataError) -> &'static str {
    match e {
        DataError::Io(_) => "Io",
        DataError::Format(_) => "Format",
        DataError::Config(_) => "Config",
    }
}

/// Whether `a` and `b` hold the same dataset, down to the tidset
/// representations.
fn same(a: &TwoViewDataset, b: &TwoViewDataset) -> bool {
    let (va, vb) = (a.vocab(), b.vocab());
    a.name() == b.name()
        && va.n_left() == vb.n_left()
        && va.n_items() == vb.n_items()
        && (0..va.n_items() as ItemId).all(|i| {
            va.name(i) == vb.name(i)
                && a.tidset(i) == b.tidset(i)
                && a.tidset(i).is_sparse() == b.tidset(i).is_sparse()
        })
        && a.n_transactions() == b.n_transactions()
        && (0..a.n_transactions()).all(|t| {
            a.row(Side::Left, t) == b.row(Side::Left, t)
                && a.row(Side::Right, t) == b.row(Side::Right, t)
        })
}

#[derive(Default)]
struct Tally {
    accepted: usize,
    rejected: usize,
    reference_panics: usize,
}

/// Checks one input; returns what went wrong, if anything.
fn check(input: &[u8], tally: &mut Tally) -> Option<String> {
    let ours = match panic::catch_unwind(|| read_dataset(input)) {
        Ok(r) => r,
        Err(_) => return Some("read_dataset panicked".into()),
    };
    match (panic::catch_unwind(|| reference(input)), ours) {
        (Err(_), Err(DataError::Format(_))) => tally.reference_panics += 1,
        (Err(_), other) => {
            return Some(format!(
                "the reference panicked, read_dataset returned {:?}",
                other.map(|d| d.n_transactions())
            ))
        }
        (Ok(Err(want)), Err(got)) if kind(&want) == kind(&got) => tally.rejected += 1,
        (Ok(Err(want)), got) => {
            return Some(format!(
                "the reference returned {want}, read_dataset returned {:?}",
                got.map(|d| d.n_transactions())
            ))
        }
        (Ok(Ok(_)), Err(got)) => {
            return Some(format!(
                "the reference accepted, read_dataset returned {got}"
            ))
        }
        (Ok(Ok(want)), Ok(got)) => {
            if !same(&want, &got) {
                return Some("datasets differ from the reference".into());
            }
            match read_dataset(&to_2v(&got)[..]) {
                Ok(again) if same(&got, &again) => tally.accepted += 1,
                Ok(_) => return Some("the write_dataset round trip changed the dataset".into()),
                Err(e) => return Some(format!("the write_dataset round trip failed: {e}")),
            }
        }
    }
    None
}

/// The mutation stream's seed: `TWOVIEW_CHAOS_SEED` when it is set,
/// otherwise a fixed default.
fn fuzz_seed() -> u64 {
    std::env::var("TWOVIEW_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0x2f1e_5eed)
}

#[test]
fn read_dataset_matches_reference_on_mutants() {
    const MUTANTS: usize = 2500;

    let corpus = corpus();
    let mut rng = Rng(fuzz_seed());
    let mut tally = Tally::default();
    let mut failures: Vec<(String, Vec<u8>)> = Vec::new();

    // The reference panics on purpose here; keep those panics off stderr.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        for input in &corpus {
            if let Some(why) = check(input, &mut tally) {
                failures.push((why, input.clone()));
            }
        }
        for _ in 0..MUTANTS {
            let mut input = rng.pick(&corpus).clone();
            for _ in 0..1 + rng.below(4) {
                mutate(&mut rng, &mut input);
            }
            if let Some(why) = check(&input, &mut tally) {
                failures.push((why, input));
            }
        }
    }));
    panic::set_hook(hook);
    assert!(run.is_ok(), "the fuzz harness itself panicked");

    for (why, input) in failures.iter().take(5) {
        eprintln!("{why}: {:?}", String::from_utf8_lossy(input));
    }
    assert!(failures.is_empty(), "{} failing inputs", failures.len());
    // Every outcome class must be reached, or the fuzzer checks nothing.
    assert!(
        tally.accepted > 100 && tally.rejected > 100 && tally.reference_panics > 10,
        "accepted {}, rejected {}, reference panics {}",
        tally.accepted,
        tally.rejected,
        tally.reference_panics
    );
}
