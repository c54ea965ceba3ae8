//! Seeded mutation fuzzer for `table_io::read_table`.
//!
//! The seed files are rules files that `write_table` wrote from SELECT
//! models of a few paper analogues, plus hand-written ones with what the
//! writer never emits: comments, blank lines, `\r\n` line endings, padding
//! around names and arrows, repeated names, multi-byte names and all three
//! arrows. Each mutant applies a few byte and line edits drawn from a
//! splitmix64 stream with a fixed seed, and is read against the seed's
//! vocabulary.
//!
//! Every mutant must satisfy:
//! * `read_table` never panics;
//! * an error is a typed `Error::Data` (`Format` for bad text, `Io` for
//!   bytes that are not UTF-8);
//! * a table it returns survives `write_table` → `read_table` exactly,
//!   and writing the table read back gives the same bytes again.

use std::panic::{self, AssertUnwindSafe};

use twoview::core::table_io::{read_table, write_table};
use twoview::data::error::DataError;
use twoview::prelude::*;

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

fn to_rules(table: &TranslationTable, vocab: &Vocabulary) -> Vec<u8> {
    let mut buf = Vec::new();
    write_table(table, vocab, &mut buf).expect("every seed vocabulary name is writable");
    buf
}

/// Seed files, each with the vocabulary it is read against.
fn corpus() -> Vec<(Vocabulary, Vec<u8>)> {
    let mut out = Vec::new();
    for ds in [
        PaperDataset::Car,
        PaperDataset::Mammals,
        PaperDataset::Wine,
        PaperDataset::Elections,
    ] {
        let data = ds.generate_scaled(40).dataset;
        let cfg = SelectConfig::builder().k(1).minsup(2).build();
        let model = translator_select(&data, &cfg);
        assert!(
            model.table.len() >= 2,
            "{}: {} rules",
            ds.name(),
            model.table.len()
        );
        out.push((data.vocab().clone(), to_rules(&model.table, data.vocab())));
    }
    let weather = || {
        Vocabulary::new(
            ["rainy", "cold", "windy", "sunny", "é", "a:b"],
            ["umbrella", "coat", "kite", "sunglasses", "日本", "x=1"],
        )
    };
    for text in [
        "#2vrules1\r\nrainy, cold -> umbrella\r\nwindy <-> kite\r\nsunny <- sunglasses\r\n",
        "#2vrules1\n# a comment\n\nrainy -> umbrella\n   \n# windy -> kite\ncold <-> coat, 日本\n",
        "  #2vrules1  \n\t rainy ,cold,  windy->umbrella ,kite\nsunny<-sunglasses\n é <-> x=1 \n",
        "#2vrules1\nrainy, rainy -> coat, coat\na:b <- 日本\n#\n",
        "#2vrules1\nrainy -> umbrella\nrainy -> umbrella\nrainy <-> umbrella\n",
        "#2vrules1\nrainy <- -> umbrella\n",
        "#2vrules1\numbrella -> rainy\n",
        "#2vrules1\n, -> kite\n",
        "#2vrules1",
    ] {
        out.push((weather(), text.as_bytes().to_vec()));
    }
    out
}

/// Bytes the mutator writes: the format's separators and arrows,
/// whitespace (ASCII, U+000B and multi-byte), multi-byte text and
/// malformed UTF-8.
const FRAGMENTS: [&[u8]; 20] = [
    b" ",
    b"\t",
    b"\n",
    b"\r",
    b"\r\n",
    b",",
    b"#",
    b"-",
    b"<",
    b">",
    b"->",
    b"<-",
    b"<->",
    b"\x0b",
    "\u{a0}".as_bytes(),
    "é".as_bytes(),
    b"\xc3",
    b"\xff",
    b"\x00",
    b"#2vrules1",
];

/// Whole lines the mutator inserts.
const LINES: [&str; 10] = [
    "#2vrules1",
    "",
    "# comment",
    "->",
    "<->",
    "rainy ->",
    "-> umbrella",
    "rainy, cold <- umbrella",
    "umbrella -> rainy",
    "rainy -> umbrella <- coat",
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
                    // names, items on the wrong side, names glued to others.
                    let names: Vec<Vec<u8>> = lines[j]
                        .split(|&b| b == b',' || b.is_ascii_whitespace())
                        .filter(|n| !n.is_empty())
                        .map(<[u8]>::to_vec)
                        .collect();
                    if !names.is_empty() {
                        let name = rng.pick(&names).clone();
                        let at = rng.below(lines[i].len() + 1);
                        let sep = *rng.pick(&[b", ".as_slice(), b" ", b""]);
                        lines[i].splice(at..at, [sep, &name, sep].concat());
                    }
                }
            }
            *input = lines.join(&b'\n');
        }
    }
}

#[derive(Default)]
struct Tally {
    accepted: usize,
    rejected: usize,
    rules: usize,
}

/// Checks one input; returns what went wrong, if anything.
fn check(vocab: &Vocabulary, input: &[u8], tally: &mut Tally) -> Option<String> {
    let read = match panic::catch_unwind(AssertUnwindSafe(|| read_table(vocab, input))) {
        Ok(r) => r,
        Err(_) => return Some("read_table panicked".into()),
    };
    let table = match read {
        Ok(table) => table,
        Err(Error::Data(DataError::Format(_) | DataError::Io(_))) => {
            tally.rejected += 1;
            return None;
        }
        Err(other) => {
            return Some(format!(
                "read_table returned neither Format nor Io: {other}"
            ))
        }
    };
    let mut written = Vec::new();
    if let Err(e) = write_table(&table, vocab, &mut written) {
        return Some(format!(
            "write_table refused a table read_table returned: {e}"
        ));
    }
    match read_table(vocab, &written[..]) {
        Ok(again) if again == table => {
            let mut rewritten = Vec::new();
            write_table(&again, vocab, &mut rewritten).expect("written once already");
            if rewritten != written {
                return Some("writing the table read back changed the bytes".into());
            }
        }
        Ok(_) => return Some("the write_table round trip changed the table".into()),
        Err(e) => return Some(format!("the write_table round trip failed: {e}")),
    }
    tally.accepted += 1;
    tally.rules += table.len();
    None
}

#[test]
fn read_table_is_typed_or_round_trips_on_mutants() {
    const SEED: u64 = 0x7ab1_e5ed;
    const MUTANTS: usize = 3000;

    let corpus = corpus();
    let mut rng = Rng(SEED);
    let mut tally = Tally::default();
    let mut failures: Vec<(String, Vec<u8>)> = Vec::new();

    // A panic is reported as a failing input; keep it off stderr.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        for (vocab, input) in &corpus {
            if let Some(why) = check(vocab, input, &mut tally) {
                failures.push((why, input.clone()));
            }
        }
        for _ in 0..MUTANTS {
            let (vocab, seed) = rng.pick(&corpus);
            let mut input = seed.clone();
            for _ in 0..1 + rng.below(4) {
                mutate(&mut rng, &mut input);
            }
            if let Some(why) = check(vocab, &input, &mut tally) {
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
    // Both outcome classes must be reached, with rules read, or the fuzzer
    // checks nothing.
    assert!(
        tally.accepted > 300 && tally.rejected > 300 && tally.rules > 1000,
        "accepted {}, rejected {}, rules {}",
        tally.accepted,
        tally.rejected,
        tally.rules
    );
}
