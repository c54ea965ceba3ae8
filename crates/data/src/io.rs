//! Plain-text persistence for two-view datasets (the `.2v` format).
//!
//! The format is line-oriented and human-editable:
//!
//! ```text
//! #2v1                     <- magic header
//! # free-form comments
//! L name1 name2 ...        <- left vocabulary (whitespace-separated names)
//! R name1 name2 ...        <- right vocabulary
//! T a b | x y              <- one transaction per line: left items | right items
//! T | x                    <- either side may be empty
//! ```
//!
//! Item names must not contain whitespace or `|`; the corpus generators use
//! `:`/`=`/`_` separators instead. Lines may end in `\n` or `\r\n`, blank
//! lines and `#` comments are skipped, `# name: …` names the dataset, and
//! `T` lines may come before the `L` and `R` lines. If an `L`, `R` or
//! `# name:` line repeats, the last one counts.
//!
//! # Errors
//!
//! [`read_dataset`] does not panic on any input. Besides the dataset it
//! returns, it allocates only in proportion to the input: the input's
//! bytes, the vocabulary, and one item id per name on a `T` line with one
//! end offset per transaction. It returns:
//!
//! * [`DataError::Io`] when the reader fails or the input is not UTF-8;
//! * [`DataError::Format`] for text that is not a `.2v` file: no or a bad
//!   magic line, a line with an unknown tag, a `T` line without `|`, a
//!   missing `L` or `R` line, a name listed twice across the `L` and `R`
//!   lines, or a transaction naming an unknown item or an item of the
//!   other view.
//!
//! Line errors are reported in input order: a malformed line before the
//! first byte that is not UTF-8 gives `Format`, one after it `Io`. The
//! vocabulary and the names in transactions are checked only after every
//! line has been read.

use std::io::{BufWriter, Read, Write};

use crate::dataset::TwoViewDataset;
use crate::error::DataError;
use crate::items::{ItemId, Side, Vocabulary};

const MAGIC: &str = "#2v1";

/// Serialises `dataset` into the `.2v` text format.
pub fn write_dataset<W: Write>(dataset: &TwoViewDataset, writer: W) -> Result<(), DataError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{MAGIC}")?;
    if !dataset.name().is_empty() {
        writeln!(w, "# name: {}", dataset.name())?;
    }
    let vocab = dataset.vocab();
    for (tag, side) in [("L", Side::Left), ("R", Side::Right)] {
        write!(w, "{tag}")?;
        for item in vocab.items_on(side) {
            write!(w, " {}", vocab.name(item))?;
        }
        writeln!(w)?;
    }
    for t in 0..dataset.n_transactions() {
        write!(w, "T")?;
        for local in dataset.row(Side::Left, t).iter() {
            write!(w, " {}", vocab.name(vocab.global_id(Side::Left, local)))?;
        }
        write!(w, " |")?;
        for local in dataset.row(Side::Right, t).iter() {
            write!(w, " {}", vocab.name(vocab.global_id(Side::Right, local)))?;
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

/// Parses a dataset from the `.2v` text format (see the module docs for
/// the accepted input and the errors).
pub fn read_dataset<R: Read>(mut reader: R) -> Result<TwoViewDataset, DataError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let text = utf8(&bytes)?;

    // First pass: every line-level error, the name and the vocabulary.
    let (mut name, mut left, mut right, mut n_rows) = ("", None, None, 0usize);
    for record in records(text)? {
        match record? {
            Record::Name(n) => name = n,
            Record::Vocabulary(Side::Left, names) => left = Some(names),
            Record::Vocabulary(Side::Right, names) => right = Some(names),
            Record::Transaction(..) => n_rows += 1,
        }
    }
    let left = left.ok_or_else(|| DataError::Format("missing L vocabulary line".into()))?;
    let right = right.ok_or_else(|| DataError::Format("missing R vocabulary line".into()))?;
    if u32::try_from(n_rows).is_err() {
        return Err(DataError::Format(format!(
            "{n_rows} transactions overflow a tid"
        )));
    }
    let vocab = Vocabulary::try_new(left.split_whitespace(), right.split_whitespace())
        .map_err(DataError::Format)?;

    // Second pass: resolve every transaction's names into one flat id
    // buffer, enforcing each name's side as it resolves.
    let mut ends = Vec::with_capacity(n_rows);
    let mut items: Vec<ItemId> = Vec::new();
    for record in records(text)? {
        let Record::Transaction(l, r) = record? else {
            continue;
        };
        let t = ends.len();
        for (names, expected, word) in [(l, Side::Left, "left"), (r, Side::Right, "right")] {
            for n in names.split_whitespace() {
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
        ends.push(items.len());
    }

    Ok(TwoViewDataset::from_flat(vocab, &ends, &items).with_name(name))
}

/// One record line of a `.2v` input, borrowed from it.
enum Record<'a> {
    /// `# name: …`, trimmed.
    Name(&'a str),
    /// The names of an `L` or `R` line.
    Vocabulary(Side, &'a str),
    /// The left and right names of a `T` line.
    Transaction(&'a str, &'a str),
}

/// Checks the magic line of `text`, then yields its record lines in order,
/// skipping blank lines and comments.
fn records(text: &str) -> Result<impl Iterator<Item = Result<Record<'_>, DataError>>, DataError> {
    let mut lines = text.lines();
    let first = lines
        .next()
        .ok_or_else(|| DataError::Format("empty input".into()))?;
    if first.trim() != MAGIC {
        return Err(DataError::Format(format!(
            "bad magic: expected {MAGIC:?}, got {:?}",
            first.trim()
        )));
    }
    // Line numbers are 1-based and the magic is line 1.
    Ok(lines
        .enumerate()
        .filter_map(|(i, line)| record(i + 2, line.trim()).transpose()))
}

/// Classifies one trimmed line: `None` for a blank line or a comment.
fn record(lineno: usize, line: &str) -> Result<Option<Record<'_>>, DataError> {
    if let Some(name) = line.strip_prefix("# name:") {
        return Ok(Some(Record::Name(name.trim())));
    }
    let mut chars = line.chars();
    let Some(tag) = chars.next() else {
        return Ok(None);
    };
    let rest = chars.as_str();
    match tag {
        '#' => Ok(None),
        'L' => Ok(Some(Record::Vocabulary(Side::Left, rest))),
        'R' => Ok(Some(Record::Vocabulary(Side::Right, rest))),
        'T' => match rest.split_once('|') {
            Some((l, r)) => Ok(Some(Record::Transaction(l, r))),
            None => Err(DataError::Format(format!(
                "line {lineno}: transaction missing '|'"
            ))),
        },
        other => Err(DataError::Format(format!(
            "line {lineno}: unknown record tag {other:?}"
        ))),
    }
}

/// The input as text. Input that is not UTF-8 is an [`DataError::Io`]
/// error, unless a line before the first bad byte is malformed: that line's
/// error comes first, as it would for a reader that stops at it.
fn utf8(bytes: &[u8]) -> Result<&str, DataError> {
    std::str::from_utf8(bytes).or_else(|e| {
        let valid = &bytes[..e.valid_up_to()];
        let whole_lines = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if whole_lines > 0 {
            if let Ok(head) = std::str::from_utf8(&valid[..whole_lines]) {
                for record in records(head)? {
                    record?;
                }
            }
        }
        Err(DataError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            e,
        )))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::ItemSet;

    fn toy() -> TwoViewDataset {
        let vocab = Vocabulary::new(["a", "b", "c"], ["x", "y"]);
        TwoViewDataset::from_transactions(
            vocab,
            &[vec![0, 1, 3], vec![0, 4], vec![1, 2, 3, 4], vec![]],
        )
        .with_name("toy")
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let d = toy();
        let mut buf = Vec::new();
        write_dataset(&d, &mut buf).unwrap();
        let d2 = read_dataset(&buf[..]).unwrap();
        assert_eq!(d2.name(), "toy");
        assert_eq!(d2.n_transactions(), d.n_transactions());
        assert_eq!(d2.vocab().n_left(), 3);
        assert_eq!(d2.vocab().n_right(), 2);
        for t in 0..d.n_transactions() {
            assert_eq!(d.transaction_items(t), d2.transaction_items(t));
        }
        assert_eq!(
            d2.support_count(&ItemSet::from_items([1, 3])),
            d.support_count(&ItemSet::from_items([1, 3]))
        );
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(
            read_dataset("#nope\n".as_bytes()),
            Err(DataError::Format(_))
        ));
    }

    #[test]
    fn rejects_missing_separator() {
        let src = "#2v1\nL a\nR x\nT a x\n";
        assert!(read_dataset(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_unknown_item() {
        let src = "#2v1\nL a\nR x\nT b | x\n";
        assert!(read_dataset(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_item_on_wrong_side() {
        let src = "#2v1\nL a\nR x\nT x | a\n";
        assert!(read_dataset(src.as_bytes()).is_err());
    }

    fn format_error(src: &str) -> bool {
        matches!(read_dataset(src.as_bytes()), Err(DataError::Format(_)))
    }

    #[test]
    fn rejects_name_repeated_on_one_line() {
        assert!(format_error("#2v1\nL a b a\nR x\nT a | x\n"));
        assert!(format_error("#2v1\nL a\nR x y x\nT a | x\n"));
    }

    #[test]
    fn rejects_name_on_both_lines() {
        assert!(format_error("#2v1\nL a b\nR x b\nT a | x\n"));
    }

    #[test]
    fn rejects_multibyte_record_tag() {
        assert!(format_error("#2v1\nL a\nR x\né a | x\n"));
        assert!(format_error("#2v1\n日 a\nL a\nR x\n"));
    }

    #[test]
    fn invalid_utf8_is_io_unless_an_earlier_line_is_malformed() {
        let bad = |head: &str| [head.as_bytes(), b"\xff | x\n"].concat();
        assert!(matches!(
            read_dataset(&bad("#2v1\nL a\nR x\nT ")[..]),
            Err(DataError::Io(_))
        ));
        assert!(matches!(
            read_dataset(&bad("#2v1\nL a\nX a\nT ")[..]),
            Err(DataError::Format(_))
        ));
        assert!(matches!(
            read_dataset(&b"#2v1\xff\n"[..]),
            Err(DataError::Io(_))
        ));
    }

    #[test]
    fn accepts_crlf_transactions_first_and_repeated_items() {
        let src = "#2v1\r\nT a a | x\r\n# name: crlf \r\n\r\nL a b\r\nR x\r\nT |\r\n";
        let d = read_dataset(src.as_bytes()).unwrap();
        assert_eq!(d.name(), "crlf");
        assert_eq!(d.n_transactions(), 2);
        assert_eq!(d.transaction_items(0).as_slice(), &[0, 2]);
        assert!(d.transaction_items(1).is_empty());
        assert_eq!(d.support(0), 1);
    }

    #[test]
    fn tolerates_comments_and_blank_lines() {
        let src = "#2v1\n# hello\n\nL a b\nR x\nT a | x\nT b |\n";
        let d = read_dataset(src.as_bytes()).unwrap();
        assert_eq!(d.n_transactions(), 2);
        assert_eq!(d.support(0), 1);
    }
}
