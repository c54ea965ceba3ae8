//! Plain-text persistence for translation tables (the `.rules` format).
//!
//! One rule per line, item names joined by commas:
//!
//! ```text
//! #2vrules1
//! rainy, cold -> umbrella
//! windy <-> kite
//! sunny <- sunglasses
//! ```
//!
//! Names must match the dataset vocabulary the table will be used with;
//! reading resolves them and validates sides. A line is trimmed, skipped
//! when blank or when it starts with `#`, and split at its arrow and then
//! at commas, each name trimmed. So a name that is empty, has leading or
//! trailing whitespace, starts with `#`, or holds a `,`, a line break,
//! `->` or `<-` would not read back as itself; [`write_table`] refuses
//! such a name with [`Error::RuleName`] rather than write a rule that
//! reads back as another, as a comment, or not at all.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use twoview_data::error::DataError;
use twoview_data::prelude::*;

use crate::error::Error;

use crate::rule::{Direction, TranslationRule};
use crate::table::TranslationTable;

const MAGIC: &str = "#2vrules1";

/// Writes a table with item names resolved through `vocab`.
///
/// Fails with [`Error::RuleName`], before writing anything, when the
/// format cannot carry one of the table's names (see the module docs).
/// Each name written is checked once, so the check is linear in the
/// bytes written.
pub fn write_table<W: Write>(
    table: &TranslationTable,
    vocab: &Vocabulary,
    writer: W,
) -> Result<(), Error> {
    for rule in table.iter() {
        for name in rule
            .left
            .iter()
            .chain(rule.right.iter())
            .map(|i| vocab.name(i))
        {
            if let Some(reason) = unwritable(name) {
                let name = name.to_string();
                return Err(Error::RuleName { name, reason });
            }
        }
    }
    let mut w = BufWriter::new(writer);
    writeln!(w, "{MAGIC}")?;
    for rule in table.iter() {
        let side = |s: &ItemSet| {
            s.iter()
                .map(|i| vocab.name(i).to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        writeln!(
            w,
            "{} {} {}",
            side(&rule.left),
            rule.direction.arrow(),
            side(&rule.right)
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Why `name` would not read back as itself from a rules line, or `None`
/// when it would.
fn unwritable(name: &str) -> Option<&'static str> {
    if name.is_empty() {
        Some("it is empty")
    } else if name.trim() != name {
        Some("it has leading or trailing whitespace")
    } else if name.starts_with('#') {
        Some("it starts with '#', which opens a comment line")
    } else if name.contains(',') {
        Some("it contains ',', which separates names")
    } else if name.contains(['\n', '\r']) {
        Some("it contains a line break")
    } else if name.contains("->") || name.contains("<-") {
        Some("it contains a rule arrow")
    } else {
        None
    }
}

/// Reads a table, resolving item names through `vocab`.
pub fn read_table<R: Read>(vocab: &Vocabulary, reader: R) -> Result<TranslationTable, Error> {
    let mut lines = BufReader::new(reader).lines();
    let first = lines
        .next()
        .ok_or_else(|| DataError::Format("empty rules input".into()))??;
    if first.trim() != MAGIC {
        return Err(DataError::Format(format!(
            "bad magic: expected {MAGIC:?}, got {:?}",
            first.trim()
        ))
        .into());
    }
    let mut table = TranslationTable::new();
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        let line = line.trim();
        let lineno = lineno + 2;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Longest arrow first so "<->" is not parsed as "<-".
        let (arrow, direction) = if line.contains("<->") {
            ("<->", Direction::Both)
        } else if line.contains("->") {
            ("->", Direction::Forward)
        } else if line.contains("<-") {
            ("<-", Direction::Backward)
        } else {
            return Err(DataError::Format(format!("line {lineno}: no arrow")).into());
        };
        let mut parts = line.splitn(2, arrow);
        let left_txt = parts.next().unwrap_or("");
        let right_txt = parts
            .next()
            .ok_or_else(|| DataError::Format(format!("line {lineno}: malformed rule")))?;
        let parse_side = |txt: &str, expected: Side| -> Result<ItemSet, Error> {
            let mut items = Vec::new();
            for name in txt.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let id = vocab.id_of(name).ok_or_else(|| {
                    DataError::Format(format!("line {lineno}: unknown item {name:?}"))
                })?;
                if vocab.side_of(id) != expected {
                    return Err(DataError::Format(format!(
                        "line {lineno}: item {name:?} on the wrong side"
                    ))
                    .into());
                }
                items.push(id);
            }
            if items.is_empty() {
                return Err(DataError::Format(format!("line {lineno}: empty rule side")).into());
            }
            Ok(ItemSet::from_items(items))
        };
        table.push(TranslationRule::new(
            parse_side(left_txt, Side::Left)?,
            parse_side(right_txt, Side::Right)?,
            direction,
        ));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocabulary {
        Vocabulary::new(["rainy", "cold"], ["umbrella", "coat"])
    }

    fn table() -> TranslationTable {
        TranslationTable::from_rules([
            TranslationRule::new(
                ItemSet::from_items([0, 1]),
                ItemSet::from_items([2]),
                Direction::Forward,
            ),
            TranslationRule::new(
                ItemSet::from_items([1]),
                ItemSet::from_items([3]),
                Direction::Both,
            ),
            TranslationRule::new(
                ItemSet::from_items([0]),
                ItemSet::from_items([2, 3]),
                Direction::Backward,
            ),
        ])
    }

    #[test]
    fn roundtrip() {
        let v = vocab();
        let t = table();
        let mut buf = Vec::new();
        write_table(&t, &v, &mut buf).unwrap();
        let t2 = read_table(&v, &buf[..]).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn bidirectional_arrow_not_confused_with_backward() {
        let v = vocab();
        let src = "#2vrules1\ncold <-> coat\n";
        let t = read_table(&v, src.as_bytes()).unwrap();
        assert_eq!(t.rules()[0].direction, Direction::Both);
    }

    #[test]
    fn rejects_unknown_items_and_wrong_sides() {
        let v = vocab();
        assert!(read_table(&v, "#2vrules1\nsnowy -> umbrella\n".as_bytes()).is_err());
        assert!(read_table(&v, "#2vrules1\numbrella -> coat\n".as_bytes()).is_err());
        assert!(read_table(&v, "#2vrules1\nrainy -> \n".as_bytes()).is_err());
        assert!(read_table(&v, "#2vrules1\nrainy umbrella\n".as_bytes()).is_err());
        assert!(read_table(&v, "#nope\n".as_bytes()).is_err());
    }

    /// Writes the one rule `left → right` over a vocabulary holding
    /// `name` on the left, and returns the error `write_table` reports.
    fn write_with_left_name(name: &str) -> Error {
        let v = Vocabulary::new([name, "b"], ["x"]);
        let rule = TranslationRule::new(
            ItemSet::from_items([0, 1]),
            ItemSet::from_items([2]),
            Direction::Forward,
        );
        let table = TranslationTable::from_rules([rule]);
        let mut buf = Vec::new();
        let err = write_table(&table, &v, &mut buf).expect_err(name);
        assert!(buf.is_empty(), "{name:?}: nothing is written");
        err
    }

    fn assert_refused(name: &str, reason: &str) {
        match write_with_left_name(name) {
            Error::RuleName { name: n, reason: r } => {
                assert_eq!(n, name);
                assert!(r.contains(reason), "{name:?}: {r}");
            }
            other => panic!("{name:?}: unexpected error {other}"),
        }
    }

    #[test]
    fn refuses_a_name_that_reads_as_a_comment() {
        // Written verbatim, the line "#a, b -> x" reads back as a comment:
        // the rule would be lost without an error.
        assert_refused("#a", "'#'");
    }

    #[test]
    fn refuses_a_name_with_a_comma() {
        // "b,c" would read back as the two names "b" and "c".
        assert_refused("b,c", "','");
    }

    #[test]
    fn refuses_a_name_with_an_arrow() {
        // "x->y" and "p<-q" would split the line at the wrong arrow.
        assert_refused("x->y", "arrow");
        assert_refused("p<-q", "arrow");
        assert_refused("p<->q", "arrow");
    }

    #[test]
    fn refuses_names_that_trimming_or_line_breaks_change() {
        assert_refused("", "empty");
        assert_refused(" a", "whitespace");
        assert_refused("a\u{a0}", "whitespace");
        assert_refused("a\nb", "line break");
        assert_refused("a\rb", "line break");
    }

    #[test]
    fn writes_names_the_format_carries_verbatim() {
        // `#`, `-`, `<`, `>` and inner spaces are fine where the reader
        // cannot mistake them for a comment, an arrow or a separator.
        let v = Vocabulary::new(["a#1", "-", "b c"], ["<", ">", "x-y"]);
        let table = TranslationTable::from_rules([
            TranslationRule::new(
                ItemSet::from_items([0, 1, 2]),
                ItemSet::from_items([3, 4]),
                Direction::Forward,
            ),
            TranslationRule::new(
                ItemSet::from_items([1]),
                ItemSet::from_items([3, 5]),
                Direction::Both,
            ),
            TranslationRule::new(
                ItemSet::from_items([2]),
                ItemSet::from_items([4]),
                Direction::Backward,
            ),
        ]);
        let mut buf = Vec::new();
        write_table(&table, &v, &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            "#2vrules1\na#1, -, b c -> <, >\n- <-> <, x-y\nb c <- >\n"
        );
        assert_eq!(read_table(&v, &buf[..]).unwrap(), table);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let v = vocab();
        let src = "#2vrules1\n# note\n\nrainy -> umbrella\n";
        let t = read_table(&v, src.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
    }
}
