//! `name_inventory`: the observability and fault-point namespace is a
//! public contract — CI greps it, dashboards query it, traces carry it.
//! Every metric/span/event/fault name used in source must appear in the
//! checked-in inventory (`NAMES_inventory.json`) and vice versa, and
//! every JSON key CI greps out of `BENCH_smoke.json` must actually be
//! emitted by some source literal. Renames therefore fail the lint the
//! moment one side drifts.

use std::collections::BTreeSet;

use crate::context::{in_regions, FileKind};
use crate::lexer::{Lexed, Tok};
use crate::report::{Rule, Violation};

/// Which inventory section a name belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NameKind {
    /// `counter(..)` / `gauge(..)` / `histogram(..)` registrations.
    Metric,
    /// `span(..)` names.
    Span,
    /// `event(..)` names.
    Event,
    /// Fault points declared in `faults::points`.
    Fault,
}

impl NameKind {
    /// Inventory JSON key for this section.
    pub fn section(self) -> &'static str {
        match self {
            NameKind::Metric => "metrics",
            NameKind::Span => "spans",
            NameKind::Event => "events",
            NameKind::Fault => "faults",
        }
    }
}

/// One name usage discovered in source.
#[derive(Debug, Clone)]
pub struct NameUse {
    /// The name string itself.
    pub name: String,
    /// Which section it belongs to.
    pub kind: NameKind,
    /// File it was found in.
    pub file: String,
    /// Line it was found on.
    pub line: u32,
}

/// The checked-in inventory, parsed (or freshly collected).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Inventory {
    /// Counter/gauge/histogram names.
    pub metrics: BTreeSet<String>,
    /// Span names.
    pub spans: BTreeSet<String>,
    /// Event names.
    pub events: BTreeSet<String>,
    /// Fault-point names.
    pub faults: BTreeSet<String>,
}

impl Inventory {
    /// The section set for `kind`.
    pub fn section(&self, kind: NameKind) -> &BTreeSet<String> {
        match kind {
            NameKind::Metric => &self.metrics,
            NameKind::Span => &self.spans,
            NameKind::Event => &self.events,
            NameKind::Fault => &self.faults,
        }
    }

    fn section_mut(&mut self, kind: NameKind) -> &mut BTreeSet<String> {
        match kind {
            NameKind::Metric => &mut self.metrics,
            NameKind::Span => &mut self.spans,
            NameKind::Event => &mut self.events,
            NameKind::Fault => &mut self.faults,
        }
    }

    /// Builds an inventory holding exactly the collected uses.
    pub fn from_uses(uses: &[NameUse]) -> Inventory {
        let mut inv = Inventory::default();
        for u in uses {
            inv.section_mut(u.kind).insert(u.name.clone());
        }
        inv
    }

    /// Renders the inventory as stable, jq-friendly JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let sections = [
            (NameKind::Metric, &self.metrics),
            (NameKind::Span, &self.spans),
            (NameKind::Event, &self.events),
            (NameKind::Fault, &self.faults),
        ];
        for (idx, (kind, set)) in sections.iter().enumerate() {
            out.push_str(&format!("  \"{}\": [\n", kind.section()));
            for (i, name) in set.iter().enumerate() {
                let comma = if i + 1 < set.len() { "," } else { "" };
                out.push_str(&format!("    \"{name}\"{comma}\n"));
            }
            let comma = if idx + 1 < sections.len() { "," } else { "" };
            out.push_str(&format!("  ]{comma}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Parses the inventory JSON. The format is the fixed four-section
    /// shape `to_json` writes; anything else is a parse error.
    pub fn parse(src: &str) -> Result<Inventory, String> {
        let mut inv = Inventory::default();
        for kind in [
            NameKind::Metric,
            NameKind::Span,
            NameKind::Event,
            NameKind::Fault,
        ] {
            let key = format!("\"{}\"", kind.section());
            let Some(at) = src.find(&key) else {
                return Err(format!(
                    "inventory is missing the \"{}\" section",
                    kind.section()
                ));
            };
            let after = &src[at + key.len()..];
            let Some(open) = after.find('[') else {
                return Err(format!("section \"{}\" has no array", kind.section()));
            };
            let Some(close) = after[open..].find(']') else {
                return Err(format!(
                    "section \"{}\" has no closing bracket",
                    kind.section()
                ));
            };
            let body = &after[open + 1..open + close];
            let set = inv.section_mut(kind);
            for part in body.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                let name = part.trim_matches('"');
                if name.is_empty() || part.len() < 2 || !part.starts_with('"') {
                    return Err(format!(
                        "section \"{}\" holds a non-string entry: `{part}`",
                        kind.section()
                    ));
                }
                set.insert(name.to_string());
            }
        }
        Ok(inv)
    }
}

/// Collects every obs-name registration in one lib/bin file (outside
/// `#[cfg(test)]`), plus any violations for non-literal names.
pub fn collect_obs_uses(
    path: &str,
    kind: &FileKind,
    lexed: &Lexed,
    test_regions: &[(u32, u32)],
    uses: &mut Vec<NameUse>,
    out: &mut Vec<Violation>,
) {
    if !matches!(kind, FileKind::Lib(_) | FileKind::Bin(_)) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let Tok::Ident(id) = &tok.kind else { continue };
        let name_kind = match id.as_str() {
            "counter" | "gauge" | "histogram" => NameKind::Metric,
            "span" => NameKind::Span,
            "event" => NameKind::Event,
            _ => continue,
        };
        if in_regions(test_regions, tok.line) {
            continue;
        }
        if !matches!(toks.get(i + 1).map(|t| &t.kind), Some(Tok::Punct('('))) {
            continue;
        }
        // Skip declarations (`fn span(..)`) and method calls on other
        // types (`.counter(..)` snapshot lookups). A `::`-qualified call
        // only counts when the qualifier is the `obs` module itself.
        if i > 0 {
            match &toks[i - 1].kind {
                Tok::Ident(prev) if prev == "fn" => continue,
                Tok::Punct('.') => continue,
                Tok::Punct(':') => {
                    let qualifier = toks.get(i.wrapping_sub(3)).map(|t| &t.kind);
                    if !matches!(qualifier, Some(Tok::Ident(q)) if q == "obs") {
                        continue;
                    }
                }
                _ => {}
            }
        }
        match toks.get(i + 2).map(|t| &t.kind) {
            Some(Tok::Str(name)) => uses.push(NameUse {
                name: name.clone(),
                kind: name_kind,
                file: path.to_string(),
                line: tok.line,
            }),
            _ => out.push(Violation {
                rule: Rule::NameInventory,
                file: path.to_string(),
                line: tok.line,
                message: format!(
                    "`{id}(..)` name is not a string literal: obs names must be static so the inventory can audit them"
                ),
            }),
        }
    }
}

/// Collects fault-point names from `faults::points` const declarations
/// (`pub const X: &str = "name";` inside `mod points`).
pub fn collect_fault_points(path: &str, lexed: &Lexed, uses: &mut Vec<NameUse>) {
    if !path.ends_with("runtime/src/faults.rs") {
        return;
    }
    let toks = &lexed.tokens;
    // Find `mod points {` and its brace region.
    let mut start = None;
    for i in 0..toks.len() {
        if matches!(&toks[i].kind, Tok::Ident(a) if a == "mod")
            && matches!(toks.get(i + 1).map(|t| &t.kind), Some(Tok::Ident(b)) if b == "points")
        {
            start = Some(i + 2);
            break;
        }
    }
    let Some(mut j) = start else { return };
    // Enter the brace region.
    while j < toks.len() && toks[j].kind != Tok::Punct('{') {
        j += 1;
    }
    let mut depth = 0i32;
    while j < toks.len() {
        match &toks[j].kind {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Ident(id) if id == "const" && depth == 1 => {
                // const NAME: &str = "value";
                let mut k = j + 1;
                while k < toks.len() && toks[k].kind != Tok::Punct('=') {
                    k += 1;
                }
                if let Some(Tok::Str(value)) = toks.get(k + 1).map(|t| &t.kind) {
                    uses.push(NameUse {
                        name: value.clone(),
                        kind: NameKind::Fault,
                        file: path.to_string(),
                        line: toks[j].line,
                    });
                }
                j = k;
            }
            _ => {}
        }
        j += 1;
    }
}

/// Checks collected uses against the checked-in inventory, both ways.
pub fn check_inventory(
    inventory_path: &str,
    inventory_src: Option<&str>,
    uses: &[NameUse],
    out: &mut Vec<Violation>,
) {
    let Some(src) = inventory_src else {
        out.push(Violation {
            rule: Rule::NameInventory,
            file: inventory_path.to_string(),
            line: 1,
            message: format!(
                "missing inventory file `{inventory_path}`; regenerate with `twoview-lint --workspace --write-inventory`"
            ),
        });
        return;
    };
    let inv = match Inventory::parse(src) {
        Ok(inv) => inv,
        Err(err) => {
            out.push(Violation {
                rule: Rule::NameInventory,
                file: inventory_path.to_string(),
                line: 1,
                message: format!("inventory does not parse: {err}"),
            });
            return;
        }
    };
    let used = Inventory::from_uses(uses);
    for u in uses {
        if !inv.section(u.kind).contains(&u.name) {
            out.push(Violation {
                rule: Rule::NameInventory,
                file: u.file.clone(),
                line: u.line,
                message: format!(
                    "{} name \"{}\" is not in {inventory_path}; add it (or `--write-inventory`)",
                    u.kind.section().trim_end_matches('s'),
                    u.name
                ),
            });
        }
    }
    for kind in [
        NameKind::Metric,
        NameKind::Span,
        NameKind::Event,
        NameKind::Fault,
    ] {
        for name in inv.section(kind).difference(used.section(kind)) {
            out.push(Violation {
                rule: Rule::NameInventory,
                file: inventory_path.to_string(),
                line: 1,
                message: format!(
                    "inventoried {} name \"{name}\" is no longer used anywhere in source",
                    kind.section().trim_end_matches('s'),
                ),
            });
        }
    }
}

/// Checks that every JSON key CI greps out of `BENCH_smoke.json` is
/// actually emitted by some source string literal, so a perfsuite key
/// rename cannot silently turn a CI gate into a no-op... the grep would
/// still "pass" structurally but never match again.
pub fn check_ci_greps(
    ci_path: &str,
    ci_src: Option<&str>,
    literals: &[String],
    out: &mut Vec<Violation>,
) {
    let Some(src) = ci_src else { return };
    for (lineno, line) in src.lines().enumerate() {
        if !line.contains("BENCH_smoke.json") || !line.contains("grep") {
            continue;
        }
        for quoted in single_quoted_segments(line) {
            for key in double_quoted_keys(&quoted) {
                let needle = format!("\"{key}\"");
                if !literals.iter().any(|lit| lit.contains(&needle)) {
                    out.push(Violation {
                        rule: Rule::NameInventory,
                        file: ci_path.to_string(),
                        line: (lineno + 1) as u32,
                        message: format!(
                            "CI greps \"{key}\" out of BENCH_smoke.json but no source literal emits that key"
                        ),
                    });
                }
            }
        }
    }
}

/// Segments between single quotes on one shell line.
fn single_quoted_segments(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('\'') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('\'') else { break };
        out.push(after[..close].to_string());
        rest = &after[close + 1..];
    }
    out
}

/// `"key"` occurrences inside a grep pattern.
fn double_quoted_keys(pattern: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = pattern;
    while let Some(open) = rest.find('"') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('"') else { break };
        let key = &after[..close];
        if !key.is_empty()
            && key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        {
            out.push(key.to_string());
        }
        rest = &after[close + 1..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_round_trips_through_json() {
        let mut inv = Inventory::default();
        inv.metrics.insert("engine.fits".to_string());
        inv.spans.insert("job.run".to_string());
        inv.events.insert("job.reject".to_string());
        inv.faults.insert("cache.warm_fail".to_string());
        let parsed = Inventory::parse(&inv.to_json()).expect("round trip");
        assert_eq!(parsed, inv);
    }

    #[test]
    fn grep_keys_extract() {
        let line = r#"          grep -q '"all_identities": true' BENCH_smoke.json"#;
        let segs = single_quoted_segments(line);
        assert_eq!(segs, [r#""all_identities": true"#]);
        assert_eq!(double_quoted_keys(&segs[0]), ["all_identities"]);
    }
}
