//! Fixture-based self-tests: one positive and one negative case per
//! rule, the allow-directive syntax, the inventory round trip, and the
//! two acceptance proofs over the real workspace (deleting a SAFETY
//! comment or renaming an obs metric must flip the lint to failing).
//!
//! Fixtures are plain strings — the linter is token-level, so they do
//! not need to compile.

use twoview_lint::names::Inventory;
use twoview_lint::report::{Report, Rule};
use twoview_lint::{collect_inventory, lint, LintInput, SourceFile};

/// A lint input whose inventory is present-but-empty, so fixtures that
/// register no names stay clean on the `name_inventory` rule.
fn fixture_input(files: Vec<SourceFile>) -> LintInput {
    LintInput {
        files,
        inventory: Some(Inventory::default().to_json()),
        ci_yaml: None,
    }
}

fn run(path: &str, content: &str) -> Report {
    lint(&fixture_input(vec![SourceFile::new(path, content)]))
}

fn count(report: &Report, rule: Rule) -> usize {
    report.violations.iter().filter(|v| v.rule == rule).count()
}

// --- determinism -----------------------------------------------------

#[test]
fn determinism_flags_hash_containers_and_wall_clock() {
    let report = run(
        "crates/core/src/fix.rs",
        "use std::collections::HashMap;\n\
         pub fn f() {\n\
             let t = std::time::Instant::now();\n\
             let _ = (t, HashSet::<u32>::new());\n\
         }\n",
    );
    assert_eq!(count(&report, Rule::Determinism), 3);
}

#[test]
fn determinism_flags_partial_cmp_unwrap_but_not_total_cmp() {
    let bad = run(
        "crates/mining/src/fix.rs",
        "pub fn f(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }\n",
    );
    assert_eq!(count(&bad, Rule::Determinism), 1);
    let good = run(
        "crates/mining/src/fix.rs",
        "pub fn f(a: f64, b: f64) { a.total_cmp(&b); }\n",
    );
    assert!(good.is_clean(), "{:?}", good.violations);
}

#[test]
fn determinism_is_scoped_to_the_model_crates() {
    let report = run(
        "crates/eval/src/fix.rs",
        "use std::collections::HashMap;\n\
         pub fn f() { let _ = std::time::Instant::now(); }\n",
    );
    assert_eq!(count(&report, Rule::Determinism), 0);
}

#[test]
fn determinism_ignores_strings_comments_and_test_regions() {
    let report = run(
        "crates/data/src/fix.rs",
        "//! A HashMap mentioned in prose is fine.\n\
         pub const DOC: &str = \"replaced the HashMap with a BTreeMap\";\n\
         #[cfg(test)]\n\
         mod tests {\n\
             use std::collections::HashMap;\n\
             fn t() { let _m: HashMap<u32, u32> = HashMap::new(); }\n\
         }\n",
    );
    assert_eq!(
        count(&report, Rule::Determinism),
        0,
        "{:?}",
        report.violations
    );
}

#[test]
fn determinism_timing_designated_file_may_read_the_clock() {
    let report = run(
        "crates/core/src/fix.rs",
        "// lint: timing-designated — stats module, timing never feeds the model\n\
         pub fn f() { let _ = std::time::Instant::now(); }\n",
    );
    assert_eq!(
        count(&report, Rule::Determinism),
        0,
        "{:?}",
        report.violations
    );
}

// --- lock_discipline -------------------------------------------------

#[test]
fn lock_discipline_flags_raw_primitives_outside_runtime() {
    let report = run(
        "crates/core/src/fix.rs",
        "use std::sync::{Condvar, Mutex};\n\
         pub struct S { m: RwLock<u32> }\n",
    );
    assert_eq!(count(&report, Rule::LockDiscipline), 3);
}

#[test]
fn lock_discipline_flags_poison_blind_locking_everywhere() {
    // Even inside the runtime crate (where raw primitives are allowed),
    // `.lock().unwrap()` is the banned poison-blind pattern.
    let report = run(
        "crates/runtime/src/fix.rs",
        "pub fn f() { shared.queue.lock().unwrap().pop(); }\n",
    );
    assert_eq!(count(&report, Rule::LockDiscipline), 1);
}

#[test]
fn lock_discipline_exempts_the_sync_module_and_tolerant_wrappers() {
    let sync = run(
        "crates/runtime/src/sync.rs",
        "use std::sync::{Condvar, Mutex};\n\
         pub fn f(m: &Mutex<u32>) { let _ = m.lock(); }\n",
    );
    assert_eq!(count(&sync, Rule::LockDiscipline), 0);
    let wrapper = run(
        "crates/core/src/fix.rs",
        "use twoview_runtime::sync::TolerantMutex;\n\
         pub fn f(m: &TolerantMutex<u32>) { let _ = m.lock(); }\n",
    );
    assert_eq!(
        count(&wrapper, Rule::LockDiscipline),
        0,
        "{:?}",
        wrapper.violations
    );
}

// --- unsafe_audit ----------------------------------------------------

#[test]
fn unsafe_audit_requires_a_safety_rationale() {
    let bare = run(
        "crates/data/src/fix.rs",
        "pub fn f(p: *const u32) -> u32 {\n\
             unsafe { *p }\n\
         }\n",
    );
    assert_eq!(count(&bare, Rule::UnsafeAudit), 1);

    let documented = run(
        "crates/data/src/fix.rs",
        "pub fn f(p: *const u32) -> u32 {\n\
             // SAFETY: the caller hands a valid, aligned pointer.\n\
             unsafe { *p }\n\
         }\n",
    );
    assert_eq!(count(&documented, Rule::UnsafeAudit), 0);
}

#[test]
fn unsafe_audit_blank_line_breaks_the_rationale_run() {
    let report = run(
        "crates/data/src/fix.rs",
        "pub fn f(p: *const u32) -> u32 {\n\
             // SAFETY: too far away to count.\n\
             \n\
             unsafe { *p }\n\
         }\n",
    );
    assert_eq!(count(&report, Rule::UnsafeAudit), 1);
}

#[test]
fn unsafe_audit_applies_inside_tests_too() {
    let report = run(
        "crates/data/src/fix.rs",
        "#[cfg(test)]\n\
         mod tests {\n\
             fn t(p: *const u32) -> u32 { unsafe { *p } }\n\
         }\n",
    );
    assert_eq!(count(&report, Rule::UnsafeAudit), 1);
}

#[test]
fn boundary_attribute_matches_the_unsafe_surface() {
    // A safe crate without the forbid stamp: flagged at its lib root.
    let unstamped = run("crates/core/src/lib.rs", "pub mod fix;\n");
    assert_eq!(count(&unstamped, Rule::UnsafeAudit), 1);

    let stamped = run(
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\npub mod fix;\n",
    );
    assert_eq!(count(&stamped, Rule::UnsafeAudit), 0);

    // A crate holding `unsafe` must deny unsafe_op_in_unsafe_fn instead;
    // forbid(unsafe_code) alone no longer matches its surface.
    let mixed = lint(&fixture_input(vec![
        SourceFile::new(
            "crates/data/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod kern;\n",
        ),
        SourceFile::new(
            "crates/data/src/kern.rs",
            "pub fn f(p: *const u32) -> u32 {\n\
                 // SAFETY: caller contract.\n\
                 unsafe { *p }\n\
             }\n",
        ),
    ]));
    assert_eq!(count(&mixed, Rule::UnsafeAudit), 1);

    let denied = lint(&fixture_input(vec![
        SourceFile::new(
            "crates/data/src/lib.rs",
            "#![deny(unsafe_op_in_unsafe_fn)]\npub mod kern;\n",
        ),
        SourceFile::new(
            "crates/data/src/kern.rs",
            "pub fn f(p: *const u32) -> u32 {\n\
                 // SAFETY: caller contract.\n\
                 unsafe { *p }\n\
             }\n",
        ),
    ]));
    assert_eq!(
        count(&denied, Rule::UnsafeAudit),
        0,
        "{:?}",
        denied.violations
    );
}

// --- panic_hygiene ---------------------------------------------------

#[test]
fn panic_hygiene_flags_library_unwraps_only() {
    let lib = run(
        "crates/core/src/fix.rs",
        "pub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }\n",
    );
    assert_eq!(count(&lib, Rule::PanicHygiene), 1);

    // Bins and test regions may panic freely.
    let bin = run(
        "crates/eval/src/bin/fix.rs",
        "#![forbid(unsafe_code)]\n\
         fn main() { std::env::args().next().unwrap(); }\n",
    );
    assert_eq!(count(&bin, Rule::PanicHygiene), 0);
    let test = run(
        "crates/core/src/fix.rs",
        "#[cfg(test)]\n\
         mod tests {\n\
             fn t(v: &[u32]) { v.first().unwrap(); }\n\
         }\n",
    );
    assert_eq!(count(&test, Rule::PanicHygiene), 0);
}

// --- allow directives ------------------------------------------------

#[test]
fn allow_with_reason_suppresses_and_is_recorded() {
    let report = run(
        "crates/core/src/fix.rs",
        "pub fn f(v: &[u32]) -> u32 {\n\
             // lint: allow(panic_hygiene) — fixture invariant: v is non-empty\n\
             *v.first().unwrap()\n\
         }\n",
    );
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "panic_hygiene");
    assert_eq!(report.allows[0].reason, "fixture invariant: v is non-empty");
}

#[test]
fn allow_without_reason_is_a_violation() {
    let report = run(
        "crates/core/src/fix.rs",
        "pub fn f(v: &[u32]) -> u32 {\n\
             // lint: allow(panic_hygiene)\n\
             *v.first().unwrap()\n\
         }\n",
    );
    // The unwrap is suppressed, but the reason-less directive is flagged.
    assert_eq!(count(&report, Rule::PanicHygiene), 0);
    assert_eq!(count(&report, Rule::Allowlist), 1);
}

#[test]
fn allow_naming_an_unknown_rule_is_a_violation() {
    let report = run(
        "crates/core/src/fix.rs",
        "// lint: allow(speling) — not a rule\n\
         pub fn f() {}\n",
    );
    assert_eq!(count(&report, Rule::Allowlist), 1);
}

#[test]
fn stale_allow_is_a_violation() {
    let report = run(
        "crates/core/src/fix.rs",
        "// lint: allow(panic_hygiene) — nothing here panics any more\n\
         pub fn f() {}\n",
    );
    assert_eq!(count(&report, Rule::Allowlist), 1);
    assert!(report.violations[0].message.contains("stale"));
}

#[test]
fn allow_only_covers_its_own_line() {
    // The directive sits above line 3; the unwrap on line 5 stays flagged
    // (and the allow itself therefore reads stale).
    let report = run(
        "crates/core/src/fix.rs",
        "pub fn f(v: &[u32]) -> u32 {\n\
             // lint: allow(panic_hygiene) — covers the next line only\n\
             let a = *v.first().unwrap();\n\
             let b: u32 = 1;\n\
             a + b + *v.last().unwrap()\n\
         }\n",
    );
    assert_eq!(count(&report, Rule::PanicHygiene), 1);
    assert_eq!(report.violations[0].line, 5);
}

// --- name inventory --------------------------------------------------

fn obs_fixture() -> SourceFile {
    SourceFile::new(
        "crates/core/src/fix.rs",
        "pub fn f() {\n\
             obs::counter(\"fix.calls\").incr();\n\
             let _s = obs::span(\"fix.run\");\n\
             obs::event(\"fix.done\");\n\
         }\n",
    )
}

#[test]
fn inventory_round_trips_from_source() {
    let mut input = fixture_input(vec![obs_fixture()]);
    let collected = collect_inventory(&input);
    assert!(collected.metrics.contains("fix.calls"));
    assert!(collected.spans.contains("fix.run"));
    assert!(collected.events.contains("fix.done"));

    input.inventory = Some(collected.to_json());
    let report = lint(&input);
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn inventory_drift_is_flagged_both_ways() {
    let mut input = fixture_input(vec![obs_fixture()]);
    let mut collected = collect_inventory(&input);
    // Simulate a rename that only reached the inventory.
    collected.metrics.remove("fix.calls");
    collected.metrics.insert("fix.invocations".to_string());
    input.inventory = Some(collected.to_json());

    let report = lint(&input);
    // One side: source uses an uninventoried name; other side: the
    // inventory lists a name no longer emitted.
    assert_eq!(
        count(&report, Rule::NameInventory),
        2,
        "{:?}",
        report.violations
    );
}

#[test]
fn missing_inventory_file_is_a_violation() {
    let mut input = fixture_input(vec![obs_fixture()]);
    input.inventory = None;
    let report = lint(&input);
    assert_eq!(count(&report, Rule::NameInventory), 1);
    assert!(report.violations[0].message.contains("missing inventory"));
}

#[test]
fn non_literal_obs_name_is_a_violation() {
    let report = run(
        "crates/core/src/fix.rs",
        "pub fn f(name: &str) { obs::counter(name).incr(); }\n",
    );
    assert_eq!(count(&report, Rule::NameInventory), 1);
}

#[test]
fn ci_grep_keys_must_exist_in_source_literals() {
    let emitter = SourceFile::new(
        "crates/bench/src/fix.rs",
        "pub fn j() -> String { format!(\"{{\\\"some_key\\\": {}}}\", 1) }\n",
    );
    let grep = |key: &str| format!("      - run: grep -q '\"{key}\": true' BENCH_smoke.json\n");

    let mut input = fixture_input(vec![emitter.clone()]);
    input.ci_yaml = Some(grep("some_key"));
    assert!(lint(&input).is_clean(), "{:?}", lint(&input).violations);

    let mut input = fixture_input(vec![emitter]);
    input.ci_yaml = Some(grep("renamed_key"));
    let report = lint(&input);
    assert_eq!(
        count(&report, Rule::NameInventory),
        1,
        "{:?}",
        report.violations
    );
}

// --- acceptance proofs over the real workspace -----------------------

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn walk(root: &std::path::Path, dir: &std::path::Path, out: &mut Vec<String>) {
    const SKIP: [&str; 4] = ["target", "vendor", ".git", "node_modules"];
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().to_string();
        if path.is_dir() {
            if SKIP.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out);
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).expect("under root");
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

fn real_workspace_input() -> LintInput {
    let root = workspace_root();
    let mut rels = Vec::new();
    walk(&root, &root, &mut rels);
    rels.sort();
    let files = rels
        .into_iter()
        .map(|rel| {
            let content = std::fs::read_to_string(root.join(&rel)).expect("readable source");
            SourceFile::new(rel, content)
        })
        .collect();
    LintInput {
        files,
        inventory: std::fs::read_to_string(root.join(twoview_lint::INVENTORY_PATH)).ok(),
        ci_yaml: std::fs::read_to_string(root.join(twoview_lint::CI_PATH)).ok(),
    }
}

#[test]
fn the_workspace_itself_is_clean() {
    let report = lint(&real_workspace_input());
    assert!(
        report.is_clean(),
        "workspace lint regressions: {:?}",
        report.violations
    );
    // Every recorded allow carries a written reason.
    for allow in &report.allows {
        assert!(!allow.reason.is_empty(), "reason-less allow: {allow:?}");
    }
}

#[test]
fn deleting_any_safety_comment_fails_the_lint() {
    let mut input = real_workspace_input();
    let file = input
        .files
        .iter_mut()
        .find(|f| f.path == "crates/runtime/src/pool.rs")
        .expect("pool.rs present");
    let before = file.content.lines().count();
    file.content = file
        .content
        .lines()
        .filter(|l| !l.contains("SAFETY:"))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        file.content.lines().count() < before,
        "fixture removed nothing"
    );
    let report = lint(&input);
    assert!(count(&report, Rule::UnsafeAudit) > 0);
}

#[test]
fn renaming_any_obs_metric_fails_the_lint() {
    let mut input = real_workspace_input();
    let needle = "\"select.iterations\"";
    // The registering file lives in a member crate; the benchmark package
    // only reads the name back.
    let file = input
        .files
        .iter_mut()
        .find(|f| {
            f.content.contains(needle) && f.path.starts_with("crates/") && f.path.ends_with(".rs")
        })
        .expect("a file registers select.iterations");
    file.content = file.content.replace(needle, "\"select.loop_count\"");
    let report = lint(&input);
    assert!(
        count(&report, Rule::NameInventory) >= 2,
        "{:?}",
        report.violations
    );
}
