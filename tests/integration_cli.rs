//! Integration tests for the `twoview` command-line interface, driving the
//! real binary end-to-end: generate → stats → fit → score → translate.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_twoview"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("twoview-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn full_cli_pipeline() {
    let data_path = tmp("wine.2v");
    let rules_path = tmp("wine.rules");

    // generate
    let out = bin()
        .args([
            "generate",
            "wine",
            "--rows",
            "178",
            "--out",
            data_path.to_str().unwrap(),
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("178 transactions"), "{stdout}");

    // stats
    let out = bin()
        .args(["stats", data_path.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("|D|"), "{stdout}");
    assert!(stdout.contains("35, 33"), "{stdout}");

    // fit
    let out = bin()
        .args([
            "fit",
            data_path.to_str().unwrap(),
            "--minsup",
            "2",
            "--out",
            rules_path.to_str().unwrap(),
        ])
        .output()
        .expect("run fit");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fitted"), "{stdout}");

    // score
    let out = bin()
        .args([
            "score",
            data_path.to_str().unwrap(),
            rules_path.to_str().unwrap(),
        ])
        .output()
        .expect("run score");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("L%"), "{stdout}");

    // translate
    let out = bin()
        .args([
            "translate",
            data_path.to_str().unwrap(),
            rules_path.to_str().unwrap(),
            "--limit",
            "2",
        ])
        .output()
        .expect("run translate");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("precision"), "{stdout}");

    let _ = std::fs::remove_file(&data_path);
    let _ = std::fs::remove_file(&rules_path);
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn unknown_dataset_fails() {
    let out = bin()
        .args(["generate", "nonexistent"])
        .output()
        .expect("run");
    assert!(!out.status.success());
}

#[test]
fn greedy_and_exact_methods_work() {
    let data_path = tmp("tiny.2v");
    let out = bin()
        .args([
            "generate",
            "wine",
            "--rows",
            "60",
            "--out",
            data_path.to_str().unwrap(),
        ])
        .output()
        .expect("generate");
    assert!(out.status.success());
    for method in ["greedy", "select"] {
        let out = bin()
            .args([
                "fit",
                data_path.to_str().unwrap(),
                "--method",
                method,
                "--minsup",
                "2",
            ])
            .output()
            .expect("fit");
        assert!(
            out.status.success(),
            "{method}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(&data_path);
}

#[test]
fn fit_trace_records_one_parse_span() {
    let data_path = tmp("parse.2v");
    let trace_path = tmp("parse.trace.jsonl");
    let out = bin()
        .args([
            "generate",
            "wine",
            "--rows",
            "60",
            "--out",
            data_path.to_str().unwrap(),
        ])
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = bin()
        .args([
            "fit",
            data_path.to_str().unwrap(),
            "--minsup",
            "2",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("fit");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(&trace_path).expect("read the trace");
    let spans: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains(r#""kind":"span""#) && l.contains(r#""name":"data.parse""#))
        .collect();
    assert_eq!(spans.len(), 1, "{trace}");
    let field = |key: &str| -> u64 {
        let at = spans[0].find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        let digits: String = spans[0][at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("a numeric field")
    };
    assert_eq!(field("rows"), 60, "{}", spans[0]);
    let bytes = std::fs::metadata(&data_path).expect("stat the input").len();
    assert_eq!(field("bytes"), bytes, "{}", spans[0]);
    let _ = std::fs::remove_file(&data_path);
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn fit_refuses_item_names_the_rules_file_cannot_carry() {
    // `.2v` names may hold `#`, `,` and arrows; a rules line may not. Every
    // left item co-occurs with every right one, so SELECT adds a rule over
    // `#a`, `b,c` and `x->y`, which written verbatim reads back as a
    // comment line.
    let data_path = tmp("unwritable.2v");
    let rules_path = tmp("unwritable.rules");
    let rows = "T #a b,c x->y | p q\n".repeat(6);
    std::fs::write(&data_path, format!("#2v1\nL #a b,c x->y\nR p q\n{rows}")).unwrap();
    let out = bin()
        .args([
            "fit",
            data_path.to_str().unwrap(),
            "--method",
            "select",
            "--minsup",
            "1",
            "--out",
            rules_path.to_str().unwrap(),
        ])
        .output()
        .expect("run fit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "fit must fail: {stderr}");
    assert!(
        stderr.contains("cannot be written to a rules file"),
        "{stderr}"
    );
    assert!(!rules_path.exists(), "no rules file is created");
    let _ = std::fs::remove_file(&data_path);
    let _ = std::fs::remove_file(&rules_path);
}

/// Generates a small Wine analogue at `name` for the engine-routed
/// `fit` flags.
fn small_wine(name: &str) -> PathBuf {
    let path = tmp(name);
    let out = bin()
        .args(["generate", "wine", "--rows", "80"])
        .arg("--out")
        .arg(&path)
        .output()
        .expect("generate");
    assert!(out.status.success());
    path
}

/// Runs `fit <data> --minsup 2 --out <rules> <extra…>`.
fn fit_to(data: &std::path::Path, rules: &std::path::Path, extra: &[&str]) -> std::process::Output {
    bin()
        .arg("fit")
        .arg(data)
        .args(["--minsup", "2", "--out"])
        .arg(rules)
        .args(extra)
        .output()
        .expect("run fit")
}

#[test]
fn fit_timeout_bounds_the_engine_job() {
    let data = small_wine("timeout.2v");
    let plain = tmp("timeout.plain.rules");
    let bounded = tmp("timeout.bounded.rules");
    let expired = tmp("timeout.expired.rules");

    let out = fit_to(&data, &plain, &[]);
    assert!(out.status.success());
    let out = fit_to(&data, &bounded, &["--timeout-ms", "600000"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("robustness: degraded 0, timed out 0"),
        "{stdout}"
    );
    assert_eq!(
        std::fs::read(&bounded).unwrap(),
        std::fs::read(&plain).unwrap(),
        "a deadline that does not expire leaves the rules unchanged"
    );

    // A zero deadline has expired by the time the job is dispatched.
    let out = fit_to(&data, &expired, &["--timeout-ms", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("deadline exceeded"), "{stderr}");
    assert!(!expired.exists(), "an expired fit writes no rules");
    for path in [&data, &plain, &bounded] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn fit_snapshot_dir_starts_cold_then_warm_with_identical_rules() {
    let data = small_wine("snap.2v");
    let dir = tmp("snap.dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dir_arg = dir.to_str().unwrap();
    let mut rules = Vec::new();
    for (run, start) in ["cold start", "warm start"].into_iter().enumerate() {
        let path = tmp(&format!("snap.{run}.rules"));
        let out = fit_to(&data, &path, &["--snapshot-dir", dir_arg]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}");
        assert!(stdout.contains(&format!("snapshot: {start}")), "{stdout}");
        rules.push(std::fs::read(&path).unwrap());
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(rules[0], rules[1], "the warm start fits the same rules");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&data);
}

/// `fit` no longer takes a retry count: the searches are deterministic,
/// so a fit that panicked would panic again.
#[test]
fn fit_refuses_the_retries_flag() {
    let flag = ["--", "retries"].concat();
    let out = bin()
        .args(["fit", "data.2v", &flag, "1"])
        .output()
        .expect("run fit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
}
