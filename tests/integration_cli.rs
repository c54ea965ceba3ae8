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
