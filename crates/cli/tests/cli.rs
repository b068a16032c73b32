//! End-to-end tests driving the compiled `hcloud-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hcloud-cli"))
}

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn compare_lists_all_strategies() {
    let out = run_ok(&["compare", "--scale", "0.08", "--minutes", "12"]);
    for s in ["SR", "OdF", "OdM", "HF", "HM", "RA", "QC"] {
        assert!(
            out.lines().any(|l| l.starts_with(&format!("{s} "))),
            "missing {s} row in:\n{out}"
        );
    }
    assert!(out.contains("cost"));
}

#[test]
fn run_prints_summary_and_explain() {
    let out = run_ok(&[
        "run",
        "--strategy",
        "HM",
        "--scale",
        "0.08",
        "--minutes",
        "12",
        "--explain",
    ]);
    assert!(out.contains("HM on High Variability"));
    assert!(out.contains("placement decisions:"));
    assert!(out.contains("mean degradation"));
}

#[test]
fn export_then_run_round_trips() {
    let dir = std::env::temp_dir().join("hcloud_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("scenario.json");
    let path_str = path.to_str().expect("utf-8 path");
    let out = run_ok(&[
        "export",
        "--scenario",
        "low",
        "--scale",
        "0.08",
        "--minutes",
        "12",
        "--out",
        path_str,
    ]);
    assert!(out.contains("wrote"));
    let out = run_ok(&["run", "--scenario-file", path_str, "--strategy", "SR"]);
    assert!(out.contains("SR on Low Variability"), "{out}");
}

#[test]
fn json_summary_is_valid() {
    let dir = std::env::temp_dir().join("hcloud_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("summary.json");
    let path_str = path.to_str().expect("utf-8 path");
    run_ok(&[
        "run",
        "--strategy",
        "HF",
        "--scale",
        "0.08",
        "--minutes",
        "12",
        "--json",
        path_str,
    ]);
    let body = std::fs::read_to_string(&path).expect("json written");
    let v = hcloud_json::parse(&body).expect("valid json");
    assert_eq!(v.get("strategy").and_then(|s| s.as_str()), Some("HF"));
    assert!(
        v.get("mean_normalized_perf")
            .and_then(|p| p.as_f64())
            .expect("float")
            > 0.0
    );
}

#[test]
fn identical_seeds_reproduce_identical_output() {
    let args = [
        "compare",
        "--scale",
        "0.08",
        "--minutes",
        "12",
        "--seed",
        "9",
    ];
    assert_eq!(run_ok(&args), run_ok(&args));
}

#[test]
fn bad_arguments_fail_with_usage() {
    // Argument errors exit 2 and name the offending flag; bad numbers
    // must not panic or run without end.
    let cases: &[&[&str]] = &[
        &["frobnicate"],
        &["run", "--scale", "0"],
        &["run", "--scale", "-1"],
        &["run", "--scale", "nan"],
        &["run", "--scale", "inf"],
        &["compare", "--scale", "0"],
        &["run", "--spot", "0"],
        &["run", "--spot", "nan"],
    ];
    for args in cases {
        let out = cli().args(*args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "{args:?}: {err}");
        let named = if args.len() > 1 { args[1] } else { args[0] };
        assert!(err.contains(named), "{args:?}: {err}");
    }
}

#[test]
fn sweep_runs_every_knob() {
    for knob in ["spinup", "external", "retention", "sensitive"] {
        let out = run_ok(&[
            "sweep",
            "--knob",
            knob,
            "--scale",
            "0.06",
            "--minutes",
            "10",
        ]);
        assert!(out.contains("sweeping"), "{knob}: {out}");
    }
}

#[test]
fn advise_recommends_a_strategy() {
    let out = run_ok(&[
        "advise",
        "--scale",
        "0.08",
        "--minutes",
        "12",
        "--weeks",
        "4",
        "--perf-floor",
        "0.5",
    ]);
    assert!(out.contains("recommendation:"), "{out}");
    // A 4-week deployment should never pay for a 1-year reservation.
    assert!(!out.contains("recommendation: SR"), "{out}");
}

#[test]
fn validate_rejects_deeply_nested_json_with_exit_2() {
    // Deep enough to overflow the stack of an unbounded recursive parser.
    let dir = std::env::temp_dir().join("hcloud_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("deep.json");
    let depth = 300_000;
    std::fs::write(&path, "[".repeat(depth) + &"]".repeat(depth)).expect("write");
    let out = cli()
        .args(["validate", "--file", path.to_str().expect("utf-8 path")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("nest deeper than"), "{err}");
}
