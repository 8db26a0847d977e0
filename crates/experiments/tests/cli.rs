//! Smoke tests of the `q100-experiments` binary's error handling: bad
//! flags and unknown experiment names must exit with code 2 and a
//! one-line diagnostic, never a panic or a silent success. Error paths
//! never prepare a workload; the one success-path test uses a trivial
//! scale factor so the suite stays fast in debug builds.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_q100-experiments"))
        .args(args)
        .output()
        .expect("binary must spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_experiment_name_exits_2_with_diagnostic() {
    for name in ["fig99", "fig2", "table9", "frobnicate", "--resilliance", "perf-report"] {
        let (code, _, stderr) = run(&[name]);
        assert_eq!(code, Some(2), "`{name}` must exit 2, stderr: {stderr}");
        assert!(stderr.contains("unknown experiment"), "`{name}` diagnostic: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "one-line diagnostic for `{name}`: {stderr}");
    }
}

#[test]
fn malformed_flag_values_exit_2_with_diagnostic() {
    for (args, needle) in [
        (&["--jobs", "frog", "fig13"][..], "--jobs"),
        (&["--jobs", "0", "fig13"][..], "--jobs"),
        (&["--sf", "tiny", "fig13"][..], "--sf"),
        (&["--seed", "-1", "resilience"][..], "--seed"),
        (&["--sf"][..], "--sf"),
        (&["--sf", "0.0005", "--out", "o.json", "resilience", "serve"][..], "--out"),
    ] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2, stderr: {stderr}");
        assert!(stderr.contains(needle), "{args:?} diagnostic must name the flag: {stderr}");
    }
}

#[test]
fn zero_lookup_runs_print_no_cache_lines() {
    // A bare --metrics dump prepares the workload but never simulates,
    // so every cache counter stays at zero — the per-figure cache lines
    // must be suppressed, not printed as `0 hits / 0 misses`.
    let dir = std::env::temp_dir().join(format!("q100-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json");
    let (code, stdout, stderr) = run(&["--sf", "0.0005", "--metrics", metrics.to_str().unwrap()]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(!stdout.contains("cache:"), "zero-lookup run must print no cache lines, got: {stdout}");
    assert!(metrics.exists());
    // The --trace pass simulates every query, but it is no figure: its
    // cache and jump counters must not leak into the `total` lines.
    let trace = dir.join("trace.json");
    let (code, stdout, stderr) = run(&["--sf", "0.0005", "--trace", trace.to_str().unwrap()]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    for needle in ["cache:", "quantum jumps:"] {
        assert!(!stdout.contains(needle), "trace-only run printed `{needle}`: {stdout}");
    }
    assert!(trace.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_exits_0_and_no_args_exits_1() {
    let (code, stdout, _) = run(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("usage:"));
    assert!(stdout.contains("resilience"));
    assert!(stdout.contains("analyze"));

    let (code, _, stderr) = run(&[]);
    assert_eq!(code, Some(1), "bare invocation keeps the usage exit");
    assert!(stderr.contains("usage:"));
}
