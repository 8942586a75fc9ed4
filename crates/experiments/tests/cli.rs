//! Exit-code contract of the `repro` binary: bad invocations fail fast
//! with the usage string on stderr and a non-zero status; good ones
//! exit zero. Driven through the real binary (`CARGO_BIN_EXE_repro`),
//! not a parser unit test, so the `main` wiring is covered too.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = repro(&[]);
    assert!(!out.status.success(), "bare invocation must fail");
    assert!(
        stderr(&out).contains("usage: repro"),
        "stderr must carry the usage string, got: {}",
        stderr(&out)
    );
}

#[test]
fn unknown_subcommand_prints_usage_and_fails() {
    let out = repro(&["fig99"]);
    assert!(!out.status.success(), "unknown subcommand must fail");
    let err = stderr(&out);
    assert!(err.contains("unknown command fig99"), "got: {err}");
    assert!(err.contains("usage: repro"), "got: {err}");
}

#[test]
fn unknown_flag_prints_usage_and_fails() {
    let out = repro(&["fig1", "--frobnicate"]);
    assert!(!out.status.success(), "unknown flag must fail");
    let err = stderr(&out);
    assert!(err.contains("unknown flag --frobnicate"), "got: {err}");
    assert!(err.contains("usage: repro"), "got: {err}");
}

#[test]
fn flag_missing_its_value_fails() {
    let out = repro(&["fig1", "--nodes"]);
    assert!(!out.status.success(), "dangling --nodes must fail");
    assert!(stderr(&out).contains("--nodes needs a value"));
}

#[test]
fn unparsable_flag_value_fails() {
    let out = repro(&["fig1", "--rounds", "many"]);
    assert!(!out.status.success(), "non-numeric --rounds must fail");
}

#[test]
fn zero_checkpoint_interval_is_rejected() {
    let out = repro(&["resume", "--checkpoint-every", "0"]);
    assert!(!out.status.success(), "--checkpoint-every 0 must fail");
    assert!(stderr(&out).contains("--checkpoint-every must be positive"));
}

#[test]
fn corrupt_snapshot_is_a_structured_error_not_a_panic() {
    let dir = std::env::temp_dir().join("repro-cli-corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.prgs");
    std::fs::write(&path, b"not a snapshot at all").unwrap();
    let out = repro(&["resume", "--quick", "--from", path.to_str().unwrap()]);
    assert!(!out.status.success(), "corrupt snapshot must fail");
    let err = stderr(&out);
    assert!(
        err.contains("bad magic"),
        "must name the structured snapshot error, got: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "must not panic on corrupt input, got: {err}"
    );
}

#[test]
fn valid_quick_command_exits_zero() {
    let out = repro(&["fig1", "--quick", "--nodes", "40"]);
    assert!(
        out.status.success(),
        "fig1 --quick must succeed, stderr: {}",
        stderr(&out)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Figure 1"));
}

#[test]
fn quick_resume_roundtrip_exits_zero() {
    let out = repro(&[
        "resume", "--quick", "--nodes", "50", "--rounds", "8", "--blocks", "4",
    ]);
    assert!(
        out.status.success(),
        "resume --quick must succeed, stderr: {}",
        stderr(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bit-identical"), "got: {stdout}");
}

#[test]
fn single_round_scale_skips_the_ablation_and_exits_zero() {
    // The dense-vs-sketch ablation measures learning from round 0 to the
    // last round, so a one-round sweep has nothing to compare.
    let dir = std::env::temp_dir().join("repro-cli-scale-one-round");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = repro(&[
        "scale",
        "--nodes",
        "40",
        "--rounds",
        "1",
        "--blocks",
        "4",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "scale --rounds 1 must succeed, stderr: {}",
        stderr(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ablation skipped"), "got: {stdout}");
    assert!(dir.join("scale.csv").exists());
    assert!(!dir.join("scale_backends.csv").exists());
}

#[test]
fn failed_csv_write_exits_nonzero() {
    // Point --out at a regular file: every CSV write inside must fail,
    // and a failed artifact write is a failed command (satellite of the
    // observability PR: no more swallowed `[csv write failed]`).
    let dir = std::env::temp_dir().join("repro-cli-csvfail");
    std::fs::create_dir_all(&dir).unwrap();
    let not_a_dir = dir.join("file-not-dir");
    std::fs::write(&not_a_dir, b"occupied").unwrap();
    let out = repro(&[
        "fig1",
        "--quick",
        "--nodes",
        "40",
        "--out",
        not_a_dir.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "failed csv write must exit nonzero");
    assert!(
        stderr(&out).contains("csv write"),
        "stderr must name the failed write, got: {}",
        stderr(&out)
    );
}

#[test]
fn trace_flag_writes_parseable_jsonl_and_trace_summarizes_it() {
    let dir = std::env::temp_dir().join("repro-cli-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.jsonl");
    let out = repro(&[
        "convergence",
        "--quick",
        "--nodes",
        "60",
        "--rounds",
        "3",
        "--blocks",
        "5",
        "--seeds",
        "7",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "traced convergence must succeed, stderr: {}",
        stderr(&out)
    );
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let mut rounds = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let value = perigee_telemetry::JsonValue::parse(line).expect("every line parses");
        let rec = perigee_telemetry::TraceRecord::from_json(&value).expect("record shape");
        if rec.kind == "round" {
            rounds += 1;
            assert!(!rec.phases_s.is_empty(), "round records carry phases");
            assert!(
                rec.get_counter("blocks").is_some(),
                "round records carry the block count"
            );
        }
    }
    assert_eq!(rounds, 3, "one record per engine round");

    let out = repro(&["trace", trace.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "trace summary must succeed, stderr: {}",
        stderr(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Trace summary"), "got: {stdout}");
    assert!(stdout.contains("propagation"), "got: {stdout}");
}

/// Reads the `total_s` cell of `phase`'s row from a rendered phase table.
fn phase_seconds(table: &str, phase: &str) -> Option<f64> {
    table.lines().find_map(|line| {
        let mut cells = line.split_whitespace();
        (cells.next() == Some(phase)).then(|| cells.next()?.parse().ok())?
    })
}

/// A command's lap spans the engine rounds it ran, so `repro trace`
/// must keep the two apart: summed engine phases never exceed the
/// command's wall time, and the `traffic` command does not merge into
/// the engine's `traffic` phase.
#[test]
fn trace_summary_keeps_command_time_apart_from_engine_phases() {
    let dir = std::env::temp_dir().join("repro-cli-trace-traffic");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("traffic.jsonl");
    let out = repro(&[
        "traffic",
        "--quick",
        "--nodes",
        "40",
        "--rounds",
        "2",
        "--blocks",
        "4",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "traced traffic must succeed, stderr: {}",
        stderr(&out)
    );
    let out = repro(&["trace", trace.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "trace summary must succeed, stderr: {}",
        stderr(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (engine, commands) = stdout
        .split_once("command phases")
        .unwrap_or_else(|| panic!("command phases are listed apart, got: {stdout}"));
    let engine_total = phase_seconds(engine, "total").expect("engine total row");
    let engine_traffic = phase_seconds(engine, "traffic").expect("engine traffic phase");
    let command_wall = phase_seconds(commands, "cmd/traffic").expect("cmd/traffic row");
    assert!(engine_traffic > 0.0, "got: {stdout}");
    assert!(
        engine_total <= command_wall,
        "engine phases ({engine_total} s) exceed the command's wall time ({command_wall} s): {stdout}"
    );
}

#[test]
fn trace_without_a_file_fails() {
    let out = repro(&["trace"]);
    assert!(!out.status.success(), "bare trace must fail");
    assert!(stderr(&out).contains("trace needs a file"));
}

#[test]
fn unopenable_trace_output_fails_fast() {
    let out = repro(&[
        "fig1",
        "--quick",
        "--nodes",
        "40",
        "--trace",
        "/definitely/not/a/dir/run.jsonl",
    ]);
    assert!(!out.status.success(), "unopenable --trace must fail");
    assert!(stderr(&out).contains("cannot open trace output"));
}
