//! End-to-end smoke tests of the `figures` and `replay` binaries:
//! argument handling, output structure, JSON emission, and error paths.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn figures_fig1_prints_the_trend_table() {
    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_figures"), &["fig1"]);
    assert!(ok);
    assert!(stdout.contains("Figure 1"));
    assert!(stdout.contains("fitted growth"));
    assert!(stdout.contains("1.58x/yr") || stdout.contains("capacity"));
}

#[test]
fn figures_fig3_small_scale_and_json() {
    let json_path = std::env::temp_dir().join("csar_fig3_smoke.json");
    let json_str = json_path.to_str().unwrap();
    let (ok, stdout, _) = run(
        env!("CARGO_BIN_EXE_figures"),
        &["fig3", "--scale", "0.05", "--json", json_str],
    );
    assert!(ok);
    assert!(stdout.contains("locking overhead"));
    let body = std::fs::read_to_string(&json_path).unwrap();
    let doc = csar_store::Json::parse(&body).unwrap();
    assert!(doc.get("results").get("fig3").is_array());
    assert_eq!(doc.get("scale").as_f64(), Some(0.05));
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn figures_rejects_bad_flags() {
    let (ok, _, stderr) = run(env!("CARGO_BIN_EXE_figures"), &["fig3", "--scale"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    // The suite is named, never guessed from the output path: an
    // unknown suite is a usage error even when the path names a real one.
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--bench-json", "nosuch", "BENCH_obs.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --bench-json suite `nosuch`"));
    // A suite without a path is a usage error too.
    let (ok, _, stderr) = run(env!("CARGO_BIN_EXE_figures"), &["--bench-json", "datapath"]);
    assert!(!ok);
    assert!(stderr.contains("missing path for --bench-json"));
}

#[test]
fn replay_demo_prints_all_schemes() {
    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_replay"), &["--demo"]);
    assert!(ok, "{stdout}");
    for scheme in ["RAID0", "RAID1", "RAID5", "Hybrid"] {
        assert!(stdout.contains(scheme), "missing {scheme} in:\n{stdout}");
    }
    assert!(stdout.contains("3 phase(s)"));
}

#[test]
fn replay_parses_a_trace_file_and_honours_flags() {
    let path = std::env::temp_dir().join("csar_replay_smoke.trace");
    std::fs::write(&path, "0,write,0,2m\n1,write,2m,2m\nbarrier\n0,read,0,1m\n").unwrap();
    let (ok, stdout, _) = run(
        env!("CARGO_BIN_EXE_replay"),
        &[path.to_str().unwrap(), "--servers", "4", "--unit", "16384", "--profile", "p3"],
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("4 servers, 16384 B stripe unit"));
    assert!(stdout.contains("4.0 MB written"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_reports_trace_errors_with_line_numbers() {
    let path = std::env::temp_dir().join("csar_replay_bad.trace");
    std::fs::write(&path, "0,write,0,1k\nbogus line\n").unwrap();
    let (ok, _, stderr) = run(env!("CARGO_BIN_EXE_replay"), &[path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_missing_file_is_a_clean_error() {
    let (ok, _, stderr) = run(env!("CARGO_BIN_EXE_replay"), &["/nonexistent/trace.csv"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}
