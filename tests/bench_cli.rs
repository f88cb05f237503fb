//! `pwsched bench` wiring: the CLI runs a bench through the shared
//! harness and gates it against the committed baseline.

use std::process::Command;

use pipeline_workflows::experiments::bench::Json;

#[test]
fn bench_tenant_quick_check_passes_against_the_committed_baseline() {
    let out = Command::new(env!("CARGO_BIN_EXE_pwsched"))
        .args(["bench", "tenant", "--quick", "--check"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("pwsched runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("ok: quality["), "{stderr}");
    let json = Json::parse(&String::from_utf8(out.stdout).expect("utf-8")).expect("JSON");
    assert_eq!(json.get("bench").and_then(Json::text), Some("tenant"));
}

#[test]
fn bench_rejects_an_unknown_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_pwsched"))
        .args(["bench", "nope"])
        .output()
        .expect("pwsched runs");
    assert_eq!(out.status.code(), Some(2));
}
