//! Work counters that do not depend on timing repeat exactly: two traced
//! runs of each workload with one seed must report them bit for bit.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// Counters that must repeat exactly across runs with the same seed.
const EXACT: &[&str] = &[
    "uncertain.candidates_per_req",
    "service.cache_hit_ratio",
    "core.calls_per_req",
    "net.bytes_out_per_req",
    "store.fsyncs_per_insert",
    "live.seals",
];

/// Runs one traced benchmark and returns its `metric` lines by name.
fn traced_run(workload: &str, dir: &str) -> BTreeMap<String, String> {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .current_dir(&cwd)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        last.contains("\"correct\": true"),
        "{workload} is not correct:\n{stdout}"
    );
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let mut parts = l.split_whitespace();
            (
                parts.next().unwrap().to_string(),
                parts.next().unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn exact_counters_repeat_across_runs() {
    for workload in ["protein_listing", "dna_substring", "live_ingest"] {
        let a = traced_run(workload, &format!("{workload}-a"));
        let b = traced_run(workload, &format!("{workload}-b"));
        let mut names = EXACT.to_vec();
        if workload != "live_ingest" {
            names.push("disk_bytes_per_pos");
        }
        for name in names {
            assert!(a.contains_key(name), "{workload} does not report {name}");
            assert_eq!(a[name], b[name], "{workload}: {name} differs between runs");
        }
    }
}
