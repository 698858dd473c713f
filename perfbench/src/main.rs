//! The repository benchmark: one seeded workload served end to end over
//! loopback TCP, with answers checked against the `ustr-baseline` oracle.
//!
//! ```text
//! perfbench --workload <protein_listing|dna_substring|live_ingest>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the client
//! timing the server; `--trace 1` is a separate run that replays a fixed
//! request sequence through each layer and reports the per-layer metrics.
//! Every metric measured is printed on its own line; the last line is the
//! result object. See `README.md` beside this file for the workloads and
//! what each layer metric is predicted to move.

mod gen;
mod layers;
mod live_wl;
mod measure;
mod oracle;
mod report;
mod static_wl;

use std::path::PathBuf;

use gen::Workload;
use report::Report;

/// The end-to-end metrics a `--trace 0` result carries.
const END_TO_END: &[&str] = &[
    "setup_s",
    "query_p50_us",
    "query_p90_us",
    "query_rps",
    "rss_mb",
    "disk_bytes_per_pos",
];

/// The per-layer metrics a `--trace 1` result carries.
const PER_LAYER: &[&str] = &[
    "net.self_us",
    "net.bytes_out_per_req",
    "net.wakeups_per_req",
    "net.ready_events_per_req",
    "service.self_us",
    "service.cache_hit_ratio",
    "service.segments_per_query",
    "core.self_us",
    "core.calls_per_req",
    "core.build_s",
    "core.heap_bytes_per_pos",
    "uncertain.kernel_us",
    "uncertain.candidates_per_req",
    "uncertain.verified_ratio",
    "store.load_s",
    "store.fsyncs_per_insert",
    "store.bytes_written_per_insert",
    "live.seals",
    "live.compactions",
    "unattributed_us",
    "trace.rtt_mean_us",
    "trace.overhead_pct",
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Oracle-checked requests per run.
pub const ORACLE_SAMPLE: usize = 200;

/// Parsed command line.
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for snapshots and live collections.
    pub work: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let work = PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()));
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        work,
    })
}

/// `nproc`, CPU model, `rustc -V` and kernel, as one JSON object.
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {cpu:?}, \"rustc\": {rustc:?}, \"kernel\": {kernel:?}}}"
    )
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <protein_listing|dna_substring|live_ingest> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!("host {}", host_fingerprint());
    let _ = std::fs::remove_dir_all(&opts.work);
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        eprintln!("error: cannot create {}: {e}", opts.work.display());
        std::process::exit(1);
    }
    let mut report = Report::default();
    let outcome = match opts.workload {
        Workload::LiveIngest => live_wl::run(&opts, &mut report),
        w => static_wl::run(w, &opts, &mut report),
    };
    let _ = std::fs::remove_dir_all(&opts.work);
    let _ = std::fs::remove_dir(".perfbench_work");
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    report.print(if opts.trace { PER_LAYER } else { END_TO_END });
}
