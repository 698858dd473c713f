//! Live-serving benchmark: ingest throughput, query latency as the
//! collection moves through its lifecycle (memtable-only → sealed
//! segments), and compaction duration. Emits machine-readable
//! `BENCH_live.json` for CI artifact upload.
//!
//! This is a custom `harness = false` main (not criterion): the interesting
//! numbers here are lifecycle-stage medians and one-shot maintenance
//! durations, which we time directly and serialize ourselves.

use std::path::PathBuf;
use std::time::Instant;

use ustr_live::{LiveConfig, LiveService};
use ustr_service::{QueryBackend, QueryRequest};
use ustr_uncertain::UncertainString;
use ustr_workload::{generate_collection, DatasetConfig};

const QUERY_ITERS: usize = 30;

fn config(seal_threshold: usize) -> LiveConfig {
    LiveConfig {
        threads: 2,
        cache_capacity: 0, // measure the indexes, not the cache
        tau_min: 0.1,
        epsilon: None,
        seal_threshold,
        compact_min_segments: 0,
    }
}

fn batch() -> Vec<QueryRequest> {
    let mut out = Vec::new();
    for pattern in [&b"ab"[..], b"ba", b"aab"] {
        out.push(QueryRequest::Threshold {
            pattern: pattern.to_vec(),
            tau: 0.3,
        });
        out.push(QueryRequest::TopK {
            pattern: pattern.to_vec(),
            k: 5,
        });
        out.push(QueryRequest::Listing {
            pattern: pattern.to_vec(),
            tau: 0.2,
        });
        out.push(QueryRequest::Approx {
            pattern: pattern.to_vec(),
            tau: 0.3,
        });
    }
    out
}

/// Median over `QUERY_ITERS` evaluations of the mixed-mode batch, in µs.
fn query_p50_us(live: &LiveService) -> f64 {
    let requests = batch();
    let mut times: Vec<f64> = (0..QUERY_ITERS)
        .map(|_| {
            let t0 = Instant::now();
            let results = live.query_requests(&requests);
            assert!(results.iter().all(|r| r.is_ok()), "bench queries answer");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Ingests `docs`, returning (dir-keeping service, ingest seconds).
fn ingest(dir: &PathBuf, docs: &[UncertainString], seal_threshold: usize) -> (LiveService, f64) {
    let live = LiveService::open(dir, config(seal_threshold)).unwrap();
    let t0 = Instant::now();
    for d in docs {
        live.insert(d.clone()).unwrap();
    }
    let ingest_secs = t0.elapsed().as_secs_f64();
    live.wait_idle().unwrap();
    (live, ingest_secs)
}

fn main() {
    // Ignore harness flags (`cargo bench` passes --bench).
    let docs = generate_collection(&DatasetConfig::new(4_000, 0.25, 41));
    let num_docs = docs.len();

    // Stage 1 — memtable only: every document is scan-served; queries must
    // answer without a single index having been built.
    let dir = fresh_dir("ustr_bench_live_memtable");
    let (live, ingest_secs) = ingest(&dir, &docs, 0);
    assert_eq!(
        live.num_segments(),
        0,
        "memtable stage must not build indexes"
    );
    assert_eq!(live.memtable_len(), num_docs);
    let p50_memtable = query_p50_us(&live);
    let ingest_docs_per_sec = num_docs as f64 / ingest_secs;

    // Stage 2 — one sealed segment: flush everything, queries now run
    // against built indexes.
    let t0 = Instant::now();
    live.flush().unwrap();
    let seal_secs = t0.elapsed().as_secs_f64();
    assert_eq!(live.num_segments(), 1);
    let p50_one_segment = query_p50_us(&live);
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);

    // Stage 3 — four sealed segments (the fan-out cost of an unfused
    // lifecycle), then compaction back to one.
    let dir = fresh_dir("ustr_bench_live_segments");
    let (live, _) = ingest(&dir, &docs, num_docs.div_ceil(4));
    live.flush().unwrap();
    let segments_before = live.num_segments();
    assert!(segments_before >= 4, "expected >= 4 segments");
    let p50_four_segments = query_p50_us(&live);
    let t0 = Instant::now();
    live.compact().unwrap();
    live.wait_idle().unwrap();
    let compact_secs = t0.elapsed().as_secs_f64();
    assert_eq!(live.num_segments(), 1, "compaction fused the segments");
    let p50_after_compaction = query_p50_us(&live);
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(
        "{{\n  \"num_docs\": {num_docs},\n  \
         \"ingest_docs_per_sec\": {ingest_docs_per_sec:.1},\n  \
         \"seal_secs\": {seal_secs:.4},\n  \
         \"compact_secs\": {compact_secs:.4},\n  \
         \"segments_before_compaction\": {segments_before},\n  \
         \"query_p50_us\": {{\n    \
         \"memtable_only\": {p50_memtable:.1},\n    \
         \"one_segment\": {p50_one_segment:.1},\n    \
         \"four_segments\": {p50_four_segments:.1},\n    \
         \"after_compaction\": {p50_after_compaction:.1}\n  }}\n}}\n"
    );
    std::fs::write("BENCH_live.json", &json).unwrap();
    println!("{json}");
    println!(
        "wrote BENCH_live.json to {}",
        std::env::current_dir().unwrap().display()
    );
}
