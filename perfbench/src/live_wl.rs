//! The `live_ingest` workload: a fresh live collection (shipped
//! `LiveConfig`) taking inserts at a fixed rate on one thread while one
//! TCP connection queries it in a closed loop.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ustr_baseline::ScanIndex;
use ustr_core::Index;
use ustr_live::{LiveConfig, LiveService, LOCK_FILE, MANIFEST_FILE};
use ustr_service::DocExecutor;
use ustr_store::{wal, RealIo, StoreIo};
use ustr_uncertain::UncertainString;

use crate::gen::{LiveSpec, LIVE_INSERT_RATE};
use crate::layers::{inner_pass, net_pair, Served};
use crate::measure::{disk_bytes, median, rss_mb, thread_io, CountingIo, Samples, Sliced};
use crate::oracle::Corpus;
use crate::report::Report;
use crate::static_wl::{
    check_answers, decode, heap_bytes, oracle_sample, put_latency, put_layers, SLICE, WARMUP,
};
use crate::{Opts, SETUP_REPS};

/// Requests in the traced replay.
const REPLAY: usize = 1500;

/// What the write thread measured.
struct Writes {
    /// Insert acknowledgement latency from each insert's scheduled time.
    lat: Sliced,
    /// How late each insert started against its schedule.
    lag: Samples,
    /// Latency of each delete (issued right after its insert).
    delete: Samples,
    fsyncs: u64,
    bytes: u64,
    errors: Vec<String>,
}

/// Inserts `docs` in an open loop at `rate` per second; after each insert
/// the oldest document of `window` is deleted, so the collection keeps its
/// size and compaction has tombstones to drop.
fn write_open_loop(
    live: &LiveService,
    docs: &[UncertainString],
    mut window: VecDeque<u64>,
    rate: f64,
) -> Writes {
    let (s0, b0) = thread_io();
    let mut out = Writes {
        lat: Sliced::new(),
        lag: Samples::default(),
        delete: Samples::default(),
        fsyncs: 0,
        bytes: 0,
        errors: Vec::new(),
    };
    let start = Instant::now();
    let per_slice = (rate * SLICE.as_secs_f64()).round().max(1.0) as usize;
    for (i, doc) in docs.iter().enumerate() {
        if i > 0 && i % per_slice == 0 {
            out.lat.close(SLICE.as_secs_f64());
        }
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.lag.push(due.elapsed().as_secs_f64() * 1e6);
        match live.insert(doc.clone()) {
            Ok(id) => window.push_back(id),
            Err(e) => out.errors.push(format!("insert {i}: {e}")),
        }
        out.lat.push(due.elapsed().as_secs_f64() * 1e6);
        if let Some(oldest) = window.pop_front() {
            let t0 = Instant::now();
            if let Err(e) = live.delete(oldest) {
                out.errors.push(format!("delete {oldest}: {e}"));
            }
            out.delete.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.lat.close(SLICE.as_secs_f64());
    let (s1, b1) = thread_io();
    out.fsyncs = s1 - s0;
    out.bytes = b1 - b0;
    out
}

fn counter(live: &LiveService, name: &str) -> u64 {
    live.metrics_snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn hist_sum_ms(live: &LiveService, name: &str) -> f64 {
    live.metrics_snapshot()
        .histograms
        .get(name)
        .map_or(0.0, |h| h.sum as f64 / 1e3)
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let inserts = (LIVE_INSERT_RATE * opts.seconds).round().max(1.0) as usize;
    let spec = LiveSpec::new(opts.seed, inserts);
    let dir = opts.work.join("live");
    let live_err = |e: ustr_live::LiveError| e.to_string();
    let io: Arc<dyn StoreIo> = Arc::new(CountingIo);

    // Set-up: open a fresh directory, preload, let maintenance settle.
    let mut setup = Vec::new();
    let mut live = None;
    let mut window = VecDeque::new();
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let l = LiveService::open_with_io(&dir, LiveConfig::default(), Arc::clone(&io))
            .map_err(live_err)?;
        window = spec.docs[..spec.preload]
            .iter()
            .map(|doc| l.insert(doc.clone()))
            .collect::<Result<_, _>>()
            .map_err(live_err)?;
        l.wait_idle().map_err(live_err)?;
        setup.push(t0.elapsed().as_secs_f64());
        live = Some(Arc::new(l));
    }
    let live = live.expect("at least one set-up");
    report.put("setup_s", median(&setup), "s", SETUP_REPS);
    report.put("rss_mb", rss_mb(), "MB", 1);

    // Timed phase: open-loop writes beside closed-loop queries.
    let (seals0, compactions0) = (
        counter(&live, "live.seals"),
        counter(&live, "live.compactions"),
    );
    let (seal0, compact0) = (
        hist_sum_ms(&live, "live.seal_us"),
        hist_sum_ms(&live, "live.compaction_us"),
    );
    let mut served = Served::start(Arc::clone(&live), false)?;
    let mut stream = spec.requests(0);
    for req in stream.take(WARMUP) {
        let answer = served.ask(&req);
        report.outcome(answer.result.is_ok(), || {
            format!("{req:?}: {:?}", answer.result.err())
        });
    }
    let done = AtomicBool::new(false);
    let mut lat = Sliced::new();
    let mut segments = 0usize;
    let ins = std::thread::scope(|s| {
        let inserter = s.spawn(|| {
            let writes = &spec.docs[spec.preload..];
            let out = write_open_loop(&live, writes, window, LIVE_INSERT_RATE);
            // ordering: Release — pairs with the query loop's Acquire load.
            done.store(true, Ordering::Release);
            out
        });
        let mut slice = Instant::now();
        // ordering: Acquire — see the store above.
        while !done.load(Ordering::Acquire) {
            if slice.elapsed() >= SLICE {
                lat.close(slice.elapsed().as_secs_f64());
                slice = Instant::now();
            }
            let req = stream.next_request();
            segments += live.num_segments() + usize::from(live.memtable_len() > 0);
            let answer = served.ask(&req);
            match &answer.result {
                Ok(_) => lat.push(answer.rtt_us),
                Err(e) => report.outcome(false, || format!("{req:?}: {e}")),
            }
        }
        lat.close(slice.elapsed().as_secs_f64());
        inserter.join().expect("write thread")
    });
    live.wait_idle().map_err(live_err)?;
    let n = lat.all.len();
    // Failed writes are counted by `outcome` below.
    report.attempted += (n + ins.lat.all.len() + ins.delete.len() - ins.errors.len()) as u64;
    for e in &ins.errors {
        report.outcome(false, || e.clone());
    }
    put_latency(report, "query", &lat);
    report.put("query_rps", lat.rate(), "1/s", n);
    put_latency(report, "insert", &ins.lat);
    report.put(
        "delete_p50_us",
        ins.delete.quantile(0.5),
        "us",
        ins.delete.len(),
    );
    let n_ins = ins.lat.all.len();
    report.put(
        "live.insert_lag_max_ms",
        ins.lag.quantile(1.0) / 1e3,
        "ms",
        n_ins,
    );
    let per_insert = |x: u64| x as f64 / n_ins.max(1) as f64;
    report.put(
        "store.fsyncs_per_insert",
        per_insert(ins.fsyncs),
        "count",
        n_ins,
    );
    report.put(
        "store.bytes_written_per_insert",
        per_insert(ins.bytes),
        "bytes",
        n_ins,
    );
    let compactions = counter(&live, "live.compactions") - compactions0;
    report.put(
        "live.seals",
        (counter(&live, "live.seals") - seals0) as f64,
        "count",
        1,
    );
    report.put("live.compactions", compactions as f64, "count", 1);
    report.put(
        "live.seal_ms",
        hist_sum_ms(&live, "live.seal_us") - seal0,
        "ms",
        1,
    );
    report.put(
        "live.compact_ms",
        hist_sum_ms(&live, "live.compaction_us") - compact0,
        "ms",
        1,
    );
    report.put(
        "service.segments_per_query",
        segments as f64 / n.max(1) as f64,
        "count",
        n,
    );
    if compactions < 2 {
        report.problem(format!(
            "reach guard: {compactions} compactions in the run (need 2)"
        ));
    }

    // Oracle check against the documents the collection now holds.
    let docs = live.live_docs();
    let positions: usize = docs.iter().map(|(_, d)| d.len()).sum();
    let corpus = Corpus {
        docs: docs.iter().map(|(id, d)| (*id as usize, d)).collect(),
        tau_min: live.tau_min(),
        epsilon: live.epsilon(),
    };
    oracle_sample(report, &mut served, &corpus, &mut spec.requests(1));
    served.stop();
    drop(live);
    report.put(
        "disk_bytes_per_pos",
        disk_bytes(&dir) as f64 / positions as f64,
        "bytes",
        1,
    );

    if opts.trace {
        traced(report, &spec, &dir, &corpus)?;
    }
    Ok(())
}

/// Copies the regular files of `from` (all a live directory holds) into a
/// fresh `to`, leaving out the advisory lock.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("copy {}: {e}", from.display());
    std::fs::create_dir_all(to).map_err(err)?;
    for entry in std::fs::read_dir(from).map_err(err)? {
        let path = entry.map_err(err)?.path();
        let name = path.file_name().expect("directory entries have names");
        if path.is_file() && name != LOCK_FILE {
            std::fs::copy(&path, to.join(name)).map_err(err)?;
        }
    }
    Ok(())
}

/// Replays a fixed request sequence through each layer of the settled
/// collection, reopened from its directory (or a copy) for every pass.
fn traced(report: &mut Report, spec: &LiveSpec, dir: &Path, corpus: &Corpus) -> Result<(), String> {
    let requests = spec.requests(0).take(REPLAY);
    let mut loads = Vec::new();
    let mut reopen = |dir: &Path| -> Result<Arc<LiveService>, String> {
        let t0 = Instant::now();
        let live = LiveService::open(dir, LiveConfig::default()).map_err(|e| e.to_string())?;
        live.wait_idle().map_err(|e| e.to_string())?;
        loads.push(t0.elapsed().as_secs_f64());
        Ok(Arc::new(live))
    };
    // The two served passes run at once, each on its own copy: a live
    // directory admits one process-wide owner.
    let twin = dir.with_extension("twin");
    copy_dir(dir, &twin)?;
    let (l0, l1) = net_pair(reopen(dir)?, reopen(&twin)?, &requests)?;
    let _ = std::fs::remove_dir_all(&twin);
    let live = reopen(dir)?;

    // The executors the collection serves from: its live documents in the
    // decoded sealed segments (tombstoned ones are skipped, as the service
    // skips them), then the memtable's scan executors.
    let manifest = wal::load_manifest_with(&RealIo, dir.join(MANIFEST_FILE))
        .map_err(|e| format!("manifest: {e}"))?
        .ok_or("the live directory has no manifest")?;
    let live_docs: HashMap<usize, &UncertainString> = corpus.docs.iter().copied().collect();
    let mut executors = Vec::new();
    let (mut heap, mut indexed) = (0, 0);
    let mut sealed = HashSet::new();
    for segment in &manifest.segments {
        let docs = decode(&dir.join(&segment.file))?;
        for (exec, &id) in docs.into_iter().zip(&segment.docs) {
            if let Some(doc) = live_docs.get(&(id as usize)) {
                heap += heap_bytes(&exec);
                indexed += doc.len();
                sealed.insert(id as usize);
                executors.push(exec);
            }
        }
    }
    for &(id, doc) in &corpus.docs {
        if !sealed.contains(&id) {
            let scan = ScanIndex::new(doc.clone(), live.tau_min()).map_err(|e| e.to_string())?;
            executors.push(DocExecutor::Scanned(scan));
        }
    }
    let inner = inner_pass(live.as_ref(), &executors, &requests)?;
    report.put("store.load_s", median(&loads), "s", loads.len());
    report.put(
        "core.heap_bytes_per_pos",
        heap as f64 / indexed.max(1) as f64,
        "bytes",
        sealed.len(),
    );

    // Index construction cost of the preloaded documents.
    let t0 = Instant::now();
    for doc in &spec.docs[..spec.preload] {
        Index::build(doc, live.tau_min()).map_err(|e| e.to_string())?;
    }
    report.put(
        "core.build_s",
        t0.elapsed().as_secs_f64(),
        "s",
        spec.preload,
    );

    check_answers(report, corpus, &requests, &l0, &l1);
    put_layers(report, &l0, &l1, &inner);
    Ok(())
}
