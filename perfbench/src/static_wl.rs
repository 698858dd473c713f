//! The static workloads (`protein_listing`, `dna_substring`): a
//! `QueryService` built, saved as a collection snapshot, loaded cold, and
//! served over loopback.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ustr_core::{ApproxIndex, Index};
use ustr_service::{DocExecutor, QueryRequest, QueryResponse, QueryService, ServiceConfig};
use ustr_store::{collection, Snapshot, SnapshotKind};
use ustr_uncertain::kstats;

use crate::gen::{Requests, StaticSpec, Workload};
use crate::layers::{inner_pass, net_pair, Attribution, Backend, InnerPass, NetPass, Served};
use crate::measure::{disk_bytes, median, rss_mb, Sliced};
use crate::oracle::{self, Corpus};
use crate::report::Report;
use crate::{Opts, ORACLE_SAMPLE, SETUP_REPS};

/// Untimed requests that fill the result cache before timing starts.
pub const WARMUP: usize = 1000;
/// Requests the client sends between two reads of the clock that bound
/// the timed phase (request generation stays outside the timed window).
const CHUNK: usize = 16;
/// Length of one latency slice (see `Sliced`).
pub const SLICE: Duration = Duration::from_millis(500);

fn replay_len(workload: Workload) -> usize {
    match workload {
        Workload::ProteinListing => 3000,
        _ => 1000,
    }
}

pub fn run(workload: Workload, opts: &Opts, report: &mut Report) -> Result<(), String> {
    let spec = StaticSpec::new(workload, opts.seed);
    let positions: usize = spec.docs.iter().map(|d| d.len()).sum();
    let coll = opts.work.join("collection.coll");
    let config = ServiceConfig {
        epsilon: Some(spec.epsilon),
        ..ServiceConfig::default()
    };

    let corpus = Corpus {
        docs: spec.docs.iter().enumerate().collect(),
        tau_min: spec.tau_min,
        epsilon: Some(spec.epsilon),
    };

    // Set-up: build, save, cold load; repeated, the medians reported.
    // Untraced, each set-up serves an equal share of the timed phase on a
    // fresh server, so a layout or thread placement that one set-up
    // happens to get does not decide the run.
    let (mut setup, mut build, mut load, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut timed = Timed::new();
    let mut stream = spec.requests(0);
    let mut service = None;
    for rep in 0..SETUP_REPS {
        drop(service.take());
        let t0 = Instant::now();
        let built = QueryService::build(&spec.docs, spec.tau_min, config.clone())
            .map_err(|e| format!("build: {e}"))?;
        build.push(t0.elapsed().as_secs_f64());
        built
            .save_collection(&coll)
            .map_err(|e| format!("save: {e}"))?;
        drop(built);
        let (loaded, secs) = load_timed(&coll)?;
        load.push(secs);
        setup.push(t0.elapsed().as_secs_f64());
        rss.push(rss_mb());
        let loaded = Arc::new(loaded);
        if !opts.trace {
            let mut served = Served::start(Arc::clone(&loaded), false)?;
            timed.round(
                report,
                &mut served,
                &mut stream,
                opts.seconds / SETUP_REPS as f64,
            );
            if rep + 1 == SETUP_REPS {
                oracle_sample(report, &mut served, &corpus, &mut spec.requests(1));
            }
            served.stop();
        }
        service = Some(loaded);
    }
    let service = service.expect("at least one set-up");
    report.put("setup_s", median(&setup), "s", SETUP_REPS);
    report.put("core.build_s", median(&build), "s", SETUP_REPS);
    report.put("store.load_s", median(&load), "s", SETUP_REPS);
    report.put("rss_mb", median(&rss), "MB", SETUP_REPS);
    let disk = disk_bytes(&coll) as f64;
    report.put("disk_bytes_per_pos", disk / positions as f64, "bytes", 1);
    report.put(
        "service.segments_per_query",
        service.num_shards() as f64,
        "count",
        1,
    );
    // A static collection takes no writes.
    report.put("store.fsyncs_per_insert", 0.0, "count", 0);
    report.put("store.bytes_written_per_insert", 0.0, "bytes", 0);
    report.put("live.seals", 0.0, "count", 0);
    report.put("live.compactions", 0.0, "count", 0);

    let non_empty = if opts.trace {
        let requests = spec.requests(0).take(replay_len(workload));
        let (traced, _) = load_timed(&coll)?;
        let (l0, l1) = net_pair(service, Arc::new(traced), &requests)?;
        let (svc, _) = load_timed(&coll)?;
        let docs = decode(&coll)?;
        let heap: usize = docs.iter().map(heap_bytes).sum();
        let inner = inner_pass(&svc, &docs, &requests)?;
        drop((svc, docs));
        report.put(
            "core.heap_bytes_per_pos",
            heap as f64 / positions as f64,
            "bytes",
            spec.docs.len(),
        );
        check_answers(report, &corpus, &requests, &l0, &l1);
        put_layers(report, &l0, &l1, &inner);
        non_empty_frac(&l1.answers)
    } else {
        timed.put(report)
    };

    match workload {
        Workload::ProteinListing if non_empty < 0.25 => report.problem(format!(
            "reach guard: only {:.1}% of answers are non-empty (need 25%)",
            non_empty * 100.0
        )),
        Workload::DnaSubstring if report.get("uncertain.candidates_per_req") == Some(0.0) => {
            report.problem("reach guard: the kernel verified no candidates")
        }
        _ => {}
    }
    Ok(())
}

/// A cold `load_collection` with the shipped service defaults (1024-entry
/// cache, one worker per core), and how long it took.
fn load_timed(coll: &Path) -> Result<(QueryService, f64), String> {
    let t0 = Instant::now();
    let svc = QueryService::load_collection(coll, ServiceConfig::default())
        .map_err(|e| format!("load: {e}"))?;
    Ok((svc, t0.elapsed().as_secs_f64()))
}

/// Per-document executors decoded from a collection snapshot through
/// `ustr-store`, in document order.
pub fn decode(coll: &Path) -> Result<Vec<DocExecutor>, String> {
    let c = collection::load_collection_file(coll).map_err(|e| format!("decode: {e}"))?;
    let mut index: Vec<Option<Index>> = (0..c.num_docs).map(|_| None).collect();
    let mut approx: Vec<Option<ApproxIndex>> = (0..c.num_docs).map(|_| None).collect();
    for s in c.sections {
        let bytes = s.bytes.as_slice();
        let err = |e: ustr_store::StoreError| format!("decode doc {}: {e}", s.doc);
        match s.kind {
            SnapshotKind::Index => index[s.doc] = Some(Index::read_snapshot(bytes).map_err(err)?),
            SnapshotKind::Approx => {
                approx[s.doc] = Some(ApproxIndex::read_snapshot(bytes).map_err(err)?)
            }
            other => return Err(format!("unexpected section kind {}", other as u8)),
        }
    }
    index
        .into_iter()
        .zip(approx)
        .enumerate()
        .map(|(doc, (index, approx))| {
            let index = index.ok_or_else(|| format!("doc {doc} has no index section"))?;
            Ok(DocExecutor::Built { index, approx })
        })
        .collect()
}

/// Heap footprint of a built executor's indexes in bytes (0 for a scan).
pub fn heap_bytes(d: &DocExecutor) -> usize {
    match d {
        DocExecutor::Built { index, approx } => {
            index.heap_size() + approx.as_ref().map_or(0, |a| a.stats().heap_bytes)
        }
        DocExecutor::Scanned(_) => 0,
    }
}

/// The closed-loop timed phase: one connection, one outstanding request,
/// in rounds of traffic after a cache-filling warm-up.
pub struct Timed {
    lat: Sliced,
    non_empty: usize,
    candidates: u64,
}

impl Timed {
    pub fn new() -> Self {
        Self {
            lat: Sliced::new(),
            non_empty: 0,
            candidates: 0,
        }
    }

    /// A warm-up, then `seconds` of timed traffic on `served`.
    pub fn round<B: Backend>(
        &mut self,
        report: &mut Report,
        served: &mut Served<B>,
        stream: &mut Requests,
        seconds: f64,
    ) {
        for req in stream.take(WARMUP) {
            let answer = served.ask(&req);
            report.outcome(answer.result.is_ok(), || {
                format!("{req:?}: {:?}", answer.result.err())
            });
        }
        let k0 = kstats::kernel_totals();
        let mut busy = Duration::ZERO;
        let mut slice = Duration::ZERO;
        self.lat.restart();
        while busy.as_secs_f64() < seconds {
            let chunk = stream.take(CHUNK);
            let t0 = Instant::now();
            for req in &chunk {
                let answer = served.ask(req);
                match &answer.result {
                    Ok(resp) => {
                        self.lat.push(answer.rtt_us);
                        self.non_empty += usize::from(oracle::non_empty(resp));
                    }
                    Err(e) => report.outcome(false, || format!("{req:?}: {e}")),
                }
            }
            slice += t0.elapsed();
            if slice >= SLICE {
                self.lat.close(slice.as_secs_f64());
                busy += std::mem::take(&mut slice);
            }
        }
        self.candidates += kstats::kernel_totals().since(&k0).candidates;
    }

    /// Reports the query latency metrics of all rounds and returns the
    /// share of non-empty answers.
    pub fn put(&self, report: &mut Report) -> f64 {
        let n = self.lat.all.len();
        report.attempted += n as u64;
        put_latency(report, "query", &self.lat);
        report.put("query_rps", self.lat.rate(), "1/s", n);
        report.put(
            "uncertain.candidates_per_req",
            self.candidates as f64 / n.max(1) as f64,
            "count",
            n,
        );
        self.non_empty as f64 / n.max(1) as f64
    }
}

/// p50 and p90 (gated; medians over the quieter slices) and p99, p99.9
/// (reported; over all samples) of `lat`.
pub fn put_latency(report: &mut Report, what: &str, lat: &Sliced) {
    let n = lat.all.len();
    report.put(&format!("{what}_steal_pct"), lat.steal_pct(), "%", n);
    report.put(&format!("{what}_p50_us"), lat.quantile(0.5), "us", n);
    report.put(&format!("{what}_p90_us"), lat.quantile(0.9), "us", n);
    report.put(&format!("{what}_p99_us"), lat.all.quantile(0.99), "us", n);
    report.put(&format!("{what}_p999_us"), lat.all.quantile(0.999), "us", n);
}

/// Sends `ORACLE_SAMPLE` requests of a separate seeded stream and checks
/// each answer against the oracle.
pub fn oracle_sample<B: Backend>(
    report: &mut Report,
    served: &mut Served<B>,
    corpus: &Corpus,
    stream: &mut Requests,
) {
    for req in stream.take(ORACLE_SAMPLE) {
        let answer = served.ask(&req);
        let verdict = answer
            .result
            .and_then(|resp| oracle::check(corpus, &req, &resp));
        report.outcome(verdict.is_ok(), || {
            format!("oracle: {req:?}: {}", verdict.unwrap_err())
        });
    }
}

/// Counts the replayed answers as operations: every answer must succeed,
/// the traced pass must agree with the untraced one, and an evenly spread
/// sample of `ORACLE_SAMPLE` answers must match the oracle.
pub fn check_answers(
    report: &mut Report,
    corpus: &Corpus,
    requests: &[QueryRequest],
    l0: &NetPass,
    l1: &NetPass,
) {
    let stride = (requests.len() / ORACLE_SAMPLE).max(1);
    for (i, req) in requests.iter().enumerate() {
        let verdict = match (&l0.answers[i], &l1.answers[i]) {
            (Ok(a), Ok(b)) if a != b => Err("traced and untraced answers differ".to_string()),
            (Ok(_), Ok(b)) if i % stride == 0 => oracle::check(corpus, req, b),
            (Ok(_), Ok(_)) => Ok(()),
            (Err(e), _) | (_, Err(e)) => Err(e.clone()),
        };
        report.outcome(verdict.is_ok(), || {
            format!("replay {i}: {req:?}: {}", verdict.unwrap_err())
        });
    }
}

fn non_empty_frac(answers: &[Result<QueryResponse, String>]) -> f64 {
    let n = answers
        .iter()
        .filter(|a| a.as_ref().is_ok_and(oracle::non_empty))
        .count();
    n as f64 / answers.len().max(1) as f64
}

/// The per-layer metrics of one traced replay.
pub fn put_layers(report: &mut Report, l0: &NetPass, l1: &NetPass, inner: &InnerPass) {
    let n = l1.rtt.len();
    let per_req = |x: u64| x as f64 / n.max(1) as f64;
    let c = &l1.counters;
    let a = Attribution::new(
        l1.rtt.mean(),
        per_req(c.backend_ns) / 1e3,
        inner.backend.mean(),
        inner.docs.mean(),
        per_req(inner.kernel.kernel_ns) / 1e3,
    );
    report.put("net.self_us", a.net, "us", n);
    report.put("service.self_us", a.service, "us", n);
    report.put("core.self_us", a.core, "us", n);
    report.put("uncertain.kernel_us", a.kernel, "us", n);
    report.put("unattributed_us", a.unattributed, "us", n);
    report.put("trace.rtt_mean_us", a.rtt, "us", n);
    let untraced = l0.rtt.mean();
    report.put("trace.untraced_rtt_mean_us", untraced, "us", n);
    report.put(
        "trace.overhead_pct",
        (a.rtt - untraced) / untraced * 100.0,
        "%",
        n,
    );
    report.put("net.bytes_out_per_req", per_req(c.bytes_out), "bytes", n);
    report.put("net.wakeups_per_req", per_req(c.wakeups), "count", n);
    report.put(
        "net.ready_events_per_req",
        per_req(c.ready_events),
        "count",
        n,
    );
    report.put("service.cache_hit_ratio", c.hit_ratio(), "ratio", n);
    report.put("core.calls_per_req", per_req(inner.calls), "count", n);
    let k = &inner.served_kernel;
    report.put(
        "uncertain.candidates_per_req",
        per_req(k.candidates),
        "count",
        n,
    );
    report.put(
        "uncertain.verified_ratio",
        k.verified as f64 / k.candidates.max(1) as f64,
        "ratio",
        n,
    );
    // The per-document replay must redo exactly the served kernel work.
    if inner.kernel.candidates != k.candidates || inner.kernel.verified != k.verified {
        report.problem(format!(
            "the per-document replay verified {} of {} candidates, the backend {} of {}",
            inner.kernel.verified, inner.kernel.candidates, k.verified, k.candidates
        ));
    }
}
