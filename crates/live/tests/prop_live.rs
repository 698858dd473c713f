//! Live/static equivalence property test: any interleaving of inserts,
//! deletes, and mixed-mode queries on a [`LiveService`] answers
//! **byte-identically** to a static [`QueryService`] rebuilt from scratch
//! over the same live documents — at 1 and at 8 threads, with seals and
//! compactions firing in the background mid-interleaving.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use ustr_live::{LiveConfig, LiveService};
use ustr_service::{
    DocHits, ListingHit, QueryBackend, QueryRequest, QueryResponse, QueryService, ServiceConfig,
    TopHit,
};
use ustr_uncertain::UncertainString;

/// Strategy: a small uncertain document over {a, b, c} with random pdfs.
fn uncertain_doc(max_len: usize) -> impl Strategy<Value = UncertainString> {
    prop::collection::vec(
        prop::collection::vec((0u8..3, 1u32..100), 1..=3),
        1..=max_len,
    )
    .prop_map(|rows| {
        let rows: Vec<Vec<(u8, f64)>> = rows
            .into_iter()
            .map(|mut row| {
                row.sort_by_key(|&(c, _)| c);
                row.dedup_by_key(|&mut (c, _)| c);
                let total: u32 = row.iter().map(|&(_, w)| w).sum();
                row.into_iter()
                    .map(|(c, w)| (b'a' + c, w as f64 / total as f64))
                    .collect()
            })
            .collect();
        UncertainString::from_rows(rows).expect("normalized rows are valid")
    })
}

/// One scripted step: insert the next document, delete the k-th live
/// document, or checkpoint (compare live against a static rebuild).
#[derive(Debug, Clone)]
enum Op {
    Insert(UncertainString),
    Delete(usize),
    Checkpoint,
}

fn ops(max_ops: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..5, uncertain_doc(10), any::<u8>()), 1..=max_ops).prop_map(|steps| {
        steps
            .into_iter()
            .map(|(kind, doc, pick)| match kind {
                0 | 1 => Op::Insert(doc),
                2 => Op::Delete(pick as usize),
                _ => Op::Checkpoint,
            })
            .collect()
    })
}

/// The mixed-mode batch evaluated at every checkpoint: all four modes.
fn batch() -> Vec<QueryRequest> {
    let mut out = Vec::new();
    for pattern in [&b"a"[..], b"ab", b"ba", b"bc"] {
        out.push(QueryRequest::Threshold {
            pattern: pattern.to_vec(),
            tau: 0.3,
        });
        out.push(QueryRequest::Approx {
            pattern: pattern.to_vec(),
            tau: 0.5,
        });
        out.push(QueryRequest::TopK {
            pattern: pattern.to_vec(),
            k: 3,
        });
        out.push(QueryRequest::Listing {
            pattern: pattern.to_vec(),
            tau: 0.2,
        });
    }
    out
}

/// Translates a static response's dense document ids (0..n over the live
/// documents in ascending stable-id order) to the live stable ids. The
/// translation is monotone, so ordering and tie-breaks are untouched.
fn translate(resp: &QueryResponse, ids: &[u64]) -> QueryResponse {
    match resp {
        QueryResponse::Threshold(h) => QueryResponse::Threshold(Arc::new(
            h.iter()
                .map(|d| DocHits {
                    doc: ids[d.doc] as usize,
                    hits: d.hits.clone(),
                })
                .collect(),
        )),
        QueryResponse::Approx(h) => QueryResponse::Approx(Arc::new(
            h.iter()
                .map(|d| DocHits {
                    doc: ids[d.doc] as usize,
                    hits: d.hits.clone(),
                })
                .collect(),
        )),
        QueryResponse::TopK(h) => QueryResponse::TopK(Arc::new(
            h.iter()
                .map(|t| TopHit {
                    doc: ids[t.doc] as usize,
                    pos: t.pos,
                    prob: t.prob,
                })
                .collect(),
        )),
        QueryResponse::Listing(h) => QueryResponse::Listing(Arc::new(
            h.iter()
                .map(|l| ListingHit {
                    doc: ids[l.doc] as usize,
                    relevance: l.relevance,
                })
                .collect(),
        )),
    }
}

static CASE: AtomicUsize = AtomicUsize::new(0);

fn live_config(threads: usize, seal_threshold: usize, compact_min: usize) -> LiveConfig {
    LiveConfig {
        threads,
        cache_capacity: 8,
        tau_min: 0.1,
        epsilon: None,
        seal_threshold,
        compact_min_segments: compact_min,
    }
}

fn check(live: &LiveService, requests: &[QueryRequest]) -> Result<(), TestCaseError> {
    // Static rebuild from scratch over the current live documents.
    let ids: Vec<u64> = live.live_doc_ids();
    let docs: Vec<UncertainString> = live.live_docs().into_iter().map(|(_, d)| d).collect();
    let stat = QueryService::build(
        &docs,
        live.tau_min(),
        ServiceConfig {
            threads: 1,
            shards: 1,
            cache_capacity: 0,
            epsilon: None,
        },
    )
    .map_err(|e| TestCaseError::fail(format!("static build failed: {e}")))?;
    let want = stat.query_requests_sequential(requests);
    let got_parallel = live.query_requests(requests);
    let got_sequential = live.query_requests_sequential(requests);
    for (q, ((p, s), w)) in got_parallel
        .iter()
        .zip(got_sequential.iter())
        .zip(want.iter())
        .enumerate()
    {
        let p = p.as_ref().expect("live parallel answer");
        let s = s.as_ref().expect("live sequential answer");
        let w = translate(w.as_ref().expect("static answer"), &ids);
        prop_assert_eq!(p, s, "request {}: live parallel != live sequential", q);
        prop_assert_eq!(p, &w, "request {}: live != static rebuild", q);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleaved insert/delete/query at 1 vs 8 threads, with background
    /// seals (threshold 2) and compaction (at 2 segments) racing the
    /// checkpoints.
    #[test]
    fn live_matches_static_rebuild_under_interleaving(script in ops(12)) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let requests = batch();
        for (threads, seal_threshold, compact_min) in [(1, 0, 0), (8, 2, 2)] {
            let dir = std::env::temp_dir().join(format!(
                "ustr_prop_live_{}_{case}_{threads}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let live = LiveService::open(&dir, live_config(threads, seal_threshold, compact_min))
                .map_err(|e| TestCaseError::fail(format!("open failed: {e}")))?;
            for op in &script {
                match op {
                    Op::Insert(doc) => {
                        live.insert(doc.clone())
                            .map_err(|e| TestCaseError::fail(format!("insert failed: {e}")))?;
                    }
                    Op::Delete(pick) => {
                        let ids = live.live_doc_ids();
                        if !ids.is_empty() {
                            let id = ids[pick % ids.len()];
                            live.delete(id)
                                .map_err(|e| TestCaseError::fail(format!("delete failed: {e}")))?;
                        }
                    }
                    Op::Checkpoint => check(&live, &requests)?,
                }
            }
            // Final checkpoints: racing maintenance, then quiesced.
            check(&live, &requests)?;
            live.wait_idle()
                .map_err(|e| TestCaseError::fail(format!("background failure: {e}")))?;
            check(&live, &requests)?;
            drop(live);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
