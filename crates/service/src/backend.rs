//! The one in-process query surface: [`QueryBackend`].
//!
//! The static [`crate::QueryService`], `ustr-live`'s mutable
//! `LiveService`, and any wrapper (a timing shim, a test double) answer
//! queries through this trait. Implementors supply the typed batch path
//! plus two facts about the collection; every convenience method — the
//! one-request forms of the four query modes, tracing, telemetry, health —
//! is a default built on them, so it is written exactly once.

use std::sync::Arc;

use ustr_core::{Error, ListingHit};
use ustr_obs::{MetricsSnapshot, TraceContext, Tracer};

use crate::{DocHits, QueryRequest, QueryResponse, TopHit, TraceSummary};

/// Anything that answers the paper's query family over a collection: the
/// engine's typed dispatch path plus the facts a server advertises.
pub trait QueryBackend: Send + Sync {
    /// Answers a typed batch (positionally aligned with `requests`).
    fn query_requests(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse, Error>>;

    /// Documents currently served (point-in-time for mutable backends).
    fn num_docs(&self) -> usize;

    /// The serving threshold floor: τ below this fails validation.
    fn tau_min(&self) -> f64;

    /// Point-in-time engine telemetry. Backends without instrumentation
    /// report nothing.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Rendered slow-query lines, worst first. Backends without a
    /// slow-query log report nothing.
    fn slow_queries(&self, _n: usize) -> Vec<String> {
        Vec::new()
    }

    /// Answers a typed batch with tracing: `parents[q]`, when present, is a
    /// propagated trace context the request's root span continues (a
    /// missing tail means no parent). The default (untraced backends)
    /// answers normally with no summaries.
    fn query_requests_traced(
        &self,
        requests: &[QueryRequest],
        _parents: &[Option<TraceContext>],
    ) -> Vec<(Result<QueryResponse, Error>, Option<TraceSummary>)> {
        self.query_requests(requests)
            .into_iter()
            .map(|result| (result, None))
            .collect()
    }

    /// The backend's tracer, when it has one — lets a server expose trace
    /// export without knowing the concrete backend type.
    fn tracer(&self) -> Option<Arc<Tracer>> {
        None
    }

    /// `None` when fully healthy, or a description of a degraded-but-
    /// serving state (e.g. a live collection whose background maintenance
    /// halted on a storage fault: queries still answer from memory, but
    /// sealing/compaction stopped until recovery). Static backends are
    /// always healthy.
    fn health(&self) -> Option<String> {
        None
    }

    /// Answers one §5 threshold query (through the cache and the pool).
    fn query(&self, pattern: &[u8], tau: f64) -> Result<Vec<DocHits>, Error> {
        let req = QueryRequest::Threshold {
            pattern: pattern.to_vec(),
            tau,
        };
        match one_request(self, req)? {
            QueryResponse::Threshold(shared) => Ok(shared.as_ref().clone()),
            _ => Err(Error::internal(
                "threshold request produced a mismatched response kind",
            )),
        }
    }

    /// Answers one collection-wide top-k query: the `k` most probable
    /// occurrences across every document, ranked by probability with a
    /// deterministic `(doc, pos)` tie-break.
    fn query_top_k(&self, pattern: &[u8], k: usize) -> Result<Vec<TopHit>, Error> {
        let req = QueryRequest::TopK {
            pattern: pattern.to_vec(),
            k,
        };
        match one_request(self, req)? {
            QueryResponse::TopK(shared) => Ok(shared.as_ref().clone()),
            _ => Err(Error::internal(
                "top-k request produced a mismatched response kind",
            )),
        }
    }

    /// Answers one §6 listing query: every document whose `Rel_max` for
    /// `pattern` is ≥ τ, sorted by document id.
    fn query_listing(&self, pattern: &[u8], tau: f64) -> Result<Vec<ListingHit>, Error> {
        let req = QueryRequest::Listing {
            pattern: pattern.to_vec(),
            tau,
        };
        match one_request(self, req)? {
            QueryResponse::Listing(shared) => Ok(shared.as_ref().clone()),
            _ => Err(Error::internal(
                "listing request produced a mismatched response kind",
            )),
        }
    }

    /// Answers one §7 ε-approximate query (exact where a document holds
    /// no approx index).
    fn query_approx(&self, pattern: &[u8], tau: f64) -> Result<Vec<DocHits>, Error> {
        let req = QueryRequest::Approx {
            pattern: pattern.to_vec(),
            tau,
        };
        match one_request(self, req)? {
            QueryResponse::Approx(shared) => Ok(shared.as_ref().clone()),
            _ => Err(Error::internal(
                "approx request produced a mismatched response kind",
            )),
        }
    }
}

/// Runs `req` as a one-request batch.
fn one_request<B: QueryBackend + ?Sized>(
    backend: &B,
    req: QueryRequest,
) -> Result<QueryResponse, Error> {
    backend
        .query_requests(std::slice::from_ref(&req))
        .pop()
        .unwrap_or_else(|| {
            Err(Error::internal(
                "the engine returned no response for a one-request batch",
            ))
        })
}
