//! Answer checking against the independent `ustr-baseline` scanner.
//!
//! Threshold, Listing and TopK answers must equal the scanner's up to the
//! canonical probability tolerance (`PROB_EPS`): a hit within the
//! tolerance of τ may go either way, everything else must match exactly,
//! probabilities included. Approx answers must be ε-sandwiched: every
//! occurrence with probability ≥ τ is reported, none below τ − ε, and a
//! reported probability is at most ε below the true one.

use std::collections::HashMap;

use ustr_baseline::NaiveScanner;
use ustr_service::{QueryRequest, QueryResponse};
use ustr_uncertain::{UncertainString, PROB_EPS};

/// The documents a served answer is checked against, with the ids the
/// service reports for them.
pub struct Corpus<'a> {
    pub docs: Vec<(usize, &'a UncertainString)>,
    pub tau_min: f64,
    pub epsilon: Option<f64>,
}

/// `(doc, pos) -> probability` of every occurrence with probability at
/// least `floor`.
fn occurrences(corpus: &Corpus, pattern: &[u8], floor: f64) -> HashMap<(usize, usize), f64> {
    let floor = floor.max(f64::MIN_POSITIVE);
    let mut out = HashMap::new();
    for &(id, doc) in &corpus.docs {
        for (pos, p) in NaiveScanner::find_with_probs(doc, pattern, floor) {
            out.insert((id, pos), p);
        }
    }
    out
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= PROB_EPS
}

/// Checks reported `(doc, pos, prob)` hits against the true occurrences:
/// each reported hit must have a true probability ≥ `floor` with the
/// reported value in `[true − slack, true]` (up to tolerance), and every
/// occurrence of probability ≥ `must` must be reported.
fn check_hits(
    reported: &[(usize, usize, f64)],
    truth: &HashMap<(usize, usize), f64>,
    floor: f64,
    must: f64,
    slack: f64,
) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    for &(doc, pos, p) in reported {
        if !seen.insert((doc, pos)) {
            return Err(format!("hit ({doc}, {pos}) reported twice"));
        }
        let Some(&t) = truth.get(&(doc, pos)) else {
            return Err(format!("hit ({doc}, {pos}) p={p} is not an occurrence"));
        };
        if t < floor - PROB_EPS || p > t + PROB_EPS || p < t - slack - PROB_EPS {
            return Err(format!("hit ({doc}, {pos}) reports p={p}, true p={t}"));
        }
    }
    for (&(doc, pos), &t) in truth {
        if t >= must + PROB_EPS && !seen.contains(&(doc, pos)) {
            return Err(format!("occurrence ({doc}, {pos}) p={t} is missing"));
        }
    }
    Ok(())
}

/// Checks one served answer; `Err` describes the first mismatch.
pub fn check(corpus: &Corpus, req: &QueryRequest, resp: &QueryResponse) -> Result<(), String> {
    match (req, resp) {
        (QueryRequest::Threshold { pattern, tau }, QueryResponse::Threshold(hits)) => {
            let reported = flatten(hits);
            let truth = occurrences(corpus, pattern, tau - PROB_EPS);
            check_hits(&reported, &truth, *tau, *tau, 0.0)
        }
        (QueryRequest::Approx { pattern, tau }, QueryResponse::Approx(hits)) => {
            let eps = corpus.epsilon.unwrap_or(0.0);
            let reported = flatten(hits);
            let truth = occurrences(corpus, pattern, tau - eps - PROB_EPS);
            check_hits(&reported, &truth, tau - eps, *tau, eps)
        }
        (QueryRequest::Listing { pattern, tau }, QueryResponse::Listing(listed)) => {
            let served: HashMap<usize, f64> = listed.iter().map(|h| (h.doc, h.relevance)).collect();
            if served.len() != listed.len() {
                return Err("a document is listed twice".into());
            }
            for &(id, doc) in &corpus.docs {
                let rel = NaiveScanner::relevance_max(doc, pattern);
                match served.get(&id) {
                    Some(&r) if !close(r, rel) || rel < tau - PROB_EPS => {
                        return Err(format!("doc {id} listed with relevance {r}, true {rel}"))
                    }
                    None if rel >= tau + PROB_EPS => {
                        return Err(format!("doc {id} (relevance {rel}) is not listed"))
                    }
                    _ => {}
                }
            }
            let known: std::collections::HashSet<usize> =
                corpus.docs.iter().map(|&(id, _)| id).collect();
            match served.keys().find(|id| !known.contains(id)) {
                Some(id) => Err(format!("listed doc {id} does not exist")),
                None => Ok(()),
            }
        }
        (QueryRequest::TopK { pattern, k }, QueryResponse::TopK(top)) => {
            if top.len() > *k {
                return Err(format!("{} hits for k = {k}", top.len()));
            }
            if top.windows(2).any(|w| w[1].prob > w[0].prob + PROB_EPS) {
                return Err("top-k hits are not in probability order".into());
            }
            let reported: Vec<(usize, usize, f64)> =
                top.iter().map(|h| (h.doc, h.pos, h.prob)).collect();
            let truth = occurrences(corpus, pattern, corpus.tau_min - PROB_EPS);
            // A full answer only promises the occurrences above its cut.
            let must = match top.last() {
                Some(last) if top.len() == *k => last.prob + PROB_EPS,
                _ => corpus.tau_min,
            };
            check_hits(&reported, &truth, corpus.tau_min, must, 0.0)
        }
        _ => Err("response mode does not match the request mode".into()),
    }
}

fn flatten(hits: &[ustr_service::DocHits]) -> Vec<(usize, usize, f64)> {
    hits.iter()
        .flat_map(|d| d.hits.iter().map(move |&(pos, p)| (d.doc, pos, p)))
        .collect()
}

/// Whether a served answer is non-empty (the reach guard's unit).
pub fn non_empty(resp: &QueryResponse) -> bool {
    match resp {
        QueryResponse::Threshold(h) | QueryResponse::Approx(h) => !h.is_empty(),
        QueryResponse::TopK(h) => !h.is_empty(),
        QueryResponse::Listing(h) => !h.is_empty(),
    }
}
