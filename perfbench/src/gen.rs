//! Seeded workload inputs: the documents a workload serves and the request
//! stream its client sends. Everything here is a pure function of the
//! workload and the seed; the program under test only ever sees the
//! generated documents and requests.

use rand::{rngs::StdRng, Rng, SeedableRng};
use ustr_service::QueryRequest;
use ustr_uncertain::UncertainString;
use ustr_workload::{from_iupac, generate_collection, sample_patterns, DatasetConfig, PatternMode};

/// The result-cache capacity `serve-net` ships with; the Zipf pools hold
/// twice as many distinct requests.
pub const CACHE_ENTRIES: usize = 1024;
const POOL_SIZE: usize = 2 * CACHE_ENTRIES;
/// Zipf exponent of the skewed pools.
const ZIPF_S: f64 = 1.0;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §6 listing over ~1.8k short protein strings, Zipf-skewed pool.
    ProteinListing,
    /// §5 substring search over 4 long IUPAC DNA strings, fresh requests.
    DnaSubstring,
    /// Inserts at a fixed rate beside closed-loop queries on a live
    /// collection.
    LiveIngest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "protein_listing" => Some(Self::ProteinListing),
            "dna_substring" => Some(Self::DnaSubstring),
            "live_ingest" => Some(Self::LiveIngest),
            _ => None,
        }
    }
}

/// How the request stream is drawn.
enum Source {
    /// Zipf-ranked draws from a fixed pool of distinct requests.
    Pool {
        pool: Vec<QueryRequest>,
        cdf: Vec<f64>,
    },
    /// A freshly generated request every time.
    Fresh { docs: Vec<UncertainString> },
}

/// A reproducible, endless request stream.
pub struct Requests {
    rng: StdRng,
    source: Source,
}

impl Requests {
    pub fn next_request(&mut self) -> QueryRequest {
        match &self.source {
            Source::Pool { pool, cdf } => {
                let x: f64 = self.rng.gen();
                let rank = cdf.partition_point(|&c| c < x).min(pool.len() - 1);
                pool[rank].clone()
            }
            Source::Fresh { docs } => dna_request(&mut self.rng, docs),
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<QueryRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

/// One static workload's inputs.
pub struct StaticSpec {
    pub docs: Vec<UncertainString>,
    pub tau_min: f64,
    pub epsilon: f64,
    workload: Workload,
    seed: u64,
}

impl StaticSpec {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let (docs, tau_min) = match workload {
            // §8.1 generator: 60k positions, θ = 0.3, segments of 20–45.
            Workload::ProteinListing => (
                generate_collection(&DatasetConfig::new(60_000, 0.3, seed)),
                0.1,
            ),
            Workload::DnaSubstring => (dna_docs(seed), 0.2),
            Workload::LiveIngest => unreachable!("live_ingest is not a static workload"),
        };
        Self {
            docs,
            tau_min,
            epsilon: 0.05,
            workload,
            seed,
        }
    }

    /// The request stream `stream` (0 = the measured stream, 1 = the
    /// oracle sample).
    pub fn requests(&self, stream: u64) -> Requests {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, stream));
        let source = match self.workload {
            Workload::ProteinListing => Source::Pool {
                pool: distinct_pool(&mut rng, |rng| protein_request(rng, &self.docs)),
                cdf: zipf_cdf(POOL_SIZE),
            },
            _ => Source::Fresh {
                docs: self.docs.clone(),
            },
        };
        Requests { rng, source }
    }
}

/// The live workload's inputs: documents in insertion order (the first
/// `preload` are loaded during set-up) and the query pool.
pub struct LiveSpec {
    pub docs: Vec<UncertainString>,
    pub preload: usize,
    seed: u64,
}

/// Documents preloaded into the live collection during set-up.
pub const LIVE_PRELOAD: usize = 512;
/// Open-loop insert rate of the live workload, documents per second.
pub const LIVE_INSERT_RATE: f64 = 150.0;

impl LiveSpec {
    pub fn new(seed: u64, inserts: usize) -> Self {
        let want = LIVE_PRELOAD + inserts;
        // Segments average ~32 positions; over-generate, then trim.
        let mut docs = generate_collection(&DatasetConfig::new(want * 40, 0.3, seed));
        assert!(docs.len() >= want, "generator produced too few documents");
        docs.truncate(want);
        Self {
            docs,
            preload: LIVE_PRELOAD,
            seed,
        }
    }

    pub fn requests(&self, stream: u64) -> Requests {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, stream));
        let pool = distinct_pool(&mut rng, |rng| live_request(rng, &self.docs));
        Requests {
            rng,
            source: Source::Pool {
                pool,
                cdf: zipf_cdf(POOL_SIZE),
            },
        }
    }
}

fn mix(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_add(0x5851_F42D)
}

/// Cumulative Zipf(s) distribution over ranks `0..n`.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// `POOL_SIZE` pairwise-distinct requests from `make`.
fn distinct_pool(
    rng: &mut StdRng,
    mut make: impl FnMut(&mut StdRng) -> QueryRequest,
) -> Vec<QueryRequest> {
    let mut seen = std::collections::HashSet::new();
    let mut pool = Vec::with_capacity(POOL_SIZE);
    while pool.len() < POOL_SIZE {
        let req = make(rng);
        if seen.insert(format!("{req:?}")) {
            pool.push(req);
        }
    }
    pool
}

/// A pattern of length `m` (clamped to the document) drawn from a random
/// document, following each position's pdf.
fn pattern_from(
    rng: &mut StdRng,
    docs: &[UncertainString],
    m: usize,
    mode: PatternMode,
) -> Vec<u8> {
    let doc = &docs[rng.gen_range(0..docs.len())];
    let m = m.min(doc.len());
    sample_patterns(doc, m, 1, mode, rng.gen())
        .pop()
        .expect("pattern fits the document")
}

/// τ on a 0.05 grid in `[lo, hi]`, so distinct requests stay distinct
/// cache keys.
fn grid_tau(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    let steps = ((hi - lo) / 0.05).round() as u32;
    lo + 0.05 * f64::from(rng.gen_range(0..=steps))
}

/// 50% Listing, 25% Threshold, 25% TopK(10); m ∈ [3, 12].
fn protein_request(rng: &mut StdRng, docs: &[UncertainString]) -> QueryRequest {
    let m = rng.gen_range(3..=12);
    let pattern = pattern_from(rng, docs, m, PatternMode::Weighted);
    let tau = grid_tau(rng, 0.1, 0.5);
    match rng.gen_range(0..4) {
        0 | 1 => QueryRequest::Listing { pattern, tau },
        2 => QueryRequest::Threshold { pattern, tau },
        _ => QueryRequest::TopK { pattern, k: 10 },
    }
}

/// 50% Threshold, 50% Listing over the live documents; m ∈ [3, 12].
fn live_request(rng: &mut StdRng, docs: &[UncertainString]) -> QueryRequest {
    let m = rng.gen_range(3..=12);
    let pattern = pattern_from(rng, docs, m, PatternMode::Weighted);
    let tau = grid_tau(rng, 0.1, 0.5);
    if rng.gen_bool(0.5) {
        QueryRequest::Threshold { pattern, tau }
    } else {
        QueryRequest::Listing { pattern, tau }
    }
}

/// Four IUPAC strings of 12.5k positions on average, ~8% ambiguity codes.
/// The lengths differ by a few percent, shortest first, so the service's
/// contiguous shard planner splits them the same way (3+1) for every seed;
/// with equal lengths the split hung on the random ambiguity content.
fn dna_docs(seed: u64) -> Vec<UncertainString> {
    const AMBIGUOUS: &[u8] = b"RYSWKMBDHVN";
    const LENGTHS: [usize; 4] = [12_000, 12_300, 12_700, 13_000];
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xD0A));
    LENGTHS
        .iter()
        .map(|&len| {
            let seq: Vec<u8> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.08) {
                        AMBIGUOUS[rng.gen_range(0..AMBIGUOUS.len())]
                    } else {
                        b"ACGT"[rng.gen_range(0..4)]
                    }
                })
                .collect();
            from_iupac(&seq).expect("generated IUPAC codes are valid")
        })
        .collect()
}

/// 50% Threshold, 25% Approx, 25% TopK(50). Mostly short patterns
/// (m ∈ [3, 8], dense answers); one in five is long (m ∈ [20, 32]).
fn dna_request(rng: &mut StdRng, docs: &[UncertainString]) -> QueryRequest {
    let m = if rng.gen_bool(0.8) {
        rng.gen_range(3..=8)
    } else {
        rng.gen_range(20..=32)
    };
    let pattern = pattern_from(rng, docs, m, PatternMode::Probable);
    let tau = grid_tau(rng, 0.2, 0.6);
    match rng.gen_range(0..4) {
        0 | 1 => QueryRequest::Threshold { pattern, tau },
        2 => QueryRequest::Approx { pattern, tau },
        _ => QueryRequest::TopK { pattern, k: 50 },
    }
}
