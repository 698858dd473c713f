//! Serving a backend on loopback and replaying one request sequence
//! through each layer's public entry point:
//!
//! 1. `NetClient::query_requests` against a `NetServer` (client RTT), with
//!    the server's calls into the backend timed by `TimedBackend`;
//! 2. `QueryBackend::query_requests` on a second backend loaded from the
//!    same state, so its result cache evolves identically;
//! 3. the per-document executor calls on indexes decoded from the
//!    snapshot, with cache hits (as observed in step 2) charged zero;
//! 4. `kstats` deltas around step 3 for the verification kernel.
//!
//! Self times are differences of per-request means (means add), so the
//! layers and the unattributed remainder sum to the mean client RTT.
//! Layer 1 runs interleaved with an untraced twin, and layers 2 to 4 run
//! request by request together, so host drift between the two passes
//! lands in the unattributed remainder, not in a layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ustr_core::Error;
use ustr_live::LiveService;
use ustr_net::{NetClient, NetServer, QueryBackend, ServerConfig};
use ustr_obs::MetricsSnapshot;
use ustr_service::{DocExecutor, QueryRequest, QueryResponse, QueryService};
use ustr_uncertain::kstats::{self, KernelTotals};

use crate::measure::Samples;

/// A backend whose result-cache counters the benchmark can read.
pub trait Backend: QueryBackend + 'static {
    fn cache_stats(&self) -> (u64, u64);
}

impl Backend for QueryService {
    fn cache_stats(&self) -> (u64, u64) {
        QueryService::cache_stats(self)
    }
}

impl Backend for LiveService {
    fn cache_stats(&self) -> (u64, u64) {
        LiveService::cache_stats(self)
    }
}

/// Times every call the server makes into the wrapped backend: the span
/// around the service layer, recorded from outside the program.
struct TimedBackend<B> {
    inner: Arc<B>,
    ns: AtomicU64,
}

impl<B: Backend> QueryBackend for TimedBackend<B> {
    fn query_requests(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse, Error>> {
        let t0 = Instant::now();
        let out = self.inner.query_requests(requests);
        // ordering: Relaxed — a tally read after the connection is drained.
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn num_docs(&self) -> usize {
        self.inner.num_docs()
    }

    fn tau_min(&self) -> f64 {
        self.inner.tau_min()
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics_snapshot()
    }
}

/// Counter readings taken around a stretch of served traffic.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub bytes_out: u64,
    pub wakeups: u64,
    pub ready_events: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub backend_ns: u64,
}

impl Counters {
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            bytes_out: self.bytes_out - before.bytes_out,
            wakeups: self.wakeups - before.wakeups,
            ready_events: self.ready_events - before.ready_events,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            backend_ns: self.backend_ns - before.backend_ns,
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }
}

/// One answered (or failed) request as the client saw it.
pub struct Answer {
    pub rtt_us: f64,
    pub result: Result<QueryResponse, String>,
}

/// A backend served by a real `NetServer` on loopback (shipped
/// `ServerConfig`), with one client connection.
pub struct Served<B: Backend> {
    backend: Arc<B>,
    timed: Option<Arc<TimedBackend<B>>>,
    server: NetServer,
    client: Option<NetClient>,
}

impl<B: Backend> Served<B> {
    /// Serves `backend`; with `timed`, the server's calls into it are
    /// timed (the traced configuration).
    pub fn start(backend: Arc<B>, timed: bool) -> Result<Self, String> {
        let timed = timed.then(|| {
            Arc::new(TimedBackend {
                inner: Arc::clone(&backend),
                ns: AtomicU64::new(0),
            })
        });
        let served: Arc<dyn QueryBackend> = match &timed {
            Some(t) => Arc::clone(t) as Arc<dyn QueryBackend>,
            None => Arc::clone(&backend) as Arc<dyn QueryBackend>,
        };
        let server = NetServer::serve("127.0.0.1:0", served, ServerConfig::default())
            .map_err(|e| format!("bind loopback server: {e}"))?;
        let client = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        Ok(Self {
            backend,
            timed,
            server,
            client: Some(client),
        })
    }

    /// One request, one outstanding: the client-observed round trip. A
    /// session failure reconnects for the next request.
    pub fn ask(&mut self, req: &QueryRequest) -> Answer {
        let t0 = Instant::now();
        let outcome = match self.client.as_mut() {
            Some(client) => client.query_requests(std::slice::from_ref(req)),
            None => NetClient::connect(self.server.local_addr()).and_then(|c| {
                self.client
                    .insert(c)
                    .query_requests(std::slice::from_ref(req))
            }),
        };
        let rtt_us = t0.elapsed().as_secs_f64() * 1e6;
        let result = match outcome {
            Ok(mut answers) => match answers.pop() {
                Some(Ok(resp)) => Ok(resp),
                Some(Err(remote)) => Err(remote.to_string()),
                None => Err("no answer".into()),
            },
            Err(e) => {
                self.client = None;
                Err(format!("session failed: {e}"))
            }
        };
        Answer { rtt_us, result }
    }

    pub fn counters(&self) -> Counters {
        let snap = self.server.metrics_snapshot();
        let loops = self.server.loop_stats();
        let (cache_hits, cache_misses) = self.backend.cache_stats();
        Counters {
            bytes_out: snap.counters.get("net.bytes_out").copied().unwrap_or(0),
            wakeups: loops.wakeups,
            ready_events: loops.ready_events,
            cache_hits,
            cache_misses,
            // ordering: Relaxed — see TimedBackend.
            backend_ns: self
                .timed
                .as_ref()
                .map_or(0, |t| t.ns.load(Ordering::Relaxed)),
        }
    }

    /// Says goodbye, drains the server, and returns the final counters.
    pub fn stop(mut self) -> Counters {
        if let Some(client) = self.client.take() {
            let _ = client.goodbye();
        }
        self.server.shutdown();
        self.counters()
    }
}

/// What one replay of the sequence through the network layer measured.
pub struct NetPass {
    pub rtt: Samples,
    pub counters: Counters,
    pub answers: Vec<Result<QueryResponse, String>>,
}

/// Layer 1 and its untraced reference: every request over two served
/// connections in turn, `untraced` plainly served and `traced` with its
/// backend calls timed. Interleaving the two passes request by request
/// (alternating which goes first) keeps drift on the host out of their
/// difference, the cost of tracing.
pub fn net_pair<B: Backend>(
    untraced: Arc<B>,
    traced: Arc<B>,
    requests: &[QueryRequest],
) -> Result<(NetPass, NetPass), String> {
    let mut served = [
        Served::start(untraced, false)?,
        Served::start(traced, true)?,
    ];
    let before = [served[0].counters(), served[1].counters()];
    let mut rtt = [Samples::default(), Samples::default()];
    let mut answers = [Vec::new(), Vec::new()];
    for (i, req) in requests.iter().enumerate() {
        for side in [i % 2, 1 - i % 2] {
            let answer = served[side].ask(req);
            rtt[side].push(answer.rtt_us);
            answers[side].push(answer.result);
        }
    }
    let [s0, s1] = served;
    let [r0, r1] = rtt;
    let [a0, a1] = answers;
    Ok((
        NetPass {
            rtt: r0,
            counters: s0.stop().since(&before[0]),
            answers: a0,
        },
        NetPass {
            rtt: r1,
            counters: s1.stop().since(&before[1]),
            answers: a1,
        },
    ))
}

/// What the in-process replays measured.
pub struct InnerPass {
    /// Layer 2: per-request latency of the backend called in-process.
    pub backend: Samples,
    /// Layer 3: per-request time in the executors (cache hits charged 0).
    pub docs: Samples,
    /// Executor calls made in layer 3.
    pub calls: u64,
    /// Kernel work the backend's workers did in layer 2.
    pub served_kernel: KernelTotals,
    /// Layer 4: kernel work done in layer 3.
    pub kernel: KernelTotals,
}

/// Layers 2 to 4, request by request: the backend called in-process, then,
/// unless the backend's result cache answered it, every document's
/// executor called in turn on this thread.
pub fn inner_pass<B: Backend>(
    backend: &B,
    docs: &[DocExecutor],
    requests: &[QueryRequest],
) -> Result<InnerPass, String> {
    let mut backend_lat = Samples::default();
    let mut docs_lat = Samples::default();
    let mut calls = 0;
    let (mut served_kernel, mut kernel) = (Vec::new(), Vec::new());
    for req in requests {
        let (h0, _) = backend.cache_stats();
        // Nothing else runs meanwhile: the process-wide kernel delta is
        // the backend's own work.
        let k0 = kstats::kernel_totals();
        let t0 = Instant::now();
        std::hint::black_box(backend.query_requests(std::slice::from_ref(req)));
        backend_lat.push(t0.elapsed().as_secs_f64() * 1e6);
        served_kernel.push(kstats::kernel_totals().since(&k0));
        if backend.cache_stats().0 > h0 {
            docs_lat.push(0.0);
            continue;
        }
        let k0 = kstats::thread_totals();
        let t0 = Instant::now();
        for d in docs {
            let hits = match req {
                QueryRequest::Threshold { pattern, tau }
                | QueryRequest::Listing { pattern, tau } => d.threshold(pattern, *tau),
                QueryRequest::Approx { pattern, tau } => d.approx(pattern, *tau),
                QueryRequest::TopK { pattern, k } => d.top_k(pattern, *k),
            }
            .map_err(|e| format!("per-document replay failed: {e}"))?;
            std::hint::black_box(hits);
        }
        docs_lat.push(t0.elapsed().as_secs_f64() * 1e6);
        kernel.push(kstats::thread_totals().since(&k0));
        calls += docs.len() as u64;
    }
    Ok(InnerPass {
        backend: backend_lat,
        docs: docs_lat,
        calls,
        served_kernel: sum(&served_kernel),
        kernel: sum(&kernel),
    })
}

fn sum(parts: &[KernelTotals]) -> KernelTotals {
    parts
        .iter()
        .fold(KernelTotals::default(), |a, k| KernelTotals {
            candidates: a.candidates + k.candidates,
            verified: a.verified + k.verified,
            kernel_ns: a.kernel_ns + k.kernel_ns,
            plane_scans: a.plane_scans + k.plane_scans,
            cold_scans: a.cold_scans + k.cold_scans,
        })
}

/// Per-request mean self times of each layer, in µs.
pub struct Attribution {
    pub rtt: f64,
    pub net: f64,
    pub service: f64,
    pub core: f64,
    pub kernel: f64,
    pub unattributed: f64,
}

impl Attribution {
    /// `rtt`: layer-1 mean RTT; `in_server`: mean time the server spent in
    /// the backend during layer 1; `backend`, `docs`, `kernel`: layer 2, 3
    /// and 4 means. The part of the in-server backend time that the
    /// layer-2 replay does not reproduce is left unattributed.
    pub fn new(rtt: f64, in_server: f64, backend: f64, docs: f64, kernel: f64) -> Self {
        let net = rtt - in_server;
        let service = backend - docs;
        let core = docs - kernel;
        Self {
            rtt,
            net,
            service,
            core,
            kernel,
            unattributed: rtt - (net + service + core + kernel),
        }
    }
}
