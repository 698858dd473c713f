//! Build once, snapshot, serve forever: the `ustr-store` + `ustr-service`
//! workflow end to end.
//!
//! A small collection of uncertain protein reads is indexed per document,
//! snapshotted to disk, loaded back into a sharded concurrent service, and
//! queried in one batch — with the round-trip and determinism guarantees
//! checked along the way.
//!
//! Run with: `cargo run --example snapshot_service`

use uncertain_strings::{
    workload::{generate_collection, DatasetConfig},
    QueryBackend, QueryRequest, QueryResponse, QueryService, ServiceConfig,
};

fn main() {
    // 1. A synthetic collection (the paper's §8.1 protein workload).
    let docs = generate_collection(&DatasetConfig::new(2_000, 0.3, 42));
    println!("collection: {} documents", docs.len());

    // 2. Build one index per document and snapshot the whole collection
    //    into a single `.coll` file.
    let path = std::env::temp_dir().join("ustr_example_snapshot.coll");
    let t0 = std::time::Instant::now();
    let built = QueryService::build(&docs, 0.1, ServiceConfig::default()).unwrap();
    let build_time = t0.elapsed();
    built.save_collection(&path).unwrap();
    println!(
        "built {} indexes in {build_time:?}, snapshot at {}",
        docs.len(),
        path.display()
    );

    // 3. A fresh process would start here: load the snapshot into a
    //    4-thread, 4-shard service with a 256-entry result cache.
    let t1 = std::time::Instant::now();
    let service = QueryService::load_collection(
        &path,
        ServiceConfig {
            threads: 4,
            shards: 4,
            cache_capacity: 256,
            epsilon: None,
        },
    )
    .unwrap();
    println!(
        "loaded {} documents into {} shards in {:?} ({:.1}x faster than building)",
        service.num_docs(),
        service.num_shards(),
        t1.elapsed(),
        build_time.as_secs_f64() / t1.elapsed().as_secs_f64().max(1e-9),
    );

    // 4. One batch of queries, fanned across the pool.
    let batch: Vec<QueryRequest> = [&b"LL"[..], b"AA", b"SE", b"GLV"]
        .iter()
        .map(|p| QueryRequest::Threshold {
            pattern: p.to_vec(),
            tau: 0.25,
        })
        .collect();
    let results = service.query_requests(&batch);
    for (request, result) in batch.iter().zip(results.iter()) {
        let (QueryRequest::Threshold { pattern, tau }, Ok(QueryResponse::Threshold(hits))) =
            (request, result)
        else {
            panic!("a threshold request answers with threshold hits");
        };
        let occurrences: usize = hits.iter().map(|d| d.hits.len()).sum();
        println!(
            "  {:?} tau={tau}: {occurrences} occurrence(s) across {} document(s)",
            String::from_utf8_lossy(pattern),
            hits.len()
        );
    }

    // 5. The contracts this subsystem guarantees, checked live:
    //    (a) parallel batches equal sequential evaluation;
    let sequential = service.query_requests_sequential(&batch);
    for (par, seq) in results.iter().zip(sequential.iter()) {
        assert_eq!(par.as_ref().unwrap(), seq.as_ref().unwrap());
    }
    //    (b) the loaded collection answers identically to the freshly
    //        built one.
    for pattern in [&b"L"[..], b"AL", b"KDE"] {
        assert_eq!(
            built.query(pattern, 0.2).unwrap(),
            service.query(pattern, 0.2).unwrap(),
        );
    }
    let (cache_hits, cache_misses) = service.cache_stats();
    println!("cache: {cache_hits} hit(s), {cache_misses} miss(es)");
    println!("round-trip and determinism contracts verified");

    let _ = std::fs::remove_file(&path);
}
