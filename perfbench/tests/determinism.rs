//! Seed-to-workload determinism: the same seed gives byte-identical request
//! and edit streams, a different seed gives different ones. Also pins the
//! metric lists to `BENCHMARK.json`.

use locality_json::Json;
use perfbench::report::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::streams::{cold_requests, edit_pairs, request_stream, warm_pool};
use perfbench::workloads::WORKLOADS;

/// The bytes a connection sends for `seed`'s request stream.
fn warm_bytes(seed: u64) -> Vec<u8> {
    let pool = warm_pool();
    request_stream(&pool, seed, 5000)
        .iter()
        .flat_map(|&i| pool[i as usize].bytes.iter().copied())
        .collect()
}

#[test]
fn request_streams_follow_the_seed() {
    assert_eq!(warm_bytes(7), warm_bytes(7));
    assert_ne!(warm_bytes(7), warm_bytes(8));
    assert_eq!(cold_requests(7, 20), cold_requests(7, 20));
    assert_ne!(cold_requests(7, 20), cold_requests(8, 20));
}

#[test]
fn edit_streams_follow_the_seed() {
    assert_eq!(edit_pairs(3, 10_000, 4000), edit_pairs(3, 10_000, 4000));
    assert_ne!(edit_pairs(3, 10_000, 4000), edit_pairs(4, 10_000, 4000));
    assert!(edit_pairs(3, 10_000, 4000)
        .iter()
        .all(|&(u, v)| u != v && u < 10_000 && v < 10_000));
}

#[test]
fn the_request_mix_has_every_class() {
    let pool = warm_pool();
    let stream = request_stream(&pool, 1, 32_000);
    let share = |pred: &dyn Fn(&[u8]) -> bool| {
        stream
            .iter()
            .filter(|&&i| pred(&pool[i as usize].bytes))
            .count() as f64
            / stream.len() as f64
    };
    let contains = |b: &[u8], s: &str| b.windows(s.len()).any(|w| w == s.as_bytes());
    let full = share(&|b| contains(b, "\"full\""));
    let batch = share(&|b| contains(b, "\"requests\""));
    let health = share(&|b| b.starts_with(b"GET /healthz"));
    assert!((full - 0.125).abs() < 0.02, "full {full}");
    assert!((batch - 0.125).abs() < 0.02, "batch {batch}");
    assert!(health > 0.0 && health < 0.06, "healthz {health}");
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            (
                d.name.to_string(),
                d.unit.to_string(),
                d.better.as_str().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    assert_eq!(listed(&doc, "end_to_end"), defined(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), defined(PER_LAYER));
    let names: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(names, WORKLOADS);
}
