//! End-to-end serving tests over real sockets: online classification that
//! is bit-identical to the offline miner, stream-drift-driven hot-swap
//! with zero dropped in-flight requests, admission control, and the
//! Prometheus metrics surface.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use noisemine_core::matching::{try_db_match_many, MemorySequences};
use noisemine_core::miner::MinerConfig;
use noisemine_core::{Alphabet, MatchKernel, PatternSpace, Symbol};
use noisemine_datagen::{ProteinWorkload, ProteinWorkloadConfig};
use noisemine_seqdb::MemoryDb;
use noisemine_serve::json::{self, Value};
use noisemine_serve::{read_model, write_model, ModelRegistry, ServeConfig, ServeModel, Server};
use noisemine_stream::StreamState;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("noisemine-serve-e2e-{}-{name}", std::process::id()))
}

/// One raw HTTP/1.1 exchange over a real socket (`Connection: close`).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("no status line in {raw:?}"))
        .parse()
        .unwrap();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Renders sequences as the classify request's symbol-name JSON.
fn classify_body(tenant: &str, sequences: &[Vec<Symbol>], alphabet: &Alphabet) -> String {
    let seqs: Vec<String> = sequences
        .iter()
        .map(|seq| {
            let names: Vec<String> = seq
                .iter()
                .map(|&s| json::escape(alphabet.name(s).unwrap()))
                .collect();
            format!("[{}]", names.join(", "))
        })
        .collect();
    format!(
        "{{\"tenant\": {}, \"sequences\": [{}]}}",
        json::escape(tenant),
        seqs.join(", ")
    )
}

/// Extracts `db_match` per pattern (model order) from a classify response.
fn db_match_from_response(body: &str) -> (u64, Vec<f64>) {
    let doc = json::parse(body).unwrap_or_else(|e| panic!("bad response JSON: {e}\n{body}"));
    let version = doc.get("model_version").and_then(Value::as_f64).unwrap() as u64;
    let patterns = doc.get("patterns").and_then(Value::as_arr).unwrap();
    let scores = patterns
        .iter()
        .map(|p| p.get("db_match").and_then(Value::as_f64).unwrap())
        .collect();
    (version, scores)
}

struct StreamFixture {
    workload: ProteinWorkload,
    state: StreamState,
    ingested: Vec<Vec<Symbol>>,
}

/// A stream-mining fixture over the protein workload: ingest chunks, mine,
/// freeze models. Chunk 0 is the clean-ish regime; chunk 1 is drifted
/// (much noisier channel, same planted motifs).
fn stream_fixture() -> StreamFixture {
    let workload = ProteinWorkload::new(ProteinWorkloadConfig {
        num_sequences: 120,
        min_len: 15,
        max_len: 25,
        num_motifs: 2,
        min_motif_len: 4,
        max_motif_len: 5,
        occurrence: 0.6,
        seed: 21,
    });
    let (_, matrix) = workload.uniform_test_db(0.1, 1);
    let matrix = matrix.diagonal_normalized_clamped().unwrap();
    let config = MinerConfig {
        min_match: 0.25,
        sample_size: 400,
        space: PatternSpace::new(0, 8).unwrap(),
        ..MinerConfig::default()
    };
    let state = StreamState::new(matrix, config).unwrap();
    StreamFixture {
        workload,
        state,
        ingested: Vec::new(),
    }
}

impl StreamFixture {
    /// Ingests a noisy rendering of the standard database and re-mines,
    /// freezing the outcome as a model file at `path`. Returns the model
    /// version (the stream position, so successive mines are monotonic).
    fn ingest_and_freeze(&mut self, alpha: f64, seed: u64, path: &std::path::Path) -> u64 {
        let (noisy, _) = self.workload.uniform_test_db(alpha, seed);
        for seq in &noisy {
            self.state.ingest(seq);
        }
        self.ingested.extend(noisy);
        let db = MemoryDb::from_sequences(self.ingested.clone());
        // Drive the production path (drift check) but always freeze a
        // model — the first mine has no baseline to drift from.
        let outcome = match self.state.mine_if_drifted(&db).unwrap() {
            Some(o) => o,
            None => self.state.mine(&db).unwrap(),
        };
        let model = self.state.to_model(&outcome, &self.workload.alphabet);
        write_model(path, &model).unwrap();
        model.version
    }
}

#[test]
fn classify_over_socket_is_bit_identical_to_offline() {
    let mut fx = stream_fixture();
    let path = tmp("bitident.nmmodel");
    fx.ingest_and_freeze(0.1, 2, &path);

    let registry = Arc::new(ModelRegistry::new(0.0));
    registry.swap("default", ServeModel::compile(read_model(&path).unwrap()));
    let server = Server::start(&ServeConfig::default(), Arc::clone(&registry)).unwrap();
    let addr = server.addr().to_string();

    // A batch big enough to span several request-side reduction blocks.
    let batch: Vec<Vec<Symbol>> = fx.ingested.iter().take(40).cloned().collect();
    let body = classify_body("default", &batch, &fx.workload.alphabet);
    let (status, response) = http(&addr, "POST", "/v1/classify", &body);
    assert_eq!(status, 200, "{response}");
    let (_, online) = db_match_from_response(&response);

    let serve = ServeModel::compile(read_model(&path).unwrap());
    let offline = try_db_match_many(
        &serve.patterns,
        &MemorySequences(batch.clone()),
        &serve.spec.matrix,
        0,
        MatchKernel::default(),
        None,
    )
    .unwrap();
    assert_eq!(online.len(), offline.len());
    assert!(!online.is_empty(), "mined model has patterns");
    for (i, (a, b)) in online.iter().zip(&offline).enumerate() {
        // The JSON layer renders floats shortest-roundtrip, so the score
        // survives the socket bit-for-bit.
        assert_eq!(a.to_bits(), b.to_bits(), "pattern {i}: {a} vs {b}");
    }

    server.stop();
    server.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn drift_hot_swap_drops_no_inflight_requests() {
    let mut fx = stream_fixture();
    let v1_path = tmp("swap-v1.nmmodel");
    let v2_path = tmp("swap-v2.nmmodel");
    let v1 = fx.ingest_and_freeze(0.05, 3, &v1_path);

    let registry = Arc::new(ModelRegistry::new(0.0));
    registry.swap(
        "default",
        ServeModel::compile(read_model(&v1_path).unwrap()),
    );
    let server = Server::start(
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 4,
            ..ServeConfig::default()
        },
        Arc::clone(&registry),
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Hammer the server from four clients while the swap happens.
    let batch: Vec<Vec<Symbol>> = fx.ingested.iter().take(8).cloned().collect();
    let body = classify_body("default", &batch, &fx.workload.alphabet);
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let body = body.clone();
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                for _ in 0..25 {
                    let (status, response) = http(&addr, "POST", "/v1/classify", &body);
                    let version = if status == 200 {
                        db_match_from_response(&response).0
                    } else {
                        0
                    };
                    seen.push((status, version));
                }
                seen
            })
        })
        .collect();

    // Meanwhile: the stream drifts (much noisier channel), re-mine, and
    // hot-swap the frozen v2 through the admin API.
    let v2 = fx.ingest_and_freeze(0.35, 4, &v2_path);
    assert!(v2 > v1, "stream positions make versions monotonic");
    let swap_body = format!(
        "{{\"tenant\": \"default\", \"path\": {}}}",
        json::escape(v2_path.to_str().unwrap())
    );
    let (status, response) = http(&addr, "POST", "/admin/swap", &swap_body);
    assert_eq!(status, 200, "{response}");
    assert!(
        response.contains(&format!("\"old_version\": {v1}")),
        "{response}"
    );
    assert!(
        response.contains(&format!("\"new_version\": {v2}")),
        "{response}"
    );

    // Zero dropped in-flight: every hammered request got a 200, on one of
    // the two model versions — never an error, never a torn state.
    for client in clients {
        for (status, version) in client.join().unwrap() {
            assert_eq!(status, 200, "request dropped during hot-swap");
            assert!(
                version == v1 || version == v2,
                "impossible model version {version}"
            );
        }
    }

    // Post-swap, the active model is v2 and classification is
    // bit-identical to offline try_db_match_many over the v2 artifact.
    let (status, response) = http(&addr, "POST", "/v1/classify", &body);
    assert_eq!(status, 200, "{response}");
    let (version, online) = db_match_from_response(&response);
    assert_eq!(version, v2);
    let serve_v2 = ServeModel::compile(read_model(&v2_path).unwrap());
    let offline = try_db_match_many(
        &serve_v2.patterns,
        &MemorySequences(batch.clone()),
        &serve_v2.spec.matrix,
        0,
        MatchKernel::default(),
        None,
    )
    .unwrap();
    for (i, (a, b)) in online.iter().zip(&offline).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "pattern {i}: {a} vs {b}");
    }

    // The registry surface agrees.
    let (status, response) = http(&addr, "GET", "/admin/models", "");
    assert_eq!(status, 200);
    assert!(
        response.contains(&format!("\"version\": {v2}")),
        "{response}"
    );

    server.stop();
    server.join();
    std::fs::remove_file(&v1_path).ok();
    std::fs::remove_file(&v2_path).ok();
}

#[test]
fn quota_throttles_with_429_and_unknown_tenant_is_404() {
    let mut fx = stream_fixture();
    let path = tmp("quota.nmmodel");
    fx.ingest_and_freeze(0.1, 5, &path);

    // 1 request/second with burst 1: the second immediate request is over
    // quota.
    let registry = Arc::new(ModelRegistry::new(1.0));
    registry.swap("metered", ServeModel::compile(read_model(&path).unwrap()));
    let server = Server::start(&ServeConfig::default(), Arc::clone(&registry)).unwrap();
    let addr = server.addr().to_string();

    let batch: Vec<Vec<Symbol>> = fx.ingested.iter().take(2).cloned().collect();
    let body = classify_body("metered", &batch, &fx.workload.alphabet);
    let (status, _) = http(&addr, "POST", "/v1/classify", &body);
    assert_eq!(status, 200);
    let (status, response) = http(&addr, "POST", "/v1/classify", &body);
    assert_eq!(status, 429, "{response}");
    assert!(response.contains("quota exhausted"), "{response}");

    let stray = classify_body("nobody", &batch, &fx.workload.alphabet);
    let (status, response) = http(&addr, "POST", "/v1/classify", &stray);
    assert_eq!(status, 404, "{response}");

    // The throttle shows up on the tenant's Prometheus counters.
    let (status, metrics) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("serve_tenant_metered_throttled_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("serve_tenant_metered_requests_total"),
        "{metrics}"
    );
    assert!(metrics.contains("serve_throttled_total"), "{metrics}");
    assert!(metrics.contains("serve_classify_seconds"), "{metrics}");

    server.stop();
    server.join();
    std::fs::remove_file(&path).ok();
}
