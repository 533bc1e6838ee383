//! Load benchmark for the online match-serving layer (`noisemine-serve`).
//!
//! Starts a real in-process [`Server`] per grid point and hammers
//! `POST /v1/classify` from `concurrency` loopback client threads, over a
//! grid of model sizes (pattern counts) × client concurrency × connection
//! mode. Every request goes through the full production path — TCP accept,
//! HTTP parsing, admission, the columnar match kernel, JSON response — so the
//! numbers are end-to-end request throughput, not kernel microbenchmarks.
//!
//! `--mode close` opens a fresh connection per request (the pre-keep-alive
//! behaviour); `--mode keepalive` reuses one persistent connection per
//! client; `--mode both` (default) runs each grid point in both modes and
//! asserts the classify response bodies are byte-identical across them.
//! The default batch is a single short sequence per request — the
//! online-serving shape where connection overhead matters; `--batch` and
//! `--seq-len` scale the request body up to amortize it. The smallest
//! pattern-count grid point isolates connection handling (classification
//! is nearly free there); the larger ones show classify-cost scaling.
//! Each grid point is measured `--repeat` times and the best run is kept
//! (scheduling noise on a shared box only ever subtracts throughput).
//!
//! Reports requests/second plus p50/p99 request latency per grid point and
//! records JSON (default `BENCH_serve.json`); the CI bench gate compares
//! the `rps` column against the committed baseline.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use noisemine_bench::args::Args;
use noisemine_bench::table::Table;
use noisemine_core::lattice::Border;
use noisemine_core::miner::{FrequentPattern, MineOutcome, MineStats, Provenance};
use noisemine_core::{Alphabet, CompatibilityMatrix, Pattern, PatternModel, Symbol};
use noisemine_serve::{ModelRegistry, ServeConfig, ServeModel, Server};

struct Row {
    patterns: usize,
    concurrency: usize,
    mode: &'static str,
    requests: usize,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn main() {
    let args = Args::parse();
    args.deny_unknown(&[
        "seed",
        "patterns",
        "concurrency",
        "requests",
        "batch",
        "seq-len",
        "threads",
        "mode",
        "repeat",
        "out",
    ]);
    let seed = args.u64("seed", 2002);
    let pattern_counts = args.usize_list("patterns", &[4, 16, 64]);
    let concurrencies = args.usize_list("concurrency", &[1, 8]);
    let requests = args.usize("requests", 200);
    let batch = args.usize("batch", 1);
    let seq_len = args.usize("seq-len", 10);
    let threads = args.usize("threads", 4);
    let modes: &[&str] = match args.get("mode", "both") {
        "close" => &["close"],
        "keepalive" => &["keepalive"],
        "both" => &["close", "keepalive"],
        other => panic!("--mode must be close|keepalive|both, got {other:?}"),
    };
    let repeat = args.usize("repeat", 3).max(1);
    let out = args.get("out", "BENCH_serve.json").to_string();

    noisemine_obs::enable();
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let alphabet = Alphabet::amino_acids();
    let m = alphabet.len();
    let body = classify_body(&alphabet, batch, seq_len, seed);
    let close_wire = Arc::new(request_wire(&body, true));
    let ka_wire = Arc::new(request_wire(&body, false));

    let mut t = Table::new(
        &format!(
            "Serve load (batch = {batch} × len {seq_len}, {requests} req/client, \
             {threads} server thread(s), {cpus} cpu(s))"
        ),
        [
            "patterns", "clients", "mode", "requests", "rps", "p50 ms", "p99 ms",
        ],
    );
    let mut rows = Vec::new();
    for &p in &pattern_counts {
        let model = synthetic_model(&alphabet, m, p, seed);
        for &concurrency in &concurrencies {
            for &mode in modes {
                let mut best: Option<Row> = None;
                for _ in 0..repeat {
                    let registry = Arc::new(ModelRegistry::new(0.0));
                    registry.swap("default", ServeModel::compile(model.clone()));
                    let server = Server::start(
                        &ServeConfig {
                            addr: "127.0.0.1:0".into(),
                            threads,
                            ..ServeConfig::default()
                        },
                        registry,
                    )
                    .expect("server starts");
                    let addr = server.addr().to_string();

                    // The connection mode must not change classification:
                    // responses are byte-identical across close and keep-alive.
                    let reference = classify_close(&addr, &close_wire);
                    assert_eq!(status_of(&reference), 200, "warm-up classify failed");
                    let via_keepalive = {
                        let mut client = KeepAliveClient::connect(&addr);
                        client.classify(&ka_wire)
                    };
                    assert_eq!(
                        body_of(&reference),
                        body_of(&via_keepalive),
                        "classify response differs between close and keep-alive"
                    );

                    let start = Instant::now();
                    let clients: Vec<_> = (0..concurrency)
                        .map(|_| {
                            let addr = addr.clone();
                            let close_wire = Arc::clone(&close_wire);
                            let ka_wire = Arc::clone(&ka_wire);
                            std::thread::spawn(move || {
                                let mut keepalive =
                                    (mode == "keepalive").then(|| KeepAliveClient::connect(&addr));
                                let mut latencies = Vec::with_capacity(requests);
                                for _ in 0..requests {
                                    let t0 = Instant::now();
                                    let response = match &mut keepalive {
                                        Some(client) => client.classify(&ka_wire),
                                        None => classify_close(&addr, &close_wire),
                                    };
                                    assert_eq!(
                                        status_of(&response),
                                        200,
                                        "classify failed under load"
                                    );
                                    latencies.push(t0.elapsed().as_secs_f64());
                                }
                                latencies
                            })
                        })
                        .collect();
                    let mut latencies: Vec<f64> = clients
                        .into_iter()
                        .flat_map(|c| c.join().expect("client thread"))
                        .collect();
                    let wall = start.elapsed().as_secs_f64();
                    server.stop();
                    server.join();

                    latencies.sort_by(|a, b| a.total_cmp(b));
                    let total = latencies.len();
                    let row = Row {
                        patterns: p,
                        concurrency,
                        mode,
                        requests: total,
                        rps: total as f64 / wall,
                        p50_ms: 1e3 * percentile(&latencies, 0.50),
                        p99_ms: 1e3 * percentile(&latencies, 0.99),
                    };
                    // Best-of-`repeat` (highest rps): scheduling noise on a
                    // shared box only ever subtracts throughput.
                    if best.as_ref().is_none_or(|b| row.rps > b.rps) {
                        best = Some(row);
                    }
                }
                let row = best.expect("repeat >= 1");
                t.row([
                    row.patterns.to_string(),
                    row.concurrency.to_string(),
                    row.mode.to_string(),
                    row.requests.to_string(),
                    format!("{:.0}", row.rps),
                    format!("{:.3}", row.p50_ms),
                    format!("{:.3}", row.p99_ms),
                ]);
                rows.push(row);
            }
        }
    }
    t.emit(None);

    std::fs::write(&out, to_json(seed, batch, seq_len, threads, cpus, &rows)).expect("write json");
    println!("\nwrote {out}");
}

/// A model with exactly `count` deterministic contiguous patterns — grid
/// points differ only in pattern-set size, not mining noise.
fn synthetic_model(alphabet: &Alphabet, m: usize, count: usize, seed: u64) -> PatternModel {
    let matrix = CompatibilityMatrix::uniform_noise(m, 0.15).expect("valid noise");
    let mut state = seed | 1;
    let frequent = (0..count)
        .map(|_| {
            let symbols: Vec<Symbol> = (0..5)
                .map(|_| {
                    state = lcg(state);
                    Symbol(((state >> 33) % m as u64) as u16)
                })
                .collect();
            FrequentPattern {
                pattern: Pattern::contiguous(&symbols).expect("non-empty"),
                match_estimate: 0.5,
                provenance: Provenance::Verified,
            }
        })
        .collect();
    let outcome = MineOutcome {
        frequent,
        border: Border::default(),
        symbol_match: vec![0.4; m],
        stats: MineStats::default(),
    };
    PatternModel::from_outcome(&outcome, alphabet, &matrix, 0.1, 1)
}

/// A fixed classify request body: `batch` random sequences of `seq_len`
/// symbol names.
fn classify_body(alphabet: &Alphabet, batch: usize, seq_len: usize, seed: u64) -> String {
    let m = alphabet.len() as u64;
    let mut state = seed ^ 0x9e37_79b9;
    let seqs: Vec<String> = (0..batch)
        .map(|_| {
            let names: Vec<String> = (0..seq_len)
                .map(|_| {
                    state = lcg(state);
                    let sym = Symbol(((state >> 33) % m) as u16);
                    format!("\"{}\"", alphabet.name(sym).expect("in range"))
                })
                .collect();
            format!("[{}]", names.join(","))
        })
        .collect();
    format!(
        "{{\"tenant\": \"default\", \"sequences\": [{}]}}",
        seqs.join(",")
    )
}

fn lcg(state: u64) -> u64 {
    state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// The classify request rendered to wire bytes once — clients resend the
/// same bytes rather than re-formatting per request.
fn request_wire(body: &str, close: bool) -> Vec<u8> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "POST /v1/classify HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\
         {connection}\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One classify request over a fresh loopback connection (`Connection:
/// close`); returns the raw response.
fn classify_close(addr: &str, wire: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(wire).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// A persistent HTTP/1.1 client: one loopback connection reused across
/// requests, responses framed by `Content-Length`.
struct KeepAliveClient {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl KeepAliveClient {
    fn connect(addr: &str) -> Self {
        KeepAliveClient {
            stream: TcpStream::connect(addr).expect("connect"),
            carry: Vec::new(),
        }
    }

    /// Sends one classify request and reads exactly one framed response.
    fn classify(&mut self, wire: &[u8]) -> String {
        self.stream.write_all(wire).expect("send request");

        let mut raw = std::mem::take(&mut self.carry);
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = find_terminator(&raw) {
                break pos;
            }
            let n = self.stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "connection closed mid-response");
            raw.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&raw[..head_end]).expect("utf-8 head");
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().expect("content-length"))
            })
            .expect("response has Content-Length");
        let total = head_end + 4 + content_length;
        while raw.len() < total {
            let n = self.stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "connection closed mid-body");
            raw.extend_from_slice(&chunk[..n]);
        }
        self.carry = raw.split_off(total);
        String::from_utf8(raw).expect("utf-8 response")
    }
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_terminator(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n")
}

/// HTTP status code of a raw response.
fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line")
}

/// Body of a raw response (everything after the head terminator).
fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default()
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Hand-rolled JSON (the vendored serde shim does not serialize).
fn to_json(
    seed: u64,
    batch: usize,
    seq_len: usize,
    threads: usize,
    cpus: usize,
    rows: &[Row],
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"serve_load\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"batch\": {batch},");
    let _ = writeln!(s, "  \"seq_len\": {seq_len},");
    let _ = writeln!(s, "  \"server_threads\": {threads},");
    let _ = writeln!(s, "  \"cpus\": {cpus},");
    let _ = writeln!(
        s,
        "  \"metrics\": {},",
        noisemine_bench::metrics_json_fragment(2)
    );
    let _ = writeln!(s, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"patterns\": {}, \"concurrency\": {}, \"mode\": \"{}\", \"requests\": {}, \
             \"rps\": {:.1}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}}{comma}",
            r.patterns, r.concurrency, r.mode, r.requests, r.rps, r.p50_ms, r.p99_ms,
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}
