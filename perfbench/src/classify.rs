//! `classify`: the `/v1/classify` load generator.
//!
//! Requests are batches of `BATCH` sequences drawn (seeded) from the
//! database the model was mined from. Each response must be HTTP 200 with
//! a body equal, byte for byte, to the body rendered here from the
//! offline `noisemine_serve::classify` result for the same batch; anything
//! else counts as a failed request.
//!
//! Two phases run on `CONNS` keep-alive connections from this one
//! process: a closed loop (each connection sends its next request when
//! the previous reply arrives) for `CLOSED_S`, then an open loop that
//! sends request `k` at `start + k / --rate` for `OPEN_S`, timing each
//! request from that due time.
//!
//! Closed-loop throughput is reported per fixed window, so a stall of the
//! shared host moves a window instead of the whole figure. Open-loop
//! percentiles cover the whole open phase.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use noisemine_core::Symbol;
use noisemine_serve::{classify, json as sj, read_model, ServeModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::args::Args;
use crate::json::{self, Obj};

/// In-process model loads and per-batch scoring passes; their medians are
/// reported, so a few repetitions suffice.
const REPEATS: usize = 5;
/// Keep-alive connections the client opens: one per CPU of the 2-CPU
/// host the benchmark was sized on.
const CONNS: usize = 2;
/// Sequences per request.
const BATCH: usize = 8;
/// Distinct request batches, sent round-robin.
const BATCHES: usize = 512;
/// Length of the closed-loop and the open-loop phase.
const CLOSED_S: f64 = 2.0;
const OPEN_S: f64 = 2.0;
/// Closed-loop throughput window.
const RPS_WINDOW_S: f64 = 0.5;
/// Largest reply body read; classify replies here are tens of KB.
const MAX_BODY: usize = 16 << 20;

pub fn run(args: &Args) -> Result<(), String> {
    let model_path = args.str("model")?;
    let mut load_s = Vec::new();
    let mut model = None;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let spec = read_model(model_path).map_err(|e| format!("{model_path}: {e}"))?;
        model = Some(ServeModel::compile(spec));
        load_s.push(t.elapsed().as_secs_f64());
    }
    let model = model.expect("REPEATS is positive");

    let db = args.str("db")?;
    let sequences = noisemine_seqdb::read_sequences_file(db, &model.spec.alphabet)
        .map_err(|e| format!("{db}: {e}"))?;
    if sequences.is_empty() {
        return Err(format!("{db} holds no sequences"));
    }
    let mut rng = StdRng::seed_from_u64(args.num("seed")?);
    let batches: Vec<Vec<Vec<Symbol>>> = (0..BATCHES)
        .map(|_| {
            (0..BATCH)
                .map(|_| sequences[rng.gen_range(0..sequences.len())].clone())
                .collect()
        })
        .collect();
    let requests = batches
        .iter()
        .map(|b| request_bytes(&model, b))
        .collect::<Result<Vec<_>, _>>()?;
    let expected: Vec<Vec<u8>> = batches
        .iter()
        .map(|b| expected_body(&model, b).into_bytes())
        .collect();
    let mut corrupted = expected[0].clone();
    let last = corrupted.len() - 2;
    corrupted[last] ^= 1;
    if response_ok(Ok((200, corrupted)), &expected[0]) {
        return Err("a corrupted response body passed the byte-for-byte check".into());
    }

    // `--score 1`: time in-process scoring of every batch.
    let mut score_us = Vec::new();
    if args.num::<u8>("score")? == 1 {
        for _ in 0..REPEATS {
            for batch in &batches {
                let t = Instant::now();
                std::hint::black_box(classify(&model, std::hint::black_box(batch)));
                score_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }

    let addr = args.str("addr")?;
    let closed = closed_loop(addr, &requests, &expected);
    let open = open_loop(addr, &requests, &expected, args.num("rate")?);

    let report = Obj::new()
        .num("model_load_s", median(&mut load_s))
        .num("score_us_p50", median(&mut score_us))
        .int("closed_ok", closed.ok as u64)
        .int("closed_failed", closed.failed as u64)
        .raw("closed_rps_windows", nums(&rps_windows(&closed.done_s)))
        .int("open_ok", open.ok as u64)
        .int("open_failed", open.failed as u64)
        .num(
            "open_p50_ms",
            percentile(&mut open.latency_ms.clone(), 0.50),
        )
        .num(
            "open_p99_ms",
            percentile(&mut open.latency_ms.clone(), 0.99),
        )
        .num(
            "open_late_p99_ms",
            percentile(&mut open.late_ms.clone(), 0.99),
        );
    json::write(args.str("out")?, &report)
}

fn request_bytes(model: &ServeModel, batch: &[Vec<Symbol>]) -> Result<Vec<u8>, String> {
    let alphabet = &model.spec.alphabet;
    let mut rows = Vec::with_capacity(batch.len());
    for seq in batch {
        let names = seq
            .iter()
            .map(|&s| alphabet.name(s).map(sj::escape))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        rows.push(format!("[{}]", names.join(", ")));
    }
    let body = format!("{{\"sequences\": [{}]}}", rows.join(", "));
    Ok(format!(
        "POST /v1/classify HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes())
}

/// The `/v1/classify` body for `batch` on the default tenant, rendered
/// from the offline `classify` result in the server's response layout.
fn expected_body(model: &ServeModel, batch: &[Vec<Symbol>]) -> String {
    let result = classify(model, batch);
    let patterns: Vec<String> = model
        .pattern_json
        .iter()
        .enumerate()
        .map(|(p, fragment)| {
            let scores: Vec<String> = result
                .per_sequence
                .iter()
                .map(|row| sj::num(row[p]))
                .collect();
            format!(
                "{{{fragment}, \"db_match\": {}, \"sequence_scores\": [{}]}}",
                sj::num(result.db_match[p]),
                scores.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"tenant\": {}, \"model_version\": {}, \"num_patterns\": {}, \
         \"num_sequences\": {}, \"patterns\": [{}]}}",
        sj::escape("default"),
        result.model_version,
        model.num_patterns(),
        batch.len(),
        patterns.join(", ")
    )
}

fn response_ok(response: std::io::Result<(u16, Vec<u8>)>, expected: &[u8]) -> bool {
    matches!(response, Ok((200, body)) if body == expected)
}

/// One keep-alive HTTP/1.1 connection, reopened after an error or a
/// `Connection: close` reply.
struct Conn<'a> {
    addr: &'a str,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn<'_> {
    fn post(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let result = self.exchange(request);
        if !matches!(result, Ok((_, _, true))) {
            self.stream = None;
        }
        result.map(|(status, body, _)| (status, body))
    }

    /// Sends `request` and reads the reply: status, body, and whether the
    /// connection stays open.
    fn exchange(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>, bool)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        reader.get_mut().write_all(request)?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_reply(&line))?;
        let mut length = None;
        let mut keep_alive = true;
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad_reply(header));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let n = value.parse::<usize>().map_err(|_| bad_reply(header))?;
                if n > MAX_BODY {
                    return Err(bad_reply(header));
                }
                length = Some(n);
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
        let mut body = vec![0u8; length.ok_or_else(|| bad_reply("no Content-Length"))?];
        reader.read_exact(&mut body)?;
        Ok((status, body, keep_alive))
    }
}

fn bad_reply(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("bad reply: {what:?}"),
    )
}

/// Outcomes of one load phase: completion times (seconds since the phase
/// start) of ok closed-loop requests, and the latency and send lateness
/// of each open-loop request.
#[derive(Default)]
struct Phase {
    ok: usize,
    failed: usize,
    done_s: Vec<f64>,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.done_s.extend(other.done_s);
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
    }
}

fn closed_loop(addr: &str, requests: &[Vec<u8>], expected: &[Vec<u8>]) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(CLOSED_S);
    let mut total = Phase::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = Conn { addr, stream: None };
                    let mut phase = Phase::default();
                    let mut i = c;
                    while Instant::now() < deadline {
                        let k = i % requests.len();
                        if response_ok(conn.post(&requests[k]), &expected[k]) {
                            phase.ok += 1;
                            phase.done_s.push(start.elapsed().as_secs_f64());
                        } else {
                            phase.failed += 1;
                        }
                        i += CONNS;
                    }
                    phase
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("closed-loop client panicked"));
        }
    });
    total
}

fn open_loop(addr: &str, requests: &[Vec<u8>], expected: &[Vec<u8>], rate: f64) -> Phase {
    let count = (OPEN_S * rate).round() as usize;
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut total = Phase::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut conn = Conn { addr, stream: None };
                    let mut phase = Phase::default();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= count {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(k as f64 / rate);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let response = conn.post(&requests[k % requests.len()]);
                        let done = Instant::now();
                        if response_ok(response, &expected[k % requests.len()]) {
                            phase.ok += 1;
                        } else {
                            phase.failed += 1;
                        }
                        phase.latency_ms.push((done - due).as_secs_f64() * 1e3);
                        phase
                            .late_ms
                            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                    }
                    phase
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("open-loop client panicked"));
        }
    });
    total
}

fn nums(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| sj::num(v)).collect();
    format!("[{}]", items.join(", "))
}

/// Completed requests per second in each full `RPS_WINDOW_S` window.
fn rps_windows(done_s: &[f64]) -> Vec<f64> {
    let windows = done_s.iter().fold(0.0f64, |a, &t| a.max(t)) / RPS_WINDOW_S;
    let mut counts = vec![0.0f64; windows.floor() as usize];
    for &t in done_s {
        if let Some(c) = counts.get_mut((t / RPS_WINDOW_S) as usize) {
            *c += 1.0 / RPS_WINDOW_S;
        }
    }
    counts
}

fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile; 0 for an empty sample.
fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}
