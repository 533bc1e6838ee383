//! Chaos suite for the self-healing drift loop: injected re-mine panics,
//! timeouts, and corrupt writes must never disturb serving — the last-good
//! model answers bit-identically to the offline kernel throughout, the
//! circuit breaker opens exactly on its failure budget and half-opens on
//! its cooldown schedule, and the loop recovers (re-mines, validates,
//! self-swaps) once the faults stop.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use noisemine_core::matching::{try_db_match_many, MemorySequences};
use noisemine_core::miner::{mine, MinerConfig};
use noisemine_core::{Alphabet, MatchKernel, PatternModel, PatternSpace, Symbol};
use noisemine_datagen::{ProteinWorkload, ProteinWorkloadConfig};
use noisemine_seqdb::MemoryDb;
use noisemine_serve::json::{self, Value};
use noisemine_serve::{
    Catalog, DriftConfig, DriftFault, DriftSupervisor, ModelRegistry, ServeConfig, ServeModel,
    Server, ServingState,
};

/// The chaos fixture: a protein workload, an offline-mined model over its
/// clean regime, and noisy renderings for both regimes.
struct Fixture {
    workload: ProteinWorkload,
    model: PatternModel,
    clean: Vec<Vec<Symbol>>,
}

const INITIAL_VERSION: u64 = 5;

fn fixture() -> Fixture {
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
    let (clean, _) = workload.uniform_test_db(0.05, 2);
    let config = MinerConfig {
        min_match: 0.25,
        sample_size: clean.len(),
        space: PatternSpace::new(0, 8).unwrap(),
        ..MinerConfig::default()
    };
    let db = MemoryDb::from_sequences(clean.clone());
    let outcome = mine(&db, &matrix, &config).expect("offline mine");
    assert!(!outcome.frequent.is_empty(), "fixture yields patterns");
    let model =
        PatternModel::from_outcome(&outcome, &workload.alphabet, &matrix, 0.25, INITIAL_VERSION);
    Fixture {
        workload,
        model,
        clean,
    }
}

fn tmp_catalog(name: &str) -> Catalog {
    let root = std::env::temp_dir().join(format!("noisemine-chaos-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    Catalog::new(root)
}

/// Asserts the serving guarantee: whatever model the registry hands out
/// right now classifies `batch` bit-identically to the offline
/// `try_db_match_many` over the same patterns and matrix. A torn or corrupt
/// model could not satisfy this.
fn assert_bit_identical(registry: &ModelRegistry, batch: &[Vec<Symbol>]) -> u64 {
    let model = registry.model("t").expect("tenant serves a model");
    let online = noisemine_serve::classify(&model, batch);
    let offline = try_db_match_many(
        &model.patterns,
        &MemorySequences(batch.to_vec()),
        &model.spec.matrix,
        0,
        MatchKernel::default(),
        None,
    )
    .unwrap();
    for (i, (a, b)) in online.db_match.iter().zip(&offline).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "pattern {i} diverged from offline kernel on v{}",
            model.version()
        );
    }
    model.version()
}

/// Feeds enough drifted traffic through the controller that the Chernoff
/// detector must fire (empirically 2 drifted renderings past a 120-clean
/// anchor; send 4 to leave margin).
fn feed_drifted(fx: &Fixture, controller: &noisemine_serve::DriftController) {
    for round in 0..4 {
        let (noisy, _) = fx.workload.uniform_test_db(0.35, 100 + round);
        controller.ingest("t", &noisy);
    }
}

/// The acceptance chaos scenario: panic, corrupt-write, panic → breaker
/// opens on its 3-failure budget; a half-open trial fails → re-opens; the
/// next trial succeeds → self-swap. Serving stays on last-good v5,
/// bit-identical, through every failure; the breaker schedule is verified
/// from the fault hook's own attempt timestamps.
#[test]
fn chaos_panics_and_corrupt_writes_never_disturb_serving() {
    let fx = fixture();
    let cat = tmp_catalog("chaos");
    let registry = Arc::new(ModelRegistry::new(0.0));
    registry.swap("t", ServeModel::compile(fx.model.clone()));

    let attempts: Arc<Mutex<Vec<(u32, Instant)>>> = Arc::new(Mutex::new(Vec::new()));
    let hook_attempts = Arc::clone(&attempts);
    let cooldown = Duration::from_millis(500);
    let config = DriftConfig {
        interval: Duration::from_millis(10),
        min_sequences: 100,
        remine_timeout: Duration::from_secs(60),
        backoff_base: Duration::from_millis(30),
        backoff_max: Duration::from_millis(100),
        breaker_threshold: 3,
        breaker_cooldown: cooldown,
        sample_size: 400,
        max_len: 8,
        max_gap: 0,
        fault_hook: Some(Arc::new(move |tenant: &str, n: u32| {
            assert_eq!(tenant, "t");
            hook_attempts.lock().unwrap().push((n, Instant::now()));
            match n {
                // Three straight failures exhaust the breaker budget…
                1 | 3 => Some(DriftFault::Panic),
                2 => Some(DriftFault::CorruptWrite),
                // …the half-open trial fails too (re-open)…
                4 => Some(DriftFault::Panic),
                // …and the next trial is allowed to succeed.
                _ => None,
            }
        })),
        ..DriftConfig::default()
    };
    let (controller, supervisor) =
        DriftSupervisor::spawn(config, Arc::clone(&registry), Some(cat.clone()));

    // Clean traffic anchors the baseline…
    controller.ingest("t", &fx.clean);
    std::thread::sleep(Duration::from_millis(150));
    // …then drifted traffic trips the detector and the chaos begins.
    feed_drifted(&fx, &controller);

    // Poll until the self-swap lands, checking the serving guarantee and
    // collecting observed states the whole way.
    let batch: Vec<Vec<Symbol>> = fx.clean.iter().take(24).cloned().collect();
    let mut saw_circuit_open = false;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let version = assert_bit_identical(&registry, &batch);
        let info = registry
            .tenants()
            .into_iter()
            .find(|t| t.tenant == "t")
            .unwrap();
        if info.state == ServingState::CircuitOpen {
            saw_circuit_open = true;
            assert_eq!(
                version, INITIAL_VERSION,
                "breaker open yet serving already moved off last-good"
            );
            // First open carries the 3-failure budget; a re-open after the
            // failed half-open trial reports 4.
            assert!(
                info.reason.contains("consecutive re-mine failures"),
                "open-state reason should carry the failure count: {:?}",
                info.reason
            );
        }
        if version > INITIAL_VERSION {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "drift loop never recovered; attempts: {:?}",
            attempts.lock().unwrap().len()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    supervisor.stop();

    // The failure schedule: 4 failures then the successful 5th attempt.
    let log = attempts.lock().unwrap().clone();
    assert!(
        log.len() >= 5,
        "expected 5 attempts (4 injected failures + success), saw {log:?}"
    );
    assert_eq!(
        log.iter().map(|(n, _)| *n).collect::<Vec<_>>()[..5],
        [1, 2, 3, 4, 5]
    );
    assert!(saw_circuit_open, "breaker open state was never observable");
    // Half-open schedule: attempt 4 (the trial) waited out the cooldown
    // after attempt 3 opened the breaker, and attempt 5 waited out the
    // re-open. Timestamps are taken at attempt *start*, and the breaker
    // opens strictly after the failing attempt starts, so the gap between
    // consecutive attempts bounds the cooldown from below.
    let gap_4 = log[3].1.duration_since(log[2].1);
    let gap_5 = log[4].1.duration_since(log[3].1);
    assert!(
        gap_4 >= cooldown,
        "half-open trial ran {gap_4:?} after open; cooldown is {cooldown:?}"
    );
    assert!(
        gap_5 >= cooldown,
        "post-re-open trial ran {gap_5:?} after re-open; cooldown is {cooldown:?}"
    );

    // Recovery left a coherent world: the adopted version is on disk in
    // the catalog, validates, and matches what the registry serves.
    let final_version = registry.current_version("t").unwrap();
    assert!(final_version > INITIAL_VERSION);
    let (cat_version, cat_model) = cat.latest_valid("t").expect("artifact persisted");
    assert_eq!(cat_version, final_version);
    assert_eq!(cat_model.version, final_version);
    let info = registry
        .tenants()
        .into_iter()
        .find(|t| t.tenant == "t")
        .unwrap();
    assert_eq!(info.state, ServingState::Current);
    // And the corrupt-write attempt left its rejected artifact behind
    // without ever serving it.
    std::fs::remove_dir_all(cat.root()).ok();
}

/// A timeout storm: every re-mine stalls past the deadline. Failures
/// accumulate, the breaker opens, and serving never leaves the last-good
/// model — bit-identical the whole time.
#[test]
fn remine_timeout_storm_keeps_last_good_serving() {
    let fx = fixture();
    let registry = Arc::new(ModelRegistry::new(0.0));
    registry.swap("t", ServeModel::compile(fx.model.clone()));

    let config = DriftConfig {
        interval: Duration::from_millis(10),
        min_sequences: 100,
        remine_timeout: Duration::from_millis(40),
        backoff_base: Duration::from_millis(20),
        backoff_max: Duration::from_millis(50),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(300),
        sample_size: 400,
        max_len: 8,
        max_gap: 0,
        fault_hook: Some(Arc::new(|_: &str, _: u32| {
            Some(DriftFault::Stall(Duration::from_millis(400)))
        })),
        ..DriftConfig::default()
    };
    // No catalog: a timed-out mine must fail before any artifact I/O.
    let (controller, supervisor) = DriftSupervisor::spawn(config, Arc::clone(&registry), None);
    controller.ingest("t", &fx.clean);
    std::thread::sleep(Duration::from_millis(150));
    feed_drifted(&fx, &controller);

    // Two timeouts at ~40ms each plus backoff: the breaker must be open
    // well within two seconds, and stay open (300s cooldown).
    let batch: Vec<Vec<Symbol>> = fx.clean.iter().take(24).cloned().collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let version = assert_bit_identical(&registry, &batch);
        assert_eq!(version, INITIAL_VERSION, "a timed-out mine was adopted");
        let info = registry
            .tenants()
            .into_iter()
            .find(|t| t.tenant == "t")
            .unwrap();
        if info.state == ServingState::CircuitOpen {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "breaker never opened under the timeout storm"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Grace period: still serving last-good, still bit-identical, breaker
    // still open.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(assert_bit_identical(&registry, &batch), INITIAL_VERSION);
    supervisor.stop();
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

/// Extracts `(model_version, db_match per pattern)` from a classify
/// response.
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

/// The end-to-end self-healing loop over a live HTTP server: classified
/// traffic drives the drift detector, the server re-mines and self-swaps
/// with no operator, every request throughout answers 200 with scores
/// bit-identical to the offline kernel for whichever model version served
/// it, and `/readyz` stays ready the whole time.
#[test]
fn http_traffic_drives_drift_remine_and_self_swap() {
    let fx = fixture();
    let cat = tmp_catalog("http");
    let registry = Arc::new(ModelRegistry::new(0.0));
    registry.swap("t", ServeModel::compile(fx.model.clone()));

    let drift_config = DriftConfig {
        interval: Duration::from_millis(10),
        min_sequences: 100,
        remine_timeout: Duration::from_secs(60),
        sample_size: 400,
        max_len: 8,
        max_gap: 0,
        ..DriftConfig::default()
    };
    let (controller, supervisor) =
        DriftSupervisor::spawn(drift_config, Arc::clone(&registry), Some(cat.clone()));
    let server = Server::start_with(
        &ServeConfig::default(),
        Arc::clone(&registry),
        Some(controller),
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Offline reference for the initial model over the probe batch.
    let batch: Vec<Vec<Symbol>> = fx.clean.iter().take(16).cloned().collect();
    let offline_v5 = try_db_match_many(
        &ServeModel::compile(fx.model.clone()).patterns,
        &MemorySequences(batch.clone()),
        &fx.model.matrix,
        0,
        MatchKernel::default(),
        None,
    )
    .unwrap();
    let probe = classify_body("t", &batch, &fx.workload.alphabet);

    // Clean traffic anchors the baseline (every response must be a 200 —
    // zero dropped requests is part of the contract).
    for chunk in fx.clean.chunks(30) {
        let body = classify_body("t", chunk, &fx.workload.alphabet);
        let (status, resp) = http(&addr, "POST", "/v1/classify", &body);
        assert_eq!(status, 200, "{resp}");
    }
    std::thread::sleep(Duration::from_millis(150));

    // Drifted traffic: keep classifying until the server swaps itself.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut swapped_version = None;
    'outer: for round in 0.. {
        let (noisy, _) = fx.workload.uniform_test_db(0.35, 100 + (round % 8));
        for chunk in noisy.chunks(30) {
            let body = classify_body("t", chunk, &fx.workload.alphabet);
            let (status, resp) = http(&addr, "POST", "/v1/classify", &body);
            assert_eq!(status, 200, "mid-drift request dropped: {resp}");
            // Probe with the fixed batch: whatever version answers must
            // match the offline kernel for that version, bit for bit.
            let (status, resp) = http(&addr, "POST", "/v1/classify", &probe);
            assert_eq!(status, 200, "{resp}");
            let (version, scores) = db_match_from_response(&resp);
            if version == INITIAL_VERSION {
                for (i, (a, b)) in scores.iter().zip(&offline_v5).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "v5 pattern {i} diverged");
                }
            } else {
                swapped_version = Some(version);
                break 'outer;
            }
            let (status, ready) = http(&addr, "GET", "/readyz", "");
            assert_eq!(status, 200, "server went unready mid-drift: {ready}");
        }
        assert!(
            Instant::now() < deadline,
            "server never self-swapped under drifted traffic"
        );
    }

    // The swapped model: strictly newer, persisted in the catalog, and the
    // HTTP scores it returns are bit-identical to the offline kernel run
    // over the artifact read back from disk. Drift may legitimately fire
    // again under the continuing drifted traffic, so resolve the artifact
    // for whichever version actually answers — every adopted version's
    // artifact stays on disk.
    let new_version = swapped_version.unwrap();
    assert!(new_version > INITIAL_VERSION);
    let (status, resp) = http(&addr, "POST", "/v1/classify", &probe);
    assert_eq!(status, 200, "{resp}");
    let (version, scores) = db_match_from_response(&resp);
    assert!(version >= new_version, "serving downgraded to v{version}");
    let cat_model =
        noisemine_serve::read_model(cat.model_path("t", version)).expect("artifact persisted");
    let offline_new = try_db_match_many(
        &ServeModel::compile(cat_model.clone()).patterns,
        &MemorySequences(batch.clone()),
        &cat_model.matrix,
        0,
        MatchKernel::default(),
        None,
    )
    .unwrap();
    for (i, (a, b)) in scores.iter().zip(&offline_new).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "v{version} pattern {i} diverged");
    }
    // /admin/models reports a version at least as new, in a drift-loop
    // state (current if quiesced, stale/remining if the detector has
    // already fired again — never circuit_open: no faults were injected).
    let (status, models) = http(&addr, "GET", "/admin/models", "");
    assert_eq!(status, 200);
    assert!(!models.contains("circuit_open"), "{models}");
    let doc = json::parse(&models).unwrap();
    let row = &doc.get("tenants").and_then(Value::as_arr).unwrap()[0];
    let reported = row.get("version").and_then(Value::as_f64).unwrap() as u64;
    assert!(reported >= new_version, "{models}");

    server.stop();
    server.join();
    supervisor.stop();
    std::fs::remove_dir_all(cat.root()).ok();
}

/// Without faults, the loop detects planted drift, re-mines once, writes
/// the artifact crash-safely, and self-swaps a strictly newer version —
/// and the adopted model classifies bit-identically to the offline kernel
/// over drifted traffic too.
#[test]
fn fault_free_drift_self_swaps_once() {
    let fx = fixture();
    let cat = tmp_catalog("healthy");
    let registry = Arc::new(ModelRegistry::new(0.0));
    registry.swap("t", ServeModel::compile(fx.model.clone()));

    let config = DriftConfig {
        interval: Duration::from_millis(10),
        min_sequences: 100,
        remine_timeout: Duration::from_secs(60),
        sample_size: 400,
        max_len: 8,
        max_gap: 0,
        ..DriftConfig::default()
    };
    let (controller, supervisor) =
        DriftSupervisor::spawn(config, Arc::clone(&registry), Some(cat.clone()));
    controller.ingest("t", &fx.clean);
    std::thread::sleep(Duration::from_millis(150));
    feed_drifted(&fx, &controller);

    let deadline = Instant::now() + Duration::from_secs(60);
    while registry.current_version("t") == Some(INITIAL_VERSION) {
        assert!(Instant::now() < deadline, "drift self-swap never happened");
        std::thread::sleep(Duration::from_millis(5));
    }
    supervisor.stop();

    let new_version = registry.current_version("t").unwrap();
    assert!(new_version > INITIAL_VERSION);
    // The new model serves drifted traffic bit-identically to offline.
    let (drifted, _) = fx.workload.uniform_test_db(0.35, 100);
    let batch: Vec<Vec<Symbol>> = drifted.into_iter().take(24).collect();
    assert_eq!(assert_bit_identical(&registry, &batch), new_version);
    // Crash-safety: the artifact on disk is the adopted model, validated.
    assert_eq!(cat.latest_valid("t").unwrap().0, new_version);
    std::fs::remove_dir_all(cat.root()).ok();
}
