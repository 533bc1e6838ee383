//! The in-server drift loop: classified traffic feeds a per-tenant
//! [`StreamState`]; when the Chernoff drift detector fires, a supervised
//! background re-mine produces a new model, writes it into the catalog
//! crash-safely, and self-swaps — closing mine → serve → drift without an
//! operator.
//!
//! ## Architecture
//!
//! The classify route forwards each scored batch to a bounded channel
//! ([`DriftController::ingest`] — `try_send`, so a busy drift thread can
//! never stall a request; overflow is dropped and counted). One
//! **drift-loop thread** owns every tenant's [`StreamState`] and traffic
//! buffer, drains the channel, and on each tick:
//!
//! 1. anchors a fresh tenant's baseline once `min_sequences` samples have
//!    arrived (no mine — the offline model already serves; drift is
//!    measured *from here*),
//! 2. checks [`StreamState::drift_exceeded`]; a fire marks the tenant
//!    `stale`,
//! 3. runs the re-mine **supervised**: on a separate thread (panic
//!    isolation via the thread boundary), bounded by `remine_timeout`
//!    (result channel `recv_timeout`; an overrunning mine is abandoned —
//!    it holds only cloned data, so the engine is untouched),
//! 4. on success, writes the model into the catalog (tmp + rename),
//!    **re-reads and re-validates the artifact**, and only then adopts it
//!    through [`ModelRegistry::adopt_if_newer`] — a corrupt write is
//!    caught here and counts as a failure, the last-good model keeps
//!    serving,
//! 5. on failure (panic, timeout, mine error, corrupt write), retries with
//!    exponential backoff; after `breaker_threshold` consecutive failures
//!    the **circuit breaker** opens (state `circuit_open`, re-mines
//!    suspended). After `breaker_cooldown` it half-opens: one trial
//!    attempt is allowed — success closes the breaker, failure re-opens it
//!    for another cooldown.
//!
//! Every state transition lands on the registry ([`ServingState`]) and the
//! obs surface, so `/admin/models`, `/readyz`, and `/metrics` all tell the
//! same story. Because the engine is only mutated by
//! [`StreamState::complete_mine`] *after* a fully validated adoption, a
//! failed attempt of any kind leaves both the served model and the drift
//! detector exactly as they were.
//!
//! ## Chaos hooks
//!
//! [`DriftConfig::fault_hook`] lets tests inject failures at exact points:
//! a panic inside the supervised mine, a stall past the deadline, or a
//! corrupted artifact write. The chaos suite drives all three and asserts
//! the breaker schedule and byte-identical serving throughout.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use noisemine_core::miner::{mine_from_phase1, MinerConfig};
use noisemine_core::{PatternModel, PatternSpace, Symbol};
use noisemine_seqdb::MemoryDb;
use noisemine_stream::StreamState;

use crate::catalog::{Catalog, StopSignal};
use crate::registry::{Adoption, ModelRegistry, ServingState};

/// An injected re-mine failure (chaos testing; see the module docs).
#[derive(Debug, Clone, Copy)]
pub enum DriftFault {
    /// Panic inside the supervised mine thread.
    Panic,
    /// Sleep this long inside the supervised mine thread (set it past
    /// `remine_timeout` to exercise the deadline path).
    Stall(Duration),
    /// Replace the catalog artifact's bytes with garbage after the write —
    /// the validate-before-adopt step must reject it.
    CorruptWrite,
}

/// Decides whether attempt number `n` (1-based, per tenant) for `tenant`
/// should fail, and how.
pub type FaultHook = Arc<dyn Fn(&str, u32) -> Option<DriftFault> + Send + Sync>;

/// Drift-loop configuration.
#[derive(Clone)]
pub struct DriftConfig {
    /// How often the loop checks each tenant for drift.
    pub interval: Duration,
    /// Samples a tenant must accumulate before its baseline is anchored
    /// (and before any re-mine): the Chernoff bound is meaningless over a
    /// handful of sequences.
    pub min_sequences: u64,
    /// Deadline for one supervised re-mine.
    pub remine_timeout: Duration,
    /// First retry delay after a failed re-mine; doubles per consecutive
    /// failure up to [`Self::backoff_max`].
    pub backoff_base: Duration,
    /// Exponential-backoff ceiling.
    pub backoff_max: Duration,
    /// Consecutive failures that open the circuit breaker.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before half-opening (one trial
    /// attempt allowed).
    pub breaker_cooldown: Duration,
    /// Retained-traffic cap per tenant. Beyond it, new samples no longer
    /// grow the re-mine buffer (dropped and counted) — bounding memory on
    /// a long-lived server.
    pub max_buffer: usize,
    /// Reservoir size for each tenant's [`StreamState`].
    pub sample_size: usize,
    /// Pattern-space bound for in-server re-mines: maximum pattern length.
    pub max_len: usize,
    /// Pattern-space bound for in-server re-mines: maximum gap.
    pub max_gap: usize,
    /// Seed for each tenant's engine (reservoir RNG).
    pub seed: u64,
    /// Chaos hook: injects failures into exact points of the re-mine path
    /// (`None` in production).
    pub fault_hook: Option<FaultHook>,
}

impl std::fmt::Debug for DriftConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftConfig")
            .field("interval", &self.interval)
            .field("min_sequences", &self.min_sequences)
            .field("remine_timeout", &self.remine_timeout)
            .field("backoff_base", &self.backoff_base)
            .field("backoff_max", &self.backoff_max)
            .field("breaker_threshold", &self.breaker_threshold)
            .field("breaker_cooldown", &self.breaker_cooldown)
            .field("max_buffer", &self.max_buffer)
            .field("fault_hook", &self.fault_hook.is_some())
            .finish()
    }
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_secs(1),
            min_sequences: 256,
            remine_timeout: Duration::from_secs(30),
            backoff_base: Duration::from_secs(1),
            backoff_max: Duration::from_secs(60),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(30),
            max_buffer: 100_000,
            sample_size: 512,
            max_len: 8,
            max_gap: 0,
            seed: 2002,
            fault_hook: None,
        }
    }
}

/// One classified batch forwarded from the classify route.
struct Sample {
    tenant: String,
    sequences: Vec<Vec<Symbol>>,
}

/// Channel capacity for classify → drift-loop samples. Overflow is dropped
/// (and counted), never blocks a request.
const SAMPLE_CHANNEL_CAP: usize = 1024;

/// The classify route's handle into the drift loop: forwards classified
/// batches, best-effort.
pub struct DriftController {
    tx: SyncSender<Sample>,
}

impl std::fmt::Debug for DriftController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftController").finish()
    }
}

impl DriftController {
    /// Forwards one classified batch into the drift loop. Non-blocking: a
    /// full channel (or a stopped loop) drops the sample and bumps
    /// `serve_drift_samples_dropped_total` — drift sampling is best-effort
    /// by design, classification latency is never taxed.
    pub fn ingest(&self, tenant: &str, sequences: &[Vec<Symbol>]) {
        if sequences.is_empty() {
            return;
        }
        let sample = Sample {
            tenant: tenant.to_string(),
            sequences: sequences.to_vec(),
        };
        match self.tx.try_send(sample) {
            Ok(()) => crate::obs::drift_samples().add(sequences.len() as u64),
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                crate::obs::drift_samples_dropped().add(sequences.len() as u64);
            }
        }
    }
}

/// Circuit-breaker state for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    Closed,
    /// Open since the contained instant; no attempts until cooldown.
    Open(Instant),
    /// Cooldown elapsed; exactly one trial attempt is in flight or
    /// pending.
    HalfOpen,
}

impl Breaker {
    fn as_gauge(self) -> f64 {
        match self {
            Breaker::Closed => 0.0,
            Breaker::HalfOpen => 1.0,
            Breaker::Open(_) => 2.0,
        }
    }
}

/// Per-tenant drift-loop state, owned by the loop thread.
struct TenantDrift {
    stream: StreamState,
    /// Every retained sample, in arrival order — the re-mine's phase-3
    /// database (capped at `max_buffer`).
    buffer: Vec<Vec<Symbol>>,
    /// Model metadata frozen from the tenant's serving model at attach
    /// time (alphabet for freezing outcomes, min_match already inside the
    /// stream config).
    alphabet: noisemine_core::Alphabet,
    /// Whether the baseline has been anchored (first `min_sequences`
    /// samples calibrate the detector; no mine).
    anchored: bool,
    /// Consecutive re-mine failures (reset on success).
    failures: u32,
    breaker: Breaker,
    /// Earliest instant the next attempt may run (backoff schedule).
    next_attempt: Instant,
    /// Total attempts (1-based counter fed to the fault hook).
    attempts: u32,
}

/// The drift-loop supervisor thread handle. Stop with
/// [`DriftSupervisor::stop`]; dropping also stops and joins.
pub struct DriftSupervisor {
    signal: Arc<StopSignal>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for DriftSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftSupervisor")
            .field("stopped", &self.signal.is_stopped())
            .finish()
    }
}

impl DriftSupervisor {
    /// Spawns the drift loop. Returns the supervisor handle plus the
    /// controller the classify route feeds. When `catalog` is `Some`,
    /// re-mined models are persisted there (crash-safely) before adoption;
    /// when `None`, they are adopted in-memory only.
    pub fn spawn(
        config: DriftConfig,
        registry: Arc<ModelRegistry>,
        catalog: Option<Catalog>,
    ) -> (Arc<DriftController>, DriftSupervisor) {
        let (tx, rx) = mpsc::sync_channel(SAMPLE_CHANNEL_CAP);
        let signal = Arc::new(StopSignal::default());
        let thread_signal = Arc::clone(&signal);
        let thread = std::thread::Builder::new()
            .name("serve-drift".to_string())
            .spawn(move || drift_loop(&config, &registry, catalog.as_ref(), &rx, &thread_signal))
            .expect("spawn drift loop");
        (
            Arc::new(DriftController { tx }),
            DriftSupervisor {
                signal,
                thread: Some(thread),
            },
        )
    }

    /// Requests shutdown and joins the loop thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.signal.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for DriftSupervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn drift_loop(
    config: &DriftConfig,
    registry: &ModelRegistry,
    catalog: Option<&Catalog>,
    rx: &Receiver<Sample>,
    signal: &StopSignal,
) {
    let mut tenants: std::collections::HashMap<String, TenantDrift> =
        std::collections::HashMap::new();
    let mut next_tick = Instant::now();
    loop {
        // Drain samples until the tick (or shutdown). recv_timeout paces
        // the loop without busy-waiting.
        loop {
            if signal.is_stopped() {
                return;
            }
            let now = Instant::now();
            if now >= next_tick {
                break;
            }
            match rx.recv_timeout(next_tick - now) {
                Ok(sample) => absorb(config, registry, &mut tenants, sample),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    // All controllers dropped; keep ticking (breaker timers
                    // still need to run) until stopped.
                    if signal.wait(next_tick.saturating_duration_since(Instant::now())) {
                        return;
                    }
                    break;
                }
            }
        }
        next_tick = Instant::now() + config.interval;

        // Tenant names sorted for deterministic attempt order.
        let mut names: Vec<String> = tenants.keys().cloned().collect();
        names.sort();
        for name in names {
            if signal.is_stopped() {
                return;
            }
            let td = tenants.get_mut(&name).expect("tenant present");
            tick_tenant(config, registry, catalog, &name, td);
        }
    }
}

/// Folds one classified batch into its tenant's engine, creating the
/// engine from the tenant's serving model on first contact.
fn absorb(
    config: &DriftConfig,
    registry: &ModelRegistry,
    tenants: &mut std::collections::HashMap<String, TenantDrift>,
    sample: Sample,
) {
    if !tenants.contains_key(&sample.tenant) {
        // Bootstrap from the serving model: its matrix and threshold ARE
        // the mining contract the model was built under.
        let Some(model) = registry.model(&sample.tenant) else {
            crate::obs::drift_samples_dropped().add(sample.sequences.len() as u64);
            return;
        };
        let space = match PatternSpace::new(config.max_gap, config.max_len) {
            Ok(s) => s,
            Err(_) => return,
        };
        let miner_config = MinerConfig {
            min_match: model.spec.min_match,
            sample_size: config.sample_size.max(1),
            space,
            seed: config.seed,
            ..MinerConfig::default()
        };
        let stream = match StreamState::new(model.spec.matrix.clone(), miner_config) {
            Ok(s) => s,
            Err(_) => return,
        };
        tenants.insert(
            sample.tenant.clone(),
            TenantDrift {
                stream,
                buffer: Vec::new(),
                alphabet: model.spec.alphabet.clone(),
                anchored: false,
                failures: 0,
                breaker: Breaker::Closed,
                next_attempt: Instant::now(),
                attempts: 0,
            },
        );
    }
    let td = tenants.get_mut(&sample.tenant).expect("just inserted");
    for seq in sample.sequences {
        if td.buffer.len() >= config.max_buffer {
            crate::obs::drift_samples_dropped().inc();
            continue;
        }
        td.stream.ingest(&seq);
        td.buffer.push(seq);
    }
    crate::obs::drift_buffered().set(tenants.values().map(|t| t.buffer.len() as f64).sum::<f64>());
}

/// One drift-loop tick for one tenant: baseline anchoring, drift check,
/// breaker schedule, and (possibly) a supervised re-mine attempt.
fn tick_tenant(
    config: &DriftConfig,
    registry: &ModelRegistry,
    catalog: Option<&Catalog>,
    tenant: &str,
    td: &mut TenantDrift,
) {
    let now = Instant::now();
    if td.stream.total_seen() < config.min_sequences {
        return;
    }
    // Calibration: the first min_sequences samples define "what traffic
    // looked like under the model we already serve" — anchor there, no
    // mine. Drift is measured from this baseline on.
    if !td.anchored {
        td.stream.anchor();
        td.anchored = true;
        return;
    }
    if !td.stream.drift_exceeded() {
        return;
    }
    // Breaker schedule: open → (cooldown) → half-open → one trial.
    match td.breaker {
        Breaker::Open(since) => {
            if now.duration_since(since) < config.breaker_cooldown {
                registry.set_state(
                    tenant,
                    ServingState::CircuitOpen,
                    &format!("{} consecutive re-mine failures", td.failures),
                );
                return;
            }
            td.breaker = Breaker::HalfOpen;
            crate::obs::set_breaker(tenant, td.breaker.as_gauge());
        }
        Breaker::HalfOpen | Breaker::Closed => {}
    }
    if td.breaker == Breaker::Closed && now < td.next_attempt {
        registry.set_state(
            tenant,
            ServingState::Stale,
            &format!("drift detected; retry backoff ({} failures)", td.failures),
        );
        return;
    }
    registry.set_state(tenant, ServingState::Remining, "drift detected; re-mining");
    td.attempts += 1;
    let fault = config
        .fault_hook
        .as_ref()
        .and_then(|hook| hook(tenant, td.attempts));
    match supervised_remine(config, registry, catalog, tenant, td, fault) {
        Ok(version) => {
            td.failures = 0;
            td.breaker = Breaker::Closed;
            td.next_attempt = now;
            crate::obs::set_breaker(tenant, td.breaker.as_gauge());
            crate::obs::self_swaps().inc();
            registry.set_state(tenant, ServingState::Current, "");
            let _ = version;
        }
        Err(why) => {
            td.failures += 1;
            crate::obs::remine_failures().inc();
            if td.breaker == Breaker::HalfOpen || td.failures >= config.breaker_threshold {
                // A half-open trial failure re-opens immediately; a closed
                // breaker opens once the failure budget is spent.
                td.breaker = Breaker::Open(Instant::now());
                crate::obs::set_breaker(tenant, td.breaker.as_gauge());
                crate::obs::breaker_opens().inc();
                registry.set_state(
                    tenant,
                    ServingState::CircuitOpen,
                    &format!("{} consecutive re-mine failures; last: {why}", td.failures),
                );
            } else {
                let exp = td.failures.saturating_sub(1).min(16);
                let backoff = config
                    .backoff_base
                    .saturating_mul(1u32 << exp)
                    .min(config.backoff_max);
                td.next_attempt = Instant::now() + backoff;
                registry.set_state(
                    tenant,
                    ServingState::Stale,
                    &format!("re-mine failed ({why}); retrying in {backoff:?}"),
                );
            }
        }
    }
}

/// Runs one supervised re-mine attempt: panic-isolated, time-bounded, and
/// validated end-to-end before anything observable changes.
fn supervised_remine(
    config: &DriftConfig,
    registry: &ModelRegistry,
    catalog: Option<&Catalog>,
    tenant: &str,
    td: &mut TenantDrift,
    fault: Option<DriftFault>,
) -> Result<u64, String> {
    crate::obs::remine_attempts().inc();
    let span = crate::obs::remine_seconds().span();
    let prep = td.stream.prepare_mine();
    let db = MemoryDb::from_sequences(td.buffer.clone());
    let mine_prep = prep.clone();
    let (result_tx, result_rx) = mpsc::sync_channel(1);
    let builder = std::thread::Builder::new().name(format!("serve-remine-{tenant}"));
    let spawned = builder.spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match fault {
                Some(DriftFault::Panic) => panic!("injected re-mine panic"),
                Some(DriftFault::Stall(d)) => std::thread::sleep(d),
                _ => {}
            }
            mine_from_phase1(
                &db,
                &mine_prep.matrix,
                &mine_prep.config,
                &mine_prep.p1,
                &mine_prep.known,
                None,
            )
        }));
        // The loop may have timed out and dropped the receiver —
        // a send error is the expected way an abandoned mine ends.
        let _ = result_tx.send(outcome);
    });
    let worker = match spawned {
        Ok(w) => w,
        Err(e) => {
            span.cancel();
            return Err(format!("spawn re-mine thread: {e}"));
        }
    };
    let mined = match result_rx.recv_timeout(config.remine_timeout) {
        Ok(Ok(Ok(pair))) => {
            let _ = worker.join();
            pair
        }
        Ok(Ok(Err(e))) => {
            let _ = worker.join();
            span.cancel();
            return Err(format!("mine error: {e}"));
        }
        Ok(Err(_panic)) => {
            let _ = worker.join();
            span.cancel();
            crate::obs::remine_panics().inc();
            return Err("re-mine panicked".to_string());
        }
        Err(_) => {
            // Deadline blown. The worker keeps running detached on cloned
            // data; its eventual result is discarded with the channel.
            span.cancel();
            crate::obs::remine_timeouts().inc();
            return Err(format!("re-mine exceeded {:?}", config.remine_timeout));
        }
    };
    let (outcome, p3) = mined;
    // Version: strictly newer than whatever serves now, and at least the
    // stream position (StreamState::to_model's convention), so successive
    // self-swaps are monotone even across an operator's manual swap.
    let current = registry.current_version(tenant);
    let version = current.map_or(prep.total, |c| c.saturating_add(1).max(prep.total));
    let model = PatternModel::from_outcome(
        &outcome,
        &td.alphabet,
        &prep.matrix,
        prep.config.min_match,
        version,
    );
    let compiled = match catalog {
        Some(cat) => {
            // Crash-safe write, then read back and re-validate: the served
            // model must come from the exact bytes on disk, and a corrupt
            // write must never reach the registry.
            let written = cat
                .write(tenant, &model)
                .map_err(|e| format!("catalog write: {e}"))
                .and_then(|path| {
                    if matches!(fault, Some(DriftFault::CorruptWrite)) {
                        corrupt_artifact(&path)?;
                    }
                    crate::model_io::read_model(&path).map_err(|e| {
                        crate::obs::catalog_rejects().inc();
                        format!("artifact failed validation after write: {e}")
                    })
                });
            match written {
                Ok(reread) => crate::registry::ServeModel::compile(reread),
                Err(e) => {
                    span.cancel();
                    return Err(e);
                }
            }
        }
        None => crate::registry::ServeModel::compile(model),
    };
    match registry.adopt_if_newer(tenant, compiled) {
        Adoption::Adopted { .. } => {}
        Adoption::NotNewer { current } => {
            // An operator swapped a newer model mid-mine; drop ours.
            span.cancel();
            return Err(format!("superseded by concurrent swap to v{current}"));
        }
    }
    // Only now — model validated, adopted, serving — does the engine
    // absorb the mine (tracked borders + drift re-anchor).
    td.stream.complete_mine(&prep, &p3);
    span.finish();
    crate::obs::remines_completed().inc();
    Ok(version)
}

/// Chaos helper: flips bits in the middle of a written artifact, in place,
/// simulating a buggy or torn writer.
fn corrupt_artifact(path: &std::path::Path) -> Result<(), String> {
    let mut bytes = std::fs::read(path).map_err(|e| format!("corrupt hook read: {e}"))?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(path, bytes).map_err(|e| format!("corrupt hook write: {e}"))
}
