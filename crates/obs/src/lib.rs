//! # noisemine-obs
//!
//! The observability layer of the noisemine workspace: a lightweight,
//! zero-dependency metrics registry plus structured span timers, with
//! pluggable sinks that render both JSON snapshots and Prometheus text
//! exposition.
//!
//! The paper's whole pitch is operational — border collapsing exists so the
//! miner performs `O(log(len(FQT)))` full database scans instead of one per
//! lattice level (Algorithm 4.3), and the Chernoff bound trades sample size
//! for ambiguity (Claim 4.1). This crate makes those costs *visible*: the
//! other workspace crates record counters (`collapse_db_scans`, candidates
//! classified frequent/ambiguous/infrequent, bytes read), gauges (Chernoff
//! `ε`, restricted spread `R`), and histograms (phase durations, block
//! fill/drain times) into a process-wide [`Registry`]; callers snapshot the
//! registry and render it wherever they need it. See
//! `docs/OBSERVABILITY.md` for the complete reference of every metric the
//! workspace emits and which paper quantity each corresponds to.
//!
//! ## Design constraints
//!
//! - **Zero dependencies.** Everything is `std`: atomics for the hot path,
//!   a mutex only for metric registration (which happens once per metric
//!   name, not per observation).
//! - **Bit-identical mining output.** Instrumentation only *observes* — it
//!   never participates in a mining computation, so an instrumented run
//!   produces exactly the same patterns as an uninstrumented one.
//! - **Near-zero cost when disabled.** Recording is gated on a single
//!   relaxed atomic-bool load of the owning registry's switch (for the
//!   process-wide registry, see [`enabled`]); span timers skip the
//!   `Instant::now` calls entirely while disabled. The process-wide
//!   registry records nothing until a caller opts in with [`enable`],
//!   which the CLI does only when `--metrics-out` is given. A registry
//!   built with [`Registry::new`] has its own switch and starts enabled.
//!
//! ## Quick start
//!
//! ```
//! use noisemine_obs as obs;
//!
//! obs::enable();
//! let scans = obs::counter("demo_db_scans", "Full database scans", "scans");
//! scans.inc();
//! let timer = obs::histogram(
//!     "demo_phase_seconds",
//!     "Phase wall-clock time",
//!     "seconds",
//!     obs::duration_buckets(),
//! );
//! {
//!     let _span = timer.span(); // records elapsed seconds on drop
//! }
//! let snapshot = obs::global().snapshot();
//! assert!(snapshot.to_json().contains("demo_db_scans"));
//! assert!(snapshot.to_prometheus().contains("# TYPE demo_db_scans counter"));
//! ```

mod registry;
mod sink;
mod snapshot;

pub use registry::{count_buckets, duration_buckets, Counter, Gauge, Histogram, Registry, Span};
pub use sink::{FileSink, SinkFormat};
pub use snapshot::{MetricSnapshot, MetricValue, Snapshot};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Turns recording on for the process-wide registry. Until this is called,
/// every counter/gauge/histogram operation on it is a single relaxed load +
/// branch.
pub fn enable() {
    global().enable();
}

/// Turns recording of the process-wide registry back off.
pub fn disable() {
    global().disable();
}

/// Whether the process-wide registry is currently recording.
#[inline]
pub fn enabled() -> bool {
    global().enabled()
}

/// The process-wide registry all workspace instrumentation records into.
/// It starts disabled; see [`enable`].
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(|| Registry::with_enabled(false))
}

/// Registers (or fetches) a counter in the [`global`] registry.
pub fn counter(name: &str, help: &str, unit: &str) -> Counter {
    global().counter(name, help, unit)
}

/// Registers (or fetches) a gauge in the [`global`] registry.
pub fn gauge(name: &str, help: &str, unit: &str) -> Gauge {
    global().gauge(name, help, unit)
}

/// Registers (or fetches) a histogram in the [`global`] registry.
pub fn histogram(name: &str, help: &str, unit: &str, bounds: Vec<f64>) -> Histogram {
    global().histogram(name, help, unit, bounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_disable_round_trip() {
        // A local registry: the process-wide switch belongs to the other
        // tests of this binary.
        let r = Registry::new();
        assert!(r.enabled(), "a local registry starts enabled");
        r.disable();
        assert!(!r.enabled());
        r.enable();
        assert!(r.enabled());
    }

    #[test]
    fn global_registry_is_shared() {
        enable();
        let a = counter("obs_test_shared", "test", "ops");
        let b = counter("obs_test_shared", "test", "ops");
        let before = a.get();
        b.inc();
        assert_eq!(a.get(), before + 1);
    }
}
