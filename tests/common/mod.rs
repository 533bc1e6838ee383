//! A tiny seeded property-test harness.
//!
//! The workspace's build environment cannot fetch `proptest`, so the
//! property suites drive their invariants with plain seeded generation:
//! [`run_cases`] executes a closure over a fixed number of independently
//! seeded RNGs and reports the failing case's seed so a failure reproduces
//! with `CASE_SEED=<n>`-style editing. No shrinking — cases are kept small
//! instead.
//!
//! `NOISEMINE_PROPTEST_CASES=<n>` overrides every suite's case count (like
//! proptest's `PROPTEST_CASES`): the nightly CI run sets it high to sweep
//! far more seeds than the per-PR default, and a single case reproduces
//! deterministically because seeds depend only on the case index.

// Each integration-test binary compiles this module independently and uses
// only a subset of the generators.
#![allow(dead_code)]

use noisemine::core::{CompatibilityMatrix, Pattern, PatternElem, Symbol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `f` for `cases` independently seeded RNGs, panicking with the case
/// index and seed on the first failure. `NOISEMINE_PROPTEST_CASES` (if set)
/// overrides `cases` for every suite at once.
pub fn run_cases(cases: usize, mut f: impl FnMut(&mut StdRng)) {
    let cases = match std::env::var("NOISEMINE_PROPTEST_CASES") {
        Ok(v) => v
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("NOISEMINE_PROPTEST_CASES must be an integer, got {v:?}")),
        Err(_) => cases,
    };
    for case in 0..cases {
        let seed = 0x5052_4f50_u64 ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic>".into());
            panic!("property failed at case {case} (seed {seed:#x}): {msg}");
        }
    }
}

/// A random column-stochastic compatibility matrix over `m` symbols with
/// entries bounded away from zero.
pub fn random_matrix(rng: &mut StdRng, m: usize, min_weight: f64) -> CompatibilityMatrix {
    let cols: Vec<Vec<f64>> = (0..m)
        .map(|_| {
            let col: Vec<f64> = (0..m).map(|_| rng.gen_range(min_weight..1.0)).collect();
            let total: f64 = col.iter().sum();
            col.into_iter().map(|w| w / total).collect()
        })
        .collect();
    let rows: Vec<Vec<f64>> = (0..m)
        .map(|i| (0..m).map(|j| cols[j][i]).collect())
        .collect();
    CompatibilityMatrix::from_rows(rows).expect("normalized columns")
}

/// A random sequence of length `1..max_len` over symbols `0..m`.
pub fn random_sequence(rng: &mut StdRng, m: usize, max_len: usize) -> Vec<Symbol> {
    let len = rng.gen_range(1..max_len);
    (0..len)
        .map(|_| Symbol(rng.gen_range(0..m as u16)))
        .collect()
}

/// A random batch of sequences (count in `lo..hi`).
pub fn random_sequences(
    rng: &mut StdRng,
    m: usize,
    max_len: usize,
    lo: usize,
    hi: usize,
) -> Vec<Vec<Symbol>> {
    let count = rng.gen_range(lo..hi);
    (0..count)
        .map(|_| random_sequence(rng, m, max_len))
        .collect()
}

/// A random valid pattern (concrete endpoints) of up to 5 positions over
/// symbols `0..m`.
pub fn random_pattern(rng: &mut StdRng, m: usize) -> Pattern {
    let len = rng.gen_range(1..5usize);
    let mut elems: Vec<PatternElem> = (0..len)
        .map(|_| {
            if rng.gen_bool(0.5) {
                PatternElem::Any
            } else {
                PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)))
            }
        })
        .collect();
    let n = elems.len();
    elems[0] = PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)));
    elems[n - 1] = PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)));
    Pattern::new(elems).expect("endpoints are concrete")
}

/// Pearson's chi-square statistic of per-sequence selection counts against
/// the uniform expectation of a sampler that draws `quota` of `hits.len()`
/// sequences in each of `trials` independent draws.
///
/// With 20 sequences there are 19 degrees of freedom; the 99.9th percentile
/// is ~43.8. A uniform sampler exceeds 60 with negligible probability, and
/// an off-by-one replacement index blows past it.
pub fn selection_chi_square(hits: &[usize], trials: usize, quota: usize) -> f64 {
    let expected = trials as f64 * quota as f64 / hits.len() as f64;
    hits.iter()
        .map(|&h| {
            let d = h as f64 - expected;
            d * d / expected
        })
        .sum()
}
