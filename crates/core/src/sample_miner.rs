//! Phase 2: ambiguous-pattern discovery on the in-memory sample (§4.2).
//!
//! All candidate patterns are mined level-wise over the sample and labeled
//! *frequent*, *ambiguous*, or *infrequent* by the Chernoff bound
//! (Algorithm 4.2). A pattern remains a candidate for extension iff it is
//! frequent-or-ambiguous (patterns below the INFQT border). The output is
//! the two borders `FQT` / `INFQT` embracing the ambiguous region, plus the
//! full ambiguous set that phase 3 must resolve.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::alphabet::Symbol;
use crate::candidates::{next_level, LevelTrace, PatternSpace};
use crate::chernoff::{classify, epsilon, Label, SpreadMode};
use crate::lattice::Border;
use crate::match_kernel::MatchKernel;
use crate::matching::try_match_sums;
use crate::matrix::CompatibilityMatrix;
use crate::parallel::CHUNK_SIZE;
use crate::pattern::Pattern;

/// Default ceiling on the number of candidate patterns phase 2 may
/// evaluate. When the Chernoff band `±ε` is wider than `min_match`, *no*
/// pattern can be labeled infrequent and the level-wise enumeration
/// diverges — the budget turns that configuration error into a loud,
/// diagnosable failure instead of an endless run. The cure is more samples,
/// a larger `min_match`, or a larger `δ` (Section 4.2; this is also why the
/// restricted spread of Claim 4.2 matters in practice).
pub const DEFAULT_MAX_SAMPLE_PATTERNS: usize = 2_000_000;

/// The result of mining the sample (phase 2).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SampleMineResult {
    /// Every evaluated candidate with its sample match and label.
    pub labels: HashMap<Pattern, (f64, Label)>,
    /// Patterns labeled frequent (sample match `> min_match + ε`).
    pub frequent: Vec<(Pattern, f64)>,
    /// Patterns labeled ambiguous, to be resolved by phase 3.
    pub ambiguous: Vec<(Pattern, f64)>,
    /// Border between frequent and ambiguous patterns (maximal frequent).
    pub fqt: Border,
    /// Border between ambiguous and infrequent patterns (maximal ambiguous).
    pub infqt: Border,
    /// Candidates/survivors per level — the instrumentation behind Fig. 9/10.
    pub trace: LevelTrace,
    /// Set when enumeration hit the candidate budget and stopped early; the
    /// classification is then incomplete and the caller must treat the run
    /// as failed (the miner surfaces an error).
    pub truncated: bool,
}

impl SampleMineResult {
    /// Number of ambiguous patterns.
    pub fn ambiguous_count(&self) -> usize {
        self.ambiguous.len()
    }
}

/// Mines the sample level-wise and classifies every candidate (§4.2).
///
/// - `sample`: the in-memory sample sequences from phase 1;
/// - `symbol_match`: per-symbol match over the **entire** database (phase 1),
///   used for the restricted spread of Claim 4.2;
/// - `min_match`: the user threshold; `delta`: Chernoff failure probability;
/// - `spread_mode`: full (`R = 1`) or restricted spread;
/// - `space`: bounds of the enumerated pattern space;
/// - `max_patterns`: the candidate budget (see
///   [`DEFAULT_MAX_SAMPLE_PATTERNS`] for why a budget exists);
/// - `kernel`: the level-wise candidate evaluation. The kernels produce
///   identical values (see [`crate::match_kernel`]; the columnar simd
///   kernel is held to the naive scan within a zero-ULP contract); the knob
///   selects the reference oracle for equivalence testing and ablation.
#[allow(clippy::too_many_arguments)]
pub fn mine_sample_budgeted_kernel(
    sample: &[Vec<Symbol>],
    matrix: &CompatibilityMatrix,
    symbol_match: &[f64],
    min_match: f64,
    delta: f64,
    spread_mode: SpreadMode,
    space: &PatternSpace,
    max_patterns: usize,
    kernel: MatchKernel,
) -> SampleMineResult {
    let n = sample.len().max(1);
    let m = matrix.len();
    let mut result = SampleMineResult::default();

    // Level 1: every symbol is a candidate.
    let level1: Vec<Pattern> = (0..m).map(|i| Pattern::single(Symbol(i as u16))).collect();
    let mut alive: HashSet<Pattern> = HashSet::new();
    let mut survivors: Vec<Pattern> = Vec::new();
    let mut surviving_symbols: Vec<Symbol> = Vec::new();

    let values = sample_matches(&level1, sample, matrix, n, kernel, 0);
    let mut level_survivors = 0usize;
    for (pattern, value) in level1.iter().zip(&values) {
        let label = label_pattern(
            pattern,
            *value,
            symbol_match,
            min_match,
            delta,
            n,
            spread_mode,
        );
        record(&mut result, pattern.clone(), *value, label);
        if label != Label::Infrequent {
            alive.insert(pattern.clone());
            survivors.push(pattern.clone());
            surviving_symbols.push(
                pattern
                    .symbols()
                    .next()
                    .expect("singleton pattern has one symbol"),
            );
            level_survivors += 1;
        }
    }
    result.trace.record(level1.len(), level_survivors);

    // Fast divergence check: a surviving symbol whose Chernoff band
    // swallows zero (`min_match − ε(R_d) ≤ 0`) can never have any of its
    // pure combinations labeled infrequent — values only shrink with
    // length, but the infrequent band is empty for those spreads. If the
    // enumerable pattern count over such symbols already exceeds the
    // budget, fail now instead of after millions of evaluations.
    {
        let diverging = survivors
            .iter()
            .filter(|p| {
                let spread = spread_mode.spread(p, symbol_match);
                min_match - epsilon(spread, n, delta) <= 0.0
            })
            .count();
        if diverging >= 2 {
            // Lower bound: contiguous patterns only, each level multiplies
            // the frontier by `diverging` choices (gaps only add more).
            let mut frontier = diverging as f64;
            let mut total = frontier;
            for _ in 1..space.max_len {
                frontier *= diverging as f64;
                total += frontier;
                if total > max_patterns as f64 {
                    result.truncated = true;
                    return result;
                }
            }
        }
    }

    // Levels 2..: generate, evaluate, classify.
    let mut evaluated = level1.len();
    while !survivors.is_empty() {
        let candidates = next_level(&survivors, &alive, &surviving_symbols, space);
        if candidates.is_empty() {
            break;
        }
        evaluated += candidates.len();
        if evaluated > max_patterns {
            result.truncated = true;
            break;
        }
        let values = sample_matches(&candidates, sample, matrix, n, kernel, 0);
        let mut next_survivors = Vec::new();
        let mut survived = 0usize;
        for (pattern, value) in candidates.iter().zip(&values) {
            let label = label_pattern(
                pattern,
                *value,
                symbol_match,
                min_match,
                delta,
                n,
                spread_mode,
            );
            record(&mut result, pattern.clone(), *value, label);
            if label != Label::Infrequent {
                alive.insert(pattern.clone());
                next_survivors.push(pattern.clone());
                survived += 1;
            }
        }
        result.trace.record(candidates.len(), survived);
        survivors = next_survivors;
    }

    result
}

/// Sample match of each pattern: the mean of its sequence match over the
/// sample (footnote 7). The batch runs through the same evaluation as a
/// phase-3 probe scan ([`crate::matching::try_db_match_many`]), over the
/// sample in [`CHUNK_SIZE`]-sequence blocks folded in block order, so the
/// result is identical to the serial computation at any `threads` (`0` =
/// every available core once the batch is large enough to pay for it).
fn sample_matches(
    patterns: &[Pattern],
    sample: &[Vec<Symbol>],
    matrix: &CompatibilityMatrix,
    n: usize,
    kernel: MatchKernel,
    threads: usize,
) -> Vec<f64> {
    let (mut totals, _) =
        try_match_sums(patterns, sample, matrix, threads, kernel, None, CHUNK_SIZE)
            .expect("an in-memory sample cannot fail to scan");
    for t in &mut totals {
        *t /= n as f64;
    }
    totals
}

#[allow(clippy::too_many_arguments)]
fn label_pattern(
    pattern: &Pattern,
    sample_match: f64,
    symbol_match: &[f64],
    min_match: f64,
    delta: f64,
    n: usize,
    spread_mode: SpreadMode,
) -> Label {
    let spread = spread_mode.spread(pattern, symbol_match);
    let eps = epsilon(spread, n, delta);
    crate::obs::restricted_spread_min().set_min(spread);
    crate::obs::chernoff_epsilon_max().set_max(eps);
    classify(sample_match, min_match, eps)
}

fn record(result: &mut SampleMineResult, pattern: Pattern, value: f64, label: Label) {
    match label {
        Label::Frequent => {
            crate::obs::candidates_frequent().inc();
            result.fqt.insert(pattern.clone());
            result.frequent.push((pattern.clone(), value));
        }
        Label::Ambiguous => {
            crate::obs::candidates_ambiguous().inc();
            result.infqt.insert(pattern.clone());
            result.ambiguous.push((pattern.clone(), value));
        }
        Label::Infrequent => {
            crate::obs::candidates_infrequent().inc();
        }
    }
    result.labels.insert(pattern, (value, label));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::matching::{try_db_match, MemorySequences, SequenceScan};

    fn sample_db() -> (Vec<Vec<Symbol>>, CompatibilityMatrix) {
        let a = Alphabet::synthetic(5);
        let seqs = vec![
            a.encode("d0 d1 d2 d0").unwrap(),
            a.encode("d3 d1 d0").unwrap(),
            a.encode("d2 d3 d1 d0").unwrap(),
            a.encode("d1 d1").unwrap(),
        ];
        (seqs, CompatibilityMatrix::paper_figure2())
    }

    #[test]
    fn classification_covers_all_candidates() {
        let (sample, matrix) = sample_db();
        let symbol_match = [0.7, 0.8, 0.3875, 0.425, 0.075];
        let space = PatternSpace::contiguous(4);
        let r = mine_sample_budgeted_kernel(
            &sample,
            &matrix,
            &symbol_match,
            0.15,
            0.01,
            SpreadMode::Restricted,
            &space,
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );
        assert!(!r.labels.is_empty());
        // frequent + ambiguous sets are consistent with the label map.
        for (p, v) in &r.frequent {
            assert_eq!(r.labels[p], (*v, Label::Frequent));
        }
        for (p, v) in &r.ambiguous {
            assert_eq!(r.labels[p], (*v, Label::Ambiguous));
        }
        // Borders cover their sets.
        for (p, _) in &r.frequent {
            assert!(r.fqt.covers(p));
        }
        for (p, _) in &r.ambiguous {
            assert!(r.infqt.covers(p));
        }
    }

    #[test]
    fn sample_match_equals_db_match_when_sample_is_whole_db() {
        let (sample, matrix) = sample_db();
        let db = MemorySequences(sample.clone());
        let symbol_match = crate::matching::try_symbol_db_match(&db, &matrix).unwrap();
        let space = PatternSpace::contiguous(3);
        let r = mine_sample_budgeted_kernel(
            &sample,
            &matrix,
            &symbol_match,
            0.10,
            0.001,
            SpreadMode::Restricted,
            &space,
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );
        for (p, (v, _)) in &r.labels {
            let exact = try_db_match(p, &db, &matrix).unwrap();
            assert!(
                (v - exact).abs() < 1e-12,
                "{p}: sample {v} != exact {exact}"
            );
        }
        assert_eq!(db.num_sequences(), 4);
    }

    #[test]
    fn frequent_labels_imply_margin() {
        let (sample, matrix) = sample_db();
        let symbol_match = [0.7, 0.8, 0.3875, 0.425, 0.075];
        let min_match = 0.2;
        let delta = 0.05;
        let space = PatternSpace::contiguous(3);
        let r = mine_sample_budgeted_kernel(
            &sample,
            &matrix,
            &symbol_match,
            min_match,
            delta,
            SpreadMode::Restricted,
            &space,
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );
        for (p, v) in &r.frequent {
            let spread = SpreadMode::Restricted.spread(p, &symbol_match);
            let eps = epsilon(spread, sample.len(), delta);
            assert!(*v > min_match + eps);
        }
        for (p, v) in &r.ambiguous {
            let spread = SpreadMode::Restricted.spread(p, &symbol_match);
            let eps = epsilon(spread, sample.len(), delta);
            assert!(*v <= min_match + eps && *v >= min_match - eps);
        }
    }

    #[test]
    fn restricted_spread_never_increases_ambiguity() {
        let (sample, matrix) = sample_db();
        let symbol_match = [0.7, 0.8, 0.3875, 0.425, 0.075];
        let space = PatternSpace::contiguous(3);
        let full = mine_sample_budgeted_kernel(
            &sample,
            &matrix,
            &symbol_match,
            0.15,
            0.01,
            SpreadMode::Full,
            &space,
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );
        let restricted = mine_sample_budgeted_kernel(
            &sample,
            &matrix,
            &symbol_match,
            0.15,
            0.01,
            SpreadMode::Restricted,
            &space,
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );
        assert!(restricted.ambiguous_count() <= full.ambiguous_count());
    }

    #[test]
    fn divergent_configuration_fails_fast() {
        // A tiny sample makes the Chernoff band wider than the threshold:
        // nothing can be labeled infrequent and the enumeration would
        // diverge. The guard must set `truncated` without evaluating
        // millions of candidates.
        let (sample, matrix) = sample_db();
        let tiny: Vec<_> = sample.into_iter().take(2).collect();
        let symbol_match = [0.9; 5];
        let r = mine_sample_budgeted_kernel(
            &tiny,
            &matrix,
            &symbol_match,
            0.01, // far below epsilon at n = 2
            0.0001,
            SpreadMode::Restricted,
            &PatternSpace::contiguous(64),
            100_000,
            MatchKernel::default(),
        );
        assert!(r.truncated, "divergence guard did not trip");
        // Only level 1 was evaluated.
        assert_eq!(r.trace.levels(), 1);
    }

    #[test]
    fn empty_sample_yields_no_frequent_patterns() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let symbol_match = [0.0; 5];
        let r = mine_sample_budgeted_kernel(
            &[],
            &matrix,
            &symbol_match,
            0.1,
            0.01,
            SpreadMode::Full,
            &PatternSpace::contiguous(3),
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );
        assert!(r.frequent.is_empty());
    }

    /// Phase 2's reduction is pinned: every sample value, at every thread
    /// count and on both kernels, equals bit for bit the naive per-pattern
    /// `sequence_match` summed in 64-sequence chunks, the chunk sums folded
    /// in order, divided by `n`. Any other grouping (e.g. the 256-sequence
    /// blocks of a database scan) changes the last bits on a dense-noise
    /// matrix and fails here.
    #[test]
    fn sample_values_are_pinned_to_ordered_64_sequence_chunks() {
        use crate::matching::{sequence_match, try_symbol_db_match};
        use rand::{Rng, SeedableRng};

        let m = 8u16;
        let matrix = CompatibilityMatrix::uniform_noise(m as usize, 0.3).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(64);
        let sample: Vec<Vec<Symbol>> = (0..64 * 3 + 109)
            .map(|_| {
                let len = rng.gen_range(6..16usize);
                (0..len).map(|_| Symbol(rng.gen_range(0..m))).collect()
            })
            .collect();
        let n = sample.len();
        let oracle = |p: &Pattern| -> f64 {
            let mut total = 0.0f64;
            for chunk in sample.chunks(64) {
                let mut partial = 0.0f64;
                for seq in chunk {
                    partial += sequence_match(p, seq, &matrix);
                }
                total += partial;
            }
            total / n as f64
        };
        let symbol_match = try_symbol_db_match(sample.as_slice(), &matrix).unwrap();
        for kernel in [MatchKernel::Naive, MatchKernel::Simd] {
            let r = mine_sample_budgeted_kernel(
                &sample,
                &matrix,
                &symbol_match,
                0.05,
                0.01,
                SpreadMode::Restricted,
                &PatternSpace::contiguous(3),
                DEFAULT_MAX_SAMPLE_PATTERNS,
                kernel,
            );
            assert_eq!(r.trace.levels(), 3, "{kernel:?}");
            for (p, (v, _)) in &r.labels {
                assert_eq!(v.to_bits(), oracle(p).to_bits(), "{kernel:?} {p}");
            }
            let patterns: Vec<Pattern> = r.labels.keys().cloned().collect();
            for threads in [1, 2, 8] {
                let values = sample_matches(&patterns, &sample, &matrix, n, kernel, threads);
                for (p, v) in patterns.iter().zip(&values) {
                    let want = oracle(p).to_bits();
                    assert_eq!(v.to_bits(), want, "{kernel:?}, threads {threads}: {p}");
                }
            }
        }
    }
}
