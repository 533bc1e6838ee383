//! Exact level-wise (Apriori) mining over the full database.
//!
//! The paper observes that "any algorithm powered by the Apriori property
//! can be adopted to mine frequent patterns according to the match metric"
//! (§3) — this module is that direct generalization, parameterized by a
//! [`PatternMetric`] so it runs under both the *match* and the *support*
//! model. It is used as:
//!
//! - the exact oracle that probabilistic miners are validated against,
//! - the support-model miner of the robustness experiments (Fig. 7/8),
//! - the per-level candidate census of Fig. 9, and
//! - the deterministic multi-scan strawman of Fig. 14.
//!
//! Cost model: evaluating candidates requires match counters in memory; with
//! a budget of `counters_per_scan`, a level with `c` candidates costs
//! `⌈c / budget⌉` scans. Every level costs at least one scan, which is what
//! makes level-wise search expensive for long patterns.

use std::collections::HashSet;

use noisemine_core::candidates::{next_level, LevelTrace, PatternSpace};
use noisemine_core::lattice::Border;
use noisemine_core::matching::{PatternMetric, SequenceScan};
use noisemine_core::pattern::Pattern;
use noisemine_core::Symbol;

/// Result of an exact level-wise mining run.
#[derive(Debug, Clone, Default)]
pub struct LevelwiseResult {
    /// Every frequent pattern with its exact metric value.
    pub frequent: Vec<(Pattern, f64)>,
    /// The border (maximal frequent patterns).
    pub border: Border,
    /// Candidates / survivors per level (Fig. 9 instrumentation).
    pub trace: LevelTrace,
    /// Full database scans consumed.
    pub scans: usize,
}

impl LevelwiseResult {
    /// The frequent patterns as a set (for comparisons in tests/experiments).
    pub fn pattern_set(&self) -> HashSet<Pattern> {
        self.frequent.iter().map(|(p, _)| p.clone()).collect()
    }

    /// Looks up the exact value of a frequent pattern.
    pub fn value_of(&self, pattern: &Pattern) -> Option<f64> {
        self.frequent
            .iter()
            .find(|(p, _)| p == pattern)
            .map(|&(_, v)| v)
    }
}

/// Evaluates the database-average metric value of many patterns, charging
/// `⌈patterns / budget⌉` scans against the counter budget.
pub fn evaluate_patterns<S, M>(
    patterns: &[Pattern],
    db: &S,
    metric: &M,
    counters_per_scan: usize,
    scans: &mut usize,
) -> Vec<f64>
where
    S: SequenceScan + ?Sized,
    M: PatternMetric,
{
    assert!(counters_per_scan >= 1);
    let n = db.num_sequences();
    let mut values = vec![0.0f64; patterns.len()];
    if n == 0 || patterns.is_empty() {
        return values;
    }
    for (chunk_idx, chunk) in patterns.chunks(counters_per_scan).enumerate() {
        let base = chunk_idx * counters_per_scan;
        db.scan(&mut |_, seq| {
            for (i, p) in chunk.iter().enumerate() {
                values[base + i] += metric.sequence_value(p, seq);
            }
        });
        *scans += 1;
    }
    for v in &mut values {
        *v /= n as f64;
    }
    values
}

/// Mines all patterns whose database-average metric value meets
/// `min_value`, level by level, with exact counting. `m` is the alphabet
/// size (number of distinct symbols).
pub fn mine_levelwise<S, M>(
    db: &S,
    metric: &M,
    m: usize,
    min_value: f64,
    space: &PatternSpace,
    counters_per_scan: usize,
) -> LevelwiseResult
where
    S: SequenceScan + ?Sized,
    M: PatternMetric,
{
    let mut result = LevelwiseResult::default();
    let n = db.num_sequences();
    if n == 0 || m == 0 {
        return result;
    }

    // Level 1: one scan computes every symbol's value via the metric's
    // symbol kernel (Algorithm 4.1 for match; a presence bitmap for support).
    let mut symbol_values = vec![0.0f64; m];
    {
        let mut per_seq = vec![0.0f64; m];
        db.scan(&mut |_, seq| {
            metric.symbol_values(seq, m, &mut per_seq);
            for (acc, &v) in symbol_values.iter_mut().zip(&per_seq) {
                *acc += v;
            }
        });
        result.scans += 1;
        for v in &mut symbol_values {
            *v /= n as f64;
        }
    }

    let mut alive: HashSet<Pattern> = HashSet::new();
    let mut survivors: Vec<Pattern> = Vec::new();
    let mut surviving_symbols: Vec<Symbol> = Vec::new();
    let mut level1_survived = 0usize;
    for (i, &v) in symbol_values.iter().enumerate() {
        let p = Pattern::single(Symbol(i as u16));
        if v >= min_value {
            result.frequent.push((p.clone(), v));
            alive.insert(p.clone());
            surviving_symbols.push(Symbol(i as u16));
            survivors.push(p);
            level1_survived += 1;
        }
    }
    result.trace.record(m, level1_survived);

    // Levels 2..: generate candidates, count exactly, prune.
    while !survivors.is_empty() {
        let candidates = next_level(&survivors, &alive, &surviving_symbols, space);
        if candidates.is_empty() {
            break;
        }
        let values = evaluate_patterns(
            &candidates,
            db,
            metric,
            counters_per_scan,
            &mut result.scans,
        );
        let mut next_survivors = Vec::new();
        for (p, v) in candidates.iter().zip(&values) {
            if *v >= min_value {
                result.frequent.push((p.clone(), *v));
                alive.insert(p.clone());
                next_survivors.push(p.clone());
            }
        }
        result.trace.record(candidates.len(), next_survivors.len());
        survivors = next_survivors;
    }

    result.border = Border::from_patterns(result.frequent.iter().map(|(p, _)| p.clone()));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisemine_core::matching::{try_db_match, try_db_support, MatchMetric, SupportMetric};
    use noisemine_core::{Alphabet, CompatibilityMatrix};
    use noisemine_seqdb::MemoryDb;

    fn db() -> MemoryDb {
        let a = Alphabet::synthetic(5);
        MemoryDb::from_sequences(vec![
            a.encode("d0 d1 d2 d0").unwrap(),
            a.encode("d3 d1 d0").unwrap(),
            a.encode("d2 d3 d1 d0").unwrap(),
            a.encode("d1 d1").unwrap(),
        ])
    }

    #[test]
    fn support_model_mining_is_exact() {
        let database = db();
        let space = PatternSpace::contiguous(4);
        let r = mine_levelwise(&database, &SupportMetric, 5, 0.5, &space, 100);
        // Symbols with support >= 0.5: d0 (3/4), d1 (4/4), d2 (0.5), d3 (0.5).
        let set = r.pattern_set();
        let a = Alphabet::synthetic(5);
        assert!(set.contains(&Pattern::parse("d0", &a).unwrap()));
        assert!(set.contains(&Pattern::parse("d1", &a).unwrap()));
        assert!(set.contains(&Pattern::parse("d2", &a).unwrap()));
        assert!(set.contains(&Pattern::parse("d3", &a).unwrap()));
        assert!(!set.contains(&Pattern::parse("d4", &a).unwrap()));
        // "d1 d0" occurs in sequences 2 and 3 -> support 0.5.
        assert!(set.contains(&Pattern::parse("d1 d0", &a).unwrap()));
        for (p, v) in &r.frequent {
            assert!((try_db_support(p, &database).unwrap() - v).abs() < 1e-12);
            assert!(*v >= 0.5);
        }
    }

    #[test]
    fn match_model_mining_agrees_with_oracle_values() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let metric = MatchMetric { matrix: &matrix };
        let space = PatternSpace::contiguous(4);
        let r = mine_levelwise(&database, &metric, 5, 0.15, &space, 100);
        assert!(!r.frequent.is_empty());
        for (p, v) in &r.frequent {
            let exact = try_db_match(p, &database, &matrix).unwrap();
            assert!((exact - v).abs() < 1e-12);
            assert!(*v >= 0.15);
        }
        // Downward closure: every immediate subpattern of a frequent pattern
        // is frequent.
        let set = r.pattern_set();
        for (p, _) in &r.frequent {
            for sub in p.immediate_subpatterns() {
                if space.admits(&sub) {
                    assert!(set.contains(&sub), "missing subpattern {sub} of {p}");
                }
            }
        }
    }

    #[test]
    fn match_model_finds_more_than_support_model_at_low_threshold() {
        // §5.2: at the paper's low thresholds (0.001) the match model
        // explores more candidates per level than the support model, because
        // partial matches give many patterns a small positive match.
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let metric = MatchMetric { matrix: &matrix };
        let space = PatternSpace::contiguous(4);
        let threshold = 0.001;
        let match_r = mine_levelwise(&database, &metric, 5, threshold, &space, 100);
        let support_r = mine_levelwise(&database, &SupportMetric, 5, threshold, &space, 100);
        assert!(match_r.frequent.len() > support_r.frequent.len());
        assert!(match_r.trace.total_candidates() > support_r.trace.total_candidates());
        // And the match tail extends to deeper levels (Fig. 9's slower decay).
        assert!(match_r.trace.levels() >= support_r.trace.levels());
    }

    #[test]
    fn counter_budget_charges_extra_scans() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let metric = MatchMetric { matrix: &matrix };
        let space = PatternSpace::contiguous(3);
        let generous = mine_levelwise(&database, &metric, 5, 0.1, &space, 10_000);
        let tight = mine_levelwise(&database, &metric, 5, 0.1, &space, 2);
        assert_eq!(generous.pattern_set(), tight.pattern_set());
        assert!(tight.scans > generous.scans);
        // Generous budget: exactly one scan per explored level.
        assert_eq!(generous.scans, generous.trace.levels());
    }

    #[test]
    fn empty_database_mines_nothing() {
        let database = MemoryDb::new();
        let matrix = CompatibilityMatrix::paper_figure2();
        let metric = MatchMetric { matrix: &matrix };
        let r = mine_levelwise(&database, &metric, 5, 0.1, &PatternSpace::contiguous(3), 10);
        assert!(r.frequent.is_empty());
        assert_eq!(r.scans, 0);
    }

    #[test]
    fn evaluate_patterns_chunks_scans() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let metric = MatchMetric { matrix: &matrix };
        let a = Alphabet::synthetic(5);
        let patterns: Vec<Pattern> = ["d0", "d1", "d2", "d3", "d4"]
            .iter()
            .map(|t| Pattern::parse(t, &a).unwrap())
            .collect();
        let mut scans = 0;
        let values = evaluate_patterns(&patterns, &database, &metric, 2, &mut scans);
        assert_eq!(scans, 3); // ceil(5 / 2)
        for (p, v) in patterns.iter().zip(&values) {
            assert!((try_db_match(p, &database, &matrix).unwrap() - v).abs() < 1e-12);
        }
    }
}
