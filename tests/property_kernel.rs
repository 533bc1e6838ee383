//! Property tests for the production match kernel against the naive
//! oracle (seeded harness, see `common`).
//!
//! The kernel's whole contract is *bit-identity*: for every pattern in a
//! batch, the columnar [`CandidateTrie`] kernel must return exactly the
//! `f64` that the naive per-pattern [`sequence_match`] oracle returns —
//! same windows, same left-to-right products, and a subtree-pruning floor
//! that is provably lossless (Claim 3.1 monotonicity: products only shrink
//! as a window extends). These suites drive that contract on random
//! matrices, random batches and random databases, plus the edge cases
//! where the trie's shape degenerates: an empty batch and patterns longer
//! than the sequence. They also cover the regime of a sparse m = 100 run:
//! level-2 and level-3 batches of thousands of patterns under partner-noise
//! matrices with exact zeros, wide enough that every branch of the
//! kernel's floor raise runs (the not-the-min exit, the exit on other
//! contributors still at the floor — at zero, here — and the rescan), on
//! the dispatched and the forced-scalar path. The database scans are
//! additionally checked across thread counts and both kernels — four ways
//! to compute the same `Vec<f64>`, one acceptable answer.
//! `tests/property_simd.rs` holds the columnar kernel's path-specific
//! contracts (ULP tolerance, forced-scalar path, dispatch).

mod common;

use common::{random_matrix, random_pattern, random_sequence, random_sequences, run_cases};
use noisemine::core::matching::{sequence_match, try_db_match_many};
use noisemine::core::{
    CandidateTrie, CompatibilityMatrix, MatchKernel, Pattern, PatternElem, PatternSpace, Symbol,
};
use noisemine::datagen::noise::{channel_to_compatibility, partner_channel};
use noisemine::seqdb::MemoryDb;
use rand::rngs::StdRng;
use rand::Rng;

const M: usize = 6;
const CASES: usize = 96;

/// Alphabet of the sparse wide-batch cases — the Fig. 15 regime.
const SPARSE_M: usize = 100;

/// A random batch mixing short wildcard patterns with longer ones (up to
/// `max_len` positions, concrete endpoints, wildcard runs inside).
fn random_batch(rng: &mut StdRng, m: usize, count: usize, max_len: usize) -> Vec<Pattern> {
    (0..count)
        .map(|_| {
            if rng.gen_bool(0.5) {
                random_pattern(rng, m)
            } else {
                random_long_pattern(rng, m, max_len)
            }
        })
        .collect()
}

/// A random pattern of `2..=max_len` positions: concrete endpoints with a
/// 35% wildcard rate in between — long enough to exercise deep trie paths
/// and the floor-based subtree pruning.
fn random_long_pattern(rng: &mut StdRng, m: usize, max_len: usize) -> Pattern {
    let len = rng.gen_range(2..=max_len);
    let mut elems: Vec<PatternElem> = (0..len)
        .map(|_| {
            if rng.gen_bool(0.35) {
                PatternElem::Any
            } else {
                PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)))
            }
        })
        .collect();
    elems[0] = PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)));
    let n = elems.len();
    elems[n - 1] = PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)));
    Pattern::new(elems).expect("endpoints are concrete")
}

/// A random matrix: mostly noisy column-stochastic, sometimes the identity
/// (exact hits saturate the kernel's early-exit path), sometimes nearly
/// sparse (entries close to zero stress the pruning floor).
fn random_kernel_matrix(rng: &mut StdRng, m: usize) -> CompatibilityMatrix {
    match rng.gen_range(0..4u8) {
        0 => CompatibilityMatrix::identity(m),
        1 => random_matrix(rng, m, 1e-6),
        _ => random_matrix(rng, m, 0.01),
    }
}

/// A partner-noise matrix (`noisemine gen --noise partner:α`): each symbol
/// survives with probability `1 − α` or turns into one of `partners`
/// random other symbols, so each column has `partners + 1` non-zero
/// entries and every other entry is exactly zero.
fn partner_matrix(rng: &mut StdRng, m: usize, partners: usize) -> CompatibilityMatrix {
    let others: Vec<Vec<usize>> = (0..m)
        .map(|i| {
            let mut pool: Vec<usize> = Vec::with_capacity(partners);
            while pool.len() < partners {
                let j = rng.gen_range(0..m);
                if j != i && !pool.contains(&j) {
                    pool.push(j);
                }
            }
            pool
        })
        .collect();
    let alpha = rng.gen_range(0.1..0.5);
    channel_to_compatibility(&partner_channel(m, alpha, &others))
}

/// A wide phase-2-shaped batch over `m` symbols: the full level 2 (every
/// ordered pair), or a level-3 slice — `roots` random pairs each extended
/// by every symbol, with a gap of one `*` on some of them.
fn wide_level_batch(rng: &mut StdRng, m: usize) -> Vec<Pattern> {
    let sym = |s: usize| PatternElem::Sym(Symbol(s as u16));
    if rng.gen_bool(0.5) {
        (0..m)
            .flat_map(|a| (0..m).map(move |b| Pattern::new(vec![sym(a), sym(b)]).unwrap()))
            .collect()
    } else {
        let roots = rng.gen_range(20..60usize);
        (0..roots)
            .flat_map(|_| {
                let (a, b) = (rng.gen_range(0..m), rng.gen_range(0..m));
                let gap = rng.gen_bool(0.3);
                (0..m).map(move |c| {
                    let mut elems = vec![sym(a), sym(b)];
                    if gap {
                        elems.push(PatternElem::Any);
                    }
                    elems.push(sym(c));
                    Pattern::new(elems).unwrap()
                })
            })
            .collect()
    }
}

/// Bit-for-bit equality of two match vectors, with a readable diagnostic.
fn assert_bit_identical(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: pattern {i} diverged: kernel {g:e} vs oracle {w:e}"
        );
    }
}

/// The accumulating entry point that phase 2 and database scans use: one
/// scratch reused over a batch of sequences, each sequence's matches added
/// into running totals, equals the oracle's sums bit for bit.
#[test]
fn batch_matches_the_per_pattern_oracle() {
    run_cases(CASES, |rng| {
        let count = rng.gen_range(1..20usize);
        let patterns = random_batch(rng, M, count, 10);
        let sequences = random_sequences(rng, M, 25, 1, 6);
        let matrix = random_kernel_matrix(rng, M);
        let trie = CandidateTrie::new(&patterns);
        let mut scratch = trie.simd_scratch();
        let mut got = vec![0.0f64; patterns.len()];
        let mut want = vec![0.0f64; patterns.len()];
        for seq in &sequences {
            trie.batch_sequence_match_columnar_sum(seq, &matrix, &mut scratch, &mut got);
            for (w, p) in want.iter_mut().zip(&patterns) {
                *w += sequence_match(p, seq, &matrix);
            }
        }
        assert_bit_identical(&got, &want, "accumulated batch vs oracle");
    });
}

/// Gapped-space frontiers — the batches phase 3 actually probes: a random
/// Apriori level grown with `Pattern::extend` under a gapped
/// [`PatternSpace`], heavy prefix sharing and wildcard columns included,
/// accumulated over several sequences through the entry point database
/// scans use.
#[test]
fn gapped_frontier_matches_the_oracle() {
    run_cases(CASES, |rng| {
        let max_gap = rng.gen_range(0..3usize);
        let space = PatternSpace::new(max_gap, 12).expect("valid space");
        let mut frontier: Vec<Pattern> =
            (0..M as u16).map(|s| Pattern::single(Symbol(s))).collect();
        for _ in 0..rng.gen_range(1..4usize) {
            frontier = frontier
                .iter()
                .flat_map(|base| {
                    let gap = rng.gen_range(0..=max_gap);
                    (0..M as u16).map(move |s| base.extend(gap, Symbol(s)))
                })
                .filter(|p| space.admits(p))
                .collect();
        }
        let sequences = random_sequences(rng, M, 25, 1, 6);
        let matrix = random_kernel_matrix(rng, M);
        let trie = CandidateTrie::new(&frontier);
        let mut scratch = trie.simd_scratch();
        let mut got = vec![0.0f64; frontier.len()];
        let mut want = vec![0.0f64; frontier.len()];
        for seq in &sequences {
            trie.batch_sequence_match_columnar_sum(seq, &matrix, &mut scratch, &mut got);
            for (w, p) in want.iter_mut().zip(&frontier) {
                *w += sequence_match(p, seq, &matrix);
            }
        }
        assert_bit_identical(&got, &want, "gapped frontier vs oracle");
    });
}

/// An empty batch is a no-op under both kernels and never touches the
/// output slice.
#[test]
fn empty_trie_is_a_no_op() {
    run_cases(12, |rng| {
        let seq = random_sequence(rng, M, 25);
        let matrix = random_kernel_matrix(rng, M);
        let trie = CandidateTrie::new(&[]);
        let mut scratch = trie.simd_scratch();
        trie.batch_sequence_match_columnar(&seq, &matrix, &mut scratch, &mut []);
        trie.batch_sequence_match_columnar_scalar(&seq, &matrix, &mut scratch, &mut []);
        let db = MemoryDb::from_sequences(vec![seq]);
        for kernel in [MatchKernel::Naive, MatchKernel::Simd] {
            assert!(try_db_match_many(&[], &db, &matrix, 1, kernel, None)
                .unwrap()
                .is_empty());
        }
    });
}

/// Patterns longer than the sequence have no window at all: the kernel
/// must report exactly 0, like the oracle, not skip the output slot.
#[test]
fn pattern_longer_than_sequence_is_zero() {
    run_cases(24, |rng| {
        let seq = random_sequence(rng, M, 6);
        let count = rng.gen_range(1..8usize);
        let patterns = random_batch(rng, M, count, 12);
        let matrix = random_kernel_matrix(rng, M);
        let trie = CandidateTrie::new(&patterns);
        let mut scratch = trie.simd_scratch();
        let mut got = vec![f64::NAN; patterns.len()];
        let mut scalar = vec![f64::NAN; patterns.len()];
        trie.batch_sequence_match_columnar(&seq, &matrix, &mut scratch, &mut got);
        trie.batch_sequence_match_columnar_scalar(&seq, &matrix, &mut scratch, &mut scalar);
        for ((p, &g), &sc) in patterns.iter().zip(&got).zip(&scalar) {
            let want = sequence_match(p, &seq, &matrix);
            assert!(g.to_bits() == want.to_bits(), "{p}: {g:e} vs {want:e}");
            assert!(
                sc.to_bits() == want.to_bits(),
                "{p} (scalar): {sc:e} vs {want:e}"
            );
            if p.len() > seq.len() {
                assert_eq!(g, 0.0, "{p} is longer than the sequence");
            }
        }
    });
}

/// Wide batches on sparse m = 100 matrices, the shape of phase 2 on a
/// partner-noise run: thousands of patterns, exact-zero compatibilities, a
/// few dozen improvements per 8-window chunk. Both the dispatched and the
/// forced-scalar path (each on its own reused scratch) must match the
/// oracle bit for bit, and across the cases each path must have taken
/// every branch of the floor raise — the not-the-min exit, the exit on
/// other contributors still at the floor, and the rescan — otherwise the
/// suite would not be testing them.
#[test]
fn sparse_wide_batches_match_the_oracle_on_both_paths() {
    let (mut not_min, mut ties, mut rescans) = ([0u64; 2], [0u64; 2], [0u64; 2]);
    run_cases(8, |rng| {
        let partners = [1, 2, 8][rng.gen_range(0..3usize)];
        let matrix = partner_matrix(rng, SPARSE_M, partners);
        let patterns = wide_level_batch(rng, SPARSE_M);
        let trie = CandidateTrie::new(&patterns);
        let mut dispatched = trie.simd_scratch();
        let mut scalar = trie.simd_scratch();
        let mut got = vec![f64::NAN; patterns.len()];
        let mut got_scalar = vec![f64::NAN; patterns.len()];
        for _ in 0..4 {
            let len = rng.gen_range(40..=60usize);
            let seq: Vec<Symbol> = (0..len)
                .map(|_| Symbol(rng.gen_range(0..SPARSE_M as u16)))
                .collect();
            trie.batch_sequence_match_columnar(&seq, &matrix, &mut dispatched, &mut got);
            trie.batch_sequence_match_columnar_scalar(&seq, &matrix, &mut scalar, &mut got_scalar);
            let want: Vec<f64> = patterns
                .iter()
                .map(|p| sequence_match(p, &seq, &matrix))
                .collect();
            assert_bit_identical(&got, &want, "sparse wide batch (dispatched)");
            assert_bit_identical(&got_scalar, &want, "sparse wide batch (scalar)");
        }
        for (i, s) in [&dispatched, &scalar].into_iter().enumerate() {
            not_min[i] += s.floor_not_min_exits;
            ties[i] += s.floor_tie_exits;
            rescans[i] += s.floor_rescans;
        }
    });
    for (i, path) in ["dispatched", "scalar"].into_iter().enumerate() {
        assert!(
            not_min[i] > 0,
            "{path}: no floor raise stopped at a node it was not the min of"
        );
        assert!(
            ties[i] > 0,
            "{path}: no floor raise stopped on other contributors at the floor"
        );
        assert!(rescans[i] > 0, "{path}: no floor raise rescanned a node");
    }
}

/// Database scans: both kernels, at one worker and at four, produce the
/// same bits — the thread count and the kernel are both purely
/// operational knobs.
#[test]
fn db_scans_are_bit_identical_across_kernels_and_threads() {
    run_cases(48, |rng| {
        let db = MemoryDb::from_sequences(random_sequences(rng, M, 25, 1, 12));
        let count = rng.gen_range(1..16usize);
        let patterns = random_batch(rng, M, count, 10);
        let matrix = random_kernel_matrix(rng, M);
        assert_scans_match_naive(&patterns, &db, &matrix);
    });
}

/// The same contract on sparse m = 100 scans with wide phase-2-shaped
/// batches, where per-block partials accumulate only the patterns each
/// sequence touched.
#[test]
fn sparse_wide_db_scans_are_bit_identical_across_kernels_and_threads() {
    run_cases(12, |rng| {
        let db = MemoryDb::from_sequences(random_sequences(rng, SPARSE_M, 60, 1, 6));
        let partners = rng.gen_range(1..4usize);
        let matrix = partner_matrix(rng, SPARSE_M, partners);
        assert_scans_match_naive(&wide_level_batch(rng, SPARSE_M), &db, &matrix);
    });
}

/// Scans `db` with both kernels at one and four workers and holds every
/// result to the single-worker naive scan, bit for bit.
fn assert_scans_match_naive(patterns: &[Pattern], db: &MemoryDb, matrix: &CompatibilityMatrix) {
    let reference = try_db_match_many(patterns, db, matrix, 1, MatchKernel::Naive, None).unwrap();
    for kernel in [MatchKernel::Naive, MatchKernel::Simd] {
        for threads in [1, 4] {
            let got = try_db_match_many(patterns, db, matrix, threads, kernel, None).unwrap();
            assert_bit_identical(
                &got,
                &reference,
                &format!("{} @ {threads} thread(s)", kernel.name()),
            );
        }
    }
}
