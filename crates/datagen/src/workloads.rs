//! Ready-made workloads for the paper's experiments.
//!
//! The central one is the **protein workload**: a standard (noise-free)
//! database of amino-acid sequences with planted motifs of graded lengths,
//! from which test databases are derived by noise injection — the setup of
//! §5.1–§5.6. Motif lengths are spread over a configurable range so that
//! experiments can bucket results "by number of non-eternal symbols"
//! (Fig. 7(c)(d), Fig. 11(a)).

use noisemine_core::matrix::CompatibilityMatrix;
use noisemine_core::pattern::Pattern;
use noisemine_core::{Alphabet, Symbol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::blosum;
use crate::noise::{apply_channel, apply_uniform_noise};
use crate::planted::{generate, Background, GeneratorConfig, PlantedMotif};

/// Configuration of the protein workload.
#[derive(Debug, Clone)]
pub struct ProteinWorkloadConfig {
    /// Number of sequences in the standard database.
    pub num_sequences: usize,
    /// Minimum sequence length.
    pub min_len: usize,
    /// Maximum sequence length.
    pub max_len: usize,
    /// Number of planted motifs.
    pub num_motifs: usize,
    /// Smallest motif length.
    pub min_motif_len: usize,
    /// Largest motif length.
    pub max_motif_len: usize,
    /// Fraction of sequences carrying each motif.
    pub occurrence: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProteinWorkloadConfig {
    fn default() -> Self {
        Self {
            num_sequences: 1000,
            min_len: 40,
            max_len: 80,
            num_motifs: 6,
            min_motif_len: 4,
            max_motif_len: 14,
            occurrence: 0.3,
            seed: 2002, // the paper's year
        }
    }
}

/// A standard database with known planted motifs over the amino-acid
/// alphabet, plus derived test databases.
#[derive(Debug, Clone)]
pub struct ProteinWorkload {
    /// The 20-letter amino-acid alphabet.
    pub alphabet: Alphabet,
    /// The noise-free standard database.
    pub standard: Vec<Vec<Symbol>>,
    /// The planted motifs (ground truth).
    pub motifs: Vec<Pattern>,
    config: ProteinWorkloadConfig,
}

impl ProteinWorkload {
    /// Builds the workload: draws motifs with lengths evenly spread over
    /// `[min_motif_len, max_motif_len]` and generates the standard database.
    pub fn new(config: ProteinWorkloadConfig) -> Self {
        assert!(config.min_motif_len >= 2, "motifs must have length >= 2");
        assert!(
            config.max_motif_len >= config.min_motif_len && config.max_motif_len <= config.min_len,
            "motif lengths must fit in the shortest sequence"
        );
        let alphabet = Alphabet::amino_acids();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);
        let mut motifs = Vec::with_capacity(config.num_motifs);
        for i in 0..config.num_motifs {
            let len = if config.num_motifs <= 1 {
                config.max_motif_len
            } else {
                config.min_motif_len
                    + i * (config.max_motif_len - config.min_motif_len) / (config.num_motifs - 1)
            };
            let symbols: Vec<Symbol> = (0..len).map(|_| Symbol(rng.gen_range(0..20u16))).collect();
            motifs.push(Pattern::contiguous(&symbols).expect("non-empty motif"));
        }
        let gen_cfg = GeneratorConfig {
            num_sequences: config.num_sequences,
            min_len: config.min_len,
            max_len: config.max_len,
            alphabet_size: 20,
            background: Background::Zipf(0.4), // mild amino-acid skew
            motifs: motifs
                .iter()
                .map(|p| PlantedMotif::new(p.clone(), config.occurrence))
                .collect(),
            seed: config.seed,
        };
        let standard = generate(&gen_cfg);
        Self {
            alphabet,
            standard,
            motifs,
            config,
        }
    }

    /// Builds with the default configuration.
    pub fn default_workload() -> Self {
        Self::new(ProteinWorkloadConfig::default())
    }

    /// The workload configuration.
    pub fn config(&self) -> &ProteinWorkloadConfig {
        &self.config
    }

    /// Derives a test database with uniform noise `alpha` and the matching
    /// compatibility matrix (§5.1's protocol).
    pub fn uniform_test_db(
        &self,
        alpha: f64,
        seed: u64,
    ) -> (Vec<Vec<Symbol>>, CompatibilityMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let noisy = apply_uniform_noise(&self.standard, alpha, 20, &mut rng);
        let matrix = CompatibilityMatrix::uniform_noise(20, alpha)
            .expect("alpha validated by apply_uniform_noise");
        (noisy, matrix)
    }

    /// Derives a test database under the *structured* mutation-partner
    /// channel of degree `alpha` (each amino acid mutates into its
    /// BLOSUM-likeliest partner, per the paper's Figure 1 motivation), with
    /// the exact Bayes-inverted compatibility matrix.
    pub fn partner_test_db(
        &self,
        alpha: f64,
        seed: u64,
    ) -> (Vec<Vec<Symbol>>, CompatibilityMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let channel = crate::noise::partner_channel(20, alpha, &blosum::partner_map(2));
        let noisy = apply_channel(&self.standard, &channel, &mut rng);
        (noisy, crate::noise::channel_to_compatibility(&channel))
    }

    /// Derives a test database mutated per the BLOSUM50 channel at rate
    /// `mu`, with the matching compatibility matrix (§5.1's in-text
    /// experiment).
    pub fn blosum_test_db(&self, mu: f64, seed: u64) -> (Vec<Vec<Symbol>>, CompatibilityMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let channel = blosum::mutation_channel(mu);
        let noisy = apply_channel(&self.standard, &channel, &mut rng);
        (noisy, blosum::compatibility_matrix(mu))
    }
}

/// Accuracy and completeness of a result set against a reference set —
/// the two quality measures of §5.1:
/// accuracy `|R' ∩ R| / |R'|`, completeness `|R' ∩ R| / |R|`.
pub fn accuracy_completeness<T: std::hash::Hash + Eq>(
    result: &std::collections::HashSet<T>,
    reference: &std::collections::HashSet<T>,
) -> (f64, f64) {
    let inter = result.intersection(reference).count() as f64;
    let accuracy = if result.is_empty() {
        1.0
    } else {
        inter / result.len() as f64
    };
    let completeness = if reference.is_empty() {
        1.0
    } else {
        inter / reference.len() as f64
    };
    (accuracy, completeness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisemine_core::matching::{try_db_support, MemorySequences};
    use std::collections::HashSet;

    fn small() -> ProteinWorkload {
        ProteinWorkload::new(ProteinWorkloadConfig {
            num_sequences: 200,
            min_len: 30,
            max_len: 40,
            num_motifs: 3,
            min_motif_len: 4,
            max_motif_len: 8,
            occurrence: 0.4,
            seed: 9,
        })
    }

    #[test]
    fn workload_shape() {
        let w = small();
        assert_eq!(w.standard.len(), 200);
        assert_eq!(w.motifs.len(), 3);
        let lens: Vec<usize> = w.motifs.iter().map(Pattern::len).collect();
        assert_eq!(lens, vec![4, 6, 8]);
    }

    #[test]
    fn motifs_have_target_support_in_standard_db() {
        let w = small();
        let db = MemorySequences(w.standard.clone());
        for motif in &w.motifs {
            let s = try_db_support(motif, &db).unwrap();
            assert!(
                s >= 0.3,
                "motif {motif} support {s} below planted occurrence"
            );
        }
    }

    #[test]
    fn uniform_test_db_reduces_support_of_long_motifs() {
        let w = small();
        let (noisy, matrix) = w.uniform_test_db(0.2, 77);
        let std_db = MemorySequences(w.standard.clone());
        let noisy_db = MemorySequences(noisy);
        let longest = w.motifs.last().unwrap();
        let s_std = try_db_support(longest, &std_db).unwrap();
        let s_noisy = try_db_support(longest, &noisy_db).unwrap();
        assert!(
            s_noisy < s_std,
            "noise should conceal the long motif ({s_noisy} !< {s_std})"
        );
        assert_eq!(matrix.len(), 20);
    }

    #[test]
    fn blosum_test_db_is_consistent() {
        let w = small();
        let (noisy, matrix) = w.blosum_test_db(0.15, 5);
        assert_eq!(noisy.len(), w.standard.len());
        assert_eq!(matrix.len(), 20);
        let rate = crate::noise::observed_noise_rate(&w.standard, &noisy);
        assert!((rate - 0.15).abs() < 0.02, "mutation rate {rate}");
    }

    #[test]
    fn accuracy_completeness_measures() {
        let result: HashSet<i32> = [1, 2, 3, 4].into_iter().collect();
        let reference: HashSet<i32> = [3, 4, 5, 6, 7, 8].into_iter().collect();
        let (acc, comp) = accuracy_completeness(&result, &reference);
        assert!((acc - 0.5).abs() < 1e-12);
        assert!((comp - 2.0 / 6.0).abs() < 1e-12);
        let empty: HashSet<i32> = HashSet::new();
        assert_eq!(accuracy_completeness(&empty, &reference), (1.0, 0.0));
        assert_eq!(accuracy_completeness(&result, &empty).0, 0.0);
    }
}
