//! Planted-motif sequence generation.
//!
//! The paper's robustness protocol (§5.1) mines a *standard* (noise-free)
//! database first and uses that result as ground truth for *test* databases
//! derived by injecting noise. Synthetic data with **planted motifs** gives
//! us the same protocol with exact control: background symbols are drawn
//! i.i.d. from a configurable distribution, and each motif (the "true
//! pattern" the miner should recover) is embedded into a configurable
//! fraction of sequences at a random position.

use noisemine_core::pattern::{Pattern, PatternElem};
use noisemine_core::Symbol;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A motif to embed in generated sequences.
#[derive(Debug, Clone)]
pub struct PlantedMotif {
    /// The motif, possibly containing eternal positions (gaps). Eternal
    /// positions are filled with random background symbols at embedding
    /// time, so the *pattern* occurs even though the raw text differs.
    pub pattern: Pattern,
    /// Fraction of sequences that contain the motif.
    pub occurrence: f64,
}

impl PlantedMotif {
    /// A contiguous motif occurring in the given fraction of sequences.
    pub fn new(pattern: Pattern, occurrence: f64) -> Self {
        Self {
            pattern,
            occurrence,
        }
    }
}

/// Background symbol distribution.
#[derive(Debug, Clone)]
pub enum Background {
    /// Every symbol equally likely.
    Uniform,
    /// Zipf-ish skew: probability of symbol `i` proportional to
    /// `1 / (i + 1)^s`. Mimics the skewed amino-acid frequencies of real
    /// protein data.
    Zipf(f64),
    /// Explicit weights (normalized internally; must be non-negative).
    Weights(Vec<f64>),
}

impl Background {
    fn cumulative(&self, m: usize) -> Vec<f64> {
        let weights: Vec<f64> = match self {
            Background::Uniform => vec![1.0; m],
            Background::Zipf(s) => (0..m).map(|i| 1.0 / ((i + 1) as f64).powf(*s)).collect(),
            Background::Weights(w) => {
                assert_eq!(w.len(), m, "background weights must cover the alphabet");
                w.clone()
            }
        };
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "background weights must not all be zero");
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    }
}

/// Configuration of the generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of sequences `N`.
    pub num_sequences: usize,
    /// Minimum sequence length (inclusive).
    pub min_len: usize,
    /// Maximum sequence length (inclusive).
    pub max_len: usize,
    /// Alphabet size `m`.
    pub alphabet_size: usize,
    /// Background symbol distribution.
    pub background: Background,
    /// Motifs to embed.
    pub motifs: Vec<PlantedMotif>,
    /// RNG seed — generation is deterministic.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            num_sequences: 1000,
            min_len: 50,
            max_len: 100,
            alphabet_size: 20,
            background: Background::Uniform,
            motifs: Vec::new(),
            seed: 0xBEEF,
        }
    }
}

/// Generates the standard (noise-free) database.
///
/// # Panics
///
/// Panics if a motif is longer than `min_len` or uses a symbol outside the
/// alphabet — both are configuration bugs worth failing loudly on.
pub fn generate(config: &GeneratorConfig) -> Vec<Vec<Symbol>> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let cumulative = config.background.cumulative(config.alphabet_size);
    for motif in &config.motifs {
        assert!(
            motif.pattern.len() <= config.min_len,
            "motif {} longer than min sequence length {}",
            motif.pattern,
            config.min_len
        );
        assert!(
            motif
                .pattern
                .symbols()
                .all(|s| s.index() < config.alphabet_size),
            "motif {} uses symbols outside the alphabet",
            motif.pattern
        );
    }

    (0..config.num_sequences)
        .map(|_| {
            let len = rng.gen_range(config.min_len..=config.max_len);
            let mut seq: Vec<Symbol> = (0..len).map(|_| draw(&cumulative, &mut rng)).collect();
            let mut occupied: Vec<(usize, usize)> = Vec::new();
            for motif in &config.motifs {
                if rng.gen::<f64>() < motif.occurrence {
                    embed(&motif.pattern, &mut seq, &mut occupied, &mut rng);
                }
            }
            seq
        })
        .collect()
}

fn draw(cumulative: &[f64], rng: &mut StdRng) -> Symbol {
    let x: f64 = rng.gen();
    let idx = cumulative.partition_point(|&c| c < x);
    Symbol(idx.min(cumulative.len() - 1) as u16)
}

/// Writes the motif's concrete symbols into a random window of `seq`
/// (eternal positions keep whatever background symbol is there), preferring
/// a window that does not overlap previously embedded motifs so that motifs
/// do not clobber each other. Falls back to an arbitrary window after a
/// bounded number of attempts (short sequences with many motifs).
fn embed(
    pattern: &Pattern,
    seq: &mut [Symbol],
    occupied: &mut Vec<(usize, usize)>,
    rng: &mut StdRng,
) {
    let l = pattern.len();
    let max_start = seq.len() - l;
    let mut start = rng.gen_range(0..=max_start);
    for _ in 0..16 {
        let overlaps = occupied.iter().any(|&(a, b)| start < b && start + l > a);
        if !overlaps {
            break;
        }
        start = rng.gen_range(0..=max_start);
    }
    occupied.push((start, start + l));
    for (offset, elem) in pattern.elems().iter().enumerate() {
        if let PatternElem::Sym(s) = elem {
            seq[start + offset] = *s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisemine_core::matching::{try_db_support, MemorySequences};
    use noisemine_core::Alphabet;

    #[test]
    fn generates_requested_shape() {
        let cfg = GeneratorConfig {
            num_sequences: 50,
            min_len: 10,
            max_len: 20,
            alphabet_size: 8,
            ..GeneratorConfig::default()
        };
        let seqs = generate(&cfg);
        assert_eq!(seqs.len(), 50);
        for s in &seqs {
            assert!((10..=20).contains(&s.len()));
            assert!(s.iter().all(|sym| sym.index() < 8));
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = GeneratorConfig::default();
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = GeneratorConfig {
            seed: 1,
            ..GeneratorConfig::default()
        };
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn planted_motif_reaches_target_support() {
        let a = Alphabet::synthetic(20);
        let motif = Pattern::parse("d1 d2 d3 d4 d5", &a).unwrap();
        let cfg = GeneratorConfig {
            num_sequences: 400,
            min_len: 30,
            max_len: 50,
            motifs: vec![PlantedMotif::new(motif.clone(), 0.5)],
            ..GeneratorConfig::default()
        };
        let seqs = generate(&cfg);
        let db = MemorySequences(seqs);
        let support = try_db_support(&motif, &db).unwrap();
        assert!(
            (support - 0.5).abs() < 0.08,
            "support {support}, expected about 0.5"
        );
    }

    #[test]
    fn gapped_motif_occurs_as_pattern() {
        let a = Alphabet::synthetic(20);
        let motif = Pattern::parse("d1 * * d4 d5", &a).unwrap();
        let cfg = GeneratorConfig {
            num_sequences: 200,
            min_len: 20,
            max_len: 30,
            motifs: vec![PlantedMotif::new(motif.clone(), 1.0)],
            ..GeneratorConfig::default()
        };
        let db = MemorySequences(generate(&cfg));
        // Every sequence must contain the gapped pattern exactly.
        assert!((try_db_support(&motif, &db).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_background_is_skewed() {
        let cfg = GeneratorConfig {
            num_sequences: 200,
            min_len: 50,
            max_len: 50,
            alphabet_size: 10,
            background: Background::Zipf(1.0),
            ..GeneratorConfig::default()
        };
        let seqs = generate(&cfg);
        let mut counts = [0usize; 10];
        for s in &seqs {
            for sym in s {
                counts[sym.index()] += 1;
            }
        }
        assert!(counts[0] > counts[9] * 3, "Zipf skew missing: {counts:?}");
    }

    #[test]
    fn explicit_weights_respected() {
        let cfg = GeneratorConfig {
            num_sequences: 100,
            min_len: 20,
            max_len: 20,
            alphabet_size: 3,
            background: Background::Weights(vec![0.0, 1.0, 0.0]),
            ..GeneratorConfig::default()
        };
        let seqs = generate(&cfg);
        for s in &seqs {
            assert!(s.iter().all(|&sym| sym == Symbol(1)));
        }
    }

    #[test]
    #[should_panic(expected = "longer than min sequence length")]
    fn rejects_oversized_motif() {
        let a = Alphabet::synthetic(5);
        let motif = Pattern::parse("d1 d2 d3 d4", &a).unwrap();
        let cfg = GeneratorConfig {
            min_len: 2,
            max_len: 5,
            motifs: vec![PlantedMotif::new(motif, 1.0)],
            ..GeneratorConfig::default()
        };
        generate(&cfg);
    }
}
