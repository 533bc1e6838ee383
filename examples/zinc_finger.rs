//! Position-sensitive gapped patterns: the Zinc Finger signature.
//!
//! Section 3 of the paper motivates the eternal symbol `*` with the Zinc
//! Finger transcription factor, whose signature `C**C************H**H`
//! fixes two cysteines and two histidines at exact offsets with don't-care
//! gaps between them. This example plants that signature into synthetic
//! sequences, adds mutation noise, and mines with a gapped pattern space
//! (`max_gap > 0`) to find it again. Run with:
//!
//! ```text
//! cargo run --release --example zinc_finger
//! ```

use noisemine::core::matching::{try_db_match, try_db_support, MemorySequences};
use noisemine::core::{Alphabet, Pattern, PatternSpace};
use noisemine::datagen::noise::{apply_channel, channel_to_compatibility, partner_channel};
use noisemine::datagen::{generate, Background, GeneratorConfig, PlantedMotif};

fn main() {
    let alphabet = Alphabet::amino_acids();
    // A shortened Zinc-Finger-like signature (C *2 C *4 H *2 H) so the
    // full-length pattern fits comfortably in the example's sequences; the
    // real 20-long signature works identically with longer sequences.
    let signature = Pattern::parse("C**C****H**H", &alphabet).expect("valid signature");
    println!(
        "planting signature {} (length {}, {} concrete symbols, max gap {})",
        signature.display(&alphabet).unwrap(),
        signature.len(),
        signature.non_eternal_count(),
        signature.max_gap(),
    );

    let config = GeneratorConfig {
        num_sequences: 300,
        min_len: 30,
        max_len: 45,
        alphabet_size: 20,
        background: Background::Uniform,
        motifs: vec![PlantedMotif::new(signature.clone(), 0.5)],
        seed: 11,
    };
    let standard = generate(&config);

    // Mutate with a *symmetric* pairing channel at 45%: amino acids are
    // grouped into fixed substitute pairs (id 2k <-> 2k+1) and flip to
    // their pair partner almost half the time. Symmetric pairing keeps the
    // posterior informative in both directions, the cleanest illustration
    // of the paper's mutation model.
    let partners: Vec<Vec<usize>> = (0..20).map(|i| vec![i ^ 1]).collect();
    let channel = partner_channel(20, 0.45, &partners);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(23);
    let noisy = apply_channel(&standard, &channel, &mut rng);
    let matrix = channel_to_compatibility(&channel);
    let norm = matrix
        .diagonal_normalized_clamped()
        .expect("positive diagonals");
    let noisy_db = MemorySequences(noisy);

    let support = try_db_support(&signature, &noisy_db).expect("in-memory scan");
    let match_value = try_db_match(&signature, &noisy_db, &norm).expect("in-memory scan");
    println!(
        "in the mutated database: support = {support:.3}, match = {match_value:.3} \
         (planted occurrence was 0.50)"
    );

    // Gapped mining: the pattern space must admit runs of '*'. A mining run
    // over a gapped space is exponentially larger than a contiguous one, so
    // keep the bounds tight around the signature's shape.
    let space = PatternSpace::new(4, signature.len()).expect("valid space");
    assert!(space.admits(&signature));

    // Demonstrate the Apriori chain the miner exploits: every subpattern of
    // the signature matches at least as strongly (Claim 3.1).
    let sub = Pattern::parse("C**C****H", &alphabet).unwrap();
    let sub_match = try_db_match(&sub, &noisy_db, &norm).expect("in-memory scan");
    println!(
        "subpattern {} has match {sub_match:.3} >= {match_value:.3} (Apriori property)",
        sub.display(&alphabet).unwrap()
    );
    assert!(sub_match >= match_value - 1e-12);

    // The degraded signature still clears a threshold that plain support
    // misses — the paper's core point, position-sensitive edition.
    let threshold = 0.30;
    println!(
        "\nat min threshold {threshold}: support model {} the signature, match model {} it",
        if support >= threshold {
            "keeps"
        } else {
            "LOSES"
        },
        if match_value >= threshold {
            "keeps"
        } else {
            "LOSES"
        },
    );
}
