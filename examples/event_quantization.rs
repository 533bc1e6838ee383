//! System-performance events with quantization noise.
//!
//! Section 1's second scenario: monitoring systems quantize continuous
//! attributes (CPU load, latency, …) into labeled bins; a value near a bin
//! boundary easily lands in the *adjacent* bin. The compatibility matrix
//! for this channel is tridiagonal — each level is confusable only with
//! its neighbours — and the match model recovers workload signatures that
//! boundary jitter hides from the support model. Run with:
//!
//! ```text
//! cargo run --release --example event_quantization
//! ```

use noisemine::core::matching::{try_db_match, try_db_support, MemorySequences};
use noisemine::core::miner::{mine, MinerConfig};
use noisemine::core::{Alphabet, Pattern, PatternSpace};
use noisemine::datagen::noise::channel_to_compatibility;
use noisemine::datagen::{apply_channel, generate, Background, GeneratorConfig, PlantedMotif};

fn main() {
    // Eight load levels, L0 (idle) .. L7 (saturated).
    let levels: Vec<String> = (0..8).map(|i| format!("L{i}")).collect();
    let alphabet = Alphabet::new(levels).expect("distinct level names");
    let m = alphabet.len();

    // The signature of a daily batch job: ramp up, plateau, ramp down.
    let signature = Pattern::parse("L1 L3 L5 L6 L6 L5 L3 L1", &alphabet).unwrap();
    let traces = generate(&GeneratorConfig {
        num_sequences: 400,
        min_len: 24,
        max_len: 36,
        alphabet_size: m,
        background: Background::Zipf(0.6), // low loads dominate
        motifs: vec![PlantedMotif::new(signature.clone(), 0.5)],
        seed: 31,
    });

    // Boundary jitter: a level is observed one bin off with probability 0.3
    // (0.15 up, 0.15 down; edge bins fold the mass inward).
    let jitter = 0.3;
    let mut channel = vec![vec![0.0; m]; m];
    for (i, row) in channel.iter_mut().enumerate() {
        row[i] = 1.0 - jitter;
        if i == 0 {
            row[1] += jitter / 2.0;
            row[0] += jitter / 2.0;
        } else if i == m - 1 {
            row[m - 2] += jitter / 2.0;
            row[m - 1] += jitter / 2.0;
        } else {
            row[i - 1] += jitter / 2.0;
            row[i + 1] += jitter / 2.0;
        }
    }
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
    let observed = apply_channel(&traces, &channel, &mut rng);
    let matrix = channel_to_compatibility(&channel);
    let norm = matrix
        .diagonal_normalized_clamped()
        .expect("tridiagonal posterior has positive diagonals");
    let db = MemorySequences(observed);

    let support = try_db_support(&signature, &db).expect("in-memory scan");
    let match_value = try_db_match(&signature, &db, &norm).expect("in-memory scan");
    println!(
        "batch-job signature {} (8 levels):",
        signature.display(&alphabet).unwrap()
    );
    println!("  support in jittered traces: {support:.3}   (planted occurrence was 0.50)");
    println!("  match   in jittered traces: {match_value:.3}");

    // Mine and check the signature's prefix chain is recovered.
    let config = MinerConfig {
        min_match: 0.15,
        sample_size: 400,
        space: PatternSpace::contiguous(8),
        ..MinerConfig::default()
    };
    let outcome = mine(&db, &norm, &config).expect("valid configuration");
    println!(
        "\nmined {} frequent patterns (match >= {}); longest border patterns:",
        outcome.frequent.len(),
        config.min_match
    );
    let mut border: Vec<&Pattern> = outcome.border.elements().iter().collect();
    border.sort_by_key(|p| std::cmp::Reverse(p.non_eternal_count()));
    for p in border.iter().take(5) {
        println!("  {}", p.display(&alphabet).unwrap());
    }

    // The ramp-up prefix must survive the jitter.
    let ramp = Pattern::parse("L1 L3 L5 L6", &alphabet).unwrap();
    let found = outcome.frequent.iter().any(|f| f.pattern == ramp);
    println!(
        "\nramp-up prefix {} (support {:.3}, match {:.3}): {}",
        ramp.display(&alphabet).unwrap(),
        try_db_support(&ramp, &db).expect("in-memory scan"),
        try_db_match(&ramp, &db, &norm).expect("in-memory scan"),
        if found {
            "recovered despite boundary jitter"
        } else {
            "not recovered"
        }
    );
}
