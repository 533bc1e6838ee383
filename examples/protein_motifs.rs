//! Recovering protein motifs concealed by BLOSUM-style mutations.
//!
//! This is the paper's motivating scenario (Section 1): amino acids mutate
//! into chemically similar ones (N→D, K→R, V→I …) with little functional
//! change, which slashes the *support* of long motifs while the *match*
//! model — armed with a compatibility matrix — still sees them.
//!
//! The example plants known motifs into synthetic protein sequences,
//! mutates the database with a concentrated BLOSUM-partner channel (each
//! amino acid mutates into its likeliest substitute — the N→D/K→R/V→I
//! regime of the paper's Figure 1), and compares how many planted motifs
//! each model recovers. Run with:
//!
//! ```text
//! cargo run --release --example protein_motifs
//! ```

use noisemine::baselines::mine_levelwise;
use noisemine::core::matching::{
    try_db_match, try_db_support, MatchMetric, MemorySequences, SupportMetric,
};
use noisemine::core::PatternSpace;
use noisemine::datagen::{ProteinWorkload, ProteinWorkloadConfig};

fn main() {
    let workload = ProteinWorkload::new(ProteinWorkloadConfig {
        num_sequences: 400,
        min_len: 40,
        max_len: 60,
        num_motifs: 4,
        min_motif_len: 5,
        max_motif_len: 11,
        occurrence: 0.45,
        seed: 42,
    });
    let alphabet = &workload.alphabet;
    println!("planted motifs:");
    for m in &workload.motifs {
        println!("  {}", m.display(alphabet).unwrap());
    }

    // Mutate 40% of positions, each into its BLOSUM-likeliest partner.
    let mu = 0.4;
    let channel = noisemine::datagen::noise::partner_channel(
        20,
        mu,
        &noisemine::datagen::blosum::partner_map(1),
    );
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let noisy = noisemine::datagen::apply_channel(&workload.standard, &channel, &mut rng);
    let matrix = noisemine::datagen::noise::channel_to_compatibility(&channel);
    let noisy_db = MemorySequences(noisy);
    let norm = matrix
        .diagonal_normalized_clamped()
        .expect("BLOSUM posterior has a positive diagonal");

    println!("\nper-motif support vs match in the mutated database (mu = {mu}):");
    println!("{:<14} {:>9} {:>9}", "motif", "support", "match");
    for motif in &workload.motifs {
        let s = try_db_support(motif, &noisy_db).expect("in-memory scan");
        let m = try_db_match(motif, &noisy_db, &norm).expect("in-memory scan");
        println!(
            "{:<14} {:>9.3} {:>9.3}",
            motif.display(alphabet).unwrap(),
            s,
            m
        );
    }

    // Mine both models at the same threshold and count recovered motifs.
    let threshold = 0.1;
    let space = PatternSpace::contiguous(12);
    let support_result =
        mine_levelwise(&noisy_db, &SupportMetric, 20, threshold, &space, usize::MAX);
    let match_result = mine_levelwise(
        &noisy_db,
        &MatchMetric { matrix: &norm },
        20,
        threshold,
        &space,
        usize::MAX,
    );

    let recovered = |set: &std::collections::HashSet<noisemine::core::Pattern>| {
        workload.motifs.iter().filter(|m| set.contains(*m)).count()
    };
    let s_set = support_result.pattern_set();
    let m_set = match_result.pattern_set();
    println!(
        "\nat min_support = min_match = {threshold}:\n  support model recovers {}/{} motifs \
         ({} frequent patterns total)\n  match model   recovers {}/{} motifs ({} frequent \
         patterns total)",
        recovered(&s_set),
        workload.motifs.len(),
        support_result.frequent.len(),
        recovered(&m_set),
        workload.motifs.len(),
        match_result.frequent.len(),
    );
}
