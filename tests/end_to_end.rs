//! End-to-end integration tests spanning the whole workspace: data
//! generation → noise injection → disk-resident storage → the three-phase
//! miner and every baseline, validated against exact mining and the planted
//! ground truth.

use std::collections::HashSet;

use noisemine::baselines::{mine_levelwise, mine_maxminer, mine_toivonen, MaxMinerConfig};
use noisemine::core::border_collapse::ProbeStrategy;
use noisemine::core::chernoff::SpreadMode;
use noisemine::core::matching::{try_db_match, MatchMetric, MemorySequences, SequenceScan};
use noisemine::core::miner::{mine, MinerConfig};
use noisemine::core::{CompatibilityMatrix, Pattern, PatternSpace};
use noisemine::datagen::noise::{channel_to_compatibility, partner_channel};
use noisemine::datagen::{apply_channel, generate, Background, GeneratorConfig, PlantedMotif};
use noisemine::seqdb::{DiskDb, MemoryDb};

/// A deterministic noisy workload with one strong planted motif.
fn workload() -> (
    Vec<Vec<noisemine::core::Symbol>>,
    CompatibilityMatrix,
    Pattern,
) {
    let alphabet = noisemine::core::Alphabet::synthetic(12);
    let motif = Pattern::parse("d0 d1 d2 d3 d4 d5", &alphabet).unwrap();
    let standard = generate(&GeneratorConfig {
        num_sequences: 300,
        min_len: 20,
        max_len: 30,
        alphabet_size: 12,
        background: Background::Uniform,
        motifs: vec![PlantedMotif::new(motif.clone(), 0.6)],
        seed: 99,
    });
    let partners: Vec<Vec<usize>> = (0..12).map(|i| vec![i ^ 1]).collect();
    let channel = partner_channel(12, 0.3, &partners);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let noisy = apply_channel(&standard, &channel, &mut rng);
    let matrix = channel_to_compatibility(&channel)
        .diagonal_normalized_clamped()
        .unwrap();
    (noisy, matrix, motif)
}

fn config(min_match: f64) -> MinerConfig {
    MinerConfig {
        min_match,
        delta: 0.01,
        sample_size: 300, // whole database -> probabilistic result is exact
        counters_per_scan: 200,
        space: PatternSpace::contiguous(8),
        spread_mode: SpreadMode::Restricted,
        probe_strategy: ProbeStrategy::BorderCollapsing,
        seed: 4,
        ..MinerConfig::default()
    }
}

#[test]
fn miner_recovers_planted_motif_from_noise() {
    let (noisy, matrix, motif) = workload();
    let db = MemoryDb::from_sequences(noisy);
    // At alpha = 0.3 with symmetric pairing the motif's expected match is
    // 0.6 * ((1-a) + a^2/(1-a))^6 ~ 0.20; threshold 0.15 leaves margin.
    let outcome = mine(&db, &matrix, &config(0.15)).unwrap();
    assert!(
        outcome.frequent.iter().any(|f| f.pattern == motif),
        "planted motif {motif} not recovered"
    );
    // The motif's subpatterns are frequent too (Apriori).
    let set: HashSet<Pattern> = outcome.patterns().into_iter().collect();
    for sub in motif.immediate_subpatterns() {
        if sub.max_gap() == 0 {
            assert!(set.contains(&sub), "missing subpattern {sub}");
        }
    }
}

#[test]
fn full_sample_three_phase_equals_exact_levelwise() {
    let (noisy, matrix, _) = workload();
    let db = MemoryDb::from_sequences(noisy);
    let cfg = config(0.15);
    let outcome = mine(&db, &matrix, &cfg).unwrap();
    let exact = mine_levelwise(
        &db,
        &MatchMetric { matrix: &matrix },
        12,
        cfg.min_match,
        &cfg.space,
        usize::MAX,
    );
    let probabilistic: HashSet<Pattern> = outcome.patterns().into_iter().collect();
    assert_eq!(
        probabilistic,
        exact.pattern_set(),
        "with the sample covering the whole database the probabilistic miner must be exact"
    );
}

#[test]
fn all_four_miners_agree_on_disk_database() {
    let (noisy, matrix, _) = workload();
    let path = std::env::temp_dir().join(format!("noisemine-e2e-{}.db", std::process::id()));
    let db = DiskDb::create_from(&path, noisy.iter().map(Vec::as_slice)).unwrap();
    let cfg = config(0.2);

    let ours = mine(&db, &matrix, &cfg).unwrap();
    let exact = mine_levelwise(
        &db,
        &MatchMetric { matrix: &matrix },
        12,
        cfg.min_match,
        &cfg.space,
        usize::MAX,
    );
    let maxminer = mine_maxminer(
        &db,
        &MatchMetric { matrix: &matrix },
        12,
        cfg.min_match,
        &cfg.space,
        &MaxMinerConfig::default(),
    );
    let toivonen = mine_toivonen(&db, &matrix, &cfg).unwrap();

    let ours_set: HashSet<Pattern> = ours.patterns().into_iter().collect();
    let toivonen_set: HashSet<Pattern> = toivonen
        .frequent
        .iter()
        .map(|f| f.pattern.clone())
        .collect();
    assert_eq!(ours_set, exact.pattern_set(), "three-phase vs exact");
    assert_eq!(
        maxminer.pattern_set(),
        exact.pattern_set(),
        "max-miner vs exact"
    );
    assert_eq!(toivonen_set, exact.pattern_set(), "toivonen vs exact");

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn scan_accounting_is_consistent_across_substrates() {
    let (noisy, matrix, _) = workload();
    let cfg = config(0.2);

    let mem = MemoryDb::from_sequences(noisy.clone());
    let outcome_mem = mine(&mem, &matrix, &cfg).unwrap();
    assert_eq!(mem.scans_performed(), outcome_mem.stats.db_scans);

    let path = std::env::temp_dir().join(format!("noisemine-scan-{}.db", std::process::id()));
    let disk = DiskDb::create_from(&path, noisy.iter().map(Vec::as_slice)).unwrap();
    let outcome_disk = mine(&disk, &matrix, &cfg).unwrap();
    assert_eq!(disk.scans_performed(), outcome_disk.stats.db_scans);

    // Same data, same config -> identical results regardless of substrate.
    assert_eq!(outcome_mem.patterns(), outcome_disk.patterns());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn tighter_counter_budget_costs_more_scans_not_different_results() {
    let (noisy, matrix, _) = workload();
    let db = MemoryDb::from_sequences(noisy);
    let mut generous = config(0.18);
    generous.counters_per_scan = 100_000;
    let mut tight = config(0.18);
    tight.counters_per_scan = 10;

    let a = mine(&db, &matrix, &generous).unwrap();
    let b = mine(&db, &matrix, &tight).unwrap();
    assert_eq!(a.patterns(), b.patterns());
    assert!(b.stats.db_scans >= a.stats.db_scans);
}

#[test]
fn disk_round_trip_preserves_match_values() {
    let (noisy, matrix, motif) = workload();
    let mem = MemorySequences(noisy.clone());
    let path = std::env::temp_dir().join(format!("noisemine-rt-{}.db", std::process::id()));
    let disk = DiskDb::create_from(&path, noisy.iter().map(Vec::as_slice)).unwrap();
    assert_eq!(mem.num_sequences(), disk.num_sequences());
    let m1 = try_db_match(&motif, &mem, &matrix).unwrap();
    let m2 = try_db_match(&motif, &disk, &matrix).unwrap();
    assert!((m1 - m2).abs() < 1e-15);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn border_collapsing_and_levelwise_verification_agree() {
    let (noisy, matrix, _) = workload();
    let db = MemoryDb::from_sequences(noisy);
    let mut bc = config(0.16);
    bc.counters_per_scan = 25;
    let mut lw = bc.clone();
    lw.probe_strategy = ProbeStrategy::LevelWise;

    let a = mine(&db, &matrix, &bc).unwrap();
    let b = mine(&db, &matrix, &lw).unwrap();
    assert_eq!(a.patterns(), b.patterns());
}

#[test]
fn noise_free_identity_mining_equals_support_semantics() {
    // On the standard database with the identity matrix, the miner's output
    // is exactly the support-frequent patterns.
    let alphabet = noisemine::core::Alphabet::synthetic(8);
    let motif = Pattern::parse("d0 d1 d2", &alphabet).unwrap();
    let standard = generate(&GeneratorConfig {
        num_sequences: 200,
        min_len: 10,
        max_len: 16,
        alphabet_size: 8,
        background: Background::Uniform,
        motifs: vec![PlantedMotif::new(motif.clone(), 0.5)],
        seed: 1,
    });
    let id = CompatibilityMatrix::identity(8);
    let db = MemoryDb::from_sequences(standard);
    let cfg = MinerConfig {
        min_match: 0.4,
        sample_size: 200,
        space: PatternSpace::contiguous(5),
        ..MinerConfig::default()
    };
    let outcome = mine(&db, &id, &cfg).unwrap();
    let exact = mine_levelwise(
        &db,
        &noisemine::core::matching::SupportMetric,
        8,
        cfg.min_match,
        &cfg.space,
        usize::MAX,
    );
    let ours: HashSet<Pattern> = outcome.patterns().into_iter().collect();
    assert_eq!(ours, exact.pattern_set());
    assert!(ours.contains(&motif));
}
