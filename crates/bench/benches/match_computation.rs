#![allow(missing_docs)] // criterion macros expand to undocumented items

//! Microbenchmarks of the match kernel (Definitions 3.5/3.6): the
//! early-abort sliding window vs the workload shape, on sparse (structured
//! noise) and dense (uniform noise) compatibility matrices — design
//! decision ✦2 of DESIGN.md.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use noisemine_core::matching::{sequence_match, try_db_match_many, MemorySequences};
use noisemine_core::{CompatibilityMatrix, MatchKernel, Pattern, Symbol};
use noisemine_datagen::noise::{channel_to_compatibility, partner_channel};
use noisemine_datagen::{generate, Background, GeneratorConfig, PlantedMotif};

fn workload(len: usize) -> (Vec<Vec<Symbol>>, Pattern) {
    let motif_syms: Vec<Symbol> = (0..8).map(Symbol).collect();
    let motif = Pattern::contiguous(&motif_syms).unwrap();
    let seqs = generate(&GeneratorConfig {
        num_sequences: 200,
        min_len: len,
        max_len: len,
        alphabet_size: 20,
        background: Background::Uniform,
        motifs: vec![PlantedMotif::new(motif.clone(), 0.5)],
        seed: 7,
    });
    (seqs, motif)
}

fn dense_matrix() -> CompatibilityMatrix {
    CompatibilityMatrix::uniform_noise(20, 0.2).unwrap()
}

fn sparse_matrix() -> CompatibilityMatrix {
    let partners: Vec<Vec<usize>> = (0..20).map(|i| vec![i ^ 1]).collect();
    channel_to_compatibility(&partner_channel(20, 0.2, &partners))
}

fn bench_sequence_match(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequence_match");
    for len in [50usize, 200, 1000] {
        let (seqs, motif) = workload(len);
        let dense = dense_matrix();
        let sparse = sparse_matrix();
        group.bench_with_input(BenchmarkId::new("dense", len), &len, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for s in &seqs {
                    acc += sequence_match(black_box(&motif), s, &dense);
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new("sparse", len), &len, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for s in &seqs {
                    acc += sequence_match(black_box(&motif), s, &sparse);
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_try_db_match_many(c: &mut Criterion) {
    let (seqs, _) = workload(100);
    let db = MemorySequences(seqs);
    let matrix = dense_matrix();
    let mut group = c.benchmark_group("try_db_match_many");
    for count in [16usize, 128, 512] {
        let patterns: Vec<Pattern> = (0..count)
            .map(|i| {
                Pattern::contiguous(&[
                    Symbol((i % 20) as u16),
                    Symbol(((i / 20) % 20) as u16),
                    Symbol(((i / 400) % 20) as u16),
                ])
                .unwrap()
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(count), &count, |b, _| {
            b.iter(|| {
                try_db_match_many(
                    black_box(&patterns),
                    &db,
                    &matrix,
                    0,
                    MatchKernel::default(),
                    None,
                )
                .expect("database scan failed")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sequence_match, bench_try_db_match_many);
criterion_main!(benches);
