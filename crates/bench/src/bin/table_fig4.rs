//! Reproduces the paper's worked example: Figure 4(b) (support and match of
//! each symbol), Figure 4(c) (2-patterns), Figure 4(d) (the match an
//! observed "d2 d2" contributes to every 2-pattern), and the Figure 5(b)
//! per-sequence match trace — all computed from the Figure 2 compatibility
//! matrix and the Figure 4(a) database.
//!
//! Values follow Definitions 3.5–3.7 exactly; the handful of places where
//! the paper's printed tables disagree with its own definitions (d1/d3 in
//! Fig. 4(b), d2d2 in Fig. 4(c), the 0.00522 narrative value) are noted in
//! the core test suite (`noisemine-core::matching`).

use noisemine_bench::table::{fmt, Table};
use noisemine_core::matching::{segment_match, try_db_match, try_db_support, MemorySequences};
use noisemine_core::{Alphabet, CompatibilityMatrix, Pattern, Symbol};

fn main() {
    let alphabet = Alphabet::new((1..=5).map(|i| format!("d{i}"))).expect("distinct names");
    let matrix = CompatibilityMatrix::paper_figure2();
    let db = MemorySequences(vec![
        alphabet.encode("d1 d2 d3 d1").unwrap(),
        alphabet.encode("d4 d2 d1").unwrap(),
        alphabet.encode("d3 d4 d2 d1").unwrap(),
        alphabet.encode("d2 d2").unwrap(),
    ]);

    // Figure 4(b): support and match of each symbol.
    let mut t = Table::new(
        "Figure 4(b): support and match of each symbol",
        ["symbol", "support", "match"],
    );
    for i in 0..5u16 {
        let p = Pattern::single(Symbol(i));
        t.row([
            alphabet.name(Symbol(i)).unwrap().to_string(),
            fmt(try_db_support(&p, &db).expect("in-memory scan"), 3),
            fmt(try_db_match(&p, &db, &matrix).expect("in-memory scan"), 3),
        ]);
    }
    t.emit(Some(std::path::Path::new("results/table_fig4b.csv")));

    // Figure 4(c): support and match of all 2-patterns.
    let mut t = Table::new(
        "Figure 4(c): support and match of patterns with two symbols",
        ["pattern", "support", "match"],
    );
    for a in 0..5u16 {
        for b in 0..5u16 {
            let p = Pattern::contiguous(&[Symbol(a), Symbol(b)]).unwrap();
            t.row([
                p.display(&alphabet).unwrap(),
                fmt(try_db_support(&p, &db).expect("in-memory scan"), 2),
                fmt(try_db_match(&p, &db, &matrix).expect("in-memory scan"), 3),
            ]);
        }
    }
    t.emit(Some(std::path::Path::new("results/table_fig4c.csv")));

    // Figure 4(d): match contributed by the observed segment "d2 d2".
    let obs = alphabet.encode("d2 d2").unwrap();
    let mut t = Table::new(
        "Figure 4(d): match contributed to each 2-pattern by an observed \"d2 d2\"",
        ["pattern", "match"],
    );
    let mut total = 0.0;
    for a in 0..5u16 {
        for b in 0..5u16 {
            let p = Pattern::contiguous(&[Symbol(a), Symbol(b)]).unwrap();
            let v = segment_match(&p, &obs, &matrix);
            total += v;
            t.row([p.display(&alphabet).unwrap(), fmt(v, 2)]);
        }
    }
    t.emit(Some(std::path::Path::new("results/table_fig4d.csv")));
    println!("sum of contributions = {total:.3} (the paper notes it is exactly 1)\n");

    // Figure 5(b): running per-symbol match after each sequence.
    let mut t = Table::new(
        "Figure 5(b): match of each symbol after examining each sequence",
        ["symbol", "seq 1", "seq 2", "seq 3", "seq 4"],
    );
    let n = db.0.len() as f64;
    let mut acc = vec![0.0f64; 5];
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for seq in &db.0 {
        let mut per_seq = vec![0.0f64; 5];
        noisemine_core::matching::symbol_sequence_match_into(seq, &matrix, &mut per_seq);
        for (a, v) in acc.iter_mut().zip(&per_seq) {
            *a += v / n;
        }
        columns.push(acc.clone());
    }
    for (i, sym) in (0..5u16).map(Symbol).enumerate() {
        t.row([
            alphabet.name(sym).unwrap().to_string(),
            fmt(columns[0][i], 3),
            fmt(columns[1][i], 3),
            fmt(columns[2][i], 3),
            fmt(columns[3][i], 3),
        ]);
    }
    t.emit(Some(std::path::Path::new("results/table_fig5b.csv")));
}
