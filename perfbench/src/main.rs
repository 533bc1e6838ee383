//! In-process half of the `noisemine` end-to-end benchmark.
//!
//! `perfbench/run.py` times the shipped `noisemine` binary from outside;
//! this helper does the work that needs the library in-process:
//!
//! - `trace`: the three mining phases composed from their public entry
//!   points, with spans recorded here around each layer call;
//! - `classify`: the `/v1/classify` load generator, which checks every
//!   response body against the offline `classify` result.
//!
//! Every command writes one JSON document to `--out`.

mod args;
mod classify;
mod json;
mod trace;

use std::process::ExitCode;

use noisemine_core::{matrix_io, Alphabet, CompatibilityMatrix};

fn main() -> ExitCode {
    let parsed = match args::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match parsed.command.as_str() {
        "trace" => trace::run(&parsed),
        "classify" => classify::run(&parsed),
        other => Err(format!("unknown command {other:?}; use trace or classify")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {}: {e}", parsed.command);
            ExitCode::FAILURE
        }
    }
}

/// Loads a `#noisemine-matrix` file: its alphabet names the symbols of
/// the text and binary databases, as in `noisemine mine --matrix`.
fn load_matrix(path: &str) -> Result<(Alphabet, CompatibilityMatrix), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    matrix_io::read_matrix(file).map_err(|e| format!("{path}: {e}"))
}
