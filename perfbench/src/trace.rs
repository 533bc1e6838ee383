//! `trace`: one traced mining run, composed from each layer's public entry
//! point exactly as `noisemine mine` composes them for a `.nmdb` database,
//! with spans recorded here around every layer call.
//!
//! Layers and where their time is taken:
//!
//! - `seqdb`: `DiskDb::open`, plus the time the scanning thread waits for
//!   the store's read-ahead producer to hand over the next block
//!   ([`TracedScan`] times the gaps between `try_scan_blocks` sink calls);
//! - phase 1: `try_phase1_threads_indexed`, minus its seqdb wait;
//! - phase 2: `mine_sample_budgeted_kernel`;
//! - phase 3: `try_collapse_with_known_kernel_indexed`, minus its seqdb
//!   wait. Time spent inside the sink is the store blocked on the scan
//!   workers (back-pressure from the kernel).
//!
//! The miner settings are `noisemine mine`'s CLI defaults; run.py checks
//! that this run reproduces the CLI's pattern set, scans and probes.

use std::sync::Mutex;
use std::time::Instant;

use noisemine_core::border_collapse::{try_collapse_with_known_kernel_indexed, ProbeStrategy};
use noisemine_core::error::ScanError;
use noisemine_core::lattice::AmbiguousSpace;
use noisemine_core::matching::{SequenceBlock, SequenceScan};
use noisemine_core::miner::{assemble_outcome, try_phase1_threads_indexed, MinerConfig};
use noisemine_core::sample_miner::mine_sample_budgeted_kernel;
use noisemine_core::{IndexMode, MatchKernel, PatternSpace, Symbol};
use noisemine_seqdb::DiskDb;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::Args;
use crate::json::{self, Obj};

/// Wait and sink time of one block scan.
#[derive(Default, Clone, Copy)]
struct ScanTimes {
    wait_s: f64,
    sink_s: f64,
}

/// A `DiskDb` whose block scans record [`ScanTimes`].
struct TracedScan<'a> {
    db: &'a DiskDb,
    scans: Mutex<Vec<ScanTimes>>,
}

impl TracedScan<'_> {
    fn scans(&self) -> Vec<ScanTimes> {
        self.scans.lock().expect("scan recorder poisoned").clone()
    }
}

impl SequenceScan for TracedScan<'_> {
    fn num_sequences(&self) -> usize {
        self.db.num_sequences()
    }

    fn scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) {
        self.db.scan(visit)
    }

    fn try_scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) -> Result<(), ScanError> {
        self.db.try_scan(visit)
    }

    fn scan_blocks(&self, block_size: usize, sink: &mut dyn FnMut(SequenceBlock) -> SequenceBlock) {
        if let Err(e) = self.try_scan_blocks(block_size, sink) {
            panic!("traced scan failed: {e}");
        }
    }

    fn try_scan_blocks(
        &self,
        block_size: usize,
        sink: &mut dyn FnMut(SequenceBlock) -> SequenceBlock,
    ) -> Result<(), ScanError> {
        let mut times = ScanTimes::default();
        let mut last = Instant::now();
        let result = self.db.try_scan_blocks(block_size, &mut |block| {
            let arrived = Instant::now();
            times.wait_s += (arrived - last).as_secs_f64();
            let recycled = sink(block);
            last = Instant::now();
            times.sink_s += (last - arrived).as_secs_f64();
            recycled
        });
        self.scans
            .lock()
            .expect("scan recorder poisoned")
            .push(times);
        result
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let (alphabet, matrix) = crate::load_matrix(args.str("matrix")?)?;
    let path = args.str("db")?;
    noisemine_obs::enable();

    let start = Instant::now();
    let db = DiskDb::open(path).map_err(|e| format!("{path}: {e}"))?;
    let open_s = start.elapsed().as_secs_f64();
    let scan = TracedScan {
        db: &db,
        scans: Mutex::new(Vec::new()),
    };
    let sample_size = match args.str("sample")? {
        "all" => scan.num_sequences(),
        n => n.parse().map_err(|_| format!("--sample got {n:?}"))?,
    };
    // `noisemine mine`'s defaults (crates/cli/src/commands.rs, mine_binary).
    let config = MinerConfig {
        min_match: args.num("min-match")?,
        delta: 0.001,
        sample_size,
        counters_per_scan: 100_000,
        space: PatternSpace::new(0, args.num("max-len")?).map_err(|e| e.to_string())?,
        probe_strategy: ProbeStrategy::BorderCollapsing,
        seed: 2002,
        threads: 0,
        match_kernel: MatchKernel::default(),
        index: IndexMode::Off,
        ..MinerConfig::default()
    };
    config.validate().map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(config.seed);

    let t1 = Instant::now();
    let (p1, _) = try_phase1_threads_indexed(
        &scan,
        &matrix,
        config.sample_size,
        &mut rng,
        config.threads,
        false,
    )
    .map_err(|e| e.to_string())?;
    let phase1_s = t1.elapsed().as_secs_f64();
    let phase1_scans = scan.scans().len();

    let t2 = Instant::now();
    let p2 = mine_sample_budgeted_kernel(
        &p1.sample,
        &matrix,
        &p1.symbol_match,
        config.min_match,
        config.delta,
        config.spread_mode,
        &config.space,
        config.max_sample_patterns,
        config.match_kernel,
    );
    let phase2_s = t2.elapsed().as_secs_f64();
    if p2.truncated {
        return Err("phase 2 exceeded its candidate budget".into());
    }

    let t3 = Instant::now();
    let p3 = try_collapse_with_known_kernel_indexed(
        AmbiguousSpace::new(p2.ambiguous.iter().map(|(p, _)| p.clone())),
        &[],
        &scan,
        &matrix,
        config.min_match,
        config.counters_per_scan,
        config.probe_strategy,
        config.threads,
        config.match_kernel,
        None,
    )
    .map_err(|e| e.to_string())?;
    let phase3_s = t3.elapsed().as_secs_f64();

    let (frequent, _) = assemble_outcome(&p2, &p3);
    let wall_s = start.elapsed().as_secs_f64();

    let scans = scan.scans();
    let sum = |range: &[ScanTimes], f: fn(&ScanTimes) -> f64| range.iter().map(f).sum::<f64>();
    let (p1_scans, p3_scans) = scans.split_at(phase1_scans);
    let snapshot = noisemine_obs::global().snapshot();
    let counter = |name: &str| snapshot.counter_value(name).unwrap_or(0);
    let patterns = frequent
        .iter()
        .map(|f| f.pattern.display(&alphabet).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;

    let report = Obj::new()
        .num("wall_s", wall_s)
        .num("open_s", open_s)
        .num("phase1_s", phase1_s)
        .num("phase2_s", phase2_s)
        .num("phase3_s", phase3_s)
        .num("phase1_wait_s", sum(p1_scans, |s| s.wait_s))
        .num("phase3_wait_s", sum(p3_scans, |s| s.wait_s))
        .num("phase3_sink_s", sum(p3_scans, |s| s.sink_s))
        .int("scans", scans.len() as u64)
        .int("store_scans", db.scans_performed() as u64)
        .int("bytes", counter("seqdb_disk_bytes_read_total"))
        .int("phase1_seqs", scan.num_sequences() as u64)
        .int("sample_seqs", p1.sample.len() as u64)
        .int("levels", p2.trace.levels() as u64)
        .int("candidates", p2.trace.total_candidates() as u64)
        .int("ambiguous", p2.ambiguous.len() as u64)
        .int("probes", p3.probes as u64)
        .int("propagated", p3.propagated as u64)
        .int("phase3_scans", p3.scans as u64)
        .int(
            "kernel_nodes_visited",
            counter("core_kernel_nodes_visited_total"),
        )
        .int("kernel_prunes", counter("core_kernel_prunes_total"))
        .int("simd_lane_slots", counter("core_simd_lane_slots_total"))
        .int("simd_lanes_filled", counter("core_simd_lanes_filled_total"))
        .strs("patterns", &patterns);
    json::write(args.str("out")?, &report)
}
