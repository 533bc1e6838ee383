//! The deterministic block-scan engine shared by every batch evaluation:
//! the phase-1 symbol scan, phase-2 candidate batches over the in-memory
//! sample, and phase-3 probe scans of the database.
//!
//! [`try_scan_map_fold`] cuts a [`SequenceScan`] into blocks of a fixed
//! size, maps each block on a worker thread, and hands the per-block
//! results to the caller's fold **in block order**, each as soon as every
//! earlier block has been folded. Block boundaries are a per-call-site
//! constant ([`CHUNK_SIZE`] for the sample, [`SCAN_BLOCK_SIZE`] for
//! database scans), never a function of the thread count, so any fold over
//! the results — in particular floating-point sums, whose addition is not
//! associative — is bit-identical at every thread count (including 1).
//! Order-sensitive work (sequential sampling) runs on the in-order block
//! stream before the fan-out.

use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};

use crate::error::ScanError;
use crate::matching::{SequenceBlock, SequenceScan};

/// Sequences per block when phase 2 evaluates a candidate batch over the
/// in-memory sample. Constant so that block boundaries (and thus the
/// floating-point reduction order) do not depend on the thread count.
pub const CHUNK_SIZE: usize = 64;

/// Sequences per block of a database scan (phases 1 and 3). Like
/// [`CHUNK_SIZE`], this is a constant so the per-block accumulation
/// grouping — and with it every floating-point result derived from a block
/// scan — is independent of machine, thread count, and backing store.
pub const SCAN_BLOCK_SIZE: usize = 256;

/// Work size (patterns × sequences) below which an automatic thread count
/// (`threads = 0`) evaluates a batch on the calling thread — thread startup
/// costs more than it saves.
pub const PARALLEL_THRESHOLD: usize = 50_000;

/// Resolves a thread-count knob: `0` means all available cores.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |t| t.get())
    } else {
        threads
    }
}

/// Runs a deterministic map-fold over the blocks of one scan.
///
/// - `inspect` runs on the scanning thread, in block order, *before* the
///   block is handed to a worker — the hook for order-sensitive work
///   (sequential sampling, visit and scan counting).
/// - `map` runs on one of `threads` workers with that worker's private
///   scratch value (from `make_scratch`) and the block's zero-based index
///   in scan order, producing one `T` per block. The index gives the
///   ordinal of the block's first sequence (`index * block_size`) — the
///   addressing scheme of [`crate::index::SkipPlan`].
/// - `fold` runs on the scanning thread and receives the per-block results
///   **in block order**, regardless of which worker produced each or when.
///   A result is folded as soon as every earlier block has been, and is
///   then dropped, so only results that finished ahead of an earlier block
///   are held — a few per worker, not one per block.
///
/// Block boundaries are fixed by `block_size`, so the fold is bit-identical
/// for every thread count; with `threads <= 1` everything runs on the
/// calling thread with the same block grouping. Blocks circulate by value —
/// worker → scanner → refill — so the steady state allocates nothing and
/// never copies a sequence out of its block.
///
/// If the underlying scan fails ([`SequenceScan::try_scan_blocks`] returns
/// `Err`), in-flight worker results are drained and discarded and the scan
/// error is returned. Whatever `fold` received before the failure is a
/// prefix of the scan; the caller must discard it, as it discards the
/// `Err`-returning scan itself.
pub fn try_scan_map_fold<S, W, T>(
    db: &S,
    block_size: usize,
    threads: usize,
    inspect: &mut dyn FnMut(&SequenceBlock),
    make_scratch: &(dyn Fn() -> W + Sync),
    map: &(dyn Fn(&mut W, usize, &SequenceBlock) -> T + Sync),
    fold: &mut dyn FnMut(T),
) -> Result<(), ScanError>
where
    S: SequenceScan + ?Sized,
    T: Send,
{
    crate::obs::parallel_scan_workers().set(threads.max(1) as f64);
    if threads <= 1 {
        let mut scratch = make_scratch();
        let mut next = 0usize;
        return db.try_scan_blocks(block_size, &mut |block| {
            inspect(&block);
            fold(map(&mut scratch, next, &block));
            next += 1;
            block
        });
    }

    // Everything the scoped threads borrow must be declared before the
    // scope (its implicit join happens after the closure body returns).
    let (work_tx, work_rx) = mpsc::sync_channel::<(usize, SequenceBlock)>(threads * 2);
    let work_rx = Mutex::new(work_rx);
    let (done_tx, done_rx) = mpsc::channel::<(usize, T, SequenceBlock)>();
    let mut scanned: Result<(), ScanError> = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let done_tx = done_tx.clone();
            let work_rx = &work_rx;
            scope.spawn(move || {
                let mut scratch = make_scratch();
                loop {
                    // Lock scoped to the recv: workers contend only on the
                    // hand-off, not while mapping.
                    let received = work_rx.lock().expect("scan worker panicked").recv();
                    let Ok((idx, block)) = received else { break };
                    let value = map(&mut scratch, idx, &block);
                    if done_tx.send((idx, value, block)).is_err() {
                        break;
                    }
                }
            });
        }
        // Workers hold their own clones; drop ours so `done_rx` disconnects
        // once they all finish.
        drop(done_tx);

        let mut reorder = InOrder {
            waiting: BTreeMap::new(),
            folded: 0,
        };
        let mut next = 0usize;
        let mut spare: Vec<SequenceBlock> = Vec::new();
        scanned = db.try_scan_blocks(block_size, &mut |block| {
            inspect(&block);
            work_tx
                .send((next, block))
                .expect("scan workers exited early");
            next += 1;
            // Opportunistically fold finished results and recycle their
            // blocks back into the scan.
            while let Ok((idx, value, recycled)) = done_rx.try_recv() {
                reorder.push(idx, value, fold);
                spare.push(recycled);
            }
            crate::obs::parallel_reduce_queue_peak().set_max((next - reorder.folded) as f64);
            spare.pop().unwrap_or_default()
        });
        // Closing the work channel ends the worker loops; drain whatever is
        // still in flight (even after a failed scan, so workers shut down
        // cleanly before the scope's implicit join), folding it only when
        // the scan succeeded.
        drop(work_tx);
        for (idx, value, _) in done_rx.iter() {
            if scanned.is_ok() {
                reorder.push(idx, value, fold);
            }
        }
    });
    scanned
}

/// The ordered fold of [`try_scan_map_fold`]'s parallel path: results that
/// arrive ahead of an earlier block wait here until it has been folded.
struct InOrder<T> {
    waiting: BTreeMap<usize, T>,
    folded: usize,
}

impl<T> InOrder<T> {
    fn push(&mut self, idx: usize, value: T, fold: &mut dyn FnMut(T)) {
        self.waiting.insert(idx, value);
        while let Some(value) = self.waiting.remove(&self.folded) {
            fold(value);
            self.folded += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::match_kernel::MatchKernel;
    use crate::matching::{sequence_match, try_match_sums, MemorySequences};
    use crate::matrix::CompatibilityMatrix;
    use crate::pattern::Pattern;
    use crate::Symbol;

    fn workload() -> (Vec<Pattern>, Vec<Vec<Symbol>>, CompatibilityMatrix) {
        let patterns: Vec<Pattern> = (0..6u16)
            .flat_map(|x| {
                (0..6u16).map(move |y| Pattern::contiguous(&[Symbol(x), Symbol(y)]).unwrap())
            })
            .collect();
        let sequences: Vec<Vec<Symbol>> = (0..500)
            .map(|i| {
                (0..40)
                    .map(|j| Symbol(((i * 7 + j * 3) % 6) as u16))
                    .collect()
            })
            .collect();
        let matrix = CompatibilityMatrix::uniform_noise(6, 0.2).unwrap();
        (patterns, sequences, matrix)
    }

    /// Per-pattern sums over the sample in [`CHUNK_SIZE`] blocks — the
    /// phase-2 evaluation.
    fn sample_sums(
        patterns: &[Pattern],
        sequences: &[Vec<Symbol>],
        matrix: &CompatibilityMatrix,
        threads: usize,
    ) -> Vec<f64> {
        let kernel = MatchKernel::default();
        let (sums, visited) = try_match_sums(
            patterns, sequences, matrix, threads, kernel, None, CHUNK_SIZE,
        )
        .unwrap();
        // An empty batch returns without scanning.
        let scanned = if patterns.is_empty() {
            0
        } else {
            sequences.len()
        };
        assert_eq!(visited, scanned);
        sums
    }

    #[test]
    fn parallel_equals_serial_bit_for_bit() {
        let (patterns, sequences, matrix) = workload();
        let serial = sample_sums(&patterns, &sequences, &matrix, 1);
        for threads in [2, 3, 8] {
            let parallel = sample_sums(&patterns, &sequences, &matrix, threads);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn agrees_with_direct_computation() {
        let (patterns, sequences, matrix) = workload();
        let sums = sample_sums(&patterns, &sequences, &matrix, 4);
        for (p, &s) in patterns.iter().zip(&sums).take(5) {
            let direct: f64 = sequences
                .iter()
                .map(|seq| sequence_match(p, seq, &matrix))
                .sum();
            assert!((s - direct).abs() < 1e-9, "{p}");
        }
    }

    #[test]
    fn empty_inputs() {
        let (_, sequences, matrix) = workload();
        assert!(sample_sums(&[], &sequences, &matrix, 4).is_empty());
        let (patterns, _, matrix2) = workload();
        assert_eq!(
            sample_sums(&patterns, &[], &matrix2, 4),
            vec![0.0; patterns.len()]
        );
    }

    #[test]
    fn small_work_takes_serial_path() {
        let (patterns, sequences, matrix) = workload();
        let tiny = &sequences[..2];
        // Automatic threading (`0`) keeps work below `PARALLEL_THRESHOLD`
        // on the calling thread; the sums equal an explicit serial run.
        let v = sample_sums(&patterns[..2], tiny, &matrix, 0);
        assert_eq!(v.len(), 2);
        assert_eq!(v, sample_sums(&patterns[..2], tiny, &matrix, 1));
        assert_eq!(v, sample_sums(&patterns[..2], tiny, &matrix, 8));
    }

    #[test]
    fn try_scan_map_fold_folds_results_in_block_order() {
        let db = MemorySequences((0..1000u16).map(|i| vec![Symbol(i % 6); 2]).collect());
        for threads in [1, 2, 3, 8] {
            let mut inspected = Vec::new();
            let mut flat = Vec::new();
            try_scan_map_fold(
                &db,
                64,
                threads,
                &mut |block| inspected.push(block.get(0).0),
                &|| (),
                &|_, _, block| block.iter().map(|(id, _)| id).collect::<Vec<u64>>(),
                &mut |ids| flat.extend(ids),
            )
            .unwrap();
            assert_eq!(
                flat,
                (0..1000u64).collect::<Vec<_>>(),
                "threads = {threads}"
            );
            // `inspect` saw every block first symbol, in scan order.
            assert_eq!(inspected, (0..1000u64).step_by(64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_scan_map_fold_serial_and_parallel_agree_bitwise() {
        let (_, sequences, matrix) = workload();
        let db = MemorySequences(sequences);
        let pattern = Pattern::contiguous(&[Symbol(1), Symbol(2)]).unwrap();
        let run = |threads: usize| -> Vec<f64> {
            let mut sums = Vec::new();
            try_scan_map_fold(
                &db,
                SCAN_BLOCK_SIZE,
                threads,
                &mut |_| {},
                &|| (),
                &|_, _, block| {
                    block
                        .iter()
                        .map(|(_, seq)| sequence_match(&pattern, seq, &matrix))
                        .sum::<f64>()
                },
                &mut |sum| sums.push(sum),
            )
            .unwrap();
            sums
        };
        let serial = run(1);
        for threads in [2, 4, 16] {
            assert_eq!(serial, run(threads), "threads = {threads}");
        }
    }

    #[test]
    fn try_scan_map_fold_on_empty_db() {
        let db = MemorySequences(Vec::new());
        let mut folded = 0usize;
        try_scan_map_fold(
            &db,
            8,
            4,
            &mut |_| {},
            &|| (),
            &|_, _, block| block.len(),
            &mut |_| folded += 1,
        )
        .unwrap();
        assert_eq!(folded, 0);
    }
}
