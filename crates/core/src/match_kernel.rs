//! Batched candidate-trie match kernel (Definitions 3.5/3.6 at scale).
//!
//! Every phase of the miner bottlenecks on the same primitive: evaluate
//! `M(P, S) = max over windows of ∏ C(pᵢ, sᵢ)` for *many* candidate
//! patterns against *every* sequence. Phase 2 evaluates whole candidate
//! levels against the sample, and phase 3's border collapsing probes entire
//! lattice layers per scan. Evaluating each pattern independently with
//! [`sequence_match`](crate::matching::sequence_match) redoes identical
//! prefix products for candidates that share prefixes — and by Apriori
//! generation ([`crate::candidates::next_level`] extends each survivor on
//! the right) almost all candidates in a level share long prefixes.
//!
//! [`CandidateTrie`] stores an arbitrary batch of patterns keyed by shared
//! prefixes, flattened into a preorder array. The production kernel
//! ([`simd`], [`MatchKernel::Simd`]) walks that array once per *eight*
//! windows of a sequence, maintaining the incremental prefix products down
//! the trie so a prefix shared by `k` candidates is multiplied once instead
//! of `k` times.
//!
//! # Pruning, and why the kernel is bit-identical to the naive path
//!
//! Compatibility values never exceed 1 (each column of the matrix is a
//! conditional distribution), so the running product down a trie path is
//! non-increasing — the monotonicity behind Claim 3.1's Apriori property,
//! reused here at window granularity. Each trie node carries a *floor*: the
//! minimum best-window-so-far over every candidate in its subtree. When the
//! running products fall to (or below) the floor, no candidate below can
//! improve on a window it has already seen, and the entire subtree is cut.
//! This is exactly the per-pattern abandonment of
//! [`sequence_match`](crate::matching::sequence_match) lifted to subtrees,
//! and — like it — the cut is *exact*, never heuristic: a pruned window
//! could only have produced a value `<=` an already-recorded one.
//!
//! Because a pattern's product is multiplied in the same left-to-right
//! order as the naive scan, every per-pattern result is **bit-identical**
//! to `sequence_match` (floating-point multiplication order is preserved,
//! and the max over windows is order-independent for the non-negative
//! values the metric produces). The naive path is kept as the reference
//! oracle, selectable with [`MatchKernel::Naive`].
//!
//! # Observability
//!
//! With the [`noisemine_obs`] registry enabled, the kernel counts trie
//! node visits (`core_kernel_nodes_visited_total`, one per 8-window visit)
//! and subtree cuts (`core_kernel_prunes_total`); the batch width of each
//! kernel-evaluated scan is tracked by `core_kernel_patterns_per_scan`. See
//! `docs/OBSERVABILITY.md`.

pub mod simd;

use serde::{Deserialize, Serialize};

use crate::pattern::{Pattern, PatternElem};

/// Which implementation evaluates multi-pattern match batches.
///
/// Both kernels produce the same values on every input (asserted by the
/// property suites and the `match_kernel` bench): `Simd` preserves the
/// naive per-window multiplication order, so its results agree within
/// [`simd::SIMD_MAX_ULP`] (currently zero — see `simd` module docs). The
/// naive path is retained as the reference oracle and as a diagnostic
/// override.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MatchKernel {
    /// Evaluate each pattern independently with
    /// [`sequence_match`](crate::matching::sequence_match).
    Naive,
    /// Columnar candidate-trie kernel: 8 sequence windows per vector lane
    /// group, shared-prefix products, subtree pruning, matrix columns
    /// gathered into per-symbol stripes; AVX2 on capable x86-64 hosts with
    /// a portable scalar path elsewhere (see [`simd`]).
    #[default]
    Simd,
}

impl MatchKernel {
    /// Parses a kernel name (`"naive"` / `"simd"`), as accepted by the CLI
    /// `--kernel` flag.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "naive" => Some(Self::Naive),
            "simd" => Some(Self::Simd),
            _ => None,
        }
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Naive => "naive",
            Self::Simd => "simd",
        }
    }
}

/// Sentinel: node has no terminal pattern.
const NO_PATTERN: u32 = u32::MAX;
/// Sentinel: node has no parent (it is a root).
const NO_PARENT: u32 = u32::MAX;
/// Element id for the eternal symbol inside a node.
const ANY_ELEM: u32 = u32::MAX;
/// Sentinel stripe index: node consumes the eternal symbol (no stripe).
const NO_STRIPE: u32 = u32::MAX;

/// One trie node: the element it consumes, its depth (window offset), its
/// parent (for floor propagation), an optional terminal pattern index, and
/// a contiguous child range in [`CandidateTrie::children`].
#[derive(Debug, Clone)]
struct TrieNode {
    /// Concrete symbol id, or [`ANY_ELEM`] for `*`.
    elem: u32,
    /// Window offset consumed by this node (root = 0).
    depth: u32,
    /// Parent node index, [`NO_PARENT`] for roots.
    parent: u32,
    /// Terminal pattern index, [`NO_PATTERN`] if none ends here.
    pattern: u32,
    /// Start of the child range in `children`.
    child_start: u32,
    /// End (exclusive) of the child range in `children`.
    child_end: u32,
    /// Floor contributors: one for a terminal (its own pattern's best) plus
    /// one per child (the child's floor). Every contributor starts a
    /// sequence at 0.0, the initial floor, so this is also the initial
    /// count of contributors at the floor that the columnar kernel keeps.
    contributors: u32,
}

/// A batch of candidate patterns stored as a prefix trie.
///
/// The trie is immutable after construction and holds no per-evaluation
/// state, so one trie can be shared by any number of worker threads; each
/// worker brings its own [`SimdScratch`](simd::SimdScratch).
#[derive(Debug, Clone)]
pub struct CandidateTrie {
    nodes: Vec<TrieNode>,
    /// Flat child adjacency; each node owns `children[child_start..child_end]`.
    children: Vec<u32>,
    /// `(duplicate, canonical)` pattern-index pairs: a duplicate pattern
    /// shares the canonical's terminal node and copies its result.
    dups: Vec<(u32, u32)>,
    patterns: usize,
    /// Distinct concrete symbols across the batch — one compatibility
    /// stripe per entry in the columnar kernel (see [`simd`]); per-node
    /// stripe indices live in [`PreNode::stripe`].
    stripe_syms: Vec<u16>,
    /// Shortest terminal pattern length (0 when the trie has no patterns);
    /// windows past `n + 1 - min_len` cannot complete any pattern.
    min_len: u32,
    /// Deepest node depth — the columnar kernel's stripe padding bound.
    max_depth: u32,
    /// Preorder flattening of the trie for the columnar kernel's stackless
    /// walk: visiting slots in order is a DFS, and pruning a subtree is a
    /// jump to its `skip` slot. One contiguous read stream instead of a
    /// stack plus scattered `nodes`/`children` loads.
    pre: Vec<PreNode>,
}

/// One slot of [`CandidateTrie::pre`]: the hot per-node metadata of the
/// columnar walk, packed in visit order.
#[derive(Debug, Clone, Copy)]
struct PreNode {
    /// Node id — indexes `nodes` (for the raise-floors parent walk) and the
    /// scratch floor array.
    node: u32,
    /// Preorder slot just past this node's subtree — where a pruned walk
    /// resumes.
    skip: u32,
    /// Stripe row, [`NO_STRIPE`] for `*` nodes.
    stripe: u32,
    /// Pattern index, [`NO_PATTERN`] for interior nodes.
    pattern: u32,
    /// Node depth: the walk multiplies lane-buffer row `depth` into row
    /// `depth + 1`.
    depth: u32,
}

/// Intermediate adjacency used only during construction.
struct BuildNode {
    elem: u32,
    depth: u32,
    parent: u32,
    pattern: u32,
    children: Vec<u32>,
}

impl CandidateTrie {
    /// Builds a trie over `patterns`. Pattern indices in every evaluation
    /// output are aligned with this slice. Duplicate patterns are allowed —
    /// each occupies its own output slot (the first duplicate owns the
    /// terminal marker, the rest alias its result), so a batch with
    /// repeats still returns one value per input pattern.
    pub fn new(patterns: &[Pattern]) -> Self {
        let mut nodes: Vec<BuildNode> = Vec::new();
        let mut roots: Vec<u32> = Vec::new();
        let mut dups: Vec<(u32, u32)> = Vec::new();
        for (pi, pattern) in patterns.iter().enumerate() {
            let mut at: Option<u32> = None;
            for (depth, e) in pattern.elems().iter().enumerate() {
                let elem = match e {
                    PatternElem::Any => ANY_ELEM,
                    PatternElem::Sym(s) => s.0 as u32,
                };
                let siblings: &[u32] = match at {
                    None => &roots,
                    Some(n) => &nodes[n as usize].children,
                };
                let found = siblings
                    .iter()
                    .copied()
                    .find(|&c| nodes[c as usize].elem == elem);
                let next = match found {
                    Some(c) => c,
                    None => {
                        let idx = nodes.len() as u32;
                        nodes.push(BuildNode {
                            elem,
                            depth: depth as u32,
                            parent: at.unwrap_or(NO_PARENT),
                            pattern: NO_PATTERN,
                            children: Vec::new(),
                        });
                        match at {
                            None => roots.push(idx),
                            Some(n) => nodes[n as usize].children.push(idx),
                        }
                        idx
                    }
                };
                at = Some(next);
            }
            let terminal = at.expect("patterns are non-empty") as usize;
            if nodes[terminal].pattern == NO_PATTERN {
                nodes[terminal].pattern = pi as u32;
            } else {
                dups.push((pi as u32, nodes[terminal].pattern));
            }
        }

        // Flatten the per-node child vectors into one contiguous array.
        let mut children = Vec::with_capacity(nodes.len().saturating_sub(roots.len()));
        let mut flat: Vec<TrieNode> = Vec::with_capacity(nodes.len());
        for n in &nodes {
            let child_start = children.len() as u32;
            children.extend_from_slice(&n.children);
            flat.push(TrieNode {
                elem: n.elem,
                depth: n.depth,
                parent: n.parent,
                pattern: n.pattern,
                child_start,
                child_end: children.len() as u32,
                contributors: u32::from(n.pattern != NO_PATTERN) + n.children.len() as u32,
            });
        }
        // Columnar metadata: distinct concrete symbols (one compatibility
        // stripe each), shortest terminal, deepest node.
        let mut stripe_syms: Vec<u16> = Vec::new();
        let mut stripe_of = Vec::with_capacity(flat.len());
        for n in &flat {
            stripe_of.push(if n.elem == ANY_ELEM {
                NO_STRIPE
            } else {
                let sym = n.elem as u16;
                match stripe_syms.iter().position(|&s| s == sym) {
                    Some(i) => i as u32,
                    None => {
                        stripe_syms.push(sym);
                        (stripe_syms.len() - 1) as u32
                    }
                }
            });
        }
        let min_len = flat
            .iter()
            .filter(|n| n.pattern != NO_PATTERN)
            .map(|n| n.depth + 1)
            .min()
            .unwrap_or(0);
        let max_depth = flat.iter().map(|n| n.depth).max().unwrap_or(0);
        let mut pre = Vec::with_capacity(flat.len());
        for &r in &roots {
            Self::emit_preorder(r, &flat, &children, &stripe_of, &mut pre);
        }
        Self {
            nodes: flat,
            children,
            dups,
            patterns: patterns.len(),
            stripe_syms,
            min_len,
            max_depth,
            pre,
        }
    }

    /// Appends `ni`'s subtree to `pre` in preorder and backpatches each
    /// slot's prune jump. Recursion depth is the pattern length.
    fn emit_preorder(
        ni: u32,
        flat: &[TrieNode],
        children: &[u32],
        stripe_of: &[u32],
        pre: &mut Vec<PreNode>,
    ) {
        let slot = pre.len();
        let n = &flat[ni as usize];
        pre.push(PreNode {
            node: ni,
            skip: 0,
            stripe: stripe_of[ni as usize],
            pattern: n.pattern,
            depth: n.depth,
        });
        for &c in &children[n.child_start as usize..n.child_end as usize] {
            Self::emit_preorder(c, flat, children, stripe_of, pre);
        }
        pre[slot].skip = pre.len() as u32;
    }

    /// Number of patterns in the batch.
    pub fn num_patterns(&self) -> usize {
        self.patterns
    }

    /// Number of trie nodes — `sum of pattern lengths` minus the positions
    /// saved by prefix sharing.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{Alphabet, Symbol};
    use crate::matching::sequence_match;
    use crate::matrix::CompatibilityMatrix;

    fn pat(text: &str) -> Pattern {
        Pattern::parse(text, &Alphabet::synthetic(5)).unwrap()
    }

    fn seq(text: &str) -> Vec<Symbol> {
        Alphabet::synthetic(5).encode(text).unwrap()
    }

    fn assert_batch_matches_naive(
        patterns: &[Pattern],
        sequence: &[Symbol],
        matrix: &CompatibilityMatrix,
    ) {
        let trie = CandidateTrie::new(patterns);
        let mut scratch = trie.simd_scratch();
        let mut out = vec![f64::NAN; patterns.len()];
        trie.batch_sequence_match_columnar(sequence, matrix, &mut scratch, &mut out);
        for (p, &got) in patterns.iter().zip(&out) {
            let want = sequence_match(p, sequence, matrix);
            assert!(
                got == want,
                "{p}: kernel {got} != naive {want} (bit-identity broken)"
            );
        }
    }

    #[test]
    fn empty_trie_has_no_nodes() {
        let trie = CandidateTrie::new(&[]);
        assert_eq!(trie.num_patterns(), 0);
        assert_eq!(trie.num_nodes(), 0);
    }

    #[test]
    fn wildcard_columns_share_prefix_nodes() {
        let matrix = CompatibilityMatrix::paper_figure2();
        // d0 * d1 and d0 * d2 share the "d0 *" prefix (2 nodes), then fork.
        let patterns = vec![pat("d0 * d1"), pat("d0 * d2"), pat("d0 * * d1")];
        let trie = CandidateTrie::new(&patterns);
        // Shared: d0, *; distinct: d1, d2, second *, final d1 -> 6 nodes.
        assert_eq!(trie.num_nodes(), 6);
        for text in ["d0 d3 d1 d4 d2", "d0 d0 d0 d0", "d3 d3"] {
            assert_batch_matches_naive(&patterns, &seq(text), &matrix);
        }
    }

    #[test]
    fn prefix_sharing_reduces_node_count() {
        // 4 patterns of length 3 with a common 2-prefix: 2 + 4 nodes.
        let patterns: Vec<Pattern> = (0..4u16)
            .map(|i| Pattern::contiguous(&[Symbol(0), Symbol(1), Symbol(i)]).unwrap())
            .collect();
        let trie = CandidateTrie::new(&patterns);
        assert_eq!(trie.num_nodes(), 6);
        assert_eq!(trie.num_patterns(), 4);
    }

    #[test]
    fn contributors_count_terminal_and_children() {
        // d0 -> d1 -> {d0, d1, d2, d3}, with d0 d1 itself a pattern: the
        // root has 1 child, d1 has 4 children and its own pattern, each
        // leaf only its own pattern.
        let mut patterns: Vec<Pattern> = (0..4u16)
            .map(|i| Pattern::contiguous(&[Symbol(0), Symbol(1), Symbol(i)]).unwrap())
            .collect();
        patterns.push(Pattern::contiguous(&[Symbol(0), Symbol(1)]).unwrap());
        let trie = CandidateTrie::new(&patterns);
        let counts: Vec<u32> = trie.nodes.iter().map(|n| n.contributors).collect();
        assert_eq!(counts, vec![1, 4 + 1, 1, 1, 1, 1]);
    }

    #[test]
    fn terminal_prefix_of_longer_pattern() {
        // d0 d1 is itself terminal AND the prefix of d0 d1 d2 — both must
        // report their own (different) match values.
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d0 d1"), pat("d0 d1 d2")];
        for text in ["d0 d1 d2 d0", "d0 d1", "d1 d0 d1 d2"] {
            assert_batch_matches_naive(&patterns, &seq(text), &matrix);
        }
    }

    #[test]
    fn identity_matrix_exact_hits() {
        let matrix = CompatibilityMatrix::identity(5);
        let patterns = vec![pat("d0 d1"), pat("d1 d1"), pat("d0 * d0")];
        for text in ["d0 d1 d1 d0", "d0 d2 d0", "d1 d1 d1"] {
            assert_batch_matches_naive(&patterns, &seq(text), &matrix);
        }
    }

    #[test]
    fn kernel_parse_round_trips() {
        assert_eq!(MatchKernel::parse("naive"), Some(MatchKernel::Naive));
        assert_eq!(MatchKernel::parse("simd"), Some(MatchKernel::Simd));
        assert_eq!(MatchKernel::parse("trie"), None);
        assert_eq!(MatchKernel::parse("fast"), None);
        assert_eq!(MatchKernel::default(), MatchKernel::Simd);
        assert_eq!(MatchKernel::default().name(), "simd");
        assert_eq!(MatchKernel::Naive.name(), "naive");
    }

    #[test]
    fn columnar_metadata_is_computed() {
        let patterns = vec![pat("d0 d1"), pat("d0 * d2"), pat("d1 d0 d3 d4")];
        let trie = CandidateTrie::new(&patterns);
        // Distinct concrete symbols: d0, d1, d2, d3, d4 (the `*` has none).
        assert_eq!(trie.stripe_syms.len(), 5);
        assert_eq!(trie.min_len, 2);
        assert_eq!(trie.max_depth, 3);
        let any_nodes = trie.pre.iter().filter(|pn| pn.stripe == NO_STRIPE).count();
        assert_eq!(any_nodes, 1);
    }

    #[test]
    fn duplicate_patterns_each_get_a_result() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d0 d1"), pat("d2"), pat("d0 d1"), pat("d0 d1")];
        let trie = CandidateTrie::new(&patterns);
        // The three copies of `d0 d1` share one terminal node.
        assert_eq!(trie.num_nodes(), 3);
        for text in ["d0 d1 d2", "d3 d4", "d0"] {
            assert_batch_matches_naive(&patterns, &seq(text), &matrix);
        }
    }
}
