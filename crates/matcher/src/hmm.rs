//! HMM map matching (Newson & Krumm, GIS'09) over a PRESS road network.

use press_network::{
    dijkstra_sparse, EdgeId, EdgeSpatialIndex, NodeId, Point, Projection, RoadNetwork, SparseTree,
};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// A raw GPS sample handed to the matcher.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpsSample {
    pub point: Point,
    pub t: f64,
}

/// Configuration of the HMM matcher.
#[derive(Clone, Copy, Debug)]
pub struct MatcherConfig {
    /// Candidate-search radius around each sample (meters).
    pub candidate_radius: f64,
    /// Maximum candidates kept per sample (closest first).
    pub max_candidates: usize,
    /// GPS noise standard deviation σ for the Gaussian emission (meters).
    pub gps_sigma: f64,
    /// β of the exponential transition model (meters).
    pub beta: f64,
    /// Transitions whose route distance exceeds
    /// `route_slack + route_factor × straight-line distance` are pruned.
    pub route_factor: f64,
    /// Additive slack for the transition pruning bound (meters).
    pub route_slack: f64,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            candidate_radius: 60.0,
            max_candidates: 8,
            gps_sigma: 10.0,
            beta: 20.0,
            route_factor: 4.0,
            route_slack: 300.0,
        }
    }
}

/// Why a [`GpsSample`] was rejected by input validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidSampleReason {
    /// `x` or `y` is NaN or infinite.
    NonFiniteCoordinate,
    /// `t` is NaN or infinite.
    NonFiniteTimestamp,
    /// `t` does not strictly increase over the previous sample.
    NonMonotoneTimestamp,
}

impl fmt::Display for InvalidSampleReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidSampleReason::NonFiniteCoordinate => write!(f, "non-finite coordinate"),
            InvalidSampleReason::NonFiniteTimestamp => write!(f, "non-finite timestamp"),
            InvalidSampleReason::NonMonotoneTimestamp => write!(f, "non-monotone timestamp"),
        }
    }
}

/// Errors raised by map matching.
#[derive(Debug, Clone, PartialEq)]
pub enum MatcherError {
    /// Input had no samples.
    EmptyInput,
    /// A sample failed validation before any matching ran: NaN/∞
    /// coordinates or a timestamp that does not strictly increase.
    /// `at_sample` indexes the offending **input** sample.
    InvalidSample {
        at_sample: usize,
        reason: InvalidSampleReason,
    },
    /// No candidate edge near any sample (GPS too far from the network).
    NoCandidates,
    /// The candidate lattice broke and could not be stitched. `at_sample`
    /// indexes the **input** sample where the chain broke (the sample at
    /// that index could not be connected to the matched prefix).
    BrokenChain { at_sample: usize },
    /// The candidate lattice was larger than the caller's deterministic
    /// work budget (Σ |candidates(i−1)| · |candidates(i)| transition
    /// evaluations). Used by streaming ingest to shed pathological
    /// sessions instead of stalling a shard.
    BudgetExceeded { work: u64, budget: u64 },
}

impl fmt::Display for MatcherError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatcherError::EmptyInput => write!(f, "no GPS samples to match"),
            MatcherError::InvalidSample { at_sample, reason } => {
                write!(f, "invalid GPS sample {at_sample}: {reason}")
            }
            MatcherError::NoCandidates => {
                write!(f, "no road-network edge near any GPS sample")
            }
            MatcherError::BrokenChain { at_sample } => {
                write!(f, "candidate lattice broke at sample {at_sample}")
            }
            MatcherError::BudgetExceeded { work, budget } => {
                write!(f, "lattice work {work} exceeds the budget {budget}")
            }
        }
    }
}

impl std::error::Error for MatcherError {}

/// One GPS sample located on the matched path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatchedSample {
    /// Index into [`MatchedTrajectory::edges`].
    pub edge_idx: usize,
    /// Fractional position along that edge, `0.0` = tail, `1.0` = head.
    pub frac: f64,
    /// Timestamp of the sample (seconds).
    pub t: f64,
}

/// The matcher output: a connected edge path and each (kept) sample's
/// position on it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatchedTrajectory {
    pub edges: Vec<EdgeId>,
    pub samples: Vec<MatchedSample>,
}

/// What [`MapMatcher::match_trajectory_salvaging`] recovered from a
/// degraded input: the matchable pieces in input order, the typed errors
/// of the pieces that were dropped, and how many splits were spent.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SalvageReport {
    /// Successfully matched pieces, in input order.
    pub pieces: Vec<MatchedTrajectory>,
    /// Errors of the pieces (or samples) that could not be matched. Any
    /// `at_sample` they carry indexes the **original** input passed to
    /// [`MapMatcher::match_trajectory_salvaging`], even when the error
    /// surfaced inside a recursive split.
    pub dropped: Vec<MatcherError>,
    /// Splits performed (bounded by the caller's `max_splits`).
    pub splits: usize,
}

/// Rebases a sub-slice-relative `at_sample` onto the original input.
fn rebase_error(err: MatcherError, base: usize) -> MatcherError {
    match err {
        MatcherError::InvalidSample { at_sample, reason } => MatcherError::InvalidSample {
            at_sample: at_sample + base,
            reason,
        },
        MatcherError::BrokenChain { at_sample } => MatcherError::BrokenChain {
            at_sample: at_sample + base,
        },
        other => other,
    }
}

/// Rejects samples the emission model cannot digest: NaN/∞ coordinates
/// or timestamps, and timestamps that do not strictly increase.
fn validate_samples(samples: &[GpsSample]) -> Result<(), MatcherError> {
    for (i, s) in samples.iter().enumerate() {
        if !s.point.x.is_finite() || !s.point.y.is_finite() {
            return Err(MatcherError::InvalidSample {
                at_sample: i,
                reason: InvalidSampleReason::NonFiniteCoordinate,
            });
        }
        if !s.t.is_finite() {
            return Err(MatcherError::InvalidSample {
                at_sample: i,
                reason: InvalidSampleReason::NonFiniteTimestamp,
            });
        }
        if i > 0 && s.t <= samples[i - 1].t {
            return Err(MatcherError::InvalidSample {
                at_sample: i,
                reason: InvalidSampleReason::NonMonotoneTimestamp,
            });
        }
    }
    Ok(())
}

/// A candidate state: a sample projected onto one nearby edge, with
/// what a transition reads of it looked up once.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    edge: EdgeId,
    proj: Projection,
    /// Tail node of `edge`, where a route into it ends.
    tail: NodeId,
    /// `w(edge)`.
    weight: f64,
    /// `(1 − t) · w`: the rest of the edge after the projection.
    rest: f64,
    /// `t · w`: the part of the edge before the projection.
    into: f64,
    /// Rank of `edge` in its row's edge set sorted by id.
    rank: usize,
}

/// The candidate lattice, flattened: row `i` — the candidates of the
/// `i`-th kept sample, closest first — is `cands[row[i]..row[i + 1]]`.
struct Lattice {
    cands: Vec<Candidate>,
    /// Row `i`'s edge set sorted by id, at the same range as its row.
    sorted: Vec<EdgeId>,
    row: Vec<usize>,
    /// Input index of each kept sample (samples without candidates are
    /// dropped), so errors can point back into the caller's slice.
    kept: Vec<usize>,
}

impl Lattice {
    fn steps(&self) -> usize {
        self.kept.len()
    }

    fn range(&self, step: usize) -> std::ops::Range<usize> {
        self.row[step]..self.row[step + 1]
    }

    fn edge_set(&self, step: usize) -> &[EdgeId] {
        &self.sorted[self.range(step)]
    }
}

/// The gaps `dist(head(p.edge) → tail(c.edge))` of one Viterbi step,
/// `gap[rank(p) · cols + rank(c)]`, indexed by each candidate's rank in
/// its row's sorted edge set.
///
/// A gap depends on the two edges alone — it is read from the memo tree
/// of `head(p.edge)`, one search at one bound for the whole call — so
/// while consecutive steps hold the same two edge *sets*, in whatever
/// proximity order, the matrix carries over. Each predecessor's gaps
/// are filled on its first finite-score use.
#[derive(Default)]
struct GapMatrix {
    /// The step the matrix holds the gaps of (0: none yet).
    step: usize,
    cols: usize,
    gap: Vec<f64>,
    filled: Vec<bool>,
}

impl GapMatrix {
    /// Points the matrix at `step`, keeping its gaps when both of the
    /// step's rows hold the edge sets of the step it was filled for.
    fn prepare(&mut self, lattice: &Lattice, step: usize) {
        let held = self.step;
        self.step = step;
        if held > 0
            && lattice.edge_set(held) == lattice.edge_set(step)
            && lattice.edge_set(held - 1) == lattice.edge_set(step - 1)
        {
            return;
        }
        let rows = lattice.range(step - 1).len();
        self.cols = lattice.range(step).len();
        self.gap.clear();
        self.gap.resize(rows * self.cols, f64::INFINITY);
        self.filled.clear();
        self.filled.resize(rows, false);
    }

    /// The gaps out of the predecessor of rank `rank`; `fill` writes
    /// them on first use.
    fn row(&mut self, rank: usize, fill: impl FnOnce(&mut [f64])) -> &[f64] {
        let row = &mut self.gap[rank * self.cols..(rank + 1) * self.cols];
        if !self.filled[rank] {
            fill(row);
            self.filled[rank] = true;
        }
        row
    }
}

/// The per-trajectory search memo: one bounded search per **distinct
/// candidate head node**, shared by every Viterbi row and stitching step
/// that leaves from that node.
///
/// Each source is searched once, at the largest `max_route` of any step
/// it can serve as a predecessor in. That is answer-preserving: a node
/// whose true distance is within a bound is settled with the same
/// distance bits and canonical predecessor under any larger bound, and
/// everything beyond a step's own bound is discarded by that step's
/// `route > max_route` filter either way.
struct SourceMemo {
    /// `slot[c]` — the entry of flat candidate `c`'s head node
    /// (`u32::MAX` in the last row, which is never a predecessor).
    slot: Vec<u32>,
    entries: Vec<MemoEntry>,
}

struct MemoEntry {
    source: NodeId,
    bound: f64,
    tree: Option<SparseTree>,
}

/// A `|V|`-sized node → memo entry map, allocated once per worker and
/// reset by bumping `version` (the `SparseScratch` idiom of
/// `press_network::dijkstra_sparse`): `entry[v]` is meaningful only
/// while `stamp[v] == version`.
#[derive(Default)]
struct NodeSlots {
    version: u32,
    stamp: Vec<u32>,
    entry: Vec<u32>,
}

thread_local! {
    static NODE_SLOTS: RefCell<NodeSlots> = RefCell::new(NodeSlots::default());
}

impl SourceMemo {
    /// `max_route[step]` bounds the transitions *into* `step` (one entry
    /// per lattice step; entry 0 is unused). Entries come in order of
    /// first use, which reaches no output: each is keyed by its node.
    fn new(net: &RoadNetwork, lattice: &Lattice, max_route: &[f64]) -> Self {
        NODE_SLOTS.with(|cell| {
            let map = &mut *cell.borrow_mut();
            let n = net.num_nodes();
            if map.stamp.len() < n {
                map.stamp.resize(n, 0);
                map.entry.resize(n, 0);
            }
            if map.version == u32::MAX {
                map.stamp.fill(0);
                map.version = 0;
            }
            map.version += 1;
            let mut slot = vec![u32::MAX; lattice.cands.len()];
            let mut entries: Vec<MemoEntry> = Vec::new();
            for (step, &bound) in max_route.iter().enumerate().skip(1) {
                for c in lattice.range(step - 1) {
                    let source = net.edge(lattice.cands[c].edge).to;
                    let v = source.index();
                    if map.stamp[v] == map.version {
                        let entry = &mut entries[map.entry[v] as usize];
                        entry.bound = entry.bound.max(bound);
                    } else {
                        map.stamp[v] = map.version;
                        map.entry[v] = entries.len() as u32;
                        entries.push(MemoEntry {
                            source,
                            bound,
                            tree: None,
                        });
                    }
                    slot[c] = map.entry[v];
                }
            }
            SourceMemo { slot, entries }
        })
    }

    /// The search from candidate `c`'s head node, run on first use.
    fn tree(&mut self, net: &RoadNetwork, c: usize) -> &SparseTree {
        let entry = &mut self.entries[self.slot[c] as usize];
        entry
            .tree
            .get_or_insert_with(|| dijkstra_sparse(net, entry.source, entry.bound))
    }
}

/// The HMM map matcher. Holds a spatial index over the network's edges;
/// build once, match many.
pub struct MapMatcher {
    index: EdgeSpatialIndex,
    config: MatcherConfig,
}

impl MapMatcher {
    /// Builds a matcher over `net` with the given configuration.
    ///
    /// # Panics
    ///
    /// If the candidate index cannot be built for
    /// `config.candidate_radius` (see [`press_network::IndexError`]): a
    /// negative, NaN or infinite radius, or per-cell candidate lists
    /// beyond `u32` offsets.
    pub fn new(net: Arc<RoadNetwork>, config: MatcherConfig) -> Self {
        // Cells near the candidate radius keep the per-cell lists short.
        let radius = config.candidate_radius;
        let index = EdgeSpatialIndex::build(net, radius, radius.max(25.0))
            .unwrap_or_else(|e| panic!("matcher candidate index: {e}"));
        MapMatcher { index, config }
    }

    /// The underlying network.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        self.index.network()
    }

    /// Matches a GPS trajectory onto the road network.
    ///
    /// Samples with no nearby edge are dropped; if the Viterbi lattice
    /// breaks (no admissible transition), the path is stitched through the
    /// locally best candidate — the paper's pipeline only requires *a*
    /// connected path, and synthetic workloads with bounded noise do not
    /// exercise heavy outages.
    pub fn match_trajectory(
        &self,
        samples: &[GpsSample],
    ) -> Result<MatchedTrajectory, MatcherError> {
        self.match_trajectory_budgeted(samples, 0)
    }

    /// [`MapMatcher::match_trajectory`] with a deterministic work budget:
    /// when `max_lattice_work > 0` and the lattice would require more than
    /// that many transition evaluations
    /// (Σ |candidates(i−1)| · |candidates(i)|), the match is refused with
    /// [`MatcherError::BudgetExceeded`] **before** any Dijkstra runs. The
    /// budget is a function of the input alone — never of wall time — so
    /// shedding decisions replay identically during crash recovery.
    ///
    /// Transition distances come from one sparse bounded search per
    /// distinct candidate head node of the trajectory (a memo that lives
    /// for this call only), so matching cost follows the balls explored,
    /// not the size of the network.
    pub fn match_trajectory_budgeted(
        &self,
        samples: &[GpsSample],
        max_lattice_work: u64,
    ) -> Result<MatchedTrajectory, MatcherError> {
        if samples.is_empty() {
            return Err(MatcherError::EmptyInput);
        }
        validate_samples(samples)?;
        let net: &RoadNetwork = self.index.network();
        // 1. Candidate generation.
        let lattice = self.build_lattice(samples);
        let steps = lattice.steps();
        if steps == 0 {
            return Err(MatcherError::NoCandidates);
        }
        if max_lattice_work > 0 {
            let mut work = lattice.range(0).len() as u64;
            for step in 1..steps {
                let pairs = lattice.range(step - 1).len() as u64 * lattice.range(step).len() as u64;
                work = work.saturating_add(pairs);
            }
            if work > max_lattice_work {
                return Err(MatcherError::BudgetExceeded {
                    work,
                    budget: max_lattice_work,
                });
            }
        }
        // Per-step straight-line distance and transition pruning bound
        // (entry 0 is unused: nothing transitions into the first step).
        let mut gc = vec![0.0; steps];
        let mut max_route = vec![0.0; steps];
        for step in 1..steps {
            let a = &samples[lattice.kept[step - 1]].point;
            gc[step] = a.dist(&samples[lattice.kept[step]].point);
            max_route[step] = self.config.route_slack + self.config.route_factor * gc[step];
        }
        let mut memo = SourceMemo::new(net, &lattice, &max_route);
        // 2. Viterbi.
        let sigma2 = 2.0 * self.config.gps_sigma * self.config.gps_sigma;
        let emission: Vec<f64> = lattice
            .cands
            .iter()
            .map(|c| -(c.proj.dist * c.proj.dist) / sigma2)
            .collect();
        let mut score = vec![f64::NEG_INFINITY; lattice.cands.len()];
        let mut back = vec![usize::MAX; lattice.cands.len()];
        let first = lattice.range(0);
        score[first.clone()].copy_from_slice(&emission[first]);
        let mut gaps = GapMatrix::default();
        for step in 1..steps {
            let cur = lattice.range(step);
            let cur_cands = &lattice.cands[cur.clone()];
            gaps.prepare(&lattice, step);
            for pi in lattice.range(step - 1) {
                if score[pi] == f64::NEG_INFINITY {
                    continue;
                }
                // One bounded search from the previous candidate's head
                // covers route distances to every current candidate.
                let pc = &lattice.cands[pi];
                let gap = gaps.row(pc.rank, |row| {
                    let tree = memo.tree(net, pi);
                    for c in cur_cands {
                        row[c.rank] = tree.dist(c.tail);
                    }
                });
                for ci in cur.clone() {
                    let cc = &lattice.cands[ci];
                    let route = if pc.edge == cc.edge {
                        // Same edge: forward progress is the fraction
                        // delta; *backward* jitter (GPS noise pushing the
                        // projection slightly back) is treated as
                        // standing still rather than a loop around the
                        // block — real matchers clamp this case too.
                        (cc.proj.t - pc.proj.t).max(0.0) * pc.weight
                    } else {
                        pc.rest + gap[cc.rank] + cc.into
                    };
                    if !route.is_finite() || route > max_route[step] {
                        continue;
                    }
                    let trans = -(route - gc[step]).abs() / self.config.beta;
                    let cand = score[pi] + trans + emission[ci];
                    if cand > score[ci] {
                        score[ci] = cand;
                        back[ci] = pi;
                    }
                }
            }
            // Broken step: restart the chain at the best-emission candidate
            // (stitched later through a shortest path).
            if score[cur.clone()].iter().all(|s| *s == f64::NEG_INFINITY) {
                score[cur.clone()].copy_from_slice(&emission[cur]);
            }
        }
        // 3. Backtrack the best state sequence (flat candidate indices).
        let best_in = |range: std::ops::Range<usize>| {
            let mut best = (range.start, f64::NEG_INFINITY);
            for c in range {
                if score[c] > best.1 {
                    best = (c, score[c]);
                }
            }
            best.0
        };
        let mut states = vec![0usize; steps];
        states[steps - 1] = best_in(lattice.range(steps - 1));
        for step in (1..steps).rev() {
            let b = back[states[step]];
            states[step - 1] = if b == usize::MAX {
                // Restarted step: pick the best predecessor independently.
                best_in(lattice.range(step - 1))
            } else {
                b
            };
        }
        // 4. Build the edge path and per-sample positions.
        self.build_output(net, samples, &lattice, &states, &max_route, &mut memo)
    }

    /// Projects every sample onto its nearby edges; samples without
    /// candidates are dropped.
    fn build_lattice(&self, samples: &[GpsSample]) -> Lattice {
        let net: &RoadNetwork = self.index.network();
        let mut lattice = Lattice {
            cands: Vec::new(),
            sorted: Vec::new(),
            row: Vec::with_capacity(samples.len() + 1),
            kept: Vec::with_capacity(samples.len()),
        };
        lattice.row.push(0);
        let mut found = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            self.index.edges_near_into(&s.point, &mut found);
            if found.is_empty() {
                continue;
            }
            found.truncate(self.config.max_candidates);
            let start = lattice.sorted.len();
            lattice.sorted.extend(found.iter().map(|&(edge, _)| edge));
            let set = &mut lattice.sorted[start..];
            set.sort_unstable();
            let set = &*set;
            lattice.cands.extend(found.iter().map(|&(edge, proj)| {
                let e = net.edge(edge);
                Candidate {
                    edge,
                    proj,
                    tail: e.from,
                    weight: e.weight,
                    rest: (1.0 - proj.t) * e.weight,
                    into: proj.t * e.weight,
                    rank: set.partition_point(|&x| x < edge),
                }
            }));
            lattice.row.push(lattice.cands.len());
            lattice.kept.push(i);
        }
        lattice
    }

    /// Degraded-mode matching for streaming ingest: instead of aborting a
    /// whole trajectory on one failure, salvage every matchable piece.
    ///
    /// * [`MatcherError::BrokenChain`] splits the input at the break and
    ///   recursively matches both halves (the sample at the break starts
    ///   the right half);
    /// * [`MatcherError::InvalidSample`] skips the offending sample and
    ///   matches around it;
    /// * anything else ([`MatcherError::NoCandidates`], budget refusals,
    ///   …) drops that piece and records why.
    ///
    /// At most `max_splits` splits are performed (a recursion budget, so a
    /// pathological input cannot degenerate into per-sample matching);
    /// once exhausted, remaining failures are recorded, not split. The
    /// result is deterministic — a pure function of the input — which the
    /// ingest WAL replay relies on.
    pub fn match_trajectory_salvaging(
        &self,
        samples: &[GpsSample],
        max_lattice_work: u64,
        max_splits: usize,
    ) -> SalvageReport {
        salvage(samples, max_splits, &|piece| {
            self.match_trajectory_budgeted(piece, max_lattice_work)
        })
    }

    /// Stitches the chosen candidates (flat indices, one per step) into
    /// one connected edge path.
    fn build_output(
        &self,
        net: &RoadNetwork,
        input: &[GpsSample],
        lattice: &Lattice,
        states: &[usize],
        max_route: &[f64],
        memo: &mut SourceMemo,
    ) -> Result<MatchedTrajectory, MatcherError> {
        let time_of = |step: usize| input[lattice.kept[step]].t;
        let mut edges: Vec<EdgeId> = Vec::new();
        let mut samples: Vec<MatchedSample> = Vec::with_capacity(states.len());
        let first = &lattice.cands[states[0]];
        edges.push(first.edge);
        samples.push(MatchedSample {
            edge_idx: 0,
            frac: first.proj.t,
            t: time_of(0),
        });
        for step in 1..states.len() {
            let prev = &lattice.cands[states[step - 1]];
            let cur = &lattice.cands[states[step]];
            if prev.edge == cur.edge {
                // Same edge: nothing to append. Backward jitter is clamped
                // to the last emitted position (the re-formatter's
                // monotone clamp does the same for distances).
                let last = samples[samples.len() - 1].frac;
                samples.push(MatchedSample {
                    edge_idx: edges.len() - 1,
                    frac: cur.proj.t.max(last),
                    t: time_of(step),
                });
                continue;
            }
            // Route from prev.edge's head to cur.edge's tail.
            let from = net.edge(prev.edge).to;
            let to = net.edge(cur.edge).from;
            // The memoized search is exact up to its own (larger or equal)
            // bound, so within this step's bound it holds the canonical
            // path — always the case after an admitted transition. Only
            // a restarted step can put the target beyond the bound, where
            // a search at exactly this step's bound decides between a
            // tentative path and none.
            let tree = memo.tree(net, states[step - 1]);
            let route = if tree.dist(to) <= max_route[step] {
                tree.edge_path_to(net, to)
            } else {
                dijkstra_sparse(net, from, max_route[step])
                    .edge_path_to(net, to)
                    // Stitch through an unbounded shortest path as a last
                    // resort.
                    .or_else(|| dijkstra_sparse(net, from, f64::INFINITY).edge_path_to(net, to))
            };
            let Some(route) = route else {
                return Err(MatcherError::BrokenChain {
                    at_sample: lattice.kept[step],
                });
            };
            edges.extend(route);
            edges.push(cur.edge);
            samples.push(MatchedSample {
                edge_idx: edges.len() - 1,
                frac: cur.proj.t,
                t: time_of(step),
            });
        }
        Ok(MatchedTrajectory { edges, samples })
    }
}

/// Matches one slice of the input; what [`salvage`] splits around.
type MatchPiece<'a> = &'a dyn Fn(&[GpsSample]) -> Result<MatchedTrajectory, MatcherError>;

/// The salvaging recursion of [`MapMatcher::match_trajectory_salvaging`]
/// over any piece matcher.
fn salvage(samples: &[GpsSample], max_splits: usize, match_piece: MatchPiece) -> SalvageReport {
    let mut report = SalvageReport::default();
    let mut splits_left = max_splits;
    salvage_into(samples, 0, match_piece, &mut splits_left, &mut report);
    report
}

/// `base` is the offset of `samples` within the original input, so
/// every `at_sample` recorded in the report indexes the caller's
/// slice even after recursive splits.
fn salvage_into(
    samples: &[GpsSample],
    base: usize,
    match_piece: MatchPiece,
    splits_left: &mut usize,
    report: &mut SalvageReport,
) {
    if samples.is_empty() {
        return;
    }
    match match_piece(samples) {
        Ok(m) => report.pieces.push(m),
        Err(MatcherError::BrokenChain { at_sample })
            if *splits_left > 0 && at_sample > 0 && at_sample < samples.len() =>
        {
            *splits_left -= 1;
            report.splits += 1;
            let (left, right) = samples.split_at(at_sample);
            salvage_into(left, base, match_piece, splits_left, report);
            salvage_into(right, base + at_sample, match_piece, splits_left, report);
        }
        Err(MatcherError::InvalidSample { at_sample, reason }) if *splits_left > 0 => {
            *splits_left -= 1;
            report.splits += 1;
            report.dropped.push(MatcherError::InvalidSample {
                at_sample: base + at_sample,
                reason,
            });
            salvage_into(
                &samples[..at_sample],
                base,
                match_piece,
                splits_left,
                report,
            );
            salvage_into(
                &samples[at_sample + 1..],
                base + at_sample + 1,
                match_piece,
                splits_left,
                report,
            );
        }
        Err(e) => report.dropped.push(rebase_error(e, base)),
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use press_network::{grid_network, GridConfig, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn matcher() -> MapMatcher {
        let net = Arc::new(grid_network(&GridConfig {
            nx: 8,
            ny: 8,
            weight_jitter: 0.1,
            seed: 17,
            ..GridConfig::default()
        }));
        MapMatcher::new(net, MatcherConfig::default())
    }

    /// Samples a path at fixed spacing with Gaussian-ish noise.
    fn sample_path(
        net: &RoadNetwork,
        path: &[EdgeId],
        spacing: f64,
        noise: f64,
        rng: &mut StdRng,
    ) -> Vec<GpsSample> {
        let total: f64 = path.iter().map(|&e| net.weight(e)).sum();
        let mut out = Vec::new();
        // Start half a step in: a sample exactly on a grid node projects
        // at distance zero onto several edges (including reverse edges),
        // which ties the lattice and makes "exact path" assertions moot.
        let mut d = spacing * 0.5;
        let mut t = 0.0;
        while d < total {
            // Locate d along the path.
            let mut rem = d;
            let mut pos = None;
            for &e in path {
                let w = net.weight(e);
                if rem <= w {
                    let frac = if w <= f64::EPSILON { 0.0 } else { rem / w };
                    pos = Some(net.point_on_edge(e, frac * net.edge_length(e)));
                    break;
                }
                rem -= w;
            }
            let mut p = pos.unwrap();
            if noise > 0.0 {
                p.x += rng.gen_range(-noise..noise);
                p.y += rng.gen_range(-noise..noise);
            }
            out.push(GpsSample { point: p, t });
            d += spacing;
            t += 10.0;
        }
        out
    }

    fn shortest_path(net: &RoadNetwork, a: u32, b: u32) -> Vec<EdgeId> {
        press_network::dijkstra(net, NodeId(a))
            .edge_path_to(net, NodeId(b))
            .unwrap()
    }

    #[test]
    fn noiseless_samples_recover_the_path() {
        let m = matcher();
        let net = m.network().clone();
        let path = shortest_path(&net, 0, 63);
        let mut rng = StdRng::seed_from_u64(1);
        let samples = sample_path(&net, &path, 40.0, 0.0, &mut rng);
        let matched = m.match_trajectory(&samples).unwrap();
        assert_eq!(matched.edges, path, "noiseless match must be exact");
        assert_eq!(matched.samples.len(), samples.len());
    }

    #[test]
    fn noisy_samples_recover_most_of_the_path() {
        let m = matcher();
        let net = m.network().clone();
        let mut rng = StdRng::seed_from_u64(2);
        let mut exact = 0;
        let mut cases = 0;
        for (a, b) in [(0u32, 63u32), (7, 56), (3, 60), (16, 47)] {
            let path = shortest_path(&net, a, b);
            let samples = sample_path(&net, &path, 35.0, 8.0, &mut rng);
            let matched = m.match_trajectory(&samples).unwrap();
            // The matched path must be connected and cover roughly the same
            // corridor.
            net.validate_path(&matched.edges).unwrap();
            cases += 1;
            if matched.edges == path {
                exact += 1;
            } else {
                // Weight within 30% of the true path.
                let true_w: f64 = path.iter().map(|&e| net.weight(e)).sum();
                let got_w: f64 = matched.edges.iter().map(|&e| net.weight(e)).sum();
                assert!(
                    (got_w - true_w).abs() / true_w < 0.3,
                    "matched path weight {got_w} too far from {true_w}"
                );
            }
        }
        assert!(
            exact * 2 >= cases,
            "expected at least half exact matches, got {exact}/{cases}"
        );
    }

    #[test]
    fn sample_positions_are_monotone_on_path() {
        let m = matcher();
        let net = m.network().clone();
        let path = shortest_path(&net, 0, 63);
        let mut rng = StdRng::seed_from_u64(3);
        let samples = sample_path(&net, &path, 50.0, 5.0, &mut rng);
        let matched = m.match_trajectory(&samples).unwrap();
        for w in matched.samples.windows(2) {
            assert!(
                w[1].edge_idx > w[0].edge_idx
                    || (w[1].edge_idx == w[0].edge_idx && w[1].frac >= w[0].frac),
                "samples must advance along the path: {:?}",
                w
            );
        }
        for s in &matched.samples {
            assert!(s.edge_idx < matched.edges.len());
            assert!((0.0..=1.0).contains(&s.frac));
        }
    }

    #[test]
    fn backward_jitter_is_clamped_to_the_last_emitted_position() {
        // Three fixes on one one-way street at t = 0.5, 0.4, 0.45: the
        // second is clamped up to 0.5, and so is the third, which lies
        // ahead of the second's raw projection but behind its emitted one.
        use press_network::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        let nodes: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(Point::new(i as f64 * 100.0, 0.0)))
            .collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], 100.0).unwrap();
        }
        let m = MapMatcher::new(Arc::new(b.build()), MatcherConfig::default());
        let samples: Vec<GpsSample> = [150.0, 140.0, 145.0]
            .iter()
            .enumerate()
            .map(|(i, &x)| GpsSample {
                point: Point::new(x, 2.0),
                t: i as f64 * 10.0,
            })
            .collect();
        let matched = m.match_trajectory(&samples).unwrap();
        assert_eq!(matched.edges.len(), 1);
        let fracs: Vec<f64> = matched.samples.iter().map(|s| s.frac).collect();
        assert_eq!(fracs, [0.5, 0.5, 0.5]);
        assert_equals_reference(&m, &samples);
    }

    #[test]
    fn empty_and_unmatchable_inputs() {
        let m = matcher();
        assert_eq!(m.match_trajectory(&[]), Err(MatcherError::EmptyInput));
        let far = [GpsSample {
            point: Point::new(1e8, 1e8),
            t: 0.0,
        }];
        assert_eq!(m.match_trajectory(&far), Err(MatcherError::NoCandidates));
    }

    #[test]
    fn single_sample_matches_nearest_edge() {
        let m = matcher();
        let s = [GpsSample {
            point: Point::new(150.0, 104.0),
            t: 0.0,
        }];
        let matched = m.match_trajectory(&s).unwrap();
        assert_eq!(matched.edges.len(), 1);
        assert_eq!(matched.samples.len(), 1);
        let net = m.network();
        let e = matched.edges[0];
        // Must be the y=100 street.
        assert_eq!(net.edge_start(e).y, 100.0);
        assert_eq!(net.edge_end(e).y, 100.0);
    }

    #[test]
    fn invalid_samples_are_typed() {
        let m = matcher();
        let good = |t: f64| GpsSample {
            point: Point::new(150.0, 104.0),
            t,
        };
        // NaN / infinite coordinates.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let s = [
                good(0.0),
                GpsSample {
                    point: Point::new(bad, 104.0),
                    t: 10.0,
                },
            ];
            assert_eq!(
                m.match_trajectory(&s),
                Err(MatcherError::InvalidSample {
                    at_sample: 1,
                    reason: InvalidSampleReason::NonFiniteCoordinate,
                })
            );
        }
        // Non-finite timestamp.
        let s = [good(f64::NAN)];
        assert_eq!(
            m.match_trajectory(&s),
            Err(MatcherError::InvalidSample {
                at_sample: 0,
                reason: InvalidSampleReason::NonFiniteTimestamp,
            })
        );
        // Non-monotone timestamps (equal and decreasing).
        for t2 in [0.0, -5.0] {
            let s = [good(0.0), good(t2)];
            assert_eq!(
                m.match_trajectory(&s),
                Err(MatcherError::InvalidSample {
                    at_sample: 1,
                    reason: InvalidSampleReason::NonMonotoneTimestamp,
                })
            );
        }
    }

    #[test]
    fn work_budget_sheds_before_any_dijkstra() {
        let m = matcher();
        let net = m.network().clone();
        let path = shortest_path(&net, 0, 63);
        let mut rng = StdRng::seed_from_u64(9);
        let samples = sample_path(&net, &path, 40.0, 5.0, &mut rng);
        // Unlimited budget matches fine.
        assert!(m.match_trajectory_budgeted(&samples, 0).is_ok());
        // A one-unit budget is always exceeded on a multi-sample input.
        match m.match_trajectory_budgeted(&samples, 1) {
            Err(MatcherError::BudgetExceeded { work, budget: 1 }) => {
                assert!(work > 1);
                // Deterministic: the same refusal with the same work count.
                assert_eq!(
                    m.match_trajectory_budgeted(&samples, 1),
                    Err(MatcherError::BudgetExceeded { work, budget: 1 })
                );
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // Salvaging records the shed rather than splitting forever.
        let report = m.match_trajectory_salvaging(&samples, 1, 8);
        assert!(report.pieces.is_empty());
        assert_eq!(report.dropped.len(), 1);
        assert!(matches!(
            report.dropped[0],
            MatcherError::BudgetExceeded { .. }
        ));
    }

    #[test]
    fn salvaging_skips_invalid_samples() {
        let m = matcher();
        let net = m.network().clone();
        let path = shortest_path(&net, 0, 63);
        let mut rng = StdRng::seed_from_u64(12);
        let mut samples = sample_path(&net, &path, 40.0, 3.0, &mut rng);
        let n = samples.len();
        samples[n / 2].point.x = f64::NAN;
        // Plain matching refuses the whole input...
        assert!(matches!(
            m.match_trajectory(&samples),
            Err(MatcherError::InvalidSample { .. })
        ));
        // ...salvaging matches around the poisoned sample.
        let report = m.match_trajectory_salvaging(&samples, 0, 4);
        assert_eq!(report.dropped.len(), 1);
        assert!(report.splits >= 1);
        let salvaged: usize = report.pieces.iter().map(|p| p.samples.len()).sum();
        assert_eq!(salvaged, n - 1, "all valid samples are salvaged");
        for piece in &report.pieces {
            net.validate_path(&piece.edges).unwrap();
        }
        // With no split budget, the error is recorded and nothing matched.
        let strict = m.match_trajectory_salvaging(&samples, 0, 0);
        assert!(strict.pieces.is_empty());
        assert_eq!(strict.dropped.len(), 1);
    }

    #[test]
    fn salvage_reports_dropped_indices_against_the_original_input() {
        let m = matcher();
        let net = m.network().clone();
        let path = shortest_path(&net, 0, 63);
        let mut rng = StdRng::seed_from_u64(33);
        let mut samples = sample_path(&net, &path, 40.0, 3.0, &mut rng);
        let n = samples.len();
        assert!(n >= 9, "need room for two defects");
        // Two defects: the second is only ever seen inside the recursive
        // right-half match, whose slice-relative index must be rebased.
        let (i, j) = (n / 3, 2 * n / 3);
        samples[i].point.x = f64::NAN;
        samples[j].t = f64::NAN;
        let report = m.match_trajectory_salvaging(&samples, 0, 8);
        let mut dropped_at: Vec<usize> = report
            .dropped
            .iter()
            .map(|e| match e {
                MatcherError::InvalidSample { at_sample, .. } => *at_sample,
                other => panic!("expected InvalidSample, got {other:?}"),
            })
            .collect();
        dropped_at.sort_unstable();
        assert_eq!(
            dropped_at,
            vec![i, j],
            "dropped indices must index the original input, not a sub-slice"
        );
        let salvaged: usize = report.pieces.iter().map(|p| p.samples.len()).sum();
        assert_eq!(salvaged, n - 2, "everything but the two defects salvaged");
    }

    #[test]
    fn salvaging_splits_a_broken_chain() {
        // Two disconnected east-west streets far apart: candidates exist
        // for every sample, but no route joins them, so the chain breaks
        // where the trace jumps between the components.
        use press_network::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        let add_chain = |b: &mut RoadNetworkBuilder, y: f64| {
            let mut prev = b.add_node(Point::new(0.0, y));
            for i in 1..5 {
                let n = b.add_node(Point::new(i as f64 * 100.0, y));
                b.add_edge(prev, n, 100.0).unwrap();
                prev = n;
            }
        };
        add_chain(&mut b, 0.0);
        add_chain(&mut b, 50_000.0);
        let net = Arc::new(b.build());
        let m = MapMatcher::new(net.clone(), MatcherConfig::default());
        let mut samples = Vec::new();
        for i in 0..4 {
            samples.push(GpsSample {
                point: Point::new(50.0 + i as f64 * 100.0, 2.0),
                t: i as f64 * 10.0,
            });
        }
        for i in 0..4 {
            samples.push(GpsSample {
                point: Point::new(50.0 + i as f64 * 100.0, 50_002.0),
                t: 40.0 + i as f64 * 10.0,
            });
        }
        let err = m.match_trajectory(&samples);
        assert_eq!(err, Err(MatcherError::BrokenChain { at_sample: 4 }));
        let report = m.match_trajectory_salvaging(&samples, 0, 4);
        assert_eq!(report.pieces.len(), 2, "both halves salvaged");
        assert!(report.dropped.is_empty());
        assert_eq!(report.pieces[0].samples.len(), 4);
        assert_eq!(report.pieces[1].samples.len(), 4);
        for piece in &report.pieces {
            net.validate_path(&piece.edges).unwrap();
        }
    }

    /// Asserts the production matcher reproduces the dense per-row
    /// reference — plain and salvaging, under every work budget.
    fn assert_equals_reference(m: &MapMatcher, samples: &[GpsSample]) {
        let full = match m.match_trajectory_budgeted(samples, 1) {
            Err(MatcherError::BudgetExceeded { work, .. }) => work,
            _ => 1,
        };
        for work in [0, 1, full / 2, full, full + 1] {
            assert_eq!(
                m.match_trajectory_budgeted(samples, work),
                reference::match_budgeted(m, samples, work),
                "budget {work}"
            );
            assert_eq!(
                m.match_trajectory_salvaging(samples, work, 8),
                reference::match_salvaging(m, samples, work, 8),
                "salvaging, budget {work}"
            );
        }
    }

    /// Two disconnected jittered grids 50 km apart.
    fn two_islands() -> Arc<RoadNetwork> {
        use press_network::RoadNetworkBuilder;
        let mut rng = StdRng::seed_from_u64(77);
        let mut b = RoadNetworkBuilder::new();
        for island in 0..2 {
            let y0 = island as f64 * 50_000.0;
            let mut ids = Vec::new();
            for j in 0..5 {
                for i in 0..5 {
                    ids.push(b.add_node(Point::new(i as f64 * 100.0, y0 + j as f64 * 100.0)));
                }
            }
            for j in 0..5 {
                for i in 0..5 {
                    for (di, dj) in [(1, 0), (0, 1)] {
                        if i + di < 5 && j + dj < 5 {
                            let w = 100.0 * rng.gen_range(0.9..1.1);
                            b.add_two_way(ids[j * 5 + i], ids[(j + dj) * 5 + i + di], w)
                                .unwrap();
                        }
                    }
                }
            }
        }
        Arc::new(b.build())
    }

    #[test]
    fn sparse_memoized_matcher_equals_the_dense_per_row_reference() {
        let before = reference::WITNESS.get();
        let grid = |jitter: f64| {
            Arc::new(grid_network(&GridConfig {
                nx: 12,
                ny: 12,
                weight_jitter: jitter,
                seed: 5,
                ..GridConfig::default()
            }))
        };
        // Tight pruning makes Manhattan detours inadmissible, so chains
        // restart and stitching meets targets beyond the step bound.
        let tight = MatcherConfig {
            route_factor: 1.0,
            route_slack: 20.0,
            ..MatcherConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(2024);
        // Jittered (unique shortest paths), fully tied, and weights far
        // from geometry — where a tentative beyond-bound path is often
        // not the shortest one, so reusing a larger-bound search outside
        // the step's own bound would change the stitched edges.
        for net in [grid(0.15), grid(0.0), grid(0.9)] {
            for config in [MatcherConfig::default(), tight] {
                let m = MapMatcher::new(net.clone(), config);
                for _ in 0..6 {
                    let (a, b) = (rng.gen_range(0..144u32), rng.gen_range(0..144u32));
                    let path = shortest_path(&net, a, b);
                    // 12 m between fixes is 1 Hz at city speed — the
                    // same head nodes for a dozen rows running — and
                    // 120 m is the 10 s trace.
                    for spacing in [12.0, 120.0] {
                        let samples = sample_path(&net, &path, spacing, 9.0, &mut rng);
                        if samples.len() < 3 {
                            continue;
                        }
                        assert_equals_reference(&m, &samples);
                        // A long GPS gap: one step with a huge bound,
                        // whose sources also serve ordinary steps.
                        let mut gapped = samples.clone();
                        let cut = gapped.len() / 3;
                        gapped.drain(cut..(cut + 45).min(gapped.len() - 1));
                        assert_equals_reference(&m, &gapped);
                    }
                }
            }
        }
        // An outage across disconnected components: the chain breaks and
        // salvaging splits it.
        let islands = two_islands();
        for config in [MatcherConfig::default(), tight] {
            let m = MapMatcher::new(islands.clone(), config);
            let first = sample_path(
                &islands,
                &shortest_path(&islands, 0, 24),
                12.0,
                6.0,
                &mut rng,
            );
            let second = sample_path(
                &islands,
                &shortest_path(&islands, 27, 45),
                12.0,
                6.0,
                &mut rng,
            );
            let t0 = first.last().unwrap().t + 600.0;
            let samples: Vec<GpsSample> = first
                .iter()
                .copied()
                .chain(second.iter().map(|s| GpsSample {
                    point: s.point,
                    t: s.t + t0,
                }))
                .collect();
            assert!(matches!(
                m.match_trajectory(&samples),
                Err(MatcherError::BrokenChain { .. })
            ));
            assert!(m.match_trajectory_salvaging(&samples, 0, 8).splits >= 1);
            assert_equals_reference(&m, &samples);
        }
        // The traces above did reach the rare paths.
        let after = reference::WITNESS.get();
        assert!(after.restarted_steps > before.restarted_steps);
        assert!(after.tentative_stitches > before.tentative_stitches);
        assert!(after.unbounded_stitches > before.unbounded_stitches);
    }

    #[test]
    fn reused_gaps_follow_edge_rank_not_row_order() {
        // A fully tied grid and slow, noisy fixes around intersections:
        // consecutive rows keep the same edge set while ties and jitter
        // reshuffle its proximity order, so the gap matrix is carried
        // over between rows whose candidates sit at different positions.
        let net = Arc::new(grid_network(&GridConfig {
            nx: 6,
            ny: 6,
            ..GridConfig::default()
        }));
        let m = MapMatcher::new(net.clone(), MatcherConfig::default());
        let mut rng = StdRng::seed_from_u64(41);
        let mut reordered = 0;
        for (a, b) in [(0u32, 35u32), (5, 30), (7, 28), (12, 17)] {
            let path = shortest_path(&net, a, b);
            let mut samples = sample_path(&net, &path, 4.0, 7.0, &mut rng);
            // Dwell at each intersection the path crosses, as at a
            // light: fixes scattered around the node.
            let mut t = samples.last().unwrap().t;
            for &e in &path {
                let node = net.edge_end(e);
                for _ in 0..6 {
                    t += 1.0;
                    samples.push(GpsSample {
                        point: Point::new(
                            node.x + rng.gen_range(-9.0..9.0),
                            node.y + rng.gen_range(-9.0..9.0),
                        ),
                        t,
                    });
                }
            }
            let lattice = m.build_lattice(&samples);
            let order = |s: usize| -> Vec<EdgeId> {
                lattice.cands[lattice.range(s)]
                    .iter()
                    .map(|c| c.edge)
                    .collect()
            };
            for s in 2..lattice.steps() {
                let same_sets = lattice.edge_set(s) == lattice.edge_set(s - 1)
                    && lattice.edge_set(s - 1) == lattice.edge_set(s - 2);
                if same_sets && (order(s) != order(s - 1) || order(s - 1) != order(s - 2)) {
                    reordered += 1;
                }
            }
            assert_equals_reference(&m, &samples);
        }
        assert!(reordered > 100, "only {reordered} reordered steps");
    }

    #[test]
    fn restarted_step_reproduces_the_tentative_non_shortest_stitch() {
        // F reaches T directly at weight 1000 or through A at 200. The
        // step into T has bound 76 — A is never expanded, so the dense
        // tree of that step holds T *tentatively* through the direct
        // edge, and today's output stitches through it. F's memoized
        // search runs at the first step's bound of 202 and knows the
        // true route through A; reusing it beyond the step's own bound
        // would change the published edges.
        use press_network::RoadNetworkBuilder;
        let mut b = RoadNetworkBuilder::new();
        let x = b.add_node(Point::new(-200.0, 0.0));
        let f = b.add_node(Point::new(0.0, 0.0));
        let t = b.add_node(Point::new(40.0, 0.0));
        let y = b.add_node(Point::new(240.0, 0.0));
        let a = b.add_node(Point::new(20.0, 60.0));
        let into_f = b.add_edge(x, f, 200.0).unwrap();
        let direct = b.add_edge(f, t, 1000.0).unwrap();
        b.add_edge(f, a, 100.0).unwrap();
        b.add_edge(a, t, 100.0).unwrap();
        let out_of_t = b.add_edge(t, y, 200.0).unwrap();
        let m = MapMatcher::new(
            Arc::new(b.build()),
            MatcherConfig {
                candidate_radius: 5.0,
                route_factor: 1.0,
                route_slack: 20.0,
                ..MatcherConfig::default()
            },
        );
        let samples: Vec<GpsSample> = [(-190.0, 0.5), (-8.0, 1.0), (48.0, 1.0), (150.0, 0.5)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| GpsSample {
                point: Point::new(x, y),
                t: i as f64 * 10.0,
            })
            .collect();
        let before = reference::WITNESS.get();
        let matched = m.match_trajectory(&samples).unwrap();
        assert_eq!(matched.edges, vec![into_f, direct, out_of_t]);
        assert_equals_reference(&m, &samples);
        let after = reference::WITNESS.get();
        assert!(after.restarted_steps > before.restarted_steps);
        assert!(after.tentative_stitches > before.tentative_stitches);
    }

    #[test]
    fn far_outlier_sample_is_dropped() {
        let m = matcher();
        let net = m.network().clone();
        let path = shortest_path(&net, 0, 7);
        let mut rng = StdRng::seed_from_u64(4);
        let mut samples = sample_path(&net, &path, 50.0, 0.0, &mut rng);
        // Inject an outlier far from the network mid-way.
        let mid = samples.len() / 2;
        samples[mid].point = Point::new(1e7, 1e7);
        let matched = m.match_trajectory(&samples).unwrap();
        assert_eq!(matched.samples.len(), samples.len() - 1);
        net.validate_path(&matched.edges).unwrap();
    }
}
