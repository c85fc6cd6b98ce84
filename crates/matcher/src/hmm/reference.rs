//! The matcher as it was before the sparse kernel, kept as a test
//! oracle: candidates by a linear scan over every edge, one dense
//! `dijkstra_bounded` per (step, previous candidate) and one more per
//! edge change while stitching, each at exactly that step's bound, over
//! a `Vec<Vec<_>>` lattice. The production matcher must reproduce its
//! `MatchedTrajectory` / `MatcherError` exactly.

use super::{
    validate_samples, GpsSample, MapMatcher, MatchedSample, MatchedTrajectory, MatcherError,
    SalvageReport,
};
use press_network::{
    dijkstra_bounded, project_onto_segment, EdgeId, Point, Projection, RoadNetwork,
};
use std::cell::Cell;

/// Which rare paths the reference took on this thread — how the
/// equivalence test proves its traces reach them. (The only addition
/// to the moved code.)
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct Witness {
    /// Viterbi steps no transition reached (chain restarted).
    pub restarted_steps: usize,
    /// Stitches through a *tentative* beyond-bound path of the bounded
    /// tree.
    pub tentative_stitches: usize,
    /// Stitches that fell back to the unbounded search.
    pub unbounded_stitches: usize,
}

/// A candidate state: a sample projected onto one nearby edge.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    edge: EdgeId,
    proj: Projection,
}

/// Every edge within `radius` of `p`, by a scan over all edges, sorted
/// by `(distance, edge id)` — independent of the spatial index.
fn edges_near(net: &RoadNetwork, p: &Point, radius: f64) -> Vec<(EdgeId, Projection)> {
    let mut found: Vec<(EdgeId, Projection)> = net
        .edge_ids()
        .map(|e| {
            (
                e,
                project_onto_segment(p, &net.edge_start(e), &net.edge_end(e)),
            )
        })
        .filter(|(_, proj)| proj.dist <= radius)
        .collect();
    found.sort_by(|a, b| a.1.dist.total_cmp(&b.1.dist).then(a.0.cmp(&b.0)));
    found
}

thread_local! {
    pub(super) static WITNESS: Cell<Witness> = Cell::new(Witness::default());
}

fn witness(bump: impl FnOnce(&mut Witness)) {
    WITNESS.with(|cell| {
        let mut w = cell.get();
        bump(&mut w);
        cell.set(w);
    });
}

/// Reference [`MapMatcher::match_trajectory_budgeted`].
pub(super) fn match_budgeted(
    m: &MapMatcher,
    samples: &[GpsSample],
    max_lattice_work: u64,
) -> Result<MatchedTrajectory, MatcherError> {
    if samples.is_empty() {
        return Err(MatcherError::EmptyInput);
    }
    validate_samples(samples)?;
    let net = m.network().clone();
    // 1. Candidate generation (samples without candidates are dropped;
    //    `kept_idx` remembers each kept sample's input index so errors
    //    can point back into the caller's slice).
    let mut kept: Vec<&GpsSample> = Vec::with_capacity(samples.len());
    let mut kept_idx: Vec<usize> = Vec::with_capacity(samples.len());
    let mut lattice: Vec<Vec<Candidate>> = Vec::with_capacity(samples.len());
    for (i, s) in samples.iter().enumerate() {
        let found = edges_near(&net, &s.point, m.config.candidate_radius);
        if found.is_empty() {
            continue;
        }
        lattice.push(
            found
                .into_iter()
                .take(m.config.max_candidates)
                .map(|(edge, proj)| Candidate { edge, proj })
                .collect(),
        );
        kept.push(s);
        kept_idx.push(i);
    }
    if lattice.is_empty() {
        return Err(MatcherError::NoCandidates);
    }
    if max_lattice_work > 0 {
        let mut work = lattice[0].len() as u64;
        for w in lattice.windows(2) {
            work = work.saturating_add(w[0].len() as u64 * w[1].len() as u64);
        }
        if work > max_lattice_work {
            return Err(MatcherError::BudgetExceeded {
                work,
                budget: max_lattice_work,
            });
        }
    }
    // 2. Viterbi.
    let sigma2 = 2.0 * m.config.gps_sigma * m.config.gps_sigma;
    let emission = |c: &Candidate| -(c.proj.dist * c.proj.dist) / sigma2;
    let mut score: Vec<Vec<f64>> = Vec::with_capacity(lattice.len());
    let mut back: Vec<Vec<usize>> = Vec::with_capacity(lattice.len());
    score.push(lattice[0].iter().map(emission).collect());
    back.push(vec![usize::MAX; lattice[0].len()]);
    for step in 1..lattice.len() {
        let gc = kept[step - 1].point.dist(&kept[step].point);
        let max_route = m.config.route_slack + m.config.route_factor * gc;
        let prev_states = &lattice[step - 1];
        let cur_states = &lattice[step];
        let mut cur_score = vec![f64::NEG_INFINITY; cur_states.len()];
        let mut cur_back = vec![usize::MAX; cur_states.len()];
        for (pi, pc) in prev_states.iter().enumerate() {
            if score[step - 1][pi] == f64::NEG_INFINITY {
                continue;
            }
            // One bounded Dijkstra from the previous candidate's head
            // covers route distances to every current candidate.
            let tree = dijkstra_bounded(&net, net.edge(pc.edge).to, max_route);
            for (ci, cc) in cur_states.iter().enumerate() {
                let route = route_distance(&net, pc, cc, &tree.dist);
                if !route.is_finite() || route > max_route {
                    continue;
                }
                let trans = -(route - gc).abs() / m.config.beta;
                let cand = score[step - 1][pi] + trans + emission(cc);
                if cand > cur_score[ci] {
                    cur_score[ci] = cand;
                    cur_back[ci] = pi;
                }
            }
        }
        // Broken step: restart the chain at the best-emission candidate
        // (stitched later through a shortest path).
        if cur_score.iter().all(|s| *s == f64::NEG_INFINITY) {
            witness(|w| w.restarted_steps += 1);
            for (ci, cc) in cur_states.iter().enumerate() {
                cur_score[ci] = emission(cc);
                cur_back[ci] = usize::MAX;
            }
        }
        score.push(cur_score);
        back.push(cur_back);
    }
    // 3. Backtrack the best state sequence.
    let last = score.len() - 1;
    let mut best = (0usize, f64::NEG_INFINITY);
    for (ci, &s) in score[last].iter().enumerate() {
        if s > best.1 {
            best = (ci, s);
        }
    }
    let mut states = vec![0usize; lattice.len()];
    states[last] = best.0;
    for step in (1..=last).rev() {
        let b = back[step][states[step]];
        if b == usize::MAX {
            // Restarted step: pick the best predecessor independently.
            let mut pb = (0usize, f64::NEG_INFINITY);
            for (pi, &s) in score[step - 1].iter().enumerate() {
                if s > pb.1 {
                    pb = (pi, s);
                }
            }
            states[step - 1] = pb.0;
        } else {
            states[step - 1] = b;
        }
    }
    // 4. Build the edge path and per-sample positions.
    build_output(m, &net, &kept, &kept_idx, &lattice, &states)
}

/// Reference [`MapMatcher::match_trajectory_salvaging`]: the production
/// salvaging recursion over the reference piece matcher.
pub(super) fn match_salvaging(
    m: &MapMatcher,
    samples: &[GpsSample],
    max_lattice_work: u64,
    max_splits: usize,
) -> SalvageReport {
    super::salvage(samples, max_splits, &|piece| {
        match_budgeted(m, piece, max_lattice_work)
    })
}

/// Stitches the chosen candidates into one connected edge path.
fn build_output(
    m: &MapMatcher,
    net: &RoadNetwork,
    kept: &[&GpsSample],
    kept_idx: &[usize],
    lattice: &[Vec<Candidate>],
    states: &[usize],
) -> Result<MatchedTrajectory, MatcherError> {
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut samples: Vec<MatchedSample> = Vec::with_capacity(states.len());
    let first = &lattice[0][states[0]];
    edges.push(first.edge);
    samples.push(MatchedSample {
        edge_idx: 0,
        frac: first.proj.t,
        t: kept[0].t,
    });
    for step in 1..states.len() {
        let prev = &lattice[step - 1][states[step - 1]];
        let cur = &lattice[step][states[step]];
        if prev.edge == cur.edge {
            // Same edge: nothing to append. Backward jitter is clamped
            // to the last emitted position (the re-formatter's monotone
            // clamp does the same for distances).
            let last = samples[samples.len() - 1].frac;
            samples.push(MatchedSample {
                edge_idx: edges.len() - 1,
                frac: cur.proj.t.max(last),
                t: kept[step].t,
            });
            continue;
        }
        // Route from prev.edge's head to cur.edge's tail.
        let from = net.edge(prev.edge).to;
        let to = net.edge(cur.edge).from;
        let bound = m.config.route_slack
            + m.config.route_factor * kept[step - 1].point.dist(&kept[step].point);
        let tree = dijkstra_bounded(net, from, bound);
        if tree.reachable(to) && tree.dist[to.index()] > bound {
            witness(|w| w.tentative_stitches += 1);
        }
        let Some(route) = tree.edge_path_to(net, to) else {
            // Stitch through an unbounded shortest path as a last resort.
            witness(|w| w.unbounded_stitches += 1);
            let full = press_network::dijkstra(net, from);
            match full.edge_path_to(net, to) {
                Some(route) => {
                    edges.extend(route);
                    edges.push(cur.edge);
                    samples.push(MatchedSample {
                        edge_idx: edges.len() - 1,
                        frac: cur.proj.t,
                        t: kept[step].t,
                    });
                    continue;
                }
                None => {
                    return Err(MatcherError::BrokenChain {
                        at_sample: kept_idx[step],
                    })
                }
            }
        };
        edges.extend(route);
        edges.push(cur.edge);
        samples.push(MatchedSample {
            edge_idx: edges.len() - 1,
            frac: cur.proj.t,
            t: kept[step].t,
        });
    }
    Ok(MatchedTrajectory { edges, samples })
}

/// On-network route distance from candidate `a` to candidate `b`, given the
/// Dijkstra distances from `a`'s edge head.
fn route_distance(
    net: &RoadNetwork,
    a: &Candidate,
    b: &Candidate,
    dist_from_a_head: &[f64],
) -> f64 {
    if a.edge == b.edge {
        // Same edge: forward progress is the fraction delta; *backward*
        // jitter (GPS noise pushing the projection slightly back) is
        // treated as standing still rather than a loop around the block —
        // real matchers clamp this case too.
        return (b.proj.t - a.proj.t).max(0.0) * net.weight(a.edge);
    }
    let rest_of_a = (1.0 - a.proj.t) * net.weight(a.edge);
    let into_b = b.proj.t * net.weight(b.edge);
    let gap = dist_from_a_head[net.edge(b.edge).from.index()];
    rest_of_a + gap + into_b
}
