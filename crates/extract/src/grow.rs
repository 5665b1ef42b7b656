//! Seed detection and column growth: assembling `bits × stages` groups.

use crate::relations::Relations;
use crate::{MIN_BITS, MIN_COVERAGE, MIN_STAGES};
use sdp_netlist::{CellId, DatapathGroup, Netlist};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Maximum stages one group may grow to (safety valve against pathological
/// expansion through long buffer chains).
const MAX_STAGES: usize = 64;

/// A seed: an ordered candidate bit column.
#[derive(Debug, Clone)]
struct Seed {
    cells: Vec<CellId>,
    /// Chain seeds carry intrinsic bit order (carry/shift chains) and are
    /// trusted more than fallback (signature-class) seeds.
    chained: bool,
}

/// Groups cells by signature, keeping classes of plausible bit width.
/// Keyed by a `BTreeMap` so class order never depends on hash seeds.
fn classes_of(netlist: &Netlist, sigs: &[u64]) -> Vec<(u64, Vec<CellId>)> {
    let mut map: BTreeMap<u64, Vec<CellId>> = BTreeMap::new();
    for c in netlist.movable_ids() {
        map.entry(sigs[c.ix()]).or_default().push(c);
    }
    let mut classes: Vec<(u64, Vec<CellId>)> = map
        .into_iter()
        .filter(|(_, v)| v.len() >= MIN_BITS && v.len() <= 4096)
        .collect();
    // Deterministic order: larger classes first, ties by first member.
    for (_, v) in &mut classes {
        v.sort_unstable();
    }
    classes.sort_by_key(|(_, v)| (usize::MAX - v.len(), v.first().copied()));
    classes
}

/// Finds carry/shift chains inside one signature class: `u → v` when some
/// sink of a sink of `u` lands back in the class. Cells with a unique
/// successor and unique predecessor form paths; each sufficiently long
/// path becomes a bit-ordered seed.
fn chain_paths(class: &[CellId], rel: &Relations) -> Vec<Vec<CellId>> {
    let in_class: HashSet<CellId> = class.iter().copied().collect();
    let mut next: HashMap<CellId, CellId> = HashMap::new();
    let mut prev_count: HashMap<CellId, usize> = HashMap::new();
    for &u in class {
        let mut candidates: Vec<CellId> = Vec::new();
        for &w in rel.sinks(u) {
            if w == u {
                continue;
            }
            for &v in rel.sinks(w) {
                if v != u && in_class.contains(&v) {
                    candidates.push(v);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        if let &[only] = candidates.as_slice() {
            next.insert(u, only);
            *prev_count.entry(only).or_insert(0) += 1;
        }
    }
    // Path starts: no unique predecessor.
    let mut paths = Vec::new();
    let mut visited: HashSet<CellId> = HashSet::new();
    for &start in class {
        if prev_count.get(&start).copied().unwrap_or(0) == 1 {
            continue; // interior node
        }
        if visited.contains(&start) {
            continue;
        }
        let mut path = vec![start];
        visited.insert(start);
        let mut cur = start;
        while let Some(&nxt) = next.get(&cur) {
            if visited.contains(&nxt) || prev_count.get(&nxt).copied().unwrap_or(0) != 1 {
                break;
            }
            visited.insert(nxt);
            path.push(nxt);
            cur = nxt;
        }
        if path.len() >= MIN_BITS {
            paths.push(path);
        }
    }
    paths.sort_by_key(|p| (usize::MAX - p.len(), p.first().copied()));
    paths
}

/// One candidate column produced by an expansion step.
type Column = Vec<Option<CellId>>;

/// Splits a signature class with *internal* driver structure (a tower of
/// identical stages, e.g. the upper levels of a barrel shifter, which no
/// finite signature depth can tell apart) into topological layers, and
/// returns the output-side (deepest) layer in a relation-derived bit
/// order. Growth then peels the remaining layers off through injective
/// driver expansions. Returns `None` when the class has no internal
/// structure or contains cycles.
fn layered_top_seed(cells: &[CellId], rel: &Relations) -> Option<Vec<CellId>> {
    let in_seed: HashMap<CellId, usize> = cells.iter().copied().zip(0..).collect();
    // parent[u] = (slot, driver) edges staying inside the class.
    let mut parents: Vec<Vec<(usize, usize)>> = vec![Vec::new(); cells.len()];
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); cells.len()];
    let mut num_edges = 0usize;
    for (ui, &u) in cells.iter().enumerate() {
        for slot in 0..rel.num_slots(u) {
            if let Some(d) = rel.driver(u, slot) {
                if let Some(&di) = in_seed.get(&d) {
                    parents[ui].push((slot, di));
                    children[di].push(ui);
                    num_edges += 1;
                }
            }
        }
    }
    if num_edges == 0 {
        return None;
    }
    // Longest-path layering by Kahn's algorithm; cycles → bail.
    let mut indeg: Vec<usize> = parents.iter().map(|p| p.len()).collect();
    let mut layer = vec![0usize; cells.len()];
    let mut queue: Vec<usize> = (0..cells.len()).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(ui) = queue.pop() {
        seen += 1;
        for &ci in &children[ui] {
            layer[ci] = layer[ci].max(layer[ui] + 1);
            indeg[ci] -= 1;
            if indeg[ci] == 0 {
                queue.push(ci);
            }
        }
    }
    if seen != cells.len() {
        return None; // cycle (e.g. cross-coupled structures)
    }
    let &top = layer.iter().max()?;
    if top == 0 {
        return None;
    }
    // Bit order: layer 0 by cell id; layer k from the lowest-slot parent
    // in layer k−1 (the pass-through input of a mux tower).
    let mut order: Vec<Option<usize>> = vec![None; cells.len()];
    let mut l0: Vec<usize> = (0..cells.len()).filter(|&i| layer[i] == 0).collect();
    l0.sort_by_key(|&i| cells[i]);
    for (b, &i) in l0.iter().enumerate() {
        order[i] = Some(b);
    }
    for k in 1..=top {
        let mut members: Vec<(usize, usize, CellId)> = Vec::new(); // (parent order, slot, cell)
        for (ui, &u) in cells.iter().enumerate() {
            if layer[ui] != k {
                continue;
            }
            let key = parents[ui]
                .iter()
                .filter(|&&(_, di)| layer[di] == k - 1)
                .filter_map(|&(slot, di)| order[di].map(|o| (slot, o)))
                .min();
            let (slot, o) = key?;
            members.push((o, slot, u));
        }
        members.sort_unstable();
        for (b, &(_, _, u)) in members.iter().enumerate() {
            let ui = in_seed[&u];
            order[ui] = Some(b);
        }
    }
    let mut top_cells: Vec<(usize, CellId)> = (0..cells.len())
        .filter(|&i| layer[i] == top)
        .filter_map(|i| order[i].map(|b| (b, cells[i])))
        .collect();
    if top_cells.len() < 2 {
        return None;
    }
    top_cells.sort_unstable();
    Some(top_cells.into_iter().map(|(_, c)| c).collect())
}

/// Expands `col` through input slot `slot`: the drivers of each present
/// bit, filtered to a single dominant signature, injective, and
/// sufficiently covering.
fn expand_slot(
    col: &Column,
    slot: usize,
    rel: &Relations,
    netlist: &Netlist,
    sigs: &[u64],
    taken: &HashSet<CellId>,
) -> Option<Column> {
    let mut cand: Vec<(usize, CellId)> = Vec::new();
    let mut present = 0usize;
    for (bit, c) in col.iter().enumerate() {
        let Some(c) = *c else { continue };
        present += 1;
        if let Some(d) = rel.driver(c, slot) {
            if !netlist.cell(d).fixed && !taken.contains(&d) {
                cand.push((bit, d));
            }
        }
    }
    select_dominant(cand, present, sigs, col.len())
}

/// Expands `col` through the output side: per-bit sinks grouped by
/// signature; the dominant signature with an injective per-bit map wins.
fn expand_sinks(
    col: &Column,
    rel: &Relations,
    netlist: &Netlist,
    sigs: &[u64],
    taken: &HashSet<CellId>,
) -> Vec<Column> {
    // Collect (bit, sink) pairs per signature; BTreeMap iteration yields
    // signatures in sorted order, independent of hash seeds.
    let mut by_sig: BTreeMap<u64, Vec<(usize, CellId)>> = BTreeMap::new();
    let mut present = 0usize;
    for (bit, c) in col.iter().enumerate() {
        let Some(c) = *c else { continue };
        present += 1;
        for &s in rel.sinks(c) {
            if !netlist.cell(s).fixed && !taken.contains(&s) {
                by_sig.entry(sigs[s.ix()]).or_default().push((bit, s));
            }
        }
    }
    let mut out = Vec::new();
    for (_, cand) in by_sig {
        if let Some(col) = select_injective(cand, present, col.len()) {
            out.push(col);
        }
    }
    out
}

/// Keeps only the dominant-signature candidates and checks injectivity and
/// coverage.
fn select_dominant(
    cand: Vec<(usize, CellId)>,
    present: usize,
    sigs: &[u64],
    bits: usize,
) -> Option<Column> {
    if cand.is_empty() {
        return None;
    }
    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    for &(_, c) in &cand {
        *counts.entry(sigs[c.ix()]).or_insert(0) += 1;
    }
    let (&best_sig, _) = counts.iter().max_by_key(|&(&sig, &n)| (n, sig))?;
    let filtered: Vec<(usize, CellId)> = cand
        .into_iter()
        .filter(|&(_, c)| sigs[c.ix()] == best_sig)
        .collect();
    select_injective(filtered, present, bits)
}

/// Builds a column from `(bit, cell)` pairs if the map is injective on both
/// sides and covers enough bits.
fn select_injective(cand: Vec<(usize, CellId)>, present: usize, bits: usize) -> Option<Column> {
    let mut col: Column = vec![None; bits];
    let mut used: HashSet<CellId> = HashSet::new();
    let mut filled = 0usize;
    for (bit, c) in cand {
        if col[bit].is_some() || !used.insert(c) {
            return None; // not injective in either direction
        }
        col[bit] = Some(c);
        filled += 1;
    }
    if (filled as f64) < MIN_COVERAGE * present.max(1) as f64 || filled < 2 {
        return None;
    }
    Some(col)
}

/// Grows all groups. Returns the groups and the number of signature
/// classes considered.
pub fn grow_groups(
    netlist: &Netlist,
    sigs: &[u64],
    rel: &Relations,
) -> (Vec<DatapathGroup>, usize) {
    let classes = classes_of(netlist, sigs);
    let num_classes = classes.len();

    // Seeds: chain paths first (intrinsic bit order), then whole classes.
    let mut seeds: Vec<Seed> = Vec::new();
    for (_, class) in &classes {
        for path in chain_paths(class, rel) {
            seeds.push(Seed {
                cells: path,
                chained: true,
            });
        }
    }
    // Chain seeds: longest first across classes.
    seeds.sort_by_key(|s| (usize::MAX - s.cells.len(), s.cells.first().copied()));
    for (_, class) in &classes {
        if let Some(top) = layered_top_seed(class, rel) {
            seeds.push(Seed {
                cells: top,
                chained: true, // relation-derived bit order
            });
        }
        seeds.push(Seed {
            cells: class.clone(),
            chained: false,
        });
    }

    let mut claimed: HashSet<CellId> = HashSet::new();
    let mut groups: Vec<DatapathGroup> = Vec::new();

    for seed in seeds {
        let free: Vec<CellId> = seed
            .cells
            .iter()
            .copied()
            .filter(|c| !claimed.contains(c))
            .collect();
        if free.len() < MIN_BITS || free.len() * 5 < seed.cells.len() * 4 {
            continue; // mostly claimed already
        }
        let bits = free.len();
        let first: Column = free.iter().copied().map(Some).collect();
        let mut taken: HashSet<CellId> = claimed.clone();
        taken.extend(free.iter().copied());
        let mut columns: Vec<Column> = vec![first];
        let mut frontier = vec![0usize];

        while let Some(ci) = frontier.pop() {
            if columns.len() >= MAX_STAGES {
                break;
            }
            let col = columns[ci].clone();
            // Input-slot expansions.
            let max_slots = col
                .iter()
                .flatten()
                .map(|&c| rel.num_slots(c))
                .max()
                .unwrap_or(0);
            for slot in 0..max_slots {
                if columns.len() >= MAX_STAGES {
                    break;
                }
                if let Some(new_col) = expand_slot(&col, slot, rel, netlist, sigs, &taken) {
                    for c in new_col.iter().flatten() {
                        taken.insert(*c);
                    }
                    columns.push(new_col);
                    frontier.push(columns.len() - 1);
                }
            }
            // Sink expansions.
            for new_col in expand_sinks(&col, rel, netlist, sigs, &taken) {
                if columns.len() >= MAX_STAGES {
                    break;
                }
                for c in new_col.iter().flatten() {
                    taken.insert(*c);
                }
                columns.push(new_col);
                frontier.push(columns.len() - 1);
            }
        }

        let stages = columns.len();
        let min_stages = if seed.chained { 1 } else { MIN_STAGES };
        if stages < min_stages {
            continue;
        }
        // Matrix: bits × stages.
        let matrix: Vec<Vec<Option<CellId>>> = (0..bits)
            .map(|b| columns.iter().map(|col| col[b]).collect())
            .collect();
        let g = DatapathGroup::new(format!("dp{}", groups.len()), matrix);
        for (_, _, c) in g.iter() {
            claimed.insert(c);
        }
        groups.push(g);
    }

    (groups, num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extract, signature::signatures, ExtractConfig};
    use sdp_dpgen::blocks_for_tests::{lone_adder, lone_alu, lone_shifter};
    use std::collections::BTreeSet;

    #[test]
    fn chain_paths_find_the_carry_chain() {
        let (nl, truth) = lone_adder(8);
        let sigs = signatures(&nl, 2, 6);
        let rel = Relations::build(&nl, 6);
        let classes = classes_of(&nl, &sigs);
        let mut found = false;
        for (_, class) in &classes {
            for path in chain_paths(class, &rel) {
                // A chain must visit consecutive bits of one truth stage.
                let g = &truth[0];
                let stage_of = |c: CellId| -> Option<(usize, usize)> {
                    g.iter().find(|&(_, _, x)| x == c).map(|(b, s, _)| (b, s))
                };
                if let Some((b0, s0)) = stage_of(path[0]) {
                    let consecutive = path
                        .iter()
                        .enumerate()
                        .all(|(k, &c)| stage_of(c) == Some((b0 + k, s0)));
                    if consecutive && path.len() >= 5 {
                        found = true;
                    }
                }
            }
        }
        assert!(found, "at least one bit-consecutive chain must be found");
    }

    #[test]
    fn lone_adder_is_recovered() {
        let (nl, truth) = lone_adder(16);
        let r = extract(&nl, &ExtractConfig::default());
        assert!(!r.groups.is_empty());
        let truth_cells = truth[0].cell_set();
        let extracted: BTreeSet<CellId> = r.groups.iter().flat_map(|g| g.cell_set()).collect();
        let hit = truth_cells.intersection(&extracted).count();
        // Signature rounds peel ~2 boundary bits; expect most cells back.
        assert!(
            hit as f64 > 0.7 * truth_cells.len() as f64,
            "recovered {hit}/{}",
            truth_cells.len()
        );
    }

    #[test]
    fn lone_shifter_is_recovered_via_fallback() {
        let (nl, truth) = lone_shifter(16, 4);
        let r = extract(&nl, &ExtractConfig::default());
        let truth_cells = truth[0].cell_set();
        let extracted: BTreeSet<CellId> = r.groups.iter().flat_map(|g| g.cell_set()).collect();
        let hit = truth_cells.intersection(&extracted).count();
        assert!(
            hit as f64 > 0.6 * truth_cells.len() as f64,
            "recovered {hit}/{}",
            truth_cells.len()
        );
    }

    #[test]
    fn lone_carry_select_is_mostly_recovered() {
        let (nl, truth) = sdp_dpgen::blocks_for_tests::lone_carry_select(16, 4);
        let r = extract(&nl, &ExtractConfig::default());
        let truth_cells = truth[0].cell_set();
        let extracted: BTreeSet<CellId> = r.groups.iter().flat_map(|g| g.cell_set()).collect();
        let hit = truth_cells.intersection(&extracted).count();
        assert!(
            hit as f64 > 0.5 * truth_cells.len() as f64,
            "recovered {hit}/{}",
            truth_cells.len()
        );
    }

    #[test]
    fn lone_alu_is_recovered() {
        let (nl, truth) = lone_alu(16);
        let r = extract(&nl, &ExtractConfig::default());
        let truth_cells = truth[0].cell_set();
        let extracted: BTreeSet<CellId> = r.groups.iter().flat_map(|g| g.cell_set()).collect();
        let hit = truth_cells.intersection(&extracted).count();
        assert!(
            hit as f64 > 0.6 * truth_cells.len() as f64,
            "recovered {hit}/{}",
            truth_cells.len()
        );
    }

    #[test]
    fn grown_columns_are_bit_coherent() {
        // Each extracted stage column must map to the truth group with a
        // constant bit offset (what alignment quality depends on).
        let (nl, truth) = lone_adder(16);
        let r = extract(&nl, &ExtractConfig::default());
        let s = crate::metrics::score(&r.groups, &truth, &nl);
        assert!(
            s.column_coherence > 0.8,
            "column coherence {}",
            s.column_coherence
        );
    }

    #[test]
    fn columns_reject_non_injective_maps() {
        let cand = vec![(0, CellId::new(5)), (1, CellId::new(5))];
        assert!(select_injective(cand, 2, 4).is_none());
        let cand = vec![(0, CellId::new(5)), (0, CellId::new(6))];
        assert!(select_injective(cand, 2, 4).is_none());
        let ok = vec![(0, CellId::new(5)), (1, CellId::new(6))];
        assert!(select_injective(ok, 2, 4).is_some());
    }
}
