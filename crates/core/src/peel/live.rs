//! Live adjacency rows for the wing repair kernel.
//!
//! The wing kernel enumerates, for a frontier edge `(u, v)`, every
//! butterfly `{(u, v), (u, x), (w, v), (w, x)}` whose edges were all
//! alive at round start. Scanning the original adjacency would revisit
//! every dead edge in every round and need an edge-id lookup per
//! candidate; [`LiveRows`] instead keeps compacted `(neighbour, edge id)`
//! rows for both sides and shrinks the rows of each round's frontier
//! endpoints after the round ([`PeelState::after_round`]). At kernel
//! time the rows therefore hold exactly the edges alive at round start —
//! the surviving edges plus the current frontier, which is the only
//! place a row entry can be dead — so `N(u) ∩ N(w)` is a sorted merge
//! over live rows and every edge id comes with its entry.

use super::parallel::PeelState;
use bfly_graph::BipartiteGraph;
use bfly_sparse::{Pattern, Spa};

/// A merge switches to bounded binary search once one row is this many
/// times longer than the other.
const SEARCH_SKEW: usize = 16;

/// One side's compacted rows: row `r` is `nbr[ptr[r]..ptr[r] + len[r]]`
/// with the matching edge ids in `eid`, kept in ascending neighbour order
/// (compaction only ever deletes).
struct Rows<'a> {
    ptr: &'a [usize],
    len: Vec<u32>,
    nbr: Vec<u32>,
    eid: Vec<u32>,
}

impl<'a> Rows<'a> {
    fn new(p: &'a Pattern, eid: Vec<u32>) -> Self {
        Rows {
            ptr: p.ptr(),
            len: (0..p.nrows()).map(|r| p.row_nnz(r) as u32).collect(),
            nbr: p.indices().to_vec(),
            eid,
        }
    }

    #[inline]
    fn row(&self, r: u32) -> (&[u32], &[u32]) {
        let lo = self.ptr[r as usize];
        let hi = lo + self.len[r as usize] as usize;
        (&self.nbr[lo..hi], &self.eid[lo..hi])
    }

    /// Drop the dead entries of row `r`, keeping the survivors in order.
    fn compact(&mut self, r: u32, alive: &[bool]) {
        let lo = self.ptr[r as usize];
        let mut keep = lo;
        for i in lo..lo + self.len[r as usize] as usize {
            let e = self.eid[i];
            if alive[e as usize] {
                self.nbr[keep] = self.nbr[i];
                self.eid[keep] = e;
                keep += 1;
            }
        }
        self.len[r as usize] = (keep - lo) as u32;
    }

    /// Compact every row named in `rows` once.
    fn compact_all(&mut self, rows: &mut Vec<u32>, alive: &[bool]) {
        rows.sort_unstable();
        rows.dedup();
        for &r in rows.iter() {
            self.compact(r, alive);
        }
    }
}

/// Compacted adjacency of both sides plus the endpoints of every edge
/// (ids are row-major positions in `A`, as in
/// [`BipartiteGraph::edges`]).
pub(super) struct LiveRows<'a> {
    /// V1 rows: `(x ∈ V2, id of (u, x))`.
    v1: Rows<'a>,
    /// V2 rows: `(w ∈ V1, id of (w, v))`.
    v2: Rows<'a>,
    /// V1 endpoint of each edge; the V2 endpoint is `A`'s index entry.
    src: Vec<u32>,
    dst: &'a [u32],
    /// Rows to compact after a round (reused buffer).
    touched: Vec<u32>,
}

impl<'a> LiveRows<'a> {
    /// Rows of every edge of `g`; `csc_ids` is
    /// [`crate::edge_support::csc_edge_ids`] and becomes the V2 rows' id
    /// column.
    pub(super) fn new(g: &'a BipartiteGraph, csc_ids: Vec<u32>) -> Self {
        let a = g.biadjacency();
        let mut src = Vec::with_capacity(g.nedges());
        for u in 0..g.nv1() {
            src.extend(std::iter::repeat_n(u as u32, a.row_nnz(u)));
        }
        LiveRows {
            v1: Rows::new(a, (0..g.nedges() as u32).collect()),
            v2: Rows::new(g.biadjacency_t(), csc_ids),
            src,
            dst: a.indices(),
            touched: Vec::new(),
        }
    }

    /// Estimated bytes of the rows over `g`: per edge a neighbour and an
    /// id on each side plus its V1 endpoint (20 B), per vertex a row
    /// length (4 B).
    pub(super) fn bytes(g: &BipartiteGraph) -> u64 {
        20 * g.nedges() as u64 + 4 * (g.nv1() + g.nv2()) as u64
    }

    /// Scatter one unit of support loss into `delta` for every surviving
    /// edge of every butterfly that frontier edge `e = (u, v)` destroys
    /// and is charged for. A dying butterfly is charged to its minimum-id
    /// frontier edge, so it is processed exactly once however many of its
    /// edges the round removes; `alive[o]` is false exactly for the
    /// frontier edges among the live-row entries.
    ///
    /// The butterflies `{(u, v), (u, x), (w, v), (w, x)}` are found from
    /// whichever endpoint is cheaper to expand: walking `w ∈ N(v)` merges
    /// `N(u) ∩ N(w)` once per `w`, walking `x ∈ N(u)` merges
    /// `N(v) ∩ N(x)` once per `x`; the merge volumes differ by the live
    /// degree sums of `N(v)` and `N(u)`, so the smaller sum wins.
    pub(super) fn repair(&self, e: u32, alive: &[bool], delta: &mut Spa<u64>) {
        let (u, v) = (self.src[e as usize], self.dst[e as usize]);
        let (at_u, at_v) = (self.v1.row(u), self.v2.row(v));
        let from_v: u64 = at_v.0.iter().map(|&w| self.v1.len[w as usize] as u64).sum();
        let from_u: u64 = at_u.0.iter().map(|&x| self.v2.len[x as usize] as u64).sum();
        let close = Closing { e, alive };
        if from_v <= from_u {
            close.each(at_v, u, at_u, v, &self.v1, delta);
        } else {
            close.each(at_u, v, at_v, u, &self.v2, delta);
        }
    }
}

/// One frontier edge `e` closing its butterflies over live rows.
struct Closing<'s> {
    e: u32,
    alive: &'s [bool],
}

impl Closing<'_> {
    /// Whether a butterfly containing `o` is charged to an earlier
    /// frontier edge.
    #[inline]
    fn charged_elsewhere(&self, o: u32) -> bool {
        o < self.e && !self.alive[o as usize]
    }

    /// For each `(y, e_y)` of `outer` but `skip_y`, every `z` common to
    /// `base` (but `skip_z`) and `y`'s row in `rows` closes a butterfly
    /// with edges `e_z` (from `base`), `e_y` and the `(y, z)` edge.
    fn each(
        &self,
        outer: (&[u32], &[u32]),
        skip_y: u32,
        base: (&[u32], &[u32]),
        skip_z: u32,
        rows: &Rows,
        delta: &mut Spa<u64>,
    ) {
        let (bn, be) = base;
        for (&y, &ey) in outer.0.iter().zip(outer.1) {
            if y == skip_y || self.charged_elsewhere(ey) {
                continue;
            }
            let (yn, ye) = rows.row(y);
            for_each_common(bn, yn, |i, k| {
                let (ez, eyz) = (be[i], ye[k]);
                if bn[i] == skip_z || self.charged_elsewhere(ez) || self.charged_elsewhere(eyz) {
                    return;
                }
                for o in [ez, ey, eyz] {
                    if self.alive[o as usize] {
                        delta.scatter(o, 1);
                    }
                }
            });
        }
    }
}

impl PeelState for LiveRows<'_> {
    /// Shrink the rows of both endpoints of every edge the round removed,
    /// so the next round's rows hold exactly its alive-at-start edges.
    fn after_round(&mut self, frontier: &[u32], alive: &[bool]) {
        self.touched.clear();
        self.touched
            .extend(frontier.iter().map(|&e| self.src[e as usize]));
        self.v1.compact_all(&mut self.touched, alive);
        self.touched.clear();
        self.touched
            .extend(frontier.iter().map(|&e| self.dst[e as usize]));
        self.v2.compact_all(&mut self.touched, alive);
    }
}

/// Call `f(i, k)` for every `a[i] == b[k]` of two ascending rows, in
/// ascending order: a linear merge, or — when one row is more than
/// [`SEARCH_SKEW`] times longer — a binary search of each short-row entry
/// in the still-unsearched suffix of the long row.
#[inline]
fn for_each_common(a: &[u32], b: &[u32], mut f: impl FnMut(usize, usize)) {
    if a.len() * SEARCH_SKEW < b.len() {
        search_each(a, b, f);
    } else if b.len() * SEARCH_SKEW < a.len() {
        search_each(b, a, |k, i| f(i, k));
    } else {
        let (mut i, mut k) = (0, 0);
        while i < a.len() && k < b.len() {
            match a[i].cmp(&b[k]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => k += 1,
                std::cmp::Ordering::Equal => {
                    f(i, k);
                    i += 1;
                    k += 1;
                }
            }
        }
    }
}

/// The skewed half of [`for_each_common`]: `short` drives, `long` is
/// searched from just past the previous hit.
#[inline]
fn search_each(short: &[u32], long: &[u32], mut f: impl FnMut(usize, usize)) {
    let mut lo = 0;
    for (i, x) in short.iter().enumerate() {
        match long[lo..].binary_search(x) {
            Ok(k) => {
                f(i, lo + k);
                lo += k + 1;
            }
            Err(k) => lo += k,
        }
        if lo == long.len() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn common(a: &[u32], b: &[u32]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for_each_common(a, b, |i, k| out.push((i, k)));
        out
    }

    #[test]
    fn merge_and_search_find_the_same_pairs() {
        let long: Vec<u32> = (0..400).map(|x| x * 3).collect();
        let short = [0u32, 4, 9, 10, 600, 1197];
        let want: Vec<(usize, usize)> = short
            .iter()
            .enumerate()
            .filter_map(|(i, x)| long.binary_search(x).ok().map(|k| (i, k)))
            .collect();
        assert_eq!(want, vec![(0, 0), (2, 3), (4, 200), (5, 399)]);
        assert_eq!(common(&short, &long), want);
        let flipped: Vec<(usize, usize)> = want.iter().map(|&(i, k)| (k, i)).collect();
        assert_eq!(common(&long, &short), flipped);
        // Comparable lengths take the linear merge.
        assert_eq!(common(&short, &long[..20]), vec![(0, 0), (2, 3)]);
        assert!(common(&[], &long).is_empty());
    }

    #[test]
    fn rows_hold_every_edge_with_its_id_until_compacted() {
        let g =
            BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 2), (1, 0), (2, 1), (2, 2)]).unwrap();
        let ids = crate::edge_support::csc_edge_ids(&g);
        let mut rows = LiveRows::new(&g, ids);
        let edges: Vec<(u32, u32)> = g.edges().collect();
        for (e, &(u, v)) in edges.iter().enumerate() {
            let (un, ue) = rows.v1.row(u);
            let (vn, ve) = rows.v2.row(v);
            assert_eq!(ue[un.binary_search(&v).unwrap()], e as u32);
            assert_eq!(ve[vn.binary_search(&u).unwrap()], e as u32);
        }
        // Remove edge (0, 2) = id 1: both endpoint rows shrink.
        let mut alive = vec![true; edges.len()];
        alive[1] = false;
        rows.after_round(&[1], &alive);
        assert_eq!(rows.v1.row(0), (&[0u32][..], &[0u32][..]));
        assert_eq!(rows.v2.row(2), (&[2u32][..], &[4u32][..]));
        assert_eq!(rows.v2.row(0).0, &[0, 1]);
    }
}
