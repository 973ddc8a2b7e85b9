//! The five graph shapes every workload draws from: bipartite Chung–Lu
//! graphs with Fig. 9's exact |V1|, |V2| and |E| and the calibrated
//! per-side exponents of `bfly_graph::konect`, generated from the
//! benchmark seed rather than the stand-ins' fixed seeds.

use bfly_graph::generators::chung_lu;
use bfly_graph::{BipartiteGraph, StandIn};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Short metric-friendly name and the dataset it stands in for, in the
/// paper's row order.
pub const SHAPES: [(&str, StandIn); 5] = [
    ("arxiv", StandIn::ArxivCondMat),
    ("producers", StandIn::Producers),
    ("record-labels", StandIn::RecordLabels),
    ("occupations", StandIn::Occupations),
    ("github", StandIn::GitHub),
];

/// Generate shape `idx` from `seed`. `scale` shrinks |V1|, |V2| and |E|
/// proportionally (1.0 = the paper's sizes; tests use a small fraction).
pub fn generate(idx: usize, seed: u64, scale: f64) -> BipartiteGraph {
    let spec = SHAPES[idx].1.spec();
    let m = ((spec.v1 as f64 * scale) as usize).max(4);
    let n = ((spec.v2 as f64 * scale) as usize).max(4);
    let e = ((spec.edges as f64 * scale) as usize).max(4).min(m * n);
    let mut rng = StdRng::seed_from_u64(mix(seed, idx as u64));
    chung_lu(m, n, e, spec.exponent_v1, spec.exponent_v2, &mut rng)
}

/// SplitMix64 finaliser over (seed, shape), so neighbouring seeds give
/// unrelated graphs.
fn mix(seed: u64, idx: u64) -> u64 {
    let mut z = seed ^ idx.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Write `g` as a KONECT `out.*` file (1-based ids, size header), the
/// input `bfly count` reads. Returns the file size in bytes.
pub fn write_konect(g: &BipartiteGraph, path: &Path) -> std::io::Result<u64> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "% bip unweighted")?;
    writeln!(w, "% {} {} {}", g.nedges(), g.nv1(), g.nv2())?;
    for (u, v) in g.edges() {
        writeln!(w, "{} {}", u + 1, v + 1)?;
    }
    w.flush()?;
    Ok(std::fs::metadata(path)?.len())
}
