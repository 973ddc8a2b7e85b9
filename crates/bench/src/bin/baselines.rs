//! Baseline comparison (experiment E10): the family's best member vs the
//! hash-aggregation counter, the degree-ordered vertex-priority counter,
//! the SpGEMM counter, and the sampling estimators, on every stand-in.

use bfly_bench::{best_of, load_datasets, scale_from_env, time_one};
use bfly_core::baseline::{
    approx_count_edge_sampling, approx_count_vertex_sampling, count_hash_aggregation,
};
use bfly_core::spec::count_via_spgemm;
use bfly_core::{count, count_priority, Invariant};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = scale_from_env();
    println!("Baseline comparison (scale = {scale})");
    println!(
        "{:<16}{:>12}{:>12}{:>12}{:>12}{:>16}",
        "Dataset", "Inv.2 (s)", "hash (s)", "vp (s)", "spgemm (s)", "Ξ"
    );
    for (d, g) in load_datasets(scale) {
        let spec = d.spec();
        let (t_fam, xi) = best_of(2, || count(&g, Invariant::Inv2));
        let (t_hash, xi_h) = best_of(2, || count_hash_aggregation(&g));
        let (t_vp, xi_v) = best_of(2, || count_priority(&g));
        let (t_mm, xi_m) = best_of(2, || count_via_spgemm(&g));
        assert_eq!(xi, xi_h);
        assert_eq!(xi, xi_v);
        assert_eq!(xi, xi_m);
        println!(
            "{:<16}{t_fam:>12.3}{t_hash:>12.3}{t_vp:>12.3}{t_mm:>12.3}{xi:>16}",
            spec.name
        );
    }

    println!("\nSampling estimators (relative error, 2000 samples):");
    for (d, g) in load_datasets(scale) {
        let spec = d.spec();
        let exact = count(&g, Invariant::Inv2) as f64;
        if exact == 0.0 {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(0xE10);
        let (tv, est_v) = time_one(|| approx_count_vertex_sampling(&g, 2000, &mut rng));
        let (te, est_e) = time_one(|| approx_count_edge_sampling(&g, 2000, &mut rng));
        println!(
            "  {:<16} vertex {:+.1}% ({tv:.3}s)   edge {:+.1}% ({te:.3}s)",
            spec.name,
            100.0 * (est_v - exact) / exact,
            100.0 * (est_e - exact) / exact,
        );
    }
}
