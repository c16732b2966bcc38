//! Topology tour: explore the structure of hierarchical hypercubes and
//! the hypercube substrate algorithms the construction is built from.
//!
//! ```text
//! cargo run --example topology_tour
//! ```

use hhc_suite::graphs::{bfs, props, vertex_disjoint};
use hhc_suite::hhc::Hhc;
use hhc_suite::hypercube::{fan, gray, paths, Cube};

fn main() {
    // --- The family at a glance ------------------------------------------
    println!("HHC family (n = 2^m + m address bits, degree m+1):");
    println!(
        "{:>2} {:>3} {:>24} {:>7} {:>9}",
        "m", "n", "nodes", "degree", "diameter"
    );
    for m in 1..=6 {
        let h = Hhc::new(m).unwrap();
        println!(
            "{m:>2} {:>3} {:>24} {:>7} {:>9}",
            h.n(),
            h.num_nodes(),
            h.degree(),
            h.diameter()
        );
    }

    // --- HHC(1) is the 8-cycle --------------------------------------------
    let h1 = Hhc::new(1).unwrap();
    let g1 = h1.materialize().unwrap();
    println!(
        "\nHHC(1): {} nodes, 2-regular: {}, girth {:?} — the 8-cycle.",
        g1.num_nodes(),
        props::is_regular(&g1, 2),
        props::girth(&g1)
    );

    // --- Ground truth on HHC(2) --------------------------------------------
    let h2 = Hhc::new(2).unwrap();
    let g2 = h2.materialize().unwrap();
    println!(
        "HHC(2): diameter (BFS) = {}, vertex connectivity = {} (= m+1 = {}), bipartite: {}",
        bfs::diameter(&g2).unwrap(),
        vertex_disjoint::vertex_connectivity(&g2),
        h2.degree(),
        props::is_bipartite(&g2)
    );

    // --- The hypercube substrate -------------------------------------------
    let q4 = Cube::new(4).unwrap();
    println!("\nQ_4 substrate (what son-cube algorithms run on):");
    let u = 0b0000u128;
    let v = 0b1011u128;
    let dp = paths::disjoint_paths(&q4, u, v).unwrap();
    println!(
        "  {} disjoint paths {u:#06b} → {v:#06b}, lengths {:?}",
        dp.len(),
        dp.iter().map(|p| p.len() - 1).collect::<Vec<_>>()
    );

    let targets = [0b0001u128, 0b0110, 0b1100, 0b1111];
    let f = fan::fan_paths(&q4, 0, &targets).unwrap();
    println!(
        "  disjoint fan from 0000 to {{0001, 0110, 1100, 1111}}, lengths {:?}",
        f.iter().map(|p| p.len() - 1).collect::<Vec<_>>()
    );

    let ring = gray::gray_sequence(4);
    println!(
        "  Gray Hamiltonian cycle visits all {} vertices (first 6: {:?})",
        ring.len(),
        &ring[..6]
    );

    // --- Gray-cycle crossing order (the length-bound trick) -----------------
    let positions = [0u32, 5, 3, 6];
    let mut ordered = Vec::new();
    let set = positions.iter().fold(0u64, |acc, &p| acc | 1 << p);
    gray::gray_order_into(set, 3, 2, &mut ordered);
    println!("\nGray-cycle order of crossing positions {positions:?} anchored at 2: {ordered:?}");
    println!("(consecutive crossings are cheap to reach inside a son-cube —");
    println!(" this ordering is what keeps the disjoint paths near-diameter length)");
}
