//! Reproduce the main theorems' cost claims: Theorem 4.1 (sorting),
//! Theorem 5.1 (Delaunay triangulation) and Theorem 6.1 (k-d trees), each as
//! "baseline vs write-efficient" with measured reads, writes and ω-weighted
//! work, plus the small-memory assumptions of Theorems 3.1/6.1/7.1 as a
//! per-algorithm ledger report (`--exp smallmem`).
//!
//! Usage: `cargo run --release -p pwe-bench --bin theorems [-- --exp all --n 50000]`

use pwe_asym::cost::Omega;
use pwe_bench::harness::{Args, Kind};
use pwe_bench::{
    delaunay_experiment, kdtree_experiment, print_smallmem_table, print_table, smallmem_experiment,
    sort_experiment,
};

fn main() {
    let args = Args::from_env(&[
        (
            "--exp",
            Kind::Choice(&["all", "sort", "delaunay", "kdtree", "smallmem"]),
        ),
        ("--n", Kind::Num),
        ("--omega", Kind::Pos),
    ]);
    let exp = args.name("--exp").unwrap_or("all");
    let n = args.num("--n").unwrap_or(100_000);
    let omegas: Vec<Omega> = match args.num("--omega") {
        Some(w) => vec![Omega::new(w as u64)],
        None => Omega::paper_sweep(),
    };

    if exp != "smallmem" {
        for omega in &omegas {
            println!("\n################ {omega} ################");
            if exp == "all" || exp == "sort" {
                print_table("Theorem 4.1 — comparison sort", &sort_experiment(n, *omega));
            }
            if exp == "all" || exp == "delaunay" {
                print_table(
                    "Theorem 5.1 — planar Delaunay triangulation",
                    &delaunay_experiment(n.min(20_000), *omega),
                );
            }
            if exp == "all" || exp == "kdtree" {
                let (rows, notes) = kdtree_experiment(n, *omega);
                print_table("Theorem 6.1 — k-d tree construction (p ablation)", &rows);
                for note in notes {
                    println!("    {note}");
                }
            }
        }
    }

    // The small-memory ledger is ω-independent (symmetric accesses are free
    // at every ω), so it is reported once, outside the ω sweep.
    if exp == "all" || exp == "smallmem" {
        print_smallmem_table(
            "Small-memory assumptions (Thms 3.1/4.1/5.1/6.1/7.1) — per-task high water",
            &smallmem_experiment(n),
        );
    }
}
