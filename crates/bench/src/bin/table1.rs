//! Reproduce the shape of **Table 1** of the paper: construction, query and
//! update costs of interval trees, priority search trees and 2D range trees,
//! for the classic data structures and the write-efficient ones, across a
//! sweep of α and ω.
//!
//! Usage: `cargo run --release -p pwe-bench --bin table1 [-- --n 20000 --tree all]`

use pwe_asym::cost::Omega;
use pwe_bench::harness::{Args, Kind};
use pwe_bench::{interval_experiment, print_table, priority_experiment, range_tree_experiment};

fn main() {
    let args = Args::from_env(&[
        ("--n", Kind::Num),
        (
            "--tree",
            Kind::Choice(&["all", "interval", "priority", "range"]),
        ),
        ("--omega", Kind::Pos),
    ]);
    let n = args.num("--n").unwrap_or(20_000);
    let tree = args.name("--tree").unwrap_or("all");
    let omega = Omega::new(args.num("--omega").unwrap_or(10) as u64);
    let alphas = [2usize, 4, 8, 16];

    println!("Table 1 reproduction — n = {n}, {omega}, α sweep = {alphas:?}");
    if tree == "all" || tree == "interval" {
        print_table(
            "Interval tree (1D stabbing queries)",
            &interval_experiment(n, &alphas, omega),
        );
    }
    if tree == "all" || tree == "priority" {
        print_table(
            "Priority search tree (3-sided queries)",
            &priority_experiment(n, omega),
        );
    }
    if tree == "all" || tree == "range" {
        print_table(
            "2D range tree (orthogonal range queries)",
            &range_tree_experiment(n, &alphas, omega),
        );
    }
}
