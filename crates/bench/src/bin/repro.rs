//! `repro` — regenerates every table and figure of the PRKB paper.
//!
//! ```text
//! cargo run -p prkb-bench --bin repro --release -- all
//! cargo run -p prkb-bench --bin repro --release -- table2 fig8 fig13
//! PRKB_SCALE=paper cargo run -p prkb-bench --bin repro --release -- table3
//! ```
//!
//! Figure experiments additionally emit machine-readable trajectory files
//! (`BENCH_<exp>.json`, schema `prkb-bench/v1`) into `PRKB_BENCH_DIR`
//! (default: the current directory) for `prkb-bench compare` and CI gating.

use prkb_bench::trajectory::{bench_dir, BenchFile, BenchRow};
use prkb_bench::{
    exp_ablations, exp_checkpoint, exp_fig11_fig12, exp_fig13, exp_fig8, exp_fig9_fig10,
    exp_layers, exp_server_conns, exp_shard_commit, exp_table2, exp_table3, exp_table4, Scale,
};

const ALL: [&str; 13] = [
    "table2",
    "fig8",
    "table3",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "shard_commit",
    "server_conns",
    "checkpoint",
    "layers",
    "ablations",
];

fn main() {
    let scale = Scale::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut wanted: Vec<&str> = args.iter().map(String::as_str).collect();
    if wanted.is_empty() || wanted == ["all"] {
        wanted = ALL.to_vec();
        wanted.push("table4");
    }

    eprintln!(
        "# PRKB paper reproduction — scale: {} (set PRKB_SCALE=ci|default|paper)",
        scale.tag()
    );
    for exp in wanted {
        let (out, rows): (String, Vec<BenchRow>) = match exp {
            "table2" => (exp_table2::run(scale), Vec::new()),
            "fig8" => exp_fig8::run_bench(scale),
            "table3" => (exp_table3::run(scale), Vec::new()),
            "fig9" => exp_fig9_fig10::run_fig9_bench(scale),
            "fig10" => exp_fig9_fig10::run_fig10_bench(scale),
            "fig11" => exp_fig11_fig12::run_fig11_bench(scale),
            "fig12" => exp_fig11_fig12::run_fig12_bench(scale),
            "fig13" => exp_fig13::run_bench(scale),
            "shard_commit" => exp_shard_commit::run_bench(scale),
            "server_conns" => exp_server_conns::run_bench(scale),
            "checkpoint" => exp_checkpoint::run_bench(scale),
            "layers" => exp_layers::run_bench(scale),
            "ablations" => exp_ablations::run_bench(scale),
            "table4" => (exp_table4::run(scale), Vec::new()),
            other => {
                eprintln!("unknown experiment {other:?}; known: {ALL:?} + table4 | all");
                std::process::exit(2);
            }
        };
        println!("{out}");
        if !rows.is_empty() {
            let file = BenchFile {
                experiment: exp.to_string(),
                scale: scale.slug().to_string(),
                rows,
            };
            match file.write_to(&bench_dir()) {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write BENCH_{exp}.json: {e}"),
            }
        }
    }
}
