//! Product code reads no environment variable and no core count: what the
//! service provider does is a function of the arguments it was handed —
//! `TmConfig`, `ServerConfig` — and nothing ambient, so a test or a bench
//! row means the same thing on every box and under every CI job.
//!
//! Outside the walk, on purpose: `crates/bench` is a command-line tool and
//! reads `PRKB_SCALE` (a size preset) and `PRKB_BENCH_DIR` (an output path)
//! as one; `examples/` are programs, not the library, and take their inputs
//! on the command line. (`env::var` also matches `env::var_os` and
//! `env::vars`.)

mod product_src;

#[test]
fn product_code_reads_no_environment_variable() {
    let hits = product_src::hits(&["env::var", "env_knob"]);
    assert!(
        hits.is_empty(),
        "configuration arrives as an argument, never from the environment:\n{}",
        hits.join("\n")
    );
}

#[test]
fn product_code_reads_no_core_count() {
    let hits = product_src::hits(&["available_parallelism"]);
    assert!(
        hits.is_empty(),
        "a count of threads or locks arrives as an argument, never from the machine:\n{}",
        hits.join("\n")
    );
}
