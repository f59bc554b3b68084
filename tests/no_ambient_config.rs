//! Product code reads no environment variable: what the service provider
//! does is a function of the arguments it was handed — `with_threads`,
//! `ShardMap::new`, `ServerConfig` — and nothing ambient, so a test or a
//! bench row means the same thing on every box and under every CI job.
//!
//! Outside the walk, on purpose: `crates/bench` is a command-line tool and
//! reads `PRKB_SCALE` (a size preset) and `PRKB_BENCH_DIR` (an output path)
//! as one; `examples/` are programs, not the library, and take their inputs
//! on the command line. (`env::var` also matches `env::var_os` and
//! `env::vars`.)

use std::path::Path;

const PRODUCT_SRC: [&str; 8] = [
    "src",
    "crates/crypto/src",
    "crates/edbms/src",
    "crates/core/src",
    "crates/srci/src",
    "crates/server/src",
    "crates/datagen/src",
    "crates/analysis/src",
];

const NEEDLES: [&str; 2] = ["env::var", "env_knob"];

fn collect(dir: &Path, files: &mut usize, hits: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("list source dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            collect(&path, files, hits);
        } else if path.extension().is_some_and(|e| e == "rs") {
            *files += 1;
            let text = std::fs::read_to_string(&path).expect("read source");
            for (i, line) in text.lines().enumerate() {
                if let Some(needle) = NEEDLES.iter().find(|n| line.contains(**n)) {
                    hits.push(format!("{}:{}: {needle}", path.display(), i + 1));
                }
            }
        }
    }
}

#[test]
fn product_code_reads_no_environment_variable() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut files, mut hits) = (0, Vec::new());
    for dir in PRODUCT_SRC {
        collect(&root.join(dir), &mut files, &mut hits);
    }
    assert!(files >= 50, "the walk found the sources: {files} files");
    assert!(
        hits.is_empty(),
        "configuration arrives as an argument, never from the environment:\n{}",
        hits.join("\n")
    );
}
