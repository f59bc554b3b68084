//! The product sources the source guards walk: the `src/` of the root
//! facade and of every library crate. Outside it, on purpose:
//! `crates/bench`, a command-line tool, and `crates/sim`, the test rig.

use std::path::{Path, PathBuf};

pub const PRODUCT_SRC: [&str; 8] = [
    "src",
    "crates/crypto/src",
    "crates/edbms/src",
    "crates/core/src",
    "crates/srci/src",
    "crates/server/src",
    "crates/datagen/src",
    "crates/analysis/src",
];

/// The repository root.
pub fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under [`PRODUCT_SRC`], with its text.
pub fn sources() -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    for dir in PRODUCT_SRC {
        walk(&root().join(dir), &mut files);
    }
    assert!(
        files.len() >= 50,
        "the walk found the sources: {} files",
        files.len()
    );
    files
}

fn walk(dir: &Path, files: &mut Vec<(PathBuf, String)>) {
    for entry in std::fs::read_dir(dir).expect("list source dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            walk(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("read source");
            files.push((path, text));
        }
    }
}

/// `path:line: needle` for every line of the product sources holding one
/// of `needles`.
pub fn hits(needles: &[&str]) -> Vec<String> {
    let mut hits = Vec::new();
    for (path, text) in sources() {
        for (i, line) in text.lines().enumerate() {
            if let Some(needle) = needles.iter().find(|n| line.contains(**n)) {
                hits.push(format!("{}:{}: {needle}", path.display(), i + 1));
            }
        }
    }
    hits
}
