//! CI's `Size` step counts the lines of every `.rs` file under `src/` and
//! `crates/*/src/` (`crates/sim`, the test rig, left out) up to the file's
//! first column-0 `#[cfg(test)]`. The count is honest only if nothing but
//! test code follows that line: every column-0 item after it must carry a
//! `#[cfg(test)]` of its own, so a test helper gated above product code
//! cannot hide that code from the count.

use std::path::{Path, PathBuf};

/// The keywords a column-0 item line starts with.
const ITEM_STARTS: [&str; 14] = [
    "pub ",
    "pub(",
    "fn ",
    "mod ",
    "use ",
    "impl",
    "struct ",
    "enum ",
    "const ",
    "static ",
    "type ",
    "trait ",
    "macro_rules!",
    "unsafe ",
];

/// The files the step counts.
fn counted_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("src")];
    for entry in std::fs::read_dir(root.join("crates")).expect("list crates") {
        let krate = entry.expect("entry").path();
        if krate.file_name().is_some_and(|n| n != "sim") {
            dirs.push(krate.join("src"));
        }
    }
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files
}

/// The 1-based lines of the column-0 items after `text`'s first column-0
/// `#[cfg(test)]` that no `#[cfg(test)]` of their own gates.
fn hidden_items(text: &str) -> Vec<usize> {
    let (mut seen, mut gated) = (false, false);
    let mut hidden = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with("#[cfg(test)]") {
            (seen, gated) = (true, true);
        } else if seen && ITEM_STARTS.iter().any(|k| line.starts_with(k)) {
            if !gated {
                hidden.push(i + 1);
            }
            gated = false;
        }
    }
    hidden
}

#[test]
fn no_product_item_follows_a_files_first_cfg_test() {
    let files = counted_files();
    // The walk reaches the root crate, each crate's `src/` and the
    // directories below it, and skips the test rig.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for want in [
        "src/lib.rs",
        "crates/core/src/engine.rs",
        "crates/core/src/md/exec.rs",
    ] {
        assert!(files.contains(&root.join(want)), "the walk missed {want}");
    }
    assert!(
        !files.iter().any(|f| f.starts_with(root.join("crates/sim"))),
        "the walk counted crates/sim"
    );
    let mut hits = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read source");
        for line in hidden_items(&text) {
            hits.push(format!("{}:{line}", path.display()));
        }
    }
    assert!(
        hits.is_empty(),
        "product code after a column-0 #[cfg(test)], which the Size step does not count:\n{}",
        hits.join("\n")
    );
}

/// The two shapes the step once missed: a gated helper above product
/// functions, and a gated re-export above a product one.
#[test]
fn a_gated_helper_above_product_code_is_caught() {
    let helper = "use a::b;\n\n#[cfg(test)]\npub(crate) fn helper() {\n    b();\n}\n\n\
                  /// Product.\n#[derive(Debug)]\npub(crate) enum E {}\n\n#[cfg(test)]\nmod tests {}\n";
    assert_eq!(hidden_items(helper), vec![10]);
    let reexport = "#[cfg(test)]\npub(crate) use c::tests::f;\npub(crate) use d::run;\n";
    assert_eq!(hidden_items(reexport), vec![3]);
    let fixed = "pub(crate) use d::run;\n#[cfg(test)]\npub(crate) use c::tests::f;\n\n\
                 #[cfg(test)]\nmod tests {\n    use super::*;\n}\n";
    assert!(hidden_items(fixed).is_empty());
}
