//! Every `DESIGN.md §N` / `DESIGN §N` in a source comment names a section
//! DESIGN.md has, so renumbering the document cannot strand the comments
//! that point into it. `prkb_e2e/src/` is read, never edited: it cites §11
//! for "stats are an observation of the algorithm". Likewise every
//! `prkb-<crate>::<module>` the documents name is a module that exists,
//! every `PrkbEngine::m` (and the like) they name is a method its type
//! still has, and every `prkb-wire/vN` the documents and sources name is
//! the version the protocol writes.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Section numbers cited as `DESIGN.md §N` or `DESIGN §N` in `text`.
fn citations(text: &str) -> Vec<u32> {
    let mut cited = Vec::new();
    for marker in ["DESIGN.md §", "DESIGN §"] {
        for (at, _) in text.match_indices(marker) {
            let digits: String = text[at + marker.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            cited.extend(digits.parse::<u32>());
        }
    }
    cited
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("list source dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn collect(dir: &Path, cited: &mut Vec<(String, u32)>) {
    let mut files = Vec::new();
    rust_sources(dir, &mut files);
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read source");
        let file = path.display().to_string();
        cited.extend(citations(&text).into_iter().map(|n| (file.clone(), n)));
    }
}

#[test]
fn every_design_citation_names_a_section_that_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let sections: BTreeSet<u32> = design
        .lines()
        .filter_map(|line| line.strip_prefix("## ")?.split_once('.')?.0.parse().ok())
        .collect();
    assert!(sections.contains(&11), "§11 is cited from prkb_e2e/src");

    let mut cited = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "prkb_e2e/src"] {
        collect(&root.join(dir), &mut cited);
    }
    assert!(cited.len() >= 10, "the scan found the citations: {cited:?}");
    for (file, n) in cited {
        assert!(
            sections.contains(&n),
            "{file} cites DESIGN.md §{n}; DESIGN.md has sections {sections:?}"
        );
    }
}

/// Every `prkb-<crate>::<module>` named in `text`.
fn module_paths(text: &str) -> Vec<(String, String)> {
    let word = |s: &str| -> String {
        s.chars()
            .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
            .collect()
    };
    let mut named = Vec::new();
    for (at, _) in text.match_indices("prkb-") {
        let rest = &text[at + "prkb-".len()..];
        let krate = word(rest);
        if let Some(path) = rest[krate.len()..].strip_prefix("::") {
            named.push((krate, word(path)));
        }
    }
    named
}

#[test]
fn every_named_module_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for doc in ["DESIGN.md", "PAPER.md", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("read the document");
        for (krate, module) in module_paths(&text) {
            let src = root.join("crates").join(&krate).join("src");
            let exists = src.join(format!("{module}.rs")).is_file() || src.join(&module).is_dir();
            assert!(
                exists,
                "{doc} names prkb-{krate}::{module}, but crates/{krate}/src has no {module}.rs or {module}/"
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "the scan found the module paths");
}

/// Every `Type::method` named in README.md and DESIGN.md, for the types
/// whose methods the documents walk a reader through, is a `fn` in that
/// type's source file — so deleting or renaming a method cannot leave a
/// document pointing at it.
#[test]
fn every_named_method_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let types = [
        ("PrkbEngine", "crates/core/src/engine.rs"),
        ("SessionScheduler", "crates/core/src/scheduler.rs"),
        ("PrkbClient", "crates/server/src/client.rs"),
        ("SecureDb", "src/secure_db.rs"),
    ];
    let mut checked = 0;
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("read the document");
        for (ty, file) in types {
            let source = std::fs::read_to_string(root.join(file)).expect("read the source");
            let marker = format!("{ty}::");
            for (at, _) in text.match_indices(&marker) {
                let method: String = text[at + marker.len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
                    .collect();
                if method.is_empty() {
                    continue;
                }
                let defined = ["(", "<"]
                    .iter()
                    .any(|open| source.contains(&format!("fn {method}{open}")));
                assert!(
                    defined,
                    "{doc} names {ty}::{method}, but {file} has no fn {method}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 5, "the scan found the method names ({checked})");
}

/// Every `prkb-wire/v<N>` in the README, DESIGN.md and the product and
/// example sources names the version `proto.rs` writes, so a version bump
/// cannot leave a stale one behind. CHANGES.md and ROADMAP.md are history,
/// and `prkb_e2e/` is read, never edited; neither is scanned.
#[test]
fn every_wire_version_named_is_the_one_the_protocol_writes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let proto = std::fs::read_to_string(root.join("crates/server/src/proto.rs")).expect("proto");
    let version: u32 = proto
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix("pub(crate) const PROTO_VERSION: u8 = ")?;
            rest.strip_suffix(';')?.parse().ok()
        })
        .expect("proto.rs declares PROTO_VERSION");

    let mut files = vec![root.join("README.md"), root.join("DESIGN.md")];
    for entry in std::fs::read_dir(root.join("crates")).expect("list crates") {
        rust_sources(&entry.expect("entry").path().join("src"), &mut files);
    }
    rust_sources(&root.join("src"), &mut files);
    rust_sources(&root.join("examples"), &mut files);
    let mut named = 0;
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read");
        for (at, marker) in text.match_indices("prkb-wire/v") {
            let digits: String = text[at + marker.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            assert_eq!(
                digits.parse::<u32>().ok(),
                Some(version),
                "{} names prkb-wire/v{digits}; the protocol writes v{version}",
                path.display()
            );
            named += 1;
        }
    }
    assert!(named >= 10, "the scan found the version strings ({named})");
}
