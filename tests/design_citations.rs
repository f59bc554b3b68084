//! Every `DESIGN.md §N` / `DESIGN §N` in a source comment names a section
//! DESIGN.md has, so renumbering the document cannot strand the comments
//! that point into it. `prkb_e2e/src/` is read, never edited: it cites §11
//! for "stats are an observation of the algorithm". Likewise every
//! `prkb-<crate>::<module>` the documents name is a module that exists.

use std::collections::BTreeSet;
use std::path::Path;

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

fn collect(dir: &Path, cited: &mut Vec<(String, u32)>) {
    for entry in std::fs::read_dir(dir).expect("list source dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            collect(&path, cited);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("read source");
            let file = path.display().to_string();
            cited.extend(citations(&text).into_iter().map(|n| (file.clone(), n)));
        }
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
