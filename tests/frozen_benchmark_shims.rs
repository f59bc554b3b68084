//! Every `#[doc(hidden)]` item in the product crates is a shim kept for the
//! frozen benchmark adapter under `prkb_e2e/src`, and [`SHIMS`] names each
//! one with the `prkb_e2e/src` token that needs it. The test fails when
//! - a hidden item is not on the list: a new shim says what needs it;
//! - a listed token is gone from `prkb_e2e/src`: nothing needs that shim
//!   any more, so the change to the benchmark that dropped the call
//!   deletes it;
//! - a listed item is no longer a hidden item: its entry goes.

mod product_src;

use std::collections::BTreeSet;

/// `(source file, hidden item, the prkb_e2e/src token that needs it)`.
const SHIMS: [(&str, &str, &str); 17] = [
    (
        "crates/edbms/src/oracle.rs",
        "with_threads",
        ".with_threads(",
    ),
    (
        "crates/edbms/src/durability.rs",
        "CrashInjector",
        "CrashInjector::disabled()",
    ),
    ("crates/edbms/src/trusted.rs", "eval", ".eval(table.cell("),
    ("crates/core/src/lib.rs", "ShardMap", "ShardMap"),
    ("crates/core/src/scheduler.rs", "ShardMap", "ShardMap::new("),
    ("crates/core/src/scheduler.rs", "new", "ShardMap::new("),
    ("crates/core/src/scheduler.rs", "shards", ".shards()"),
    (
        "crates/core/src/scheduler.rs",
        "with_shards",
        "SessionScheduler::with_shards(",
    ),
    (
        "crates/core/src/scheduler.rs",
        "DeadlineOracle",
        "DeadlineOracle::new(",
    ),
    (
        "crates/core/src/durability.rs",
        "open_with_storage",
        "ShardedDurablePool::open_with_storage(",
    ),
    ("crates/core/src/durability.rs", "map", "pool.map()"),
    (
        "crates/core/src/durability.rs",
        "shard_engine",
        ".shard_engine(",
    ),
    (
        "crates/core/src/engine.rs",
        "try_select_range_md",
        ".try_select_range_md(",
    ),
    (
        "crates/server/src/lib.rs",
        "DeadlineOracle",
        "prkb_server::scheduler::{DeadlineOracle",
    ),
    ("crates/server/src/client.rs", "select", "client.select("),
    ("crates/server/src/client.rs", "between", "client.between("),
    (
        "crates/server/src/client.rs",
        "select_range_md",
        "client.select_range_md(",
    ),
];

/// The name(s) an item line declares: `pub fn new(` → `new`,
/// `pub struct X;` → `X`, `pub use a::{B, C};` → `B`, `C`.
fn declared(item: &str) -> Vec<String> {
    let ident = |s: &str| {
        (s.chars())
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect::<String>()
    };
    let mut rest = item.trim();
    for prefix in ["pub(crate) ", "pub "] {
        rest = rest.strip_prefix(prefix).unwrap_or(rest);
    }
    if let Some(path) = rest.strip_prefix("use ") {
        let path = path.trim_end_matches(';');
        return match path.split_once('{') {
            Some((_, names)) => (names.trim_end_matches('}').split(','))
                .map(|n| ident(n.trim()))
                .filter(|n| !n.is_empty())
                .collect(),
            None => vec![ident(path.rsplit("::").next().expect("a last segment"))],
        };
    }
    // The name is the first word after a keyword that is not one itself:
    // `const fn f` declares `f`.
    let keywords = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let words: Vec<&str> = rest.split_whitespace().collect();
    let name = (words.windows(2))
        .find(|w| keywords.contains(&w[0]) && !keywords.contains(&w[1]))
        .map(|w| ident(w[1]));
    vec![name.unwrap_or_else(|| panic!("no item declared on `{item}`"))]
}

/// `(source file, name)` of every `#[doc(hidden)]` item in the product
/// sources.
fn hidden_items() -> BTreeSet<(String, String)> {
    let root = format!("{}/", product_src::root().display());
    let mut items = BTreeSet::new();
    for hit in product_src::hits(&["#[doc(hidden)]"]) {
        let (at, _) = hit.rsplit_once(": ").expect("path:line: needle");
        let (path, line) = at.rsplit_once(':').expect("path:line");
        let text = std::fs::read_to_string(path).expect("read source");
        let line: usize = line.parse().expect("a line number");
        let mut lines = text.lines().map(str::trim).skip(line - 1);
        let Some(after) = lines.next().and_then(|l| l.strip_prefix("#[doc(hidden)]")) else {
            continue; // prose that names the attribute
        };
        // The item is on the same line, or the first line after the
        // attribute that is not another attribute or a doc comment.
        let item = match after.trim() {
            "" => (lines.find(|l| !l.starts_with("#[") && !l.starts_with("///")))
                .expect("an item follows the attribute"),
            same_line => same_line,
        };
        let file = path.strip_prefix(&root).expect("under the root");
        for name in declared(item) {
            items.insert((file.to_string(), name));
        }
    }
    items
}

/// The text of every `.rs` file under `prkb_e2e/src`.
fn benchmark_src() -> String {
    let dir = product_src::root().join("prkb_e2e/src");
    let mut text = String::new();
    let mut dirs = vec![dir];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("list prkb_e2e/src") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                text += &std::fs::read_to_string(&path).expect("read benchmark source");
            }
        }
    }
    text
}

#[test]
fn every_hidden_item_is_a_listed_shim() {
    let listed: BTreeSet<(String, String)> = (SHIMS.iter())
        .map(|(file, name, _)| (file.to_string(), name.to_string()))
        .collect();
    let hidden = hidden_items();
    let unlisted: Vec<_> = hidden.difference(&listed).collect();
    assert!(
        unlisted.is_empty(),
        "#[doc(hidden)] items with no entry in SHIMS (name the prkb_e2e/src \
         token that needs each, or make it a documented item): {unlisted:?}"
    );
    let stale: Vec<_> = listed.difference(&hidden).collect();
    assert!(
        stale.is_empty(),
        "SHIMS entries that are no longer #[doc(hidden)] items (delete the \
         entries): {stale:?}"
    );
}

#[test]
fn every_listed_shim_is_still_needed_by_the_benchmark() {
    let text = benchmark_src();
    let unneeded: Vec<_> = (SHIMS.iter())
        .filter(|(_, _, token)| !text.contains(token))
        .map(|(file, name, token)| format!("{file}: {name} (token `{token}`)"))
        .collect();
    assert!(
        unneeded.is_empty(),
        "prkb_e2e/src no longer calls these shims; delete them and their \
         entries:\n{}",
        unneeded.join("\n")
    );
}
