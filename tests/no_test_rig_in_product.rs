//! The product crates keep the fault seams — `SelectionOracle`,
//! `StorageFs`, the TCP stream, `CrashInjector` — and not the code that
//! drives them in tests. The injectors live in `crates/sim` (`prkb-sim`),
//! which only `[dev-dependencies]` name, so no product build links them and
//! no product source mentions them.

mod product_src;

use std::path::Path;

#[test]
fn product_src_names_no_fault_injector() {
    let hits = product_src::hits(&[
        "FaultInjector",
        "FaultFs",
        "ChaosProxy",
        "FaultPlan",
        "RetryOracle",
    ]);
    assert!(
        hits.is_empty(),
        "fault injectors belong to prkb-sim, not to product code:\n{}",
        hits.join("\n")
    );
}

#[test]
fn product_manifests_name_prkb_sim_only_as_a_dev_dependency() {
    let mut hits = Vec::new();
    for dir in product_src::PRODUCT_SRC {
        let crate_dir = Path::new(dir).parent().expect("a src/ has a crate");
        let manifest = product_src::root().join(crate_dir).join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        let mut section = "";
        for (i, line) in text.lines().map(str::trim).enumerate() {
            if line.starts_with('[') {
                section = line;
            }
            let names_sim = line.starts_with("prkb-sim")
                || (line.starts_with('[') && line.contains("prkb-sim"));
            // The root's workspace table declares the path members resolve.
            let allowed =
                section.starts_with("[dev-dependencies") || section == "[workspace.dependencies]";
            if names_sim && !allowed {
                hits.push(format!("{}:{}: {line}", manifest.display(), i + 1));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "prkb-sim is test code; only [dev-dependencies] may name it:\n{}",
        hits.join("\n")
    );
}
