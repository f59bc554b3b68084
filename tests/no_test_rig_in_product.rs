//! The product crates keep the fault seams — `SelectionOracle`,
//! `StorageFs`, the TCP stream — and not the code that drives them in
//! tests. The injectors live in `crates/sim` (`prkb-sim`), which only
//! `[dev-dependencies]` name, so no product build links them and no product
//! source mentions them. A crash is a storage fault (a cut in `FaultFs`'s op
//! stream), so there is no crash seam: no crash points, no hooks, no crash
//! error. `CrashInjector` survives only as a one-value stand-in that the
//! benchmark adapter passes to `open_with_storage`, which ignores it.

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
        "CrashPoint",
        "PublishHooks",
        "at_nth",
        "DurabilityError::Crash",
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

#[test]
fn crash_injector_is_only_the_benchmark_shim() {
    // Defined (docs, a field-less struct, its one value), imported, and
    // taken as an ignored parameter — nothing that could arm a crash.
    let allowed = |line: &str| {
        line.starts_with("///")
            || line.starts_with("use ")
            || line.starts_with("pub use ")
            || [
                "pub struct CrashInjector;",
                "impl CrashInjector {",
                "CrashInjector",
                "_: CrashInjector,",
            ]
            .contains(&line)
    };
    let mut hits = Vec::new();
    for (path, text) in product_src::sources() {
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.contains("CrashInjector") && !allowed(line) {
                hits.push(format!("{}:{}: {line}", path.display(), i + 1));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "CrashInjector is a one-value shim for open_with_storage's ignored argument:\n{}",
        hits.join("\n")
    );
}
