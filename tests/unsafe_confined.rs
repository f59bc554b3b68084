//! `unsafe` lives in exactly two product files: the epoll syscall shim
//! (`crates/server/src/epoll.rs`) and `crates/crypto/src/arch.rs`, which
//! holds the AVX2 / AVX-512F ChaCha20 and SipHash lane kernels and, beside
//! them, the cache prefetch hint an oracle batch issues for its next
//! passes' cells. Their crates `deny(unsafe_code)` and let only that module
//! in; every other product crate forbids it.

mod product_src;

use std::collections::BTreeSet;

const UNSAFE_FILES: [&str; 2] = ["crates/crypto/src/arch.rs", "crates/server/src/epoll.rs"];

/// The repository-relative file of a `path:line: needle` hit.
fn file_of(hit: &str) -> String {
    let root = format!("{}/", product_src::root().display());
    let path = hit.split(':').next().expect("a hit names its file");
    path.strip_prefix(&root).unwrap_or(path).to_string()
}

#[test]
fn only_the_two_kernel_files_name_unsafe() {
    let hits = product_src::hits(&[
        "unsafe {",
        "unsafe fn",
        "unsafe impl",
        "unsafe trait",
        "unsafe extern",
        "unsafe(",
    ]);
    let files: BTreeSet<String> = hits.iter().map(|h| file_of(h)).collect();
    assert_eq!(
        files.into_iter().collect::<Vec<_>>(),
        UNSAFE_FILES,
        "product files using `unsafe`:\n{}",
        hits.join("\n")
    );
}

#[test]
fn only_the_two_kernel_modules_are_let_in() {
    let files: BTreeSet<String> = product_src::hits(&["allow(unsafe_code"])
        .iter()
        .map(|h| file_of(h))
        .collect();
    // The crypto root lets in `mod arch` alone; epoll opts in from inside.
    assert_eq!(
        files.into_iter().collect::<Vec<_>>(),
        ["crates/crypto/src/lib.rs", "crates/server/src/epoll.rs"]
    );
    let crypto = std::fs::read_to_string(product_src::root().join("crates/crypto/src/lib.rs"))
        .expect("read crypto root");
    assert!(
        crypto.contains("#[allow(unsafe_code)]\nmod arch;"),
        "the crypto root's allow sits on `mod arch`"
    );
    for dir in product_src::PRODUCT_SRC {
        let lib = product_src::root().join(dir).join("lib.rs");
        let text = std::fs::read_to_string(&lib).expect("read crate root");
        let lint = if UNSAFE_FILES.iter().any(|f| f.starts_with(dir)) {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        assert!(text.contains(lint), "{} lacks {lint}", lib.display());
    }
}
