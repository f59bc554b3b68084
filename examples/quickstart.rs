//! Quickstart: the full encrypted pipeline on one attribute.
//!
//! A data owner encrypts a salary table and uploads it; the service
//! provider answers range selections through the trusted machine's QPF,
//! using PRKB to avoid re-paying full scans for every query.
//!
//! Run with: `cargo run --example quickstart --release`

use prkb::core::{EngineConfig, PrkbEngine};
use prkb::datagen::realsim;
use prkb::edbms::{
    ComparisonOp, DataOwner, PlainTable, Predicate, SelectionOracle, SpOracle, TmConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // ---- Data owner side -------------------------------------------------
    let salaries = realsim::labor_salaries(100_000, 1);
    let plain = PlainTable::single_column("payroll", "salary", salaries);
    let owner = DataOwner::with_seed(42);
    let encrypted = owner.encrypt_table(&plain, &mut rng);
    println!(
        "encrypted {} tuples ({} KiB of ciphertext)",
        encrypted.len(),
        encrypted.storage_bytes() / 1024
    );

    // ---- Service provider side -------------------------------------------
    // The TM holds the owner's key; the SP only sees ciphertext + QPF bits.
    let tm = owner.trusted_machine(TmConfig::default());
    let oracle = SpOracle::new(&encrypted, &tm);
    let mut engine: PrkbEngine<_> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, encrypted.len());

    // ---- Queries ----------------------------------------------------------
    println!(
        "\n{:>4} {:>28} {:>10} {:>9}",
        "#", "query", "matches", "QPF uses"
    );
    // Salaries are fixed-point tenths of a dollar (realsim granularity).
    let queries = [
        Predicate::cmp(0, ComparisonOp::Lt, 400_000),   // < $40k
        Predicate::cmp(0, ComparisonOp::Gt, 1_000_000), // > $100k
        Predicate::between(0, 450_000, 550_000),        // $45k..$55k
        Predicate::cmp(0, ComparisonOp::Lt, 420_000),
        Predicate::cmp(0, ComparisonOp::Ge, 950_000),
        Predicate::between(0, 470_000, 520_000),
        Predicate::cmp(0, ComparisonOp::Lt, 410_000),
        Predicate::cmp(0, ComparisonOp::Le, 990_000),
    ];
    for (i, q) in queries.iter().enumerate() {
        let trapdoor = owner
            .trapdoor("payroll", q, &mut rng)
            .expect("valid predicate");
        let sel = engine.select(&oracle, &trapdoor, &mut rng);
        println!(
            "{:>4} {:>28} {:>10} {:>9}",
            i + 1,
            format!("{q:?}").chars().take(28).collect::<String>(),
            sel.tuples.len(),
            sel.stats.qpf_uses
        );
    }

    // A session of everyday queries: watch the QPF cost collapse as PRKB
    // accumulates cuts (the paper's Fig. 8 effect, live).
    println!("\n{:>7} {:>10} {:>9}", "query#", "matches", "QPF uses");
    for i in 0..40u64 {
        let bound = 200_000 + (i * 73_123) % 1_800_000;
        let q = Predicate::cmp(0, ComparisonOp::Lt, bound);
        let trapdoor = owner
            .trapdoor("payroll", &q, &mut rng)
            .expect("valid predicate");
        let sel = engine.select(&oracle, &trapdoor, &mut rng);
        if (i + 1) % 5 == 0 {
            println!(
                "{:>7} {:>10} {:>9}",
                i + 9,
                sel.tuples.len(),
                sel.stats.qpf_uses
            );
        }
    }

    let k = engine.knowledge(0).map_or(0, |kb| kb.k());
    println!(
        "\nPRKB now holds {k} partitions in {} KiB; a PRKB-less EDBMS would \
         have paid {} QPF uses per query.",
        engine.storage_bytes() / 1024,
        encrypted.len()
    );
    println!("total QPF uses spent: {}", oracle.qpf_uses());

    // ---- SQL front-end ------------------------------------------------------
    let parsed = prkb::edbms::parse_sql(
        "SELECT * FROM payroll WHERE salary BETWEEN 480_000 AND 520_000",
        [plain.schema()],
    )
    .expect("valid SQL");
    let trapdoors: Vec<_> = parsed
        .predicates
        .iter()
        .map(|p| {
            owner
                .trapdoor("payroll", p, &mut rng)
                .expect("valid predicate")
        })
        .collect();
    let sel = engine.select_where(&oracle, &trapdoors, &mut rng);
    println!(
        "\nSQL: salaries in [$48k, $52k] → {} matches ({} QPF)",
        sel.tuples.len(),
        sel.stats.qpf_uses
    );

    // ---- Persistence --------------------------------------------------------
    // The SP can snapshot the index (its canonical serialized form) and
    // restore it after a restart — no re-warming needed.
    let snap = prkb::core::snapshot::save(engine.knowledge(0).expect("attr indexed"));
    let restored = prkb::core::snapshot::load::<prkb::edbms::EncryptedPredicate>(&snap)
        .expect("snapshot roundtrip");
    println!(
        "snapshot: {} KiB on disk, restores to k = {} partitions",
        snap.len() / 1024,
        restored.k()
    );
}
