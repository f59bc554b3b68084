//! A living OLTP-ish table: an encrypted sales ledger with range analytics,
//! BETWEEN reports, and a stream of inserts and deletions — showing that
//! PRKB stays consistent and cheap while the database changes (paper §7).
//!
//! Run with: `cargo run --example sales_analytics --release`

use prkb::core::{EngineConfig, PrkbEngine};
use prkb::datagen::Distribution;
use prkb::edbms::{ComparisonOp, DataOwner, PlainTable, Predicate, Schema, SpOracle, TmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let n = 60_000usize;

    // amount (cents, heavy-tailed), quantity, day-of-year.
    let amount = Distribution::LogNormal {
        mu: 9.2,
        sigma: 0.9,
        lo: 100,
        hi: 10_000_000,
    }
    .sample_n(&mut rng, n);
    let quantity = Distribution::Zipf {
        n: 50,
        s: 1.2,
        lo: 1,
        hi: 50,
    }
    .sample_n(&mut rng, n);
    let day = Distribution::Uniform { lo: 1, hi: 365 }.sample_n(&mut rng, n);

    let schema = Schema::new("sales", &["amount", "quantity", "day"]);
    let plain =
        PlainTable::from_columns(schema, vec![amount, quantity, day]).expect("rectangular columns");
    let owner = DataOwner::with_seed(77);
    let mut table = owner.encrypt_table(&plain, &mut rng);
    let tm = owner.trusted_machine(TmConfig::default());

    let mut engine: PrkbEngine<_> = PrkbEngine::new(EngineConfig::default());
    for a in 0..3 {
        engine.init_attr(a, n);
    }

    // --- Morning reports ----------------------------------------------------
    println!("-- morning reports --");
    let reports = [
        (
            "big tickets (> $5k)",
            Predicate::cmp(0, ComparisonOp::Gt, 500_000),
        ),
        ("Q4 (day 274..365)", Predicate::between(2, 274, 365)),
        (
            "bulk orders (qty ≥ 20)",
            Predicate::cmp(1, ComparisonOp::Ge, 20),
        ),
        ("mid-range ($20–$80)", Predicate::between(0, 2_000, 8_000)),
    ];
    for (label, q) in &reports {
        let trapdoor = owner
            .trapdoor("sales", q, &mut rng)
            .expect("valid predicate");
        let oracle = SpOracle::new(&table, &tm);
        let sel = engine.select(&oracle, &trapdoor, &mut rng);
        println!(
            "{label:<26} {:>7} rows  ({} QPF)",
            sel.tuples.len(),
            sel.stats.qpf_uses
        );
    }

    // --- An analyst explores (and unknowingly warms the index) --------------
    println!("\n-- analyst exploration: 75 ad-hoc range queries --");
    let mut explore_cost = 0u64;
    for i in 0..75u64 {
        let attr = (i % 3) as u32;
        let (lo, hi) = match attr {
            0 => {
                // Amounts are lognormal around $99 (9,900 cents): explore
                // the dense band.
                let lo = (i * 13_107) % 150_000;
                (lo, lo + 20_000)
            }
            1 => {
                let lo = (i * 7) % 40;
                (lo, lo + 8)
            }
            _ => {
                let lo = (i * 37) % 300;
                (lo, lo + 45)
            }
        };
        // Alternate ranges and one-sided comparisons: a BETWEEN whose both
        // cuts land inside one partition cannot refine the index (Appendix
        // A's exceptional case), so an all-BETWEEN workload on a cold index
        // would never warm up — comparisons always can.
        let q = if i % 2 == 0 {
            Predicate::between(attr, lo, hi)
        } else {
            Predicate::cmp(attr, ComparisonOp::Lt, hi)
        };
        let trapdoor = owner
            .trapdoor("sales", &q, &mut rng)
            .expect("valid predicate");
        let oracle = SpOracle::new(&table, &tm);
        explore_cost += engine.select(&oracle, &trapdoor, &mut rng).stats.qpf_uses;
    }
    println!(
        "exploration spent {explore_cost} QPF; index now holds {} partitions",
        (0..3)
            .map(|a| engine.knowledge(a).map_or(0, |k| k.k()))
            .sum::<usize>()
    );

    // --- The day's trades stream in -----------------------------------------
    println!("\n-- intraday: 5,000 inserts + 1,000 cancellations --");
    let mut live: Vec<u32> = (0..n as u32).collect();
    for _ in 0..5_000 {
        let row = [
            rng.gen_range(100..10_000_000u64),
            rng.gen_range(1..=50u64),
            rng.gen_range(1..=365u64),
        ];
        let cells = owner.encrypt_row("sales", &row, &mut rng);
        let cell_refs: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
        let t = table.push_encrypted_row(&cell_refs).expect("arity matches");
        let oracle = SpOracle::new(&table, &tm);
        engine.insert(&oracle, t);
        live.push(t);
    }
    for _ in 0..1_000 {
        let victim = live.swap_remove(rng.gen_range(0..live.len()));
        table.delete(victim).expect("live tuple");
        engine.delete(victim);
    }
    println!("table now holds {} live tuples", table.live_count());

    // --- Evening reports: unchanged API, index still warm -------------------
    println!("\n-- evening reports --");
    for (label, q) in &reports {
        let trapdoor = owner
            .trapdoor("sales", q, &mut rng)
            .expect("valid predicate");
        let oracle = SpOracle::new(&table, &tm);
        let sel = engine.select(&oracle, &trapdoor, &mut rng);
        println!(
            "{label:<26} {:>7} rows  ({} QPF)",
            sel.tuples.len(),
            sel.stats.qpf_uses
        );
    }

    // --- Extension queries (paper §9 future work) ----------------------------
    // Min/Max/Top-m and skyline candidates come straight from the POPs the
    // range queries already built — no extra QPF to produce the sets.
    let kb_amount = engine.knowledge(0).expect("amount indexed");
    let kb_qty = engine.knowledge(1).expect("quantity indexed");
    let top = prkb::core::extremes::top_m_candidates(kb_amount, 10);
    let sky = prkb::core::skyline::skyline_candidates(kb_amount, kb_qty, table.len());
    println!(
        "\n-- extension queries --\n\
         top/bottom-10 ticket candidates: {:>6} of {} tuples (TM resolves the rest)\n\
         (amount, quantity) skyline candidates: {:>6} of {} tuples",
        top.len(),
        table.live_count(),
        sky.len(),
        table.live_count()
    );

    println!(
        "\nindex: {} partitions across 3 attributes, {} KiB total",
        (0..3)
            .map(|a| engine.knowledge(a).map_or(0, |k| k.k()))
            .sum::<usize>(),
        engine.storage_bytes() / 1024
    );
}
