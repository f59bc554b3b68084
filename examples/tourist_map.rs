//! The paper's §8.2.6 use case: a tourist app querying an encrypted
//! US-buildings table for everything in a 1 km × 1 km window around a
//! location, served with PRKB(MD) 2-D range processing.
//!
//! Run with: `cargo run --example tourist_map --release`

use prkb::core::{EngineConfig, PrkbEngine};
use prkb::datagen::realsim::{self, COORD_SCALE};
use prkb::edbms::{ComparisonOp, DataOwner, PlainTable, Predicate, Schema, SpOracle, TmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WINDOW: u64 = 9 * COORD_SCALE / 1000; // ≈ 1 km (0.009°)

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let n = 150_000;
    let (lat, lon) = realsim::us_buildings(n, 3);

    let schema = Schema::new("buildings", &["lat", "lon"]);
    let plain = PlainTable::from_columns(schema, vec![lat.clone(), lon.clone()])
        .expect("rectangular columns");
    let owner = DataOwner::with_seed(5);
    let table = owner.encrypt_table(&plain, &mut rng);
    let tm = owner.trusted_machine(TmConfig::default());
    let oracle = SpOracle::new(&table, &tm);

    let mut engine: PrkbEngine<_> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, n);
    engine.init_attr(1, n);

    println!("tourist session: 30 map-window queries over {n} encrypted buildings\n");
    println!(
        "{:>5} {:>12} {:>10} {:>10}",
        "visit", "buildings", "QPF uses", "k (lat+lon)"
    );
    let mut total_qpf = 0u64;
    for visit in 1..=30 {
        // The tourist walks to a random building and asks what's nearby.
        let c = rng.gen_range(0..n);
        let (cy, cx) = (lat[c], lon[c]);
        let ylo = cy.saturating_sub(WINDOW / 2);
        let xlo = cx.saturating_sub(WINDOW / 2);

        let dims = [
            [
                owner
                    .trapdoor(
                        "buildings",
                        &Predicate::cmp(0, ComparisonOp::Gt, ylo.saturating_sub(1)),
                        &mut rng,
                    )
                    .expect("valid"),
                owner
                    .trapdoor(
                        "buildings",
                        &Predicate::cmp(0, ComparisonOp::Lt, cy + WINDOW / 2 + 1),
                        &mut rng,
                    )
                    .expect("valid"),
            ],
            [
                owner
                    .trapdoor(
                        "buildings",
                        &Predicate::cmp(1, ComparisonOp::Gt, xlo.saturating_sub(1)),
                        &mut rng,
                    )
                    .expect("valid"),
                owner
                    .trapdoor(
                        "buildings",
                        &Predicate::cmp(1, ComparisonOp::Lt, cx + WINDOW / 2 + 1),
                        &mut rng,
                    )
                    .expect("valid"),
            ],
        ];
        let sel = engine.select_where(&oracle, dims.as_flattened(), &mut rng);
        total_qpf += sel.stats.qpf_uses;
        let k: usize = (0..2)
            .map(|a| engine.knowledge(a).map_or(0, |kb| kb.k()))
            .sum();
        println!(
            "{:>5} {:>12} {:>10} {:>10}",
            visit,
            sel.tuples.len(),
            sel.stats.qpf_uses,
            k
        );
    }
    println!(
        "\ntotal QPF: {total_qpf}; an index-less EDBMS would have paid up to {} \
         per query ({}x the whole session).",
        4 * n,
        (4 * n as u64 * 30) / total_qpf.max(1)
    );
    println!(
        "coordinates are fixed-point 1e-5° ({} units/degree); window {} units ≈ 1 km.",
        COORD_SCALE, WINDOW
    );
}
