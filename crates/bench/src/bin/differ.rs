//! `differ` — differential stress harness.
//!
//! Runs endless random workloads (mixed operators, BETWEENs,
//! multi-dimensional rectangles, inserts, deletions) on the real encrypted
//! pipeline and cross-checks three executors on every query:
//! PRKB engine vs index-less Baseline vs plaintext ground truth.
//! Exits non-zero on the first divergence, printing a reproducer seed.
//!
//! ```text
//! cargo run -p prkb-bench --bin differ --release -- [rounds] [seed]
//! ```

use prkb_bench::harness::EncSetup;
use prkb_core::{EngineConfig, PrkbEngine};
use prkb_datagen::synthetic;
use prkb_edbms::select::conjunctive_scan;
use prkb_edbms::{ComparisonOp, EncryptedPredicate, Predicate, SpOracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DOMAIN: u64 = 1_000_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rounds: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(200);
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_secs()
    });
    eprintln!("differ: {rounds} rounds, seed {seed} (pass the seed to reproduce)");

    let mut rng = StdRng::seed_from_u64(seed);
    let n = 3_000usize;
    let d = 2usize;
    let mut cols: Vec<Vec<u64>> = (0..d)
        .map(|a| {
            synthetic::column_from(
                &prkb_datagen::Distribution::Uniform { lo: 0, hi: DOMAIN },
                n,
                seed ^ a as u64,
            )
        })
        .collect();
    let mut setup = EncSetup::new("differ", cols.clone(), seed);
    let mut live: Vec<bool> = vec![true; n];

    let mut engine: PrkbEngine<EncryptedPredicate> = PrkbEngine::new(EngineConfig::default());
    for a in 0..d {
        engine.init_attr(a as u32, n);
    }

    let mut checked = 0usize;
    for round in 0..rounds {
        match rng.gen_range(0..10) {
            // Insert (20%).
            0 | 1 => {
                let row: Vec<u64> = (0..d).map(|_| rng.gen_range(0..=DOMAIN)).collect();
                let cells = setup.owner.encrypt_row("differ", &row, &mut rng);
                let refs: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
                let t = setup.table.push_encrypted_row(&refs).expect("arity");
                for (a, v) in row.iter().enumerate() {
                    cols[a].push(*v);
                }
                live.push(true);
                let oracle = SpOracle::new(&setup.table, &setup.tm);
                engine.insert(&oracle, t);
            }
            // Delete (10%).
            2 => {
                let alive: Vec<u32> = (0..live.len() as u32)
                    .filter(|&t| live[t as usize])
                    .collect();
                if alive.len() > 10 {
                    let victim = alive[rng.gen_range(0..alive.len())];
                    setup.table.delete(victim).expect("live tuple");
                    live[victim as usize] = false;
                    engine.delete(victim);
                }
            }
            // Random conjunction (70%).
            _ => {
                let n_preds = rng.gen_range(1..=4);
                let preds: Vec<Predicate> = (0..n_preds)
                    .map(|_| {
                        let attr = rng.gen_range(0..d as u32);
                        if rng.gen_bool(0.25) {
                            let lo = rng.gen_range(0..DOMAIN);
                            Predicate::between(
                                attr,
                                lo,
                                (lo + rng.gen_range(0..DOMAIN / 4)).min(DOMAIN),
                            )
                        } else {
                            let op = ComparisonOp::ALL[rng.gen_range(0..4)];
                            Predicate::cmp(attr, op, rng.gen_range(0..=DOMAIN))
                        }
                    })
                    .collect();
                let trapdoors: Vec<EncryptedPredicate> = preds
                    .iter()
                    .map(|p| setup.owner.trapdoor("differ", p, &mut rng).expect("valid"))
                    .collect();

                let oracle = SpOracle::new(&setup.table, &setup.tm);
                let mut got = engine.select_where(&oracle, &trapdoors, &mut rng);
                got.tuples.sort_unstable();

                let mut baseline = conjunctive_scan(&oracle, &trapdoors);
                baseline.sort_unstable();

                let expected: Vec<u32> = (0..live.len() as u32)
                    .filter(|&t| {
                        live[t as usize]
                            && preds
                                .iter()
                                .all(|p| p.eval(cols[p.attr() as usize][t as usize]))
                    })
                    .collect();

                if got.tuples != expected || baseline != expected {
                    eprintln!("DIVERGENCE at round {round} (seed {seed})");
                    eprintln!("predicates: {preds:?}");
                    eprintln!(
                        "engine: {} tuples, baseline: {}, expected: {}",
                        got.tuples.len(),
                        baseline.len(),
                        expected.len()
                    );
                    std::process::exit(1);
                }
                checked += 1;
            }
        }
        if (round + 1) % 50 == 0 {
            eprintln!(
                "round {}/{rounds}: {checked} conjunctions verified, k = {:?}",
                round + 1,
                (0..d as u32)
                    .map(|a| engine.knowledge(a).map_or(0, |k| k.k()))
                    .collect::<Vec<_>>()
            );
        }
    }
    println!("differ: OK — {checked} conjunctions verified across {rounds} rounds (seed {seed})");
}
