//! Security-relevant observable properties of the pipeline (paper §3.3):
//! ciphertext unlinkability, operator hiding inside trapdoors, and PRKB
//! adding no leakage beyond what the EDBMS already reveals.

use prkb::analysis::OrderRecovery;
use prkb::core::{EngineConfig, PrkbEngine};
use prkb::edbms::{
    ComparisonOp, DataOwner, PlainTable, Predicate, PredicateKind, SpOracle, TmConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn equal_plaintexts_produce_unlinkable_ciphertexts() {
    let mut rng = StdRng::seed_from_u64(1);
    let owner = DataOwner::with_seed(1);
    let plain = PlainTable::single_column("t", "x", vec![42; 50]);
    let table = owner.encrypt_table(&plain, &mut rng);
    let mut seen = std::collections::HashSet::new();
    for t in 0..50u32 {
        assert!(
            seen.insert(table.cell(0, t).expect("cell").to_vec()),
            "two equal plaintexts encrypted identically"
        );
    }
}

#[test]
fn trapdoors_hide_the_operator_and_bound() {
    // All four comparison operators produce trapdoors with identical
    // SP-visible structure: same kind, same payload length; payload bytes
    // are randomized even for the same predicate.
    let mut rng = StdRng::seed_from_u64(2);
    let owner = DataOwner::with_seed(2);
    let mut payload_lens = std::collections::HashSet::new();
    for op in ComparisonOp::ALL {
        let p = owner
            .trapdoor("t", &Predicate::cmp(0, op, 12345), &mut rng)
            .expect("valid");
        assert_eq!(p.kind(), PredicateKind::Comparison);
        payload_lens.insert(p.storage_bytes());
    }
    assert_eq!(payload_lens.len(), 1, "operators distinguishable by size");

    let a = owner
        .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, 7), &mut rng)
        .expect("valid");
    let b = owner
        .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, 7), &mut rng)
        .expect("valid");
    assert_ne!(a, b, "identical predicates must be unlinkable");
}

#[test]
fn prkb_knowledge_equals_attacker_knowledge() {
    // PRKB's partition count never exceeds what an attacker watching the
    // same selection results can derive — i.e. PRKB adds no leakage.
    let mut rng = StdRng::seed_from_u64(3);
    let values: Vec<u64> = (0..800).map(|_| rng.gen_range(0..50_000u64)).collect();
    let plain = PlainTable::single_column("t", "x", values.clone());
    let owner = DataOwner::with_seed(3);
    let table = owner.encrypt_table(&plain, &mut rng);
    let tm = owner.trusted_machine(TmConfig::default());
    let oracle = SpOracle::new(&table, &tm);
    let mut engine: PrkbEngine<_> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, values.len());
    let mut attacker = OrderRecovery::new(&values);

    for _ in 0..80 {
        let c = rng.gen_range(0..50_000u64);
        let op = ComparisonOp::ALL[rng.gen_range(0..4)];
        let trapdoor = owner
            .trapdoor("t", &Predicate::cmp(0, op, c), &mut rng)
            .expect("valid");
        engine.select(&oracle, &trapdoor, &mut rng);
        match op {
            ComparisonOp::Lt | ComparisonOp::Ge => attacker.observe_cut_below(c),
            ComparisonOp::Gt | ComparisonOp::Le => attacker.observe_cut_above(c),
        }
        assert_eq!(
            engine.knowledge(0).expect("attr").k(),
            attacker.partitions(),
            "PRKB must know exactly what the selection results reveal"
        );
    }
}

#[test]
fn wrong_key_tm_cannot_answer() {
    let mut rng = StdRng::seed_from_u64(4);
    let owner = DataOwner::with_seed(4);
    let plain = PlainTable::single_column("t", "x", vec![1, 2, 3]);
    let table = owner.encrypt_table(&plain, &mut rng);
    // A TM provisioned by a different owner (different master key).
    let rogue = DataOwner::with_seed(5);
    let tm = rogue.trusted_machine(TmConfig::default());
    let p = owner
        .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, 2), &mut rng)
        .expect("valid");
    assert!(
        tm.qpf(&p, table.cell(0, 0).expect("cell")).is_err(),
        "a rogue TM without the owner's key must fail closed"
    );
}

#[test]
fn between_probe_schedule_is_a_function_of_k_and_qpf_bits() {
    use prkb::core::snapshot;
    use prkb::edbms::testing::PlainOracle;

    // Twin databases: D holds multiples of 10 and D′ = f(D) with f strictly
    // increasing — every value moves, but stays inside its own decade.
    // Every bound below ends in 5, so the *same* trapdoors draw the same QPF
    // bits from both, and SP's view of the two runs is identical. Whatever
    // it samples, scans, reports and persists must then be identical too.
    let f = |v: u64| v + (v / 10 * 7) % 5;
    let mut rng = StdRng::seed_from_u64(6);
    let d: Vec<u64> = (0..2000).map(|_| rng.gen_range(0..300u64) * 10).collect();
    let twin: Vec<u64> = d.iter().map(|&v| f(v)).collect();
    assert!(d.iter().zip(&twin).any(|(a, b)| a != b));
    let oracles = [d, twin].map(PlainOracle::single_column);

    // Comparisons grow k; the BETWEENs are wide, one decade wide (usually
    // missed by every sample) and empty.
    let mut stream = Vec::new();
    for _ in 0..150 {
        let lo = rng.gen_range(0..300u64) * 10 + 5;
        stream.push(match rng.gen_range(0..6u32) {
            0 | 1 => Predicate::cmp(0, ComparisonOp::ALL[rng.gen_range(0..4)], lo),
            2 | 3 => Predicate::between(0, lo, lo + 10 * rng.gen_range(2..120u64)),
            4 => Predicate::between(0, lo, lo + 10),
            _ => Predicate::between(0, 3005, 3005 + lo),
        });
    }

    let runs = oracles.each_ref().map(|oracle| {
        let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
        engine.init_attr(0, 2000);
        let mut rng = StdRng::seed_from_u64(7);
        let replies: Vec<_> = stream
            .iter()
            .map(|p| {
                let sel = engine.select(oracle, p, &mut rng);
                (sel.tuples, sel.stats)
            })
            .collect();
        (replies, snapshot::save(engine.knowledge(0).expect("attr")))
    });
    let misses = runs[0]
        .0
        .iter()
        .filter(|(_, s)| s.filter_probes > s.k_before as u64);
    assert!(misses.count() > 10, "the stream must exercise the fallback");
    for (i, (a, b)) in runs[0].0.iter().zip(&runs[1].0).enumerate() {
        assert_eq!(a, b, "query {i}: {:?}", stream[i]);
    }
    assert_eq!(runs[0].1, runs[1].1, "final knowledge bases differ");
}
