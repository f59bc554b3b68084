//! SQL-to-result integration: parse the paper's SQL selection forms at the
//! data owner, issue trapdoors, execute through the PRKB engine on the real
//! encrypted pipeline, and verify against plaintext evaluation; and serve
//! a parsed `WHERE` clause over the wire as one select.

use prkb::core::{EngineConfig, PrkbEngine};
use prkb::edbms::testing::PlainOracle;
use prkb::edbms::{parse_sql, DataOwner, PlainTable, Predicate, Schema, SpOracle, TmConfig};
use prkb::server::{PrkbClient, PrkbServer, ServerConfig};
use prkb::SecureDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn sql_selections_end_to_end() {
    let mut rng = StdRng::seed_from_u64(1);
    let n = 1_500usize;
    let amount: Vec<u64> = (0..n).map(|_| rng.gen_range(0..10_000u64)).collect();
    let qty: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=50u64)).collect();
    let day: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=365u64)).collect();
    let schema = Schema::new("sales", &["amount", "qty", "day"]);
    let plain = PlainTable::from_columns(
        schema.clone(),
        vec![amount.clone(), qty.clone(), day.clone()],
    )
    .expect("rectangular");

    let owner = DataOwner::with_seed(2);
    let table = owner.encrypt_table(&plain, &mut rng);
    let tm = owner.trusted_machine(TmConfig::default());
    let oracle = SpOracle::new(&table, &tm);
    let mut engine: PrkbEngine<_> = PrkbEngine::new(EngineConfig::default());
    for a in 0..3 {
        engine.init_attr(a, n);
    }

    let queries = [
        "SELECT * FROM sales WHERE amount < 2500",
        "SELECT * FROM sales WHERE 100 < amount AND amount < 5000 AND 10 < qty AND qty < 40",
        "SELECT * FROM sales WHERE day BETWEEN 90 AND 180",
        "SELECT * FROM sales WHERE amount > 8000 AND qty <= 5 AND day >= 300",
        "SELECT * FROM sales",
        "SELECT * FROM sales WHERE 1 < day AND day < 365 AND amount BETWEEN 4000 AND 6000",
    ];
    for sql in queries {
        let parsed = parse_sql(sql, [&schema]).expect("valid SQL");
        // Owner turns each plaintext predicate into an independent trapdoor
        // (the paper's 2d-comparisons model).
        let trapdoors: Vec<_> = parsed
            .predicates
            .iter()
            .map(|p| {
                owner
                    .trapdoor("sales", p, &mut rng)
                    .expect("valid predicate")
            })
            .collect();
        let sel = engine.select_where(&oracle, &trapdoors, &mut rng);

        let cols = [&amount, &qty, &day];
        let expected: Vec<u32> = (0..n as u32)
            .filter(|&t| {
                parsed
                    .predicates
                    .iter()
                    .all(|p| p.eval(cols[p.attr() as usize][t as usize]))
            })
            .collect();
        assert_eq!(sel.sorted(), expected, "query: {sql}");
    }

    // The conjunction path must have warmed the index like any other query.
    let total_k: usize = (0..3)
        .map(|a| engine.knowledge(a).map_or(0, |k| k.k()))
        .sum();
    assert!(total_k > 6, "PRKB should have grown, k sum = {total_k}");
}

/// A SQL conjunction is served: a `WHERE` clause over three attributes —
/// a BETWEEN, comparisons, one attribute named twice — goes over the wire
/// as one select, and its reply equals an in-process run over the same
/// table, knowledge and seed, ids and stats both, and `SecureDb`'s answer
/// to the same SQL.
#[test]
fn a_sql_conjunction_is_served_over_the_wire() {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 1_200usize;
    let cols: Vec<Vec<u64>> = (0..3)
        .map(|_| (0..n).map(|_| rng.gen_range(0..1_000u64)).collect())
        .collect();
    let schema = Schema::new("trips", &["fare", "km", "minutes"]);
    let sql = "SELECT * FROM trips WHERE fare > 200 AND km BETWEEN 100 AND 700 \
               AND fare <= 800 AND minutes < 600";
    let parsed = parse_sql(sql, [&schema]).expect("valid SQL");
    assert_eq!(parsed.predicates.len(), 4);

    let engine = || {
        let mut engine = PrkbEngine::new(EngineConfig::default());
        for a in 0..3 {
            engine.init_attr(a, n);
        }
        engine
    };
    let oracle = PlainOracle::from_columns(cols.clone());
    let served = PlainOracle::from_columns(cols.clone());
    let server =
        PrkbServer::bind("127.0.0.1:0", engine(), served, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    let mut inline = engine();
    let mut db = SecureDb::with_seed(4);
    db.create_table(PlainTable::from_columns(schema, cols).expect("rectangular"))
        .expect("a new table");

    // Cold, then over the knowledge the first run refined.
    for seed in [5, 6] {
        let reply = client
            .select_where(seed, parsed.predicates.clone())
            .expect("served");
        let mut rng = StdRng::seed_from_u64(seed);
        let want = inline.select_where(&oracle, &parsed.predicates, &mut rng);
        assert_eq!(reply.sorted(), want.sorted(), "seed {seed}");
        assert_eq!(reply.stats, want.stats, "seed {seed}");
        assert_eq!(
            want.sorted(),
            oracle.expected_conjunction(&parsed.predicates)
        );
        let in_db = db.query(sql).expect("SecureDb answers");
        assert_eq!(reply.sorted(), in_db.sorted(), "seed {seed}");
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}
