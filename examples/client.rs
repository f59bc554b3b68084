//! A trapdoor-holding client talking to the `server` example.
//!
//! Connects (with retry, so it can be launched alongside the server),
//! then shows the paper's effect over the wire: the first selection pays a
//! cold full scan, repeated nearby selections get cheap as the server's
//! PRKB refines, and a parsed SQL `WHERE` clause is sent as one select.
//! Ends by fetching the metrics snapshot and asking the server to shut
//! down.
//!
//! ```text
//! cargo run --example server --release -- 4641 &
//! cargo run --example client --release -- 4641
//! ```

use prkb::edbms::{parse_sql, ComparisonOp, Predicate, Schema};
use prkb::server::PrkbClient;
use std::time::{Duration, Instant};

const ROWS: u64 = 20_000;

fn connect(port: u16) -> PrkbClient<Predicate> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match PrkbClient::connect(("127.0.0.1", port)) {
            Ok(client) => return client,
            Err(e) if Instant::now() < deadline => {
                eprintln!("server not up yet ({e}); retrying");
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => panic!("could not reach server: {e}"),
        }
    }
}

fn main() {
    let port: u16 = std::env::args()
        .nth(1)
        .map(|p| p.parse().expect("port must be a number"))
        .unwrap_or(4641);
    let mut client = connect(port);
    client.ping().expect("ping");
    println!("connected to 127.0.0.1:{port}");

    // Cold query: the server has no knowledge yet — full scan.
    let cold = client
        .select_where(1, vec![Predicate::cmp(0, ComparisonOp::Lt, ROWS / 2)])
        .expect("cold select");
    println!(
        "cold   SELECT x0 < {:>6}: {:>5} rows, {:>6} QPF uses (seq {})",
        ROWS / 2,
        cold.tuples.len(),
        cold.stats.qpf_uses,
        cold.seq
    );

    // Warm the index with a sweep, then re-query nearby: the not-sure
    // region shrinks to a sliver of the table.
    for (i, step) in (1..20u64).enumerate() {
        let pred = Predicate::cmp(0, ComparisonOp::Lt, step * ROWS / 20);
        client
            .select_where(10 + i as u64, vec![pred])
            .expect("warm select");
    }
    let warm = client
        .select_where(99, vec![Predicate::cmp(0, ComparisonOp::Lt, ROWS / 2 + 37)])
        .expect("warm select");
    println!(
        "warm   SELECT x0 < {:>6}: {:>5} rows, {:>6} QPF uses (seq {})",
        ROWS / 2 + 37,
        warm.tuples.len(),
        warm.stats.qpf_uses,
        warm.seq
    );

    // A SQL WHERE clause — a range on x0, a BETWEEN on x1 — is one select:
    // the owner parses it into trapdoors and the server runs them as one
    // conjunction, one dimension per attribute.
    let schema = Schema::new("t", &["x0", "x1"]);
    let sql = format!(
        "SELECT * FROM t WHERE x0 > {} AND x0 < {} AND x1 BETWEEN {} AND {}",
        ROWS / 10,
        ROWS / 3,
        ROWS / 8,
        ROWS / 2
    );
    let parsed = parse_sql(&sql, [&schema]).expect("valid SQL");
    let conjunction = client
        .select_where(102, parsed.predicates)
        .expect("SQL select");
    println!(
        "       {sql}: {} rows, {} QPF uses",
        conjunction.tuples.len(),
        conjunction.stats.qpf_uses
    );

    let json = client.metrics().expect("metrics");
    let served = json
        .split("\"server_requests\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .unwrap_or("?")
        .to_string();
    println!("server metrics: {served} requests served (prkb-metrics/v8)");

    client.shutdown().expect("shutdown");
    println!("asked server to drain and stop");
    assert!(
        warm.stats.qpf_uses < cold.stats.qpf_uses / 10,
        "knowledge should make the warm query at least 10x cheaper \
         (cold {}, warm {})",
        cold.stats.qpf_uses,
        warm.stats.qpf_uses
    );
}
