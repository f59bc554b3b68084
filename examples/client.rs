//! A trapdoor-holding client talking to the `server` example.
//!
//! Connects (with retry, so it can be launched alongside the server),
//! then shows the paper's effect over the wire: the first selection pays a
//! cold full scan, repeated nearby selections get cheap as the server's
//! PRKB refines. Ends by fetching the metrics snapshot and asking the
//! server to shut down.
//!
//! ```text
//! cargo run --example server --release -- 4641 &
//! cargo run --example client --release -- 4641
//! ```

use prkb::edbms::{ComparisonOp, Predicate};
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
        .select(1, Predicate::cmp(0, ComparisonOp::Lt, ROWS / 2))
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
        client
            .select(
                10 + i as u64,
                Predicate::cmp(0, ComparisonOp::Lt, step * ROWS / 20),
            )
            .expect("warm select");
    }
    let warm = client
        .select(99, Predicate::cmp(0, ComparisonOp::Lt, ROWS / 2 + 37))
        .expect("warm select");
    println!(
        "warm   SELECT x0 < {:>6}: {:>5} rows, {:>6} QPF uses (seq {})",
        ROWS / 2 + 37,
        warm.tuples.len(),
        warm.stats.qpf_uses,
        warm.seq
    );

    // BETWEEN and a 2-D range ride the same connection.
    let between = client
        .between(101, Predicate::between(1, ROWS / 4, ROWS / 2))
        .expect("between");
    println!(
        "       BETWEEN on x1:      {:>5} rows, {:>6} QPF uses",
        between.tuples.len(),
        between.stats.qpf_uses
    );
    let md = client
        .select_range_md(
            102,
            vec![
                [
                    Predicate::cmp(0, ComparisonOp::Gt, ROWS / 10),
                    Predicate::cmp(0, ComparisonOp::Lt, ROWS / 3),
                ],
                [
                    Predicate::cmp(1, ComparisonOp::Ge, ROWS / 8),
                    Predicate::cmp(1, ComparisonOp::Le, ROWS / 2),
                ],
            ],
        )
        .expect("md");
    println!(
        "       2-D range query:    {:>5} rows, {:>6} QPF uses",
        md.tuples.len(),
        md.stats.qpf_uses
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
