//! The PRKB service provider as a network daemon.
//!
//! Binds the `prkb-wire/v3` TCP service (a selection's ids ship as a list
//! or, when shorter, a bitmap over `[first, last]`) over a QPF-model oracle
//! and serves until a client sends Shutdown. Pair it with the `client` example:
//!
//! ```text
//! cargo run --example server --release -- 4641 4 &
//! cargo run --example client --release -- 4641
//! ```
//!
//! Arguments: `[port] [threads] [queue]`, all optional. Port defaults to
//! 4641 (pass 0 to let the OS pick — the bound address is printed either
//! way), the server threads to 4 (this one included) and the extra
//! admission slots to 2× the threads — connections beyond
//! `threads + queue` are shed with the stable BUSY code instead of piling
//! up.

use prkb::core::{EngineConfig, PrkbEngine};
use prkb::edbms::testing::PlainOracle;
use prkb::edbms::Predicate;
use prkb::server::{PrkbServer, ServerConfig};

const ROWS: u64 = 20_000;

fn main() {
    let mut args = std::env::args().skip(1);
    let port: u16 = args
        .next()
        .map(|p| p.parse().expect("port must be a number"))
        .unwrap_or(4641);
    let mut count = |what| args.next().map(|c| c.parse::<usize>().expect(what));
    let config = ServerConfig {
        threads: count("threads must be a number"),
        queue: count("queue must be a number"),
        ..ServerConfig::default()
    };

    // The "encrypted" table: two attributes, scrambled values. In the QPF
    // model the oracle answers Θ(trapdoor, tuple); the engine sees nothing
    // else. Rows live server-side — the wire only ever carries tuple ids
    // and trapdoors.
    let columns: Vec<Vec<u64>> = vec![
        (0..ROWS).map(|i| (i * 2_654_435_761) % ROWS).collect(),
        (0..ROWS).map(|i| (i * 40_503) % ROWS).collect(),
    ];
    let oracle = PlainOracle::from_columns(columns);

    let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, ROWS as usize);
    engine.init_attr(1, ROWS as usize);

    let server = PrkbServer::bind(("127.0.0.1", port), engine, oracle, config).expect("bind");
    println!(
        "prkb-server listening on {} ({} rows, 2 attributes)",
        server.local_addr().expect("addr"),
        ROWS
    );
    println!("waiting for clients; send Shutdown (client example does) to stop");

    let report = server.run().expect("serve");
    println!(
        "drained: {} requests, {} wire bytes, {} frame errors, \
         {} busy sheds, {} deadline timeouts, {} dedup replays",
        report.requests(),
        report.bytes(),
        report.frame_errors(),
        report.busy_rejections(),
        report.deadline_timeouts(),
        report.dedup_hits()
    );
    report.inspect(|engine| {
        for attr in [0u32, 1] {
            let k = engine.knowledge(attr).expect("attr indexed").k();
            println!("attribute {attr}: {k} partitions of knowledge retained");
        }
    });
}
