//! **Table 4** — insertion throughput (paper §8.2.7): 5 batches of 2M new
//! tuples into a 10M-tuple database; average tuples/second for PRKB
//! (O(lg k) QPF routing per tuple) vs Logarithmic-SRC-i (O(log D) encrypted
//! multimap updates per tuple).

use crate::harness::{fresh_engine, timed, warm_to_k, EncSetup, Report};
use crate::scale::Scale;
use prkb_datagen::{synthetic, SYNTH_DOMAIN_MAX, SYNTH_DOMAIN_MIN};
use prkb_edbms::{SpOracle, TupleId};
use prkb_srci::{SrciClient, SrciConfig, SrciIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Throughputs (tuples/second) per batch.
#[derive(Debug, Clone)]
pub struct Table4Data {
    /// PRKB per-batch throughput.
    pub prkb: Vec<f64>,
    /// SRC-i per-batch throughput.
    pub srci: Vec<f64>,
}

/// Measures 5 insert batches against both indexes.
pub fn measure(scale: Scale) -> Table4Data {
    let n = scale.tuples(10_000_000);
    let batch = scale.tuples(2_000_000);
    let col = synthetic::uniform_column(n, 44);
    let setup = EncSetup::new("t4", vec![col.clone()], 44);
    let mut rng = StdRng::seed_from_u64(444);

    // PRKB warmed to 250 partitions (as in the paper). The Warmup logs and
    // counts any shortfall; throughput here only needs a non-trivial k.
    let mut engine = fresh_engine(&setup);
    let _warmup = warm_to_k(&mut engine, &setup, 0, 250, 0.01, 45);
    engine.config.refine = None;

    // SRC-i over the same initial data.
    let (tk, pk) = setup.owner.search_keys("t4", 0);
    let client = SrciClient::new(tk, pk);
    let mut srci = SrciIndex::build(
        &client,
        SrciConfig {
            domain: (SYNTH_DOMAIN_MIN, SYNTH_DOMAIN_MAX),
            bucket_bits: 16,
        },
        &col,
    );

    let mut setup = setup;
    let mut prkb_tp = Vec::with_capacity(5);
    let mut srci_tp = Vec::with_capacity(5);
    for _ in 0..5 {
        let values: Vec<u64> = (0..batch)
            .map(|_| rng.gen_range(SYNTH_DOMAIN_MIN..=SYNTH_DOMAIN_MAX))
            .collect();

        // PRKB path: encrypt row, store, route through separators.
        let (_, t) = timed(|| {
            for &v in &values {
                let cells = setup.owner.encrypt_row("t4", &[v], &mut rng);
                let cell_refs: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
                let t = setup
                    .table
                    .push_encrypted_row(&cell_refs)
                    .expect("arity matches");
                let oracle = SpOracle::new(&setup.table, &setup.tm);
                engine.insert(&oracle, t);
            }
        });
        prkb_tp.push(batch as f64 / t.as_secs_f64());

        // SRC-i path: encrypt row (same owner cost) + EMM updates.
        let base = setup.table.len() as TupleId;
        let (_, t) = timed(|| {
            for (i, &v) in values.iter().enumerate() {
                let _cells = setup.owner.encrypt_row("t4", &[v], &mut rng);
                srci.insert(&client, base + i as TupleId, v);
            }
        });
        srci_tp.push(batch as f64 / t.as_secs_f64());
    }
    Table4Data {
        prkb: prkb_tp,
        srci: srci_tp,
    }
}

/// Runs and formats the Table 4 experiment.
pub fn run(scale: Scale) -> String {
    let data = measure(scale);
    let mut report = Report::new(&format!(
        "Table 4: insertion throughput (tuples/s) — scale: {}",
        scale.tag()
    ));
    let mut header = vec!["method".to_string()];
    header.extend((1..=5).map(|b| format!("batch {b}")));
    report.row(&header);
    let mut row = vec!["PRKB".to_string()];
    row.extend(data.prkb.iter().map(|v| format!("{v:.0}")));
    report.row(&row);
    let mut row = vec!["SRC-i".to_string()];
    row.extend(data.srci.iter().map(|v| format!("{v:.0}")));
    report.row(&row);
    report.line("paper reference: PRKB ≈ 32k/s flat; SRC-i ≈ 2.9k/s flat (≈11×).");
    report.line("shape check: PRKB throughput ≈ flat across batches (cost is");
    report.line("independent of database size) and several × above SRC-i.");
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prkb_inserts_faster_and_flat() {
        let data = measure(Scale::Ci);
        let p_avg: f64 = data.prkb.iter().sum::<f64>() / 5.0;
        let s_avg: f64 = data.srci.iter().sum::<f64>() / 5.0;
        assert!(p_avg > s_avg, "PRKB {p_avg:.0}/s vs SRC-i {s_avg:.0}/s");
        // Flatness: last batch within 3× of the first.
        let ratio = data.prkb[4] / data.prkb[0];
        assert!((0.33..3.0).contains(&ratio), "throughput drift {ratio}");
    }
}
