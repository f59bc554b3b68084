//! Seeded inputs: the plaintext table, the request streams, and the
//! plaintext answers the replies are checked against. Everything here is a
//! pure function of `--seed`; the program under test only ever sees the
//! encrypted table and the trapdoors made from these requests.

use crate::stats::SetSum;

/// Values are uniform in `[0, DOMAIN)`.
pub const DOMAIN: u64 = 1_000_000;
/// Attributes `a0..a3`; client `c` owns `a(2c)` and `a(2c+1)`.
pub const ATTRS: usize = 4;
/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;

/// A "1 % range" of the domain, and the side of a 2-D "10 % x 10 %" box.
const NARROW: u64 = DOMAIN / 100;
const BOX_SIDE: u64 = DOMAIN / 10;

/// splitmix64. The benchmark keeps its own generator so that its inputs do
/// not change when the program's `rand` dependency does.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    /// An independent stream for purpose `label` of run `seed`.
    pub fn derive(seed: u64, label: u64) -> Self {
        let mut base = Rng64(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng64(base.next())
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (the modulo bias at these `n` is below 1e-13).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Stream labels, so that data, keys and each client's requests never
/// share random numbers.
pub mod label {
    pub const DATA: u64 = 1;
    pub const KEYS: u64 = 2;
    pub const ENCRYPT: u64 = 3;
    pub const WARMUP: u64 = 4;
    pub const CLIENT: u64 = 16; // + client index
    pub const CLIENT_ROWS: u64 = 32; // + client index
    pub const PROBE: u64 = 64;
    pub const STREAM: u64 = 4096;
}

/// `ATTRS` columns of `n` uniform values.
pub fn columns(seed: u64, n: usize) -> Vec<Vec<u64>> {
    let mut rng = Rng64::derive(seed, label::DATA);
    (0..ATTRS)
        .map(|_| (0..n).map(|_| rng.below(DOMAIN)).collect())
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
}

/// One plaintext request. Ranges are inclusive on both ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// One BETWEEN trapdoor. Never refines the knowledge base.
    Between { attr: u32, lo: u64, hi: u64 },
    /// `SelectRangeMd`: two comparison trapdoors (`>= lo`, `<= hi`) per
    /// dimension, intersected server-side. One dimension is the wire form
    /// of the paper's Fig. 8 range.
    Range { dims: Vec<(u32, u64, u64)> },
    /// One comparison trapdoor.
    Compare { attr: u32, cmp: Cmp, bound: u64 },
    /// Encrypt a row, upload it, route its id.
    Insert { row: [u64; ATTRS] },
    /// Delete the row this client's `nth` insert created.
    Delete { nth: usize },
}

impl Op {
    /// The attributes a request touches (its checkout footprint).
    pub fn attrs(&self) -> Vec<u32> {
        match self {
            Op::Between { attr, .. } | Op::Compare { attr, .. } => vec![*attr],
            Op::Range { dims } => dims.iter().map(|d| d.0).collect(),
            Op::Insert { .. } | Op::Delete { .. } => (0..ATTRS as u32).collect(),
        }
    }
}

/// A request plus the seed of the server-side sampling generator.
#[derive(Debug, Clone)]
pub struct Request {
    pub op: Op,
    pub server_seed: u64,
}

fn span(rng: &mut Rng64, width: u64) -> (u64, u64) {
    let lo = rng.below(DOMAIN - width + 1);
    (lo, lo + width - 1)
}

fn narrow_range(rng: &mut Rng64, attr: u32) -> Op {
    let (lo, hi) = span(rng, NARROW);
    Op::Range {
        dims: vec![(attr, lo, hi)],
    }
}

fn narrow_between(rng: &mut Rng64, attr: u32) -> Op {
    let (lo, hi) = span(rng, NARROW);
    Op::Between { attr, lo, hi }
}

/// The attributes client `client` owns.
pub fn own_attrs(client: usize) -> [u32; 2] {
    [2 * client as u32, 2 * client as u32 + 1]
}

fn with_seeds(rng: &mut Rng64, ops: Vec<Op>) -> Vec<Request> {
    ops.into_iter()
        .map(|op| Request {
            op,
            server_seed: rng.next(),
        })
        .collect()
}

/// Warm-up: `per_attr` 1-D 1 % ranges on `attr`. Comparison trapdoors on
/// purpose — a BETWEEN-only stream leaves a cold knowledge base at k = 1
/// and pays n QPF per query forever.
///
/// The ranges start one in the first half of each of `per_attr` equal
/// strata of the domain, in shuffled order: at one and a half strata wide,
/// their upper ends then fall in the second halves, and no half stratum
/// (0.33 %) is left without a cut. Independent uniform starts would leave a
/// dozen stretches wider than 1 % uncut, and a BETWEEN that falls inside
/// one finds no positive sample and scans the whole table: some 25 of
/// those a round were half of the QPF spent, and their number, the luck of
/// the stream, moved `qpf_per_op` by 10–20 % from seed to seed. A knowledge
/// base with a longer history than a run can afford to replay has no such
/// stretches left; the strata stand in for that history.
pub fn warmup_stream(seed: u64, attr: u32, per_attr: usize) -> Vec<Request> {
    let mut rng = Rng64::derive(seed, label::WARMUP + 1000 * u64::from(attr));
    let starts = DOMAIN - NARROW + 1;
    let mut ops: Vec<Op> = (0..per_attr as u64)
        .map(|i| {
            let (from, to) = (
                i * starts / per_attr as u64,
                (i + 1) * starts / per_attr as u64,
            );
            let lo = from + rng.below((to - from) / 2);
            Op::Range {
                dims: vec![(attr, lo, lo + NARROW - 1)],
            }
        })
        .collect();
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.below(i as u64 + 1) as usize);
    }
    with_seeds(&mut rng, ops)
}

/// `warm_select`: 40 % BETWEEN 1 %, 40 % 1-D range 1 %, 20 % 2-D range
/// 10 % x 10 %, all on the client's own attributes.
pub fn warm_select_stream(seed: u64, client: usize, ops: usize) -> Vec<Request> {
    let mut rng = Rng64::derive(seed, label::CLIENT + client as u64);
    let own = own_attrs(client);
    let ops = (0..ops)
        .map(|_| {
            let attr = own[rng.below(2) as usize];
            match rng.below(10) {
                0..=3 => narrow_between(&mut rng, attr),
                4..=7 => narrow_range(&mut rng, attr),
                _ => {
                    let (lo0, hi0) = span(&mut rng, BOX_SIDE);
                    let (lo1, hi1) = span(&mut rng, BOX_SIDE);
                    Op::Range {
                        dims: vec![(own[0], lo0, hi0), (own[1], lo1, hi1)],
                    }
                }
            }
        })
        .collect();
    with_seeds(&mut rng, ops)
}

/// `cold_start`: 1-D 1 % ranges alternating over the client's two
/// attributes, from k = 1. Comparison trapdoors, so every query refines.
pub fn cold_start_stream(seed: u64, client: usize, ops: usize) -> Vec<Request> {
    let mut rng = Rng64::derive(seed, label::CLIENT + client as u64);
    let own = own_attrs(client);
    let ops = (0..ops)
        .map(|i| narrow_range(&mut rng, own[i % 2]))
        .collect();
    with_seeds(&mut rng, ops)
}

/// `wide_result`: one comparison with a bound uniform over the domain, so
/// the mean reply holds half the table.
pub fn wide_result_stream(seed: u64, client: usize, ops: usize) -> Vec<Request> {
    let mut rng = Rng64::derive(seed, label::CLIENT + client as u64);
    let own = own_attrs(client);
    let ops = (0..ops)
        .map(|_| Op::Compare {
            attr: own[rng.below(2) as usize],
            cmp: [Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge][rng.below(4) as usize],
            bound: rng.below(DOMAIN),
        })
        .collect();
    with_seeds(&mut rng, ops)
}

/// `churn`: 60 % insert, 20 % delete of a row this client inserted earlier
/// and has not deleted (an insert when it has none), 20 % 1 % range on any
/// attribute, half BETWEEN and half 1-D.
pub fn churn_stream(seed: u64, client: usize, ops: usize) -> Vec<Request> {
    let mut rng = Rng64::derive(seed, label::CLIENT + client as u64);
    let mut live: Vec<usize> = Vec::new();
    let mut inserted = 0usize;
    let ops = (0..ops)
        .map(|_| match rng.below(10) {
            6..=7 if !live.is_empty() => {
                let nth = live.swap_remove(rng.below(live.len() as u64) as usize);
                Op::Delete { nth }
            }
            0..=7 => {
                live.push(inserted);
                inserted += 1;
                Op::Insert {
                    row: std::array::from_fn(|_| rng.below(DOMAIN)),
                }
            }
            _ => {
                let attr = rng.below(ATTRS as u64) as u32;
                if rng.below(2) == 0 {
                    narrow_between(&mut rng, attr)
                } else {
                    narrow_range(&mut rng, attr)
                }
            }
        })
        .collect();
    with_seeds(&mut rng, ops)
}

/// The plaintext table, indexed so that a 1-D answer costs two binary
/// searches: per attribute, ids sorted by value with a running `SetSum`.
pub struct Truth {
    cols: Vec<Vec<u64>>,
    sorted: Vec<Vec<(u64, u32)>>,
    running: Vec<Vec<SetSum>>,
}

impl Truth {
    pub fn new(cols: Vec<Vec<u64>>) -> Self {
        let mut sorted = Vec::with_capacity(cols.len());
        let mut running = Vec::with_capacity(cols.len());
        for col in &cols {
            let mut s: Vec<(u64, u32)> = col
                .iter()
                .enumerate()
                .map(|(id, &v)| (v, id as u32))
                .collect();
            s.sort_unstable();
            let mut acc = SetSum::default();
            let mut r = Vec::with_capacity(s.len() + 1);
            r.push(acc);
            for &(_, id) in &s {
                acc.add(id);
                r.push(acc);
            }
            sorted.push(s);
            running.push(r);
        }
        Truth {
            cols,
            sorted,
            running,
        }
    }

    #[cfg(test)]
    pub fn rows(&self) -> usize {
        self.cols[0].len()
    }

    pub fn columns(&self) -> &[Vec<u64>] {
        &self.cols
    }

    fn slice(&self, attr: u32, lo: u64, hi: u64) -> (usize, usize) {
        let s = &self.sorted[attr as usize];
        (
            s.partition_point(|&(v, _)| v < lo),
            s.partition_point(|&(v, _)| v <= hi),
        )
    }

    fn range(&self, attr: u32, lo: u64, hi: u64) -> SetSum {
        if lo > hi {
            return SetSum::default();
        }
        let (a, b) = self.slice(attr, lo, hi);
        let (ra, rb) = (
            self.running[attr as usize][a],
            self.running[attr as usize][b],
        );
        SetSum {
            count: rb.count - ra.count,
            sum: rb.sum.wrapping_sub(ra.sum),
        }
    }

    /// The base rows a read must return.
    pub fn expected(&self, op: &Op) -> SetSum {
        match op {
            Op::Between { attr, lo, hi } => self.range(*attr, *lo, *hi),
            Op::Compare { attr, cmp, bound } => match cmp {
                Cmp::Lt if *bound == 0 => SetSum::default(),
                Cmp::Lt => self.range(*attr, 0, bound - 1),
                Cmp::Le => self.range(*attr, 0, *bound),
                Cmp::Gt => self.range(*attr, bound + 1, u64::MAX),
                Cmp::Ge => self.range(*attr, *bound, u64::MAX),
            },
            Op::Range { dims } => {
                let (attr, lo, hi) = dims[0];
                if dims.len() == 1 {
                    return self.range(attr, lo, hi);
                }
                let (a, b) = self.slice(attr, lo, hi);
                let mut acc = SetSum::default();
                for &(_, id) in &self.sorted[attr as usize][a..b] {
                    if dims[1..]
                        .iter()
                        .all(|&(d, l, h)| (l..=h).contains(&self.cols[d as usize][id as usize]))
                    {
                        acc.add(id);
                    }
                }
                acc
            }
            Op::Insert { .. } | Op::Delete { .. } => unreachable!("writes have no result set"),
        }
    }
}

/// Whether `row` satisfies read `op`.
pub fn row_matches(op: &Op, row: &[u64]) -> bool {
    match op {
        Op::Between { attr, lo, hi } => (*lo..=*hi).contains(&row[*attr as usize]),
        Op::Compare { attr, cmp, bound } => {
            let v = row[*attr as usize];
            match cmp {
                Cmp::Lt => v < *bound,
                Cmp::Le => v <= *bound,
                Cmp::Gt => v > *bound,
                Cmp::Ge => v >= *bound,
            }
        }
        Op::Range { dims } => dims
            .iter()
            .all(|&(d, l, h)| (l..=h).contains(&row[d as usize])),
        Op::Insert { .. } | Op::Delete { .. } => unreachable!("writes match no row"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(truth: &Truth, op: &Op) -> SetSum {
        let mut acc = SetSum::default();
        for id in 0..truth.rows() {
            let row: Vec<u64> = truth.columns().iter().map(|c| c[id]).collect();
            if row_matches(op, &row) {
                acc.add(id as u32);
            }
        }
        acc
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(columns(7, 100), columns(7, 100));
        assert_ne!(columns(7, 100), columns(8, 100));
        let a: Vec<Op> = churn_stream(7, 0, 200).into_iter().map(|r| r.op).collect();
        let b: Vec<Op> = churn_stream(7, 0, 200).into_iter().map(|r| r.op).collect();
        let c: Vec<Op> = churn_stream(7, 1, 200).into_iter().map(|r| r.op).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn indexed_answers_equal_a_full_scan() {
        let truth = Truth::new(columns(3, 3000));
        let mut streams = warm_select_stream(3, 0, 60);
        streams.extend(wide_result_stream(3, 1, 60));
        streams.extend(cold_start_stream(3, 1, 20));
        streams.push(Request {
            op: Op::Compare {
                attr: 0,
                cmp: Cmp::Lt,
                bound: 0,
            },
            server_seed: 0,
        });
        for r in &streams {
            assert_eq!(truth.expected(&r.op), brute(&truth, &r.op), "{:?}", r.op);
        }
    }

    #[test]
    fn streams_keep_to_their_own_attributes() {
        for (client, own) in [(0usize, [0u32, 1]), (1, [2, 3])] {
            let mut all = warm_select_stream(5, client, 300);
            all.extend(cold_start_stream(5, client, 50));
            all.extend(wide_result_stream(5, client, 50));
            for r in all {
                assert!(r.op.attrs().iter().all(|a| own.contains(a)), "{:?}", r.op);
            }
        }
    }

    #[test]
    fn churn_deletes_only_live_own_rows_once() {
        let mut inserted = 0usize;
        let mut deleted = std::collections::HashSet::new();
        let (mut reads, mut writes) = (0, 0);
        for r in churn_stream(11, 0, 2000) {
            match r.op {
                Op::Insert { .. } => inserted += 1,
                Op::Delete { nth } => {
                    assert!(nth < inserted, "deletes a row inserted earlier");
                    assert!(deleted.insert(nth), "deletes a row once");
                }
                _ => reads += 1,
            }
            writes = inserted + deleted.len();
        }
        assert!(
            reads > 300 && writes > 1400,
            "mix is about 20/80: {reads}/{writes}"
        );
    }
}
