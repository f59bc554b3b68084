//! A small SQL front-end for selections.
//!
//! The paper frames queries in SQL (`SELECT * FROM R WHERE c1a < C1 AND
//! C1 < c1b AND …`, §6; BETWEEN, Appendix A). This module parses exactly
//! that selection fragment at the data owner:
//!
//! ```text
//! SELECT * FROM <table> [WHERE <cond> [AND <cond>]*]
//! <cond> := <attr> (< | <= | > | >=) <number>
//!         | <number> (< | <=) <attr>           -- flipped comparison
//!         | <attr> BETWEEN <number> AND <number>
//! ```
//!
//! The output is a list of plaintext [`Predicate`]s bound to schema
//! attribute ids, ready to be turned into trapdoors one by one — matching
//! the paper's model where the service provider receives 2d independent
//! comparison trapdoors for a d-dimensional range.

use crate::predicate::{ComparisonOp, Predicate};
use crate::schema::Schema;
use std::fmt;

/// A parsed selection: target table plus the conjunction of predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedQuery {
    /// Table named in `FROM`.
    pub table: String,
    /// Conjunctive predicates, in source order (empty = full scan).
    pub predicates: Vec<Predicate>,
}

/// SQL parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Lexical or grammatical problem, with a human-readable explanation.
    Syntax(String),
    /// `WHERE` referenced an attribute the schema does not have.
    UnknownAttribute(String),
    /// `FROM` named a table none of the candidate schemas describes.
    UnknownTable(String),
    /// A BETWEEN with `lo > hi`.
    EmptyRange(u64, u64),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Syntax(msg) => write!(f, "syntax error: {msg}"),
            SqlError::UnknownAttribute(a) => write!(f, "unknown attribute {a:?}"),
            SqlError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            SqlError::EmptyRange(lo, hi) => write!(f, "empty BETWEEN range {lo}..{hi}"),
        }
    }
}

impl std::error::Error for SqlError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Select,
    Star,
    From,
    Where,
    And,
    Between,
    Ident(String),
    Number(u64),
    Op(ComparisonOp),
}

fn lex(input: &str) -> Result<Vec<Tok>, SqlError> {
    let mut toks = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() || c == ';' {
            chars.next();
        } else if c == '*' {
            chars.next();
            toks.push(Tok::Star);
        } else if c == '<' || c == '>' {
            chars.next();
            let eq = chars.peek() == Some(&'=');
            if eq {
                chars.next();
            }
            toks.push(Tok::Op(match (c, eq) {
                ('<', false) => ComparisonOp::Lt,
                ('<', true) => ComparisonOp::Le,
                ('>', false) => ComparisonOp::Gt,
                _ => ComparisonOp::Ge,
            }));
        } else if c.is_ascii_digit() {
            let mut n: u64 = 0;
            while let Some(&d) = chars.peek() {
                if d.is_ascii_digit() {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(d as u64 - '0' as u64))
                        .ok_or_else(|| SqlError::Syntax("number overflows u64".into()))?;
                    chars.next();
                } else if d == '_' {
                    chars.next(); // digit grouping
                } else {
                    break;
                }
            }
            toks.push(Tok::Number(n));
        } else if c.is_alphabetic() || c == '_' {
            let mut word = String::new();
            while let Some(&d) = chars.peek() {
                if d.is_alphanumeric() || d == '_' {
                    word.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
            toks.push(match word.to_ascii_uppercase().as_str() {
                "SELECT" => Tok::Select,
                "FROM" => Tok::From,
                "WHERE" => Tok::Where,
                "AND" => Tok::And,
                "BETWEEN" => Tok::Between,
                _ => Tok::Ident(word),
            });
        } else {
            return Err(SqlError::Syntax(format!("unexpected character {c:?}")));
        }
    }
    Ok(toks)
}

/// Parses a selection and binds it to the schema, among `schemas`, of the
/// table its `FROM` names.
///
/// # Errors
/// Returns a [`SqlError`] on any lexical, grammatical, or binding problem;
/// [`SqlError::UnknownTable`] when no schema describes the named table.
pub fn parse<'s>(
    input: &str,
    schemas: impl IntoIterator<Item = &'s Schema>,
) -> Result<ParsedQuery, SqlError> {
    let toks = lex(input)?;
    let mut pos = 0usize;
    let expect = |want: &Tok, what: &str, toks: &[Tok], pos: &mut usize| {
        if toks.get(*pos) == Some(want) {
            *pos += 1;
            Ok(())
        } else {
            Err(SqlError::Syntax(format!(
                "expected {what}, found {:?}",
                toks.get(*pos)
            )))
        }
    };

    expect(&Tok::Select, "SELECT", &toks, &mut pos)?;
    expect(&Tok::Star, "*", &toks, &mut pos)?;
    expect(&Tok::From, "FROM", &toks, &mut pos)?;
    let table = match toks.get(pos) {
        Some(Tok::Ident(t)) => {
            pos += 1;
            t.clone()
        }
        other => {
            return Err(SqlError::Syntax(format!(
                "expected table name, found {other:?}"
            )))
        }
    };
    let schema = schemas
        .into_iter()
        .find(|s| s.table() == table)
        .ok_or_else(|| SqlError::UnknownTable(table.clone()))?;

    let mut predicates = Vec::new();
    if pos < toks.len() {
        expect(&Tok::Where, "WHERE or end of query", &toks, &mut pos)?;
        loop {
            predicates.push(parse_condition(&toks, &mut pos, schema)?);
            if pos >= toks.len() {
                break;
            }
            expect(&Tok::And, "AND or end of query", &toks, &mut pos)?;
        }
    }
    Ok(ParsedQuery { table, predicates })
}

fn parse_condition(toks: &[Tok], pos: &mut usize, schema: &Schema) -> Result<Predicate, SqlError> {
    match (toks.get(*pos), toks.get(*pos + 1)) {
        // attr op number | attr BETWEEN n AND n
        (Some(Tok::Ident(name)), Some(next)) => {
            let attr = schema
                .attr_id(name)
                .ok_or_else(|| SqlError::UnknownAttribute(name.clone()))?;
            match next {
                Tok::Op(op) => {
                    let Some(Tok::Number(n)) = toks.get(*pos + 2) else {
                        return Err(SqlError::Syntax("expected number after operator".into()));
                    };
                    *pos += 3;
                    Ok(Predicate::cmp(attr, *op, *n))
                }
                Tok::Between => {
                    let (Some(Tok::Number(lo)), Some(Tok::And), Some(Tok::Number(hi))) =
                        (toks.get(*pos + 2), toks.get(*pos + 3), toks.get(*pos + 4))
                    else {
                        return Err(SqlError::Syntax(
                            "expected BETWEEN <number> AND <number>".into(),
                        ));
                    };
                    if lo > hi {
                        return Err(SqlError::EmptyRange(*lo, *hi));
                    }
                    *pos += 5;
                    Ok(Predicate::between(attr, *lo, *hi))
                }
                other => Err(SqlError::Syntax(format!(
                    "expected comparison or BETWEEN, found {other:?}"
                ))),
            }
        }
        // number op attr  (flipped: `10 < x` ≡ `x > 10`)
        (Some(Tok::Number(n)), Some(Tok::Op(op))) => {
            let Some(Tok::Ident(name)) = toks.get(*pos + 2) else {
                return Err(SqlError::Syntax("expected attribute after operator".into()));
            };
            let attr = schema
                .attr_id(name)
                .ok_or_else(|| SqlError::UnknownAttribute(name.clone()))?;
            let flipped = match op {
                ComparisonOp::Lt => ComparisonOp::Gt,
                ComparisonOp::Le => ComparisonOp::Ge,
                ComparisonOp::Gt => ComparisonOp::Lt,
                ComparisonOp::Ge => ComparisonOp::Le,
            };
            *pos += 3;
            Ok(Predicate::cmp(attr, flipped, *n))
        }
        other => Err(SqlError::Syntax(format!(
            "expected condition, found {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new("sales", &["amount", "qty", "day"])
    }

    #[test]
    fn full_scan() {
        let q = parse("SELECT * FROM sales", [&schema()]).unwrap();
        assert_eq!(q.table, "sales");
        assert!(q.predicates.is_empty());
    }

    #[test]
    fn comparisons_all_operators() {
        let q = parse(
            "SELECT * FROM sales WHERE amount < 100 AND qty <= 5 AND day > 30 AND day >= 2",
            [&schema()],
        )
        .unwrap();
        assert_eq!(
            q.predicates,
            vec![
                Predicate::cmp(0, ComparisonOp::Lt, 100),
                Predicate::cmp(1, ComparisonOp::Le, 5),
                Predicate::cmp(2, ComparisonOp::Gt, 30),
                Predicate::cmp(2, ComparisonOp::Ge, 2),
            ]
        );
    }

    #[test]
    fn between_and_flipped() {
        let q = parse(
            "SELECT * FROM sales WHERE amount BETWEEN 10 AND 99 AND 3 < qty",
            [&schema()],
        )
        .unwrap();
        assert_eq!(
            q.predicates,
            vec![
                Predicate::between(0, 10, 99),
                Predicate::cmp(1, ComparisonOp::Gt, 3),
            ]
        );
    }

    #[test]
    fn paper_range_form() {
        // The paper's multi-dim form: c1a < C1 AND C1 < c1b AND …
        let q = parse(
            "SELECT * FROM sales WHERE 100 < amount AND amount < 500 AND 1 < day AND day < 90;",
            [&schema()],
        )
        .unwrap();
        assert_eq!(q.predicates.len(), 4);
        assert_eq!(q.predicates[0], Predicate::cmp(0, ComparisonOp::Gt, 100));
        assert_eq!(q.predicates[1], Predicate::cmp(0, ComparisonOp::Lt, 500));
    }

    #[test]
    fn case_insensitive_keywords_and_digit_groups() {
        let q = parse(
            "select * from sales where amount between 1_000 and 2_000",
            [&schema()],
        )
        .unwrap();
        assert_eq!(q.predicates, vec![Predicate::between(0, 1000, 2000)]);
    }

    #[test]
    fn errors() {
        let s = schema();
        assert!(matches!(
            parse("SELECT * FROM other WHERE amount < 1", [&s]),
            Err(SqlError::UnknownTable(t)) if t == "other"
        ));
        assert!(matches!(
            parse("SELECT * FROM sales WHERE price < 1", [&s]),
            Err(SqlError::UnknownAttribute(_))
        ));
        assert!(matches!(
            parse("SELECT * FROM sales WHERE amount BETWEEN 9 AND 3", [&s]),
            Err(SqlError::EmptyRange(9, 3))
        ));
        assert!(matches!(
            parse("SELECT amount FROM sales", [&s]),
            Err(SqlError::Syntax(_))
        ));
        assert!(matches!(
            parse("SELECT * FROM sales WHERE amount !! 3", [&s]),
            Err(SqlError::Syntax(_))
        ));
        assert!(matches!(
            parse(
                "SELECT * FROM sales WHERE amount < 99999999999999999999999",
                [&s]
            ),
            Err(SqlError::Syntax(_))
        ));
        // Disjunction is outside the paper's selection fragment.
        assert!(matches!(
            parse("SELECT * FROM sales WHERE amount < 5 OR qty < 2", [&s]),
            Err(SqlError::Syntax(_))
        ));
    }

    #[test]
    fn binds_the_schema_its_from_names() {
        let stock = Schema::new("stock", &["qty", "amount"]);
        let q = parse("SELECT*FROM stock WHERE amount < 3", [&schema(), &stock]).unwrap();
        assert_eq!(q.table, "stock");
        assert_eq!(q.predicates, vec![Predicate::cmp(1, ComparisonOp::Lt, 3)]);
        assert!(matches!(
            parse("SELECT * FROM sales", []),
            Err(SqlError::UnknownTable(t)) if t == "sales"
        ));
    }

    #[test]
    fn parsed_predicates_evaluate() {
        let q = parse(
            "SELECT * FROM sales WHERE amount BETWEEN 5 AND 10",
            [&schema()],
        )
        .unwrap();
        assert!(q.predicates[0].eval(7));
        assert!(!q.predicates[0].eval(11));
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Unwrap audit pin: the server-side parse path must never
            /// panic, whatever bytes arrive — malformed literals, truncated
            /// keywords, stray operators all come back as `Err`.
            fn arbitrary_input_never_panics(
                codes in collection::vec(any::<u32>(), 0..80),
            ) {
                let input: String = codes
                    .into_iter()
                    .filter_map(|c| char::from_u32(c % 0x11_0000))
                    .collect();
                let _ = parse(&input, [&schema()]);
            }

            /// Near-miss SQL: shuffled fragments of the real grammar, so
            /// the fuzzer spends its budget deep inside the parser instead
            /// of dying in the lexer.
            fn near_sql_never_panics(
                pieces in collection::vec(
                    prop_oneof![
                        Just("SELECT".to_string()),
                        Just("*".to_string()),
                        Just("FROM".to_string()),
                        Just("sales".to_string()),
                        Just("WHERE".to_string()),
                        Just("AND".to_string()),
                        Just("BETWEEN".to_string()),
                        Just("amount".to_string()),
                        Just("ghost".to_string()),
                        Just("<".to_string()),
                        Just(">=".to_string()),
                        Just(";".to_string()),
                        any::<u64>().prop_map(|n| n.to_string()),
                        Just("99999999999999999999999".to_string()),
                    ],
                    0..12,
                ),
            ) {
                let _ = parse(&pieces.join(" "), [&schema()]);
            }
        }
    }
}
