//! Reading the `PRKB_*` environment knobs.
//!
//! A knob that is set is a request; one that does not parse is a typo, and a
//! typo that silently reads as "unset" makes a CI sweep test nothing. Every
//! numeric knob goes through [`env_knob`], which fails loudly instead.

use std::env::VarError;
use std::fmt::Display;
use std::str::FromStr;

/// Reads environment knob `name`: unset ⇒ `None`, set ⇒ its parsed value.
///
/// # Panics
/// Panics, naming the variable and its value, when the variable is set but
/// does not parse as a `T` (surrounding whitespace is ignored).
pub fn env_knob<T>(name: &str) -> Option<T>
where
    T: FromStr,
    T::Err: Display,
{
    match std::env::var(name) {
        Err(VarError::NotPresent) => None,
        Err(e) => panic!("{name}: {e}"),
        Ok(raw) => Some(parse(name, &raw).unwrap_or_else(|e| panic!("{e}"))),
    }
}

/// Parses a knob's value; the error names the variable and the value.
fn parse<T>(name: &str, raw: &str) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    raw.trim()
        .parse()
        .map_err(|e| format!("{name}={raw:?} does not parse: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_knob_parses_or_fails_naming_the_variable_and_value() {
        // `parse` is what `env_knob` runs on a *set* variable (no
        // process-global env mutation in tests); unset never reaches it.
        assert_eq!(parse::<usize>("PRKB_THREADS", " 4 "), Ok(4));
        assert_eq!(
            parse::<u64>("PRKB_SERVER_QUEUE", "20260807"),
            Ok(20_260_807)
        );
        assert_eq!(env_knob::<u64>("NO_SUCH_PRKB_KNOB"), None, "unset ⇒ None");

        // A typo, a negative count and an empty value all fail — none of
        // them may read as "knob unset".
        for bad in ["four", "-1", "", "8 shards"] {
            let err = parse::<usize>("PRKB_SHARDS", bad).expect_err(bad);
            assert!(
                err.contains("PRKB_SHARDS") && err.contains(&format!("{bad:?}")),
                "{err}"
            );
        }
    }
}
