//! Minimal flag parsing shared by the subcommands (no external crates).

use std::collections::HashMap;

/// Parsed arguments: positional operands plus `--flag [value]` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, Option<String>>,
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["baseline", "rigid", "fast", "abacus", "route"];

impl Args {
    /// Parses a raw argument list; `accepted` names the subcommand's flags
    /// (without the leading `--`).
    ///
    /// # Errors
    ///
    /// Rejects `--flags` not in `accepted` and syntax errors (a value flag
    /// at the end of the line without a value).
    pub fn parse(raw: &[String], accepted: &[&str]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = raw.iter();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if !accepted.contains(&name) {
                    return Err(format!("unknown flag `--{name}`"));
                }
                if BOOL_FLAGS.contains(&name) {
                    args.options.insert(name.to_string(), None);
                } else {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    args.options.insert(name.to_string(), Some(value.clone()));
                }
            } else {
                args.positional.push(tok.clone());
            }
        }
        Ok(args)
    }

    /// The `i`-th positional operand.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// `true` if the boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// String value of an option.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.options.get(name).and_then(|v| v.as_deref())
    }

    /// Parsed numeric value of an option.
    ///
    /// # Errors
    ///
    /// Reports unparsable values with the flag name.
    pub fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCEPTED: &[&str] = &["baseline", "rigid", "seed", "tracks"];

    fn try_parse(s: &[&str]) -> Result<Args, String> {
        Args::parse(
            &s.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
            ACCEPTED,
        )
    }

    fn parse(s: &[&str]) -> Args {
        try_parse(s).unwrap()
    }

    #[test]
    fn positional_and_flags() {
        let a = parse(&["case.aux", "--baseline", "--seed", "9"]);
        assert_eq!(a.positional(0), Some("case.aux"));
        assert!(a.flag("baseline"));
        assert!(!a.flag("rigid"));
        assert_eq!(a.number::<u64>("seed").unwrap(), Some(9));
        assert_eq!(a.number::<u64>("tracks").unwrap(), None);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(try_parse(&["--seed"]).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let e = try_parse(&["case.aux", "--seeds", "3"]).unwrap_err();
        assert!(e.contains("--seeds"), "{e}");
        // A flag valid for another subcommand is unknown here too.
        assert!(try_parse(&["--fast"]).is_err());
    }

    #[test]
    fn bad_number_is_reported() {
        let a = parse(&["--seed", "banana"]);
        assert!(a.number::<u64>("seed").is_err());
    }
}
