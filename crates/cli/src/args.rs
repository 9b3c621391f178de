//! Minimal command-line argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand, `--key value` / `--flag` options, and
/// positional arguments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

/// A parse or validation error, displayed to the user.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl From<experiments::RunnerError> for ArgError {
    fn from(e: experiments::RunnerError) -> Self {
        Self(e.to_string())
    }
}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// Grammar: `<command> [--key value | --flag | positional]...`.
    /// An option is a flag if it is followed by another `--option` or by
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns an error when no subcommand is present.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut iter = raw.into_iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| ArgError("missing subcommand; try `rlr help`".to_owned()))?;
        let mut out = Args { command, ..Args::default() };
        while let Some(token) = iter.next() {
            if let Some(key) = token.strip_prefix("--") {
                match iter.next_if(|next| !next.starts_with("--")) {
                    Some(value) => {
                        out.options.insert(key.to_owned(), value);
                    }
                    None => out.flags.push(key.to_owned()),
                }
            } else {
                out.positional.push(token);
            }
        }
        Ok(out)
    }

    /// The subcommand name.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// Positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// String option by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if present but unparsable.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse `{raw}`"))),
        }
    }

    /// Whether a bare `--flag` was given.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// Whether `--key` was given at all, with a value or bare.
    pub fn given(&self, key: &str) -> bool {
        self.get(key).is_some() || self.has_flag(key)
    }

    /// Rejects unknown options (catches typos early).
    ///
    /// # Errors
    ///
    /// Returns an error naming the first unknown option or flag.
    pub fn expect_known(&self, known: &[&str]) -> Result<(), ArgError> {
        for key in self.options.keys() {
            if !known.contains(&key.as_str()) {
                return Err(ArgError(format!("unknown option --{key}")));
            }
        }
        for flag in &self.flags {
            if !known.contains(&flag.as_str()) {
                return Err(ArgError(format!("unknown flag --{flag}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(str::to_owned)).expect("parses")
    }

    #[test]
    fn parses_options_flags_and_positionals() {
        let a = parse("run 429.mcf --policy rlr --instructions 1000 --verbose");
        assert_eq!(a.command(), "run");
        assert_eq!(a.positional(), ["429.mcf"]);
        assert_eq!(a.get("policy"), Some("rlr"));
        assert_eq!(a.get_num::<u64>("instructions", 0).expect("numeric"), 1000);
        assert!(a.has_flag("verbose"));
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(Args::parse(Vec::new()).is_err());
    }

    #[test]
    fn numeric_parse_errors_are_reported() {
        let a = parse("run --instructions bogus");
        assert!(a.get_num::<u64>("instructions", 0).is_err());
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("run");
        assert_eq!(a.get_or("policy", "lru"), "lru");
        assert_eq!(a.get_num::<u64>("warmup", 42).expect("default"), 42);
    }

    #[test]
    fn unknown_options_are_rejected() {
        let a = parse("run --polcy rlr");
        assert!(a.expect_known(&["policy"]).is_err());
        assert!(a.expect_known(&["polcy"]).is_ok());
    }

    #[test]
    fn flag_followed_by_option_is_a_flag() {
        let a = parse("run --verbose --policy rlr");
        assert!(a.has_flag("verbose"));
        assert_eq!(a.get("policy"), Some("rlr"));
        assert!(a.given("verbose") && a.given("policy") && !a.given("agent"));
    }
}
