//! Minimal argument parsing for the `quva` binary.
//!
//! Hand-rolled on purpose: the CLI needs exactly flags-with-values and
//! positionals, and the workspace keeps its dependency set small.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Parsed command line: a subcommand, `--flag value` options, boolean
/// `--flag` switches, and positionals. It also records which options
/// and switches the command has asked about, and whether it read the
/// positionals, so an argument it never reads — a typo, a flag another
/// command takes, or a stray word — is reported instead of silently
/// ignored (see [`ParsedArgs::reject_unread`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    command: String,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
    positionals: Vec<String>,
    read: RefCell<BTreeSet<String>>,
    positionals_read: Cell<bool>,
}

/// Error produced for malformed command lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgsError(String);

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ArgsError {}

impl ArgsError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        ArgsError(msg.into())
    }
}

impl ParsedArgs {
    /// Parses `argv` (without the program name). The first token is the
    /// subcommand; `--name value` pairs become options unless `name` is
    /// listed in `switches`, in which case it is a boolean flag.
    ///
    /// # Errors
    ///
    /// Fails on a missing subcommand or an option with no value.
    pub fn parse<S: AsRef<str>>(argv: &[S], switches: &[&str]) -> Result<Self, ArgsError> {
        let mut it = argv.iter().map(|s| s.as_ref().to_string()).peekable();
        let command = it
            .next()
            .ok_or_else(|| ArgsError::new("missing subcommand; try `quva help`"))?;
        let mut parsed = ParsedArgs {
            command,
            ..Default::default()
        };
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if switches.contains(&name) {
                    parsed.switches.push(name.to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgsError::new(format!("option --{name} needs a value")))?;
                    parsed.options.insert(name.to_string(), value);
                }
            } else {
                parsed.positionals.push(tok);
            }
        }
        Ok(parsed)
    }

    /// The subcommand name.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// An option's value, if present. Marks the option read.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.mark_read(name);
        self.options.get(name).map(String::as_str)
    }

    /// An option's value or a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// A required option.
    ///
    /// # Errors
    ///
    /// Fails when the option is absent.
    pub fn require(&self, name: &str) -> Result<&str, ArgsError> {
        self.get(name)
            .ok_or_else(|| ArgsError::new(format!("missing required option --{name}")))
    }

    /// Whether a boolean switch was given. Marks the switch read.
    pub fn has_switch(&self, name: &str) -> bool {
        self.mark_read(name);
        self.switches.iter().any(|s| s == name)
    }

    fn mark_read(&self, name: &str) {
        self.read.borrow_mut().insert(name.to_string());
    }

    /// Fails naming every option, switch and positional on the command
    /// line that the command has not read so far.
    ///
    /// # Errors
    ///
    /// Fails when any given option, switch or positional is unread.
    pub fn reject_unread(&self) -> Result<(), ArgsError> {
        let read = self.read.borrow();
        let unread: BTreeSet<&str> = self
            .options
            .keys()
            .chain(&self.switches)
            .map(String::as_str)
            .filter(|name| !read.contains(*name))
            .collect();
        let mut names: Vec<String> = unread.iter().map(|name| format!("--{name}")).collect();
        if !self.positionals_read.get() {
            names.extend(self.positionals.iter().map(|tok| format!("'{tok}'")));
        }
        if names.is_empty() {
            return Ok(());
        }
        Err(ArgsError::new(format!(
            "`quva {}` does not use {}",
            self.command,
            names.join(", ")
        )))
    }

    /// The positional arguments. Marks them read.
    pub fn positionals(&self) -> &[String] {
        self.positionals_read.set(true);
        &self.positionals
    }

    /// Parses an option as a value of type `T`.
    ///
    /// # Errors
    ///
    /// Fails when present but unparsable.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgsError> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| ArgsError::new(format!("option --{name} has invalid value '{v}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_options_and_positionals() {
        let a = ParsedArgs::parse(
            &["compile", "--device", "q20", "prog.qasm", "--trials", "100"],
            &[],
        )
        .unwrap();
        assert_eq!(a.command(), "compile");
        assert_eq!(a.get("device"), Some("q20"));
        assert_eq!(a.get("trials"), Some("100"));
        assert_eq!(a.positionals(), ["prog.qasm"]);
    }

    #[test]
    fn switches_take_no_value() {
        let a = ParsedArgs::parse(&["compile", "--stats", "file.qasm"], &["stats"]).unwrap();
        assert!(a.has_switch("stats"));
        assert_eq!(a.positionals(), ["file.qasm"]);
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = ParsedArgs::parse(&["compile", "--device"], &[]).unwrap_err();
        assert!(err.to_string().contains("--device"));
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        let err = ParsedArgs::parse::<&str>(&[], &[]).unwrap_err();
        assert!(err.to_string().contains("subcommand"));
    }

    #[test]
    fn require_and_defaults() {
        let a = ParsedArgs::parse(&["pst", "--policy", "vqm"], &[]).unwrap();
        assert_eq!(a.require("policy").unwrap(), "vqm");
        assert!(a.require("device").is_err());
        assert_eq!(a.get_or("device", "q20"), "q20");
    }

    #[test]
    fn unread_positionals_are_rejected() {
        let a = ParsedArgs::parse(&["compile", "--stats", "3", "stray.qasm"], &["stats"]).unwrap();
        assert!(a.has_switch("stats"));
        let err = a.reject_unread().unwrap_err().to_string();
        assert!(err.contains("'3'") && err.contains("'stray.qasm'"), "{err}");
        assert_eq!(a.positionals(), ["3", "stray.qasm"]);
        assert!(a.reject_unread().is_ok());
    }

    #[test]
    fn typed_access() {
        let a = ParsedArgs::parse(&["pst", "--trials", "5000", "--bad", "xyz"], &[]).unwrap();
        assert_eq!(a.get_parsed::<u64>("trials").unwrap(), Some(5000));
        assert_eq!(a.get_parsed::<u64>("absent").unwrap(), None);
        assert!(a.get_parsed::<u64>("bad").is_err());
    }
}
