//! The one reader of `--flag value` command lines: every `lafd`
//! subcommand and the worker argv ([`crate::deploy::WorkerConfig::from_args`])
//! walk their arguments with [`Flags`].

use std::fmt;
use std::str::FromStr;

/// Why a command line was refused. The rendered messages are part of the
/// CLI contract (scripts grep them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// This flag was the last argument, so its value is missing.
    NoValue(String),
    /// This flag's value does not parse or is out of range; the message
    /// names the flag.
    BadValue(String, String),
    /// The command (first) takes no such flag (second).
    Unknown(&'static str, String),
    /// The command (first) lacks its required flags (second, a phrase).
    Missing(&'static str, &'static str),
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::NoValue(flag) => write!(f, "flag {flag} needs a value"),
            FlagError::BadValue(_, message) => f.write_str(message),
            FlagError::Unknown(command, flag) => write!(f, "unknown {command} flag {flag}"),
            FlagError::Missing(command, required) => write!(f, "{command} needs {required}"),
        }
    }
}

impl From<FlagError> for String {
    fn from(error: FlagError) -> String {
        error.to_string()
    }
}

/// A cursor over `--flag value` pairs: [`Flags::next_flag`] yields each
/// flag, and [`Flags::value`] / [`Flags::parse`] consume the argument
/// after it.
#[derive(Debug)]
pub struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// Walk `args` from the start.
    pub fn new(args: &'a [String]) -> Self {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// The next argument, taken as a flag.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The value of the current flag.
    pub fn value(&mut self) -> Result<String, FlagError> {
        let flag = self.flag;
        self.args
            .next()
            .cloned()
            .ok_or_else(|| FlagError::NoValue(flag.to_string()))
    }

    /// The value of the current flag parsed as `T`; a parse failure
    /// reads `{name}: {error}`.
    pub fn parse<T: FromStr>(&mut self, name: &str) -> Result<T, FlagError>
    where
        T::Err: fmt::Display,
    {
        let value = self.value()?;
        value
            .parse()
            .map_err(|e| FlagError::BadValue(name.to_string(), format!("{name}: {e}")))
    }
}
