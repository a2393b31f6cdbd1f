//! The command-line grammar of the `experiments` and `simulate` binaries.
//!
//! A subcommand declares the `--flags` that take a value and the
//! switches that take none, and [`Flags::parse`] reads its arguments once
//! against them: any other `--flag` is rejected by name, a value flag
//! never takes a following `--flag` as its value, and every argument
//! keeps its command-line position. Typed getters then read what was
//! given: a repeated flag counts with its last value, every value given
//! is checked, and a bad one is rejected naming the flag and the token as
//! typed. Numbers accept `_` digit grouping (`--insts 1_000_000`).

use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// A command line parsed against one subcommand's flags.
pub struct Flags {
    /// `(flag, value)` in command-line order: a positional argument has
    /// the flag `""`, a switch the value `""`.
    args: Vec<(&'static str, String)>,
    /// Reports a usage error and exits.
    usage: fn(&str) -> !,
}

impl Flags {
    /// Parses `args` for a subcommand whose value flags are listed in
    /// `values` and whose switches in `switches`, each entry naming one
    /// or more flags separated by spaces. An unknown `--flag`, and a value
    /// flag without a value, go to `usage`, which must not return.
    pub fn parse(
        args: &[String],
        values: &[&'static str],
        switches: &[&'static str],
        usage: fn(&str) -> !,
    ) -> Flags {
        fn declared(lists: &[&'static str], arg: &str) -> Option<&'static str> {
            lists.iter().flat_map(|list| list.split_whitespace()).find(|&flag| flag == arg)
        }
        let mut parsed = Vec::with_capacity(args.len());
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                parsed.push(("", arg.clone()));
            } else if let Some(flag) = declared(switches, arg) {
                parsed.push((flag, String::new()));
            } else if let Some(flag) = declared(values, arg) {
                match it.next() {
                    Some(value) if !value.starts_with("--") => parsed.push((flag, value.clone())),
                    _ => usage(&format!("missing value for {flag}")),
                }
            } else {
                usage(&format!("unknown option {arg}"));
            }
        }
        Flags { args: parsed, usage }
    }

    /// Reads the positional arguments as values of `flag`, keeping their
    /// places among its other values (`sweep A --sweep B C` gives the
    /// sweep files `A`, `B`, `C`).
    pub fn positionals_as(mut self, flag: &'static str) -> Flags {
        for (name, _) in &mut self.args {
            if name.is_empty() {
                *name = flag;
            }
        }
        self
    }

    /// Every value given to `flag`, in command-line order.
    pub fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.args.iter().filter(move |(name, _)| *name == flag).map(|(_, value)| value.as_str())
    }

    /// The positional arguments, in command-line order.
    pub fn positionals(&self) -> impl Iterator<Item = &str> {
        self.all("")
    }

    /// Rejects any positional argument, saying `why` (`unexpected
    /// argument X (fetch takes only flags)`).
    pub fn no_positionals(&self, why: &str) {
        if let Some(other) = self.positionals().next() {
            (self.usage)(&format!("unexpected argument {other} ({why})"));
        }
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.all(flag).next().is_some()
    }

    /// The last value given to `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.args.iter().rev().find(|(name, _)| *name == flag).map(|(_, value)| value.as_str())
    }

    /// The last value given to `flag`, as a path.
    pub fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// The last value given to `flag`, as a number.
    pub fn num<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.all(flag).map(|value| self.number(flag, value)).last()
    }

    /// The last value given to `flag`, as a positive count.
    pub fn count(&self, flag: &str) -> Option<usize> {
        self.all(flag)
            .map(|value| match self.number::<usize>(flag, value) {
                0 => self.invalid(flag, value, "count must be positive"),
                n => n,
            })
            .last()
    }

    /// The last value given to `flag`, as a positive number of seconds.
    pub fn seconds(&self, flag: &str) -> Option<Duration> {
        self.count(flag).map(|secs| Duration::from_secs(secs as u64))
    }

    /// The last value given to `flag`, as the one of `choices` it names.
    pub fn choice<T: Copy>(&self, flag: &str, choices: &[(&str, T)]) -> Option<T> {
        self.all(flag)
            .map(|value| match choices.iter().find(|(name, _)| *name == value) {
                Some(&(_, choice)) => choice,
                None => {
                    let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
                    self.invalid(flag, value, &format!("expected {}", names.join(" or ")))
                }
            })
            .last()
    }

    /// Parses one value of `flag` as a number, `_` grouping digits.
    pub fn number<T: FromStr>(&self, flag: &str, value: &str) -> T {
        // The error names the token as typed: `_` alone strips to the
        // empty string, which names nothing on the command line.
        value
            .replace('_', "")
            .parse()
            .unwrap_or_else(|_| self.invalid(flag, value, "expected a number"))
    }

    /// Rejects `value` of `flag`, saying `why`.
    pub fn invalid(&self, flag: &str, value: &str, why: &str) -> ! {
        (self.usage)(&format!("invalid value {value} for {flag}: {why}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(msg: &str) -> ! {
        panic!("{msg}")
    }

    fn parse(args: &[&str]) -> Flags {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Flags::parse(&args, &["--insts --csv", "--sweep"], &["--quick"], usage)
    }

    #[test]
    fn keeps_command_line_order() {
        let flags = parse(&["a", "--sweep", "b", "--quick", "c", "--insts", "1", "--insts", "2"]);
        assert_eq!(flags.positionals().collect::<Vec<_>>(), ["a", "c"]);
        assert_eq!(flags.num::<u64>("--insts"), Some(2), "the last value counts");
        let flags = flags.positionals_as("--sweep");
        assert_eq!(flags.all("--sweep").collect::<Vec<_>>(), ["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "missing value for --csv")]
    fn never_takes_a_flag_as_a_value() {
        parse(&["--csv", "--quick"]);
    }

    #[test]
    #[should_panic(expected = "unknown option --jobs")]
    fn rejects_undeclared_flags_by_name() {
        parse(&["fig6", "--jobs", "2"]);
    }

    #[test]
    #[should_panic(expected = "invalid value x for --insts: expected a number")]
    fn checks_every_value_of_a_repeated_flag() {
        parse(&["--insts", "x", "--insts", "1_000"]).num::<u64>("--insts");
    }
}
