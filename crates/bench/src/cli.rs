//! The one flag reader every subcommand shares.
//!
//! `xtc-bench <subcommand> [positionals] [--key value | --switch]...` is
//! split once into a map; each experiment then pulls what it knows through
//! the typed getters (every getter takes the default and a help line) and
//! calls [`Flags::finish`], which prints the generated `--help` or dies on
//! any flag nobody read. Positionals come before the first flag: a bare
//! word after `--key` is that key's value.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;
use xtc_tamix::BibConfig;

/// Usage errors end here: exit status 2, distinct from a failed gate's 1.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg} (try --help)");
    std::process::exit(2)
}

/// The parsed command line of one subcommand.
pub struct Flags {
    /// Subcommand name (`figs`, `storage`, …); names the default `--out`.
    pub sub: String,
    /// The arguments as typed, recorded in the report's `meta`.
    pub argv: String,
    positionals: Vec<String>,
    given: BTreeMap<String, Option<String>>,
    /// `(key, value placeholder, help)` of every flag a getter asked for,
    /// in asking order: what `finish` checks `given` against and what
    /// `--help` prints.
    known: RefCell<Vec<(String, &'static str, String)>>,
}

impl Flags {
    /// Splits `args` (everything after the subcommand). The last
    /// occurrence of a repeated flag wins.
    pub fn parse(sub: &str, args: impl IntoIterator<Item = String>) -> Flags {
        let args: Vec<String> = args.into_iter().collect();
        let mut flags = Flags {
            sub: sub.to_string(),
            argv: args.join(" "),
            positionals: Vec::new(),
            given: BTreeMap::new(),
            known: RefCell::new(Vec::new()),
        };
        let mut args = args.into_iter().peekable();
        while let Some(a) = args.next() {
            if a == "-h" {
                flags.given.insert("help".to_string(), None);
            } else if let Some(key) = a.strip_prefix("--") {
                let value = args.next_if(|v| !v.starts_with("--"));
                flags.given.insert(key.to_string(), value);
            } else if flags.given.is_empty() {
                flags.positionals.push(a);
            } else {
                die(&format!(
                    "positional argument {a} must come before the flags"
                ));
            }
        }
        flags
    }

    /// Registers `--key` and returns its value, if given.
    fn value(&self, key: &str, what: &'static str, help: &str) -> Option<&str> {
        self.known
            .borrow_mut()
            .push((key.to_string(), what, help.to_string()));
        match self.given.get(key)? {
            Some(v) => Some(v),
            None => die(&format!("--{key} needs a {what}")),
        }
    }

    fn parsed<T: FromStr>(&self, key: &str, what: &str, raw: &str) -> T {
        raw.trim()
            .parse()
            .unwrap_or_else(|_| die(&format!("--{key}: bad {what} {raw}")))
    }

    /// `--key N`, or `default`.
    pub fn num<T: FromStr + Display>(&self, key: &str, default: T, help: &str) -> T {
        let help = format!("{help} (default {default})");
        match self.value(key, "N", &help) {
            Some(raw) => self.parsed(key, "number", raw),
            None => default,
        }
    }

    /// `--key N` with no default: `None` leaves the feature off.
    pub fn opt_num<T: FromStr>(&self, key: &str, help: &str) -> Option<T> {
        self.value(key, "N", help)
            .map(|raw| self.parsed(key, "number", raw))
    }

    /// `--key a,b,c`, or `default`.
    pub fn list<T: FromStr + Display + Clone>(
        &self,
        key: &str,
        default: &[T],
        help: &str,
    ) -> Vec<T> {
        let shown: Vec<String> = default.iter().map(|d| d.to_string()).collect();
        let help = format!("{help} (default {})", shown.join(","));
        match self.value(key, "a,b,c", &help) {
            Some(raw) => raw
                .split(',')
                .map(|item| self.parsed(key, "list item", item))
                .collect(),
            None => default.to_vec(),
        }
    }

    /// `--key TEXT`, or `default`.
    pub fn text(&self, key: &str, default: &str, help: &str) -> String {
        let help = format!("{help} (default {default})");
        self.value(key, "TEXT", &help)
            .unwrap_or(default)
            .to_string()
    }

    /// Bare `--key`.
    pub fn switch(&self, key: &str, help: &str) -> bool {
        self.known
            .borrow_mut()
            .push((key.to_string(), "", help.to_string()));
        match self.given.get(key) {
            None => false,
            Some(None) => true,
            Some(Some(v)) => die(&format!("--{key} takes no value (got {v})")),
        }
    }

    /// `--bib tiny|scaled|paper`: the document size, with its name.
    pub fn bib(&self, default: &str) -> (String, BibConfig) {
        let name = self.text("bib", default, "document size: tiny|scaled|paper");
        let cfg = match name.as_str() {
            "tiny" => BibConfig::tiny(),
            "scaled" => BibConfig::scaled(),
            "paper" => BibConfig::paper(),
            other => die(&format!("unknown bib size {other}")),
        };
        (name, cfg)
    }

    /// Words before the first flag (`figs 9 10`).
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Flags that were given but that no getter asked for.
    fn unread(&self) -> Vec<&str> {
        let known = self.known.borrow();
        self.given
            .keys()
            .filter(|k| *k != "help" && !known.iter().any(|(key, ..)| key == *k))
            .map(|k| k.as_str())
            .collect()
    }

    /// Call after the last getter and before any work: serves `--help`
    /// from what the getters registered, rejects everything else unknown.
    pub fn finish(&self) {
        if self.given.contains_key("help") {
            println!("usage: xtc-bench {} [options]", self.sub);
            for (key, what, help) in self.known.borrow().iter() {
                println!("  {:<34} {help}", format!("--{key} {what}"));
            }
            std::process::exit(0);
        }
        if let Some(k) = self.unread().first() {
            die(&format!("unknown option --{k}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse("test", args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn defaults_are_sane() {
        let a = crate::figs::FigArgs::read(&flags(&[]));
        assert_eq!(a.depths, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let p = a.cluster1("taDOM3+", xtc_core::IsolationLevel::Repeatable, 3);
        assert_eq!(p.lock_depth, 3);
        assert_eq!(p.total_slots(), 72, "the paper's 72 active transactions");
    }

    #[test]
    fn getters_fall_back_to_their_defaults() {
        let f = flags(&[]);
        assert_eq!(f.num("duration-ms", 1500u64, ""), 1500);
        assert_eq!(f.opt_num::<u64>("deadline-ms", ""), None);
        assert_eq!(f.list("depths", &[0u32, 4], ""), vec![0, 4]);
        assert_eq!(f.text("protocol", "taDOM3+", ""), "taDOM3+");
        assert!(!f.switch("check", ""));
        assert_eq!(f.bib("tiny").0, "tiny");
        assert!(f.positionals().is_empty());
        assert!(f.unread().is_empty());
    }

    #[test]
    fn values_switches_lists_and_positionals_parse() {
        let f = flags(&[
            "9",
            "10",
            "--depths",
            "0, 4,7",
            "--check",
            "--zipf",
            "1.5",
            "--protocols",
            "taDOM3+,URIX",
            "--seed",
            "1",
            "--seed",
            "2",
        ]);
        assert_eq!(f.positionals(), ["9", "10"]);
        assert_eq!(f.list("depths", &[1u32], ""), vec![0, 4, 7]);
        assert!(f.switch("check", ""));
        assert_eq!(f.num("zipf", 1.0f64, ""), 1.5);
        assert_eq!(
            f.list("protocols", &[String::new()], ""),
            vec!["taDOM3+".to_string(), "URIX".to_string()]
        );
        assert_eq!(f.num("seed", 0u64, ""), 2, "the last occurrence wins");
        assert_eq!(
            f.argv,
            "9 10 --depths 0, 4,7 --check --zipf 1.5 --protocols taDOM3+,URIX --seed 1 --seed 2"
        );
        assert!(f.unread().is_empty());
    }

    #[test]
    fn a_flag_nobody_read_is_reported() {
        let f = flags(&["--duration-ms", "5", "--bogus", "--help"]);
        f.num("duration-ms", 1u64, "");
        assert_eq!(f.unread(), ["bogus"], "--help is finish()'s own");
    }
}
