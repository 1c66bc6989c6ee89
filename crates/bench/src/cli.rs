//! The command-line walker the four binaries share (`gnna-sim`,
//! `gnna-report`, `gnna-campaign` and `gnna-serve`).
//!
//! Each binary keeps its own flag `match` and its hand-written usage
//! text; this module owns what they used to repeat: fetching a flag's
//! value, typed parsing with one error format that names the flag, the
//! positive and `[0, 1]` checks, the model/input/configuration names,
//! `--help`/`--version`, and the usage/exit-code epilogue.
//!
//! ```no_run
//! use gnna_bench::cli::{self, Cli, Stop};
//!
//! fn parse_args(cli: &mut Cli) -> Result<usize, Stop> {
//!     let mut threads = 1;
//!     while let Some(flag) = cli.next_flag()? {
//!         match flag.as_str() {
//!             "--threads" => threads = cli.positive(&flag)?,
//!             _ => return Err(cli::unknown(&flag)),
//!         }
//!     }
//!     Ok(threads)
//! }
//!
//! fn main() -> std::process::ExitCode {
//!     match cli::parse_env("my-bin", "usage: my-bin [--threads N]", parse_args) {
//!         Ok(threads) => println!("{threads} threads"),
//!         Err(code) => return code,
//!     }
//!     std::process::ExitCode::SUCCESS
//! }
//! ```

use gnna_core::config::AcceleratorConfig;
use gnna_faults::{CrcDomain, EccDomain};
use gnna_graph::datasets;
use gnna_models::ModelKind;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// Why parsing ended without producing arguments.
#[derive(Debug, PartialEq)]
pub enum Stop {
    /// `--help` or `-h`: print the usage text, exit 0.
    Help,
    /// `--version` or `-V`: print `<bin> <version>`, exit 0.
    Version,
    /// A bad command line: print the message and the usage, exit 1.
    Error(String),
}

impl From<String> for Stop {
    fn from(msg: String) -> Self {
        Stop::Error(msg)
    }
}

impl From<&str> for Stop {
    fn from(msg: &str) -> Self {
        Stop::Error(msg.to_string())
    }
}

/// Parses one number given to `flag` (a flag value or one item of a
/// comma-separated list). Fails with `bad <flag> "<s>": <reason>`; no
/// flag takes an infinite or NaN float.
pub fn number<T: FromStr>(flag: &str, s: &str) -> Result<T, Stop>
where
    T::Err: Display,
{
    match s.parse::<T>() {
        Err(e) => Err(format!("bad {flag} {s:?}: {e}").into()),
        Ok(_) if s.parse::<f64>().is_ok_and(|f| !f.is_finite()) => {
            Err(format!("bad {flag} {s:?}: not a finite number").into())
        }
        Ok(v) => Ok(v),
    }
}

/// Resolves a case-insensitive name through `find`, or fails with
/// `unknown <what> <name> (<names>)`.
pub fn lookup<T>(
    what: &str,
    names: &str,
    name: &str,
    find: impl FnOnce(&str) -> Option<T>,
) -> Result<T, Stop> {
    let name = name.to_ascii_lowercase();
    find(&name).ok_or_else(|| format!("unknown {what} {name} ({names})").into())
}

/// A model name (`gcn`, `gat`, `mpnn`, `pgnn`).
pub fn model(name: &str) -> Result<ModelKind, Stop> {
    lookup("model", "gcn|gat|mpnn|pgnn", name, ModelKind::parse)
}

/// A Table V input name, or its alias `qm9` or `dblp`; resolves to the
/// canonical name (`"QM9_1000"`).
pub fn input(name: &str) -> Result<&'static str, Stop> {
    lookup("input", "cora|citeseer|pubmed|qm9|dblp", name, |s| {
        datasets::spec_by_name(s).map(|spec| spec.name)
    })
}

/// A Table VI configuration name.
pub fn config(name: &str) -> Result<AcceleratorConfig, Stop> {
    lookup(
        "config",
        "cpu-iso-bw|gpu-iso-bw|gpu-iso-flops",
        name,
        AcceleratorConfig::by_name,
    )
}

/// A SECDED protection domain (`gnna-sim --ecc-domain`, the ECC half
/// of a `gnna-campaign --domains` pair).
pub fn ecc_domain(name: &str) -> Result<EccDomain, Stop> {
    lookup("ECC domain", "both|weights|acts", name, EccDomain::parse)
}

/// A link-CRC protection domain (`gnna-sim --crc-domain`, the CRC half
/// of a `gnna-campaign --domains` pair).
pub fn crc_domain(name: &str) -> Result<CrcDomain, Stop> {
    lookup("CRC domain", "all|data|ctrl", name, CrcDomain::parse)
}

/// The error for a flag the binary does not know.
pub fn unknown(flag: &str) -> Stop {
    Stop::Error(format!("unknown option {flag}"))
}

/// Walks a command line flag by flag.
#[derive(Debug)]
pub struct Cli {
    args: std::vec::IntoIter<String>,
}

impl Cli {
    /// A walker over `args` (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Cli {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
        }
    }

    /// The next flag, or `None` at the end. `--help`/`-h` and
    /// `--version`/`-V` end the walk as [`Stop::Help`] and
    /// [`Stop::Version`].
    pub fn next_flag(&mut self) -> Result<Option<String>, Stop> {
        match self.args.next() {
            Some(f) if f == "--help" || f == "-h" => Err(Stop::Help),
            Some(f) if f == "--version" || f == "-V" => Err(Stop::Version),
            next => Ok(next),
        }
    }

    /// The value after `flag`; fails with `<flag> needs a value`.
    pub fn value(&mut self, flag: &str) -> Result<String, Stop> {
        self.args
            .next()
            .ok_or_else(|| format!("{flag} needs a value").into())
    }

    /// The value after `flag` as a number (see [`number`]).
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, Stop>
    where
        T::Err: Display,
    {
        number(flag, &self.value(flag)?)
    }

    /// A number above zero; fails with `<flag> must be positive`.
    pub fn positive<T: FromStr + PartialOrd + Default>(&mut self, flag: &str) -> Result<T, Stop>
    where
        T::Err: Display,
    {
        let v: T = self.parse(flag)?;
        if v > T::default() {
            Ok(v)
        } else {
            Err(format!("{flag} must be positive").into())
        }
    }

    /// A probability; fails with `<flag> must be in [0, 1]`.
    pub fn fraction(&mut self, flag: &str) -> Result<f64, Stop> {
        let v: f64 = self.parse(flag)?;
        if (0.0..=1.0).contains(&v) {
            Ok(v)
        } else {
            Err(format!("{flag} must be in [0, 1]").into())
        }
    }

    /// The value after `flag` resolved through `find` (see [`lookup`]).
    pub fn choice<T>(
        &mut self,
        flag: &str,
        what: &str,
        names: &str,
        find: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, Stop> {
        lookup(what, names, &self.value(flag)?, find)
    }

    /// The value after `flag` as a comma-separated list, each item
    /// parsed by `item`.
    pub fn list<T>(
        &mut self,
        flag: &str,
        item: impl FnMut(&str) -> Result<T, Stop>,
    ) -> Result<Vec<T>, Stop> {
        self.value(flag)?.split(',').map(item).collect()
    }
}

/// Parses the process's arguments with `parse` and handles what every
/// binary does when that stops early: `--version` prints `<bin>
/// <version>` to stdout, `--help` prints `usage` to stderr (both exit
/// 0), and an error prints `error: <msg>`, a blank line and `usage` to
/// stderr (exit 1). The `Err` holds the exit code to return from `main`.
pub fn parse_env<A>(
    bin: &str,
    usage: &str,
    parse: impl FnOnce(&mut Cli) -> Result<A, Stop>,
) -> Result<A, ExitCode> {
    match parse(&mut Cli::new(std::env::args().skip(1))) {
        Ok(args) => Ok(args),
        // Every binary shares the workspace version.
        Err(Stop::Version) => {
            println!("{bin} {}", env!("CARGO_PKG_VERSION"));
            Err(ExitCode::SUCCESS)
        }
        Err(Stop::Help) => {
            eprintln!("{usage}");
            Err(ExitCode::SUCCESS)
        }
        Err(Stop::Error(msg)) => {
            eprintln!("error: {msg}\n");
            eprintln!("{usage}");
            Err(ExitCode::FAILURE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::new(args.iter().map(|s| s.to_string()))
    }

    fn error(stop: Stop) -> String {
        match stop {
            Stop::Error(msg) => msg,
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn a_missing_value_names_the_flag() {
        let mut c = cli(&["--out"]);
        let flag = c.next_flag().unwrap().unwrap();
        assert_eq!(error(c.value(&flag).unwrap_err()), "--out needs a value");
    }

    #[test]
    fn a_bad_number_names_the_flag_and_the_value() {
        let msg = error(cli(&["x"]).parse::<usize>("--threads").unwrap_err());
        assert!(msg.starts_with("bad --threads \"x\": "), "{msg}");
        let msg = error(cli(&["inf"]).parse::<f64>("--clock").unwrap_err());
        assert_eq!(msg, "bad --clock \"inf\": not a finite number");
        assert_eq!(cli(&["2.4"]).parse::<f64>("--clock"), Ok(2.4));
    }

    #[test]
    fn zero_fails_the_positive_check() {
        let msg = error(cli(&["0"]).positive::<u64>("--soak-secs").unwrap_err());
        assert_eq!(msg, "--soak-secs must be positive");
        assert!(cli(&["0.0"]).positive::<f64>("--acceleration").is_err());
        assert_eq!(cli(&["3"]).positive::<u64>("--soak-secs"), Ok(3));
    }

    #[test]
    fn fractions_stay_in_the_unit_interval() {
        assert_eq!(cli(&["1"]).fraction("--fault-rate"), Ok(1.0));
        let msg = error(cli(&["1.5"]).fraction("--fault-rate").unwrap_err());
        assert_eq!(msg, "--fault-rate must be in [0, 1]");
    }

    #[test]
    fn a_flag_can_take_two_values() {
        // `gnna-report --diff A B`.
        let mut c = cli(&["--diff", "A", "B", "--top-k", "3"]);
        let flag = c.next_flag().unwrap().unwrap();
        assert_eq!(flag, "--diff");
        assert_eq!(
            (c.value(&flag).unwrap(), c.value(&flag).unwrap()),
            ("A".into(), "B".into())
        );
        assert_eq!(c.next_flag().unwrap().as_deref(), Some("--top-k"));
        assert_eq!(c.parse::<usize>("--top-k"), Ok(3));
        assert_eq!(c.next_flag(), Ok(None));
    }

    #[test]
    fn help_and_version_end_the_walk() {
        assert_eq!(cli(&["-h"]).next_flag(), Err(Stop::Help));
        assert_eq!(cli(&["--version"]).next_flag(), Err(Stop::Version));
        // As a flag's value, `--help` is just a string.
        assert_eq!(cli(&["--help"]).value("--out"), Ok("--help".into()));
    }

    #[test]
    fn names_resolve_case_insensitively_with_aliases() {
        assert_eq!(model("GAT"), Ok(ModelKind::Gat));
        assert_eq!(input("qm9"), Ok("QM9_1000"));
        assert_eq!(input("DBLP"), Ok("DBLP_1"));
        assert_eq!(config("gpu-iso-flops").unwrap().name, "GPU iso-FLOPS");
        for (m, i) in gnna_models::BENCHMARK_PAIRS {
            assert_eq!(model(m.name()), Ok(m));
            assert_eq!(input(i), Ok(i));
        }
        assert_eq!(
            error(model("vgg").unwrap_err()),
            "unknown model vgg (gcn|gat|mpnn|pgnn)"
        );
        assert!(input("imagenet").is_err());
        assert!(config("tpu").is_err());
    }

    #[test]
    fn lists_split_on_commas() {
        let mut c = cli(&["1,2,x"]);
        let msg = error(
            c.list("--seeds", |s| number::<u64>("--seeds", s))
                .unwrap_err(),
        );
        assert!(msg.starts_with("bad --seeds \"x\""), "{msg}");
        let mut c = cli(&["0,0.5"]);
        assert_eq!(
            c.list("--rates", |s| number("--rates", s)),
            Ok(vec![0.0, 0.5])
        );
    }
}
