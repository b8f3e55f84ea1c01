//! Minimal `--flag value` argument parsing (no external parser crates
//! in the allowed dependency list).

use std::collections::HashMap;

/// Usage string shown on errors.
pub const USAGE: &str = "usage: cagra-cli <command> [--flag value]...
  synth  --preset P --n N [--queries Q] [--seed S] --out-dir D
  gt     --base F --queries F --k K [--metric l2|ip|cosine] --out F
  build  --base F --degree D [--metric M] [--strategy rank|distance] [--d-init D] --out F
         [--metrics-out F]
  bundle --base F --degree D [--metric M] [--relabel identity|degree|rcm|gorder] [--pq M] --out F
  search (--index F | --base F --graph F [--metric M]) --queries F --k K [--itopk I]
         [--mode auto|single|multi] [--rerank D] [--gt F] [--metrics-out F]
  serve  (--index F | --base F --graph F [--metric M]) [--k K] [--itopk I] [--rerank D]
         [--queue-cap C] [--threads W] [--addr A] [--dynamic true|false]
         [--self-test N] [--clients C] [--metrics-out F]
  stats  --graph F [--two-hop-stride S]
A flag its command does not list is an error. --rerank D runs two-phase search over a PQ \
bundle. serve --threads W runs W serve workers, each searching one request at a time \
(0 = CAGRA_THREADS or every core).";

/// Parsed flags for one subcommand.
#[derive(Clone, Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
}

/// Split `argv` into (subcommand, flags).
pub fn parse(argv: &[String]) -> Result<(String, Args), String> {
    let mut it = argv.iter();
    let cmd = it.next().ok_or_else(|| USAGE.to_string())?.clone();
    let mut flags = HashMap::new();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{flag}'. {USAGE}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        if flags.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    Ok((cmd, Args { flags }))
}

impl Args {
    /// Refuse any flag outside `accepted`, so a typo or a retired flag
    /// fails loudly instead of being ignored.
    pub fn accept_only(&self, accepted: &[&str]) -> Result<(), String> {
        let mut unknown: Vec<&str> =
            self.flags.keys().map(String::as_str).filter(|f| !accepted.contains(f)).collect();
        unknown.sort_unstable();
        match unknown.first() {
            Some(flag) => {
                Err(format!("unknown flag --{flag} (accepted: --{})", accepted.join(", --")))
            }
            None => Ok(()),
        }
    }

    /// Required string flag.
    pub fn req(&self, name: &str) -> Result<&str, String> {
        self.flags.get(name).map(String::as_str).ok_or_else(|| format!("missing --{name}"))
    }

    /// Optional string flag.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Required numeric flag.
    pub fn req_usize(&self, name: &str) -> Result<usize, String> {
        self.req(name)?.parse().map_err(|_| format!("--{name} must be a number"))
    }

    /// Optional numeric flag with a default.
    pub fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name} must be a number")),
            None => Ok(default),
        }
    }

    /// Optional boolean flag (`--name true|false`), default false.
    pub fn bool_or(&self, name: &str, default: bool) -> Result<bool, String> {
        match self.flags.get(name).map(String::as_str) {
            Some("true") | Some("1") => Ok(true),
            Some("false") | Some("0") => Ok(false),
            Some(_) => Err(format!("--{name} must be true or false")),
            None => Ok(default),
        }
    }

    /// Optional u64 flag with a default.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name} must be a number")),
            None => Ok(default),
        }
    }

    /// Test helper: build from pairs.
    pub fn from_pairs(pairs: &[(&str, &str)]) -> Args {
        Args { flags: pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let (cmd, args) = parse(&sv(&["build", "--base", "x.fvecs", "--degree", "32"])).unwrap();
        assert_eq!(cmd, "build");
        assert_eq!(args.req("base").unwrap(), "x.fvecs");
        assert_eq!(args.req_usize("degree").unwrap(), 32);
        assert_eq!(args.usize_or("itopk", 64).unwrap(), 64);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&sv(&["build", "--base"])).is_err());
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert!(parse(&sv(&["build", "--k", "1", "--k", "2"])).is_err());
    }

    #[test]
    fn non_flag_is_an_error() {
        assert!(parse(&sv(&["build", "base.fvecs"])).is_err());
    }

    #[test]
    fn empty_argv_is_an_error() {
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn a_flag_outside_the_accepted_list_is_named() {
        let (_, args) = parse(&sv(&["build", "--base", "x", "--itpok", "64"])).unwrap();
        assert!(args.accept_only(&["base", "itopk"]).unwrap_err().contains("--itpok"));
        assert!(args.accept_only(&["base", "itpok"]).is_ok());
    }

    #[test]
    fn bad_number_is_an_error() {
        let (_, args) = parse(&sv(&["build", "--degree", "abc"])).unwrap();
        assert!(args.req_usize("degree").is_err());
        assert!(args.usize_or("degree", 1).is_err());
    }
}
