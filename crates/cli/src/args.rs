//! Tiny flag parser (no external dependency): `--key value` pairs plus
//! positional arguments and boolean switches.

use std::collections::HashMap;

/// Parsed command line: positionals in order, flags by name.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Parse `argv`; `switch_names` lists flags that take no value.
pub fn parse(argv: &[String], switch_names: &[&str]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if let Some(name) = a.strip_prefix("--") {
            if switch_names.contains(&name) {
                out.switches.push(name.to_string());
                i += 1;
            } else {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                out.flags.insert(name.to_string(), value.clone());
                i += 2;
            }
        } else {
            out.positional.push(a.clone());
            i += 1;
        }
    }
    Ok(out)
}

impl Args {
    /// Value of `--name`, parsed.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }

    /// Value of `--name` with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// Whether a boolean switch was passed.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Raw string flag.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Reject any flag or switch outside the ones `cmd` reads, so a
    /// misspelt or retired flag is an error instead of a silent default.
    pub fn only(&self, cmd: &str, flags: &[&str], switches: &[&str]) -> Result<(), String> {
        let unknown = self
            .flags
            .keys()
            .filter(|f| !flags.contains(&f.as_str()))
            .chain(
                self.switches
                    .iter()
                    .filter(|s| !switches.contains(&s.as_str())),
            )
            .min();
        match unknown {
            Some(name) => Err(format!("unknown flag --{name} for {cmd}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_positionals_flags_and_switches() {
        let a = parse(
            &argv(&["plan", "resnet50", "--gpus", "4", "--full"]),
            &["full"],
        )
        .unwrap();
        assert_eq!(a.positional, vec!["plan", "resnet50"]);
        assert_eq!(a.get::<usize>("gpus").unwrap(), Some(4));
        assert!(a.has("full"));
        assert!(!a.has("quick"));
        assert_eq!(a.get_or::<u64>("memory-gb", 16).unwrap(), 16);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&argv(&["--gpus"]), &[]).is_err());
    }

    #[test]
    fn only_rejects_flags_and_switches_the_command_does_not_read() {
        let a = parse(&argv(&["serve", "--addr", "x", "--stats"]), &["stats"]).unwrap();
        assert!(a.only("serve", &["addr"], &["stats"]).is_ok());
        assert_eq!(
            a.only("serve", &["addr"], &[]).unwrap_err(),
            "unknown flag --stats for serve"
        );
        assert_eq!(
            a.only("serve", &["journal"], &["stats"]).unwrap_err(),
            "unknown flag --addr for serve"
        );
    }

    #[test]
    fn bad_parse_is_an_error() {
        let a = parse(&argv(&["--gpus", "four"]), &[]).unwrap();
        assert!(a.get::<usize>("gpus").is_err());
    }
}
