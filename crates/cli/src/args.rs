//! Minimal flag parser for the CLI (no external dependencies).

use std::collections::HashMap;

/// Parsed flags: `--key value` pairs (repeatable), `--switch` booleans, and
/// positional arguments.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, Vec<String>>,
    switches: Vec<String>,
    pub positional: Vec<String>,
}

/// Flag names that take no value.
const SWITCHES: &[&str] = &[
    "no-attack",
    "demo-queries",
    "pipeline",
    "follow",
    "resume",
    "quiet",
    "lossless",
    "arrival",
];

impl Flags {
    /// Parse an argv slice. Unknown flags are collected too; commands
    /// validate what they use.
    pub fn parse(argv: &[String]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            if let Some(name) = arg.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    flags.switches.push(name.to_string());
                    i += 1;
                } else {
                    let value = argv
                        .get(i + 1)
                        .ok_or_else(|| format!("flag --{name} needs a value"))?;
                    flags
                        .values
                        .entry(name.to_string())
                        .or_default()
                        .push(value.clone());
                    i += 2;
                }
            } else {
                flags.positional.push(arg.clone());
                i += 1;
            }
        }
        Ok(flags)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .get(name)
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.values
            .get(name)
            .map(|v| v.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got `{v}`")),
        }
    }

    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        self.get_u64(name, default as u64).map(|v| v as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_values_switches_positional() {
        let f = Flags::parse(&argv(
            "--out a.bin --host h1 --host h2 --no-attack file.saql",
        ))
        .unwrap();
        assert_eq!(f.get("out"), Some("a.bin"));
        assert_eq!(f.get_all("host"), vec!["h1", "h2"]);
        assert!(f.switch("no-attack"));
        assert!(!f.switch("demo-queries"));
        assert_eq!(f.positional, vec!["file.saql"]);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(Flags::parse(&argv("--out")).is_err());
    }

    #[test]
    fn numeric_parsing() {
        let f = Flags::parse(&argv("--clients 12")).unwrap();
        assert_eq!(f.get_usize("clients", 8).unwrap(), 12);
        assert_eq!(f.get_u64("minutes", 60).unwrap(), 60);
        let bad = Flags::parse(&argv("--clients twelve")).unwrap();
        assert!(bad.get_usize("clients", 8).is_err());
    }
}
