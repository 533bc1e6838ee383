//! `<command> --key value ...` argument parsing.

use std::collections::HashMap;

pub struct Args {
    pub command: String,
    values: HashMap<String, String>,
}

impl Args {
    pub fn parse(tokens: impl Iterator<Item = String>) -> Result<Args, String> {
        let tokens: Vec<String> = tokens.collect();
        let command = tokens.first().cloned().ok_or("missing command")?;
        let mut values = HashMap::new();
        let mut rest = tokens[1..].iter();
        while let Some(key) = rest.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = rest
                .next()
                .ok_or_else(|| format!("--{key} needs a value"))?;
            values.insert(key.to_string(), value.clone());
        }
        Ok(Args { command, values })
    }

    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.str(key)?;
        raw.parse()
            .map_err(|_| format!("--{key} got unparsable value {raw:?}"))
    }
}
