//! Expected deterministic outputs, kept in `perfbench/expected/`.
//!
//! One line per entry: a label, then whitespace-separated fields. The
//! benchmark compares the fields it observes with the stored ones as
//! strings, so a float must reproduce to the last bit (floats are
//! written in Rust's shortest round-trip form). `--write-expected`
//! records the observed fields instead of checking them.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// The stored expectations of one workload.
#[derive(Clone, Debug, Default)]
pub struct Expected {
    entries: BTreeMap<String, Vec<String>>,
    recording: bool,
}

impl Expected {
    /// Loads `path` (`#` starts a comment line).
    ///
    /// # Errors
    ///
    /// The file cannot be read or a line has no fields.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read expected outputs {}: {e}", path.display()))?;
        let mut entries = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let label = words.next().expect("non-empty line has a word").to_owned();
            let fields: Vec<String> = words.map(str::to_owned).collect();
            if fields.is_empty() {
                return Err(format!("{}: entry '{label}' has no fields", path.display()));
            }
            entries.insert(label, fields);
        }
        Ok(Expected {
            entries,
            recording: false,
        })
    }

    /// An empty set that records what it is shown.
    pub fn recorder() -> Expected {
        Expected {
            entries: BTreeMap::new(),
            recording: true,
        }
    }

    /// The stored fields of `label`.
    pub fn get(&self, label: &str) -> Option<&[String]> {
        self.entries.get(label).map(Vec::as_slice)
    }

    /// Compares `actual` with the stored fields of `label` (or records
    /// them when recording).
    ///
    /// # Errors
    ///
    /// A message naming the label and both field lists.
    pub fn check(&mut self, label: &str, actual: Vec<String>) -> Result<(), String> {
        if self.recording {
            self.entries.insert(label.to_owned(), actual);
            return Ok(());
        }
        match self.entries.get(label) {
            Some(stored) if *stored == actual => Ok(()),
            Some(stored) => Err(format!(
                "{label}: expected [{}], got [{}]",
                stored.join(" "),
                actual.join(" ")
            )),
            None => Err(format!("{label}: no expected value stored")),
        }
    }

    /// Writes the entries to `path` under a header comment.
    ///
    /// # Errors
    ///
    /// The file cannot be written.
    pub fn write(&self, path: &Path, header: &str) -> Result<(), String> {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str(&format!("# {line}\n"));
        }
        for (label, fields) in &self.entries {
            out.push_str(&format!("{label} {}\n", fields.join(" ")));
        }
        fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// A float in its shortest round-trip form.
pub fn float(v: f64) -> String {
    format!("{v:?}")
}
