//! The correctness gate: committed expected outputs for the golden seed,
//! comparison against what a run produced, and the gate's own negative
//! self-test.
//!
//! Outputs are flat `key -> value` maps. A key's first dot-separated part
//! names its section (`summary`, `counts`, `mem`, `check`); a pass
//! declares which sections it produces and is compared on exactly those.
//! Values are the program's own `Debug` renderings, which round-trip
//! floats exactly, so "equal" means bit-identical.

use std::collections::{BTreeMap, BTreeSet};

use crate::report::Tally;

/// Output key -> rendered value.
pub type Outputs = BTreeMap<String, String>;

/// The seed whose expected outputs are committed under `expected/`.
pub const GOLDEN_SEED: u64 = 42;

/// A seed with no committed outputs, run to show the gate still holds
/// (cross-pass agreement, determinism) where nothing was tuned.
pub const HELD_OUT_SEED: u64 = 7;

fn committed(workload: &str) -> Option<&'static str> {
    Some(match workload {
        "dense-1k" => include_str!("../expected/dense-1k.txt"),
        "checker-ci" => include_str!("../expected/checker-ci.txt"),
        _ => return None,
    })
}

/// Parses an expected-output file: a `seed N` line, then `key value`
/// lines (the value runs to the end of the line); `#` starts a comment.
pub fn parse(text: &str) -> Result<(u64, Outputs), String> {
    let mut seed = None;
    let mut out = Outputs::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("expected `key value`, got {line:?}"))?;
        if key == "seed" {
            seed = Some(value.parse().map_err(|e| format!("seed: {e}"))?);
        } else if out.insert(key.to_string(), value.to_string()).is_some() {
            return Err(format!("duplicate key {key}"));
        }
    }
    Ok((seed.ok_or("missing `seed` line")?, out))
}

/// Renders outputs in the format [`parse`] reads.
pub fn render(workload: &str, seed: u64, outputs: &Outputs) -> String {
    let mut s = format!(
        "# Expected outputs of the {workload} workload; regenerate with\n\
         # python3 perfbench/run.py --workload {workload} --seed {seed} --seconds 1 --trace 1 --write-expected\n\
         seed {seed}\n"
    );
    for (k, v) in outputs {
        s.push_str(&format!("{k} {v}\n"));
    }
    s
}

/// The committed outputs of `workload` when `seed` is the seed they were
/// recorded for, or always when `seed` is `None` (a workload whose
/// inputs do not depend on the seed).
pub fn golden(workload: &str, seed: Option<u64>) -> Result<Option<Outputs>, String> {
    let Some(text) = committed(workload) else {
        return Ok(None);
    };
    let (recorded, out) = parse(text).map_err(|e| format!("expected/{workload}.txt: {e}"))?;
    Ok(seed.is_none_or(|s| s == recorded).then_some(out))
}

fn section(key: &str) -> &str {
    key.split('.').next().unwrap_or(key)
}

/// The item (trial or checker config) a key describes: its second
/// dot-separated part (`summary.SRP-1000-0`, `check.ring4.states`).
pub fn item(key: &str) -> &str {
    key.split('.').nth(1).unwrap_or(key)
}

/// The part of `expected` about the items `actual` covers.
pub fn restrict(expected: &Outputs, actual: &Outputs) -> Outputs {
    let items: BTreeSet<&str> = actual.keys().map(|k| item(k)).collect();
    expected
        .iter()
        .filter(|(k, _)| items.contains(item(k)))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// Every difference between `expected` and `actual` within `sections`:
/// missing keys, extra keys and unequal values.
pub fn mismatches(expected: &Outputs, actual: &Outputs, sections: &[&str]) -> Vec<String> {
    let within = |k: &String| sections.contains(&section(k));
    let mut out = Vec::new();
    for (k, want) in expected.iter().filter(|(k, _)| within(k)) {
        match actual.get(k) {
            None => out.push(format!("{k}: missing (expected {want})")),
            Some(got) if got != want => out.push(format!("{k}: got {got}, expected {want}")),
            Some(_) => {}
        }
    }
    for k in actual.keys().filter(|k| within(k)) {
        if !expected.contains_key(k) {
            out.push(format!("{k}: not in the expected outputs"));
        }
    }
    out
}

/// The gate's negative self-test: alter one expected value and require
/// [`mismatches`] to report it. Returns `false` when the gate would have
/// let a wrong value through (or had nothing to compare).
pub fn self_test(expected: &Outputs, actual: &Outputs, sections: &[&str]) -> bool {
    let Some((k, v)) = expected
        .iter()
        .find(|(k, _)| sections.contains(&section(k)))
    else {
        return false;
    };
    let mut wrong = expected.clone();
    wrong.insert(k.clone(), format!("{v}0"));
    let reported = format!("{k}: ");
    mismatches(&wrong, actual, sections)
        .iter()
        .any(|m| m.starts_with(&reported))
}

/// The correctness gate of one run: every set of outputs is compared
/// with what is expected of the items it covers (the committed outputs
/// at the golden seed, otherwise the first outputs of the same items in
/// this run), and the first comparison also runs the negative
/// self-test.
pub struct Gate<'a> {
    golden: Option<&'a Outputs>,
    /// The first outputs of every item seen so far in this run.
    pub seen: Outputs,
    self_test: Option<bool>,
}

impl<'a> Gate<'a> {
    pub fn new(golden: Option<&'a Outputs>) -> Self {
        Gate {
            golden,
            seen: Outputs::new(),
            self_test: None,
        }
    }

    /// Compares `actual` on `sections`, counting each differing item as
    /// one failure in `tally`.
    pub fn check(&mut self, what: &str, actual: &Outputs, sections: &[&str], tally: &mut Tally) {
        let expected = restrict(self.golden.unwrap_or(&self.seen), actual);
        if !expected.is_empty() || self.golden.is_some() {
            tally.agree(what, &expected, actual, sections);
            if self.self_test.is_none() {
                self.self_test = Some(self_test(&expected, actual, sections));
            }
        }
        for (k, v) in actual {
            self.seen.entry(k.clone()).or_insert_with(|| v.clone());
        }
    }

    /// Whether the self-test passed; a run with nothing to compare tests
    /// the gate against its own outputs.
    pub fn self_test_ok(&self, sections: &[&str]) -> bool {
        self.self_test
            .unwrap_or_else(|| self_test(&self.seen, &self.seen, sections))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outputs(pairs: &[(&str, &str)]) -> Outputs {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn render_and_parse_round_trip() {
        let o = outputs(&[
            ("summary.SRP.0", "TrialSummary { x: 1.5 }"),
            ("counts.a", "3"),
        ]);
        let (seed, back) = parse(&render("w", 9, &o)).expect("parses");
        assert_eq!(seed, 9);
        assert_eq!(back, o);
    }

    #[test]
    fn mismatches_cover_values_missing_and_extra_keys() {
        let want = outputs(&[("counts.a", "1"), ("counts.b", "2"), ("mem.x", "5")]);
        let got = outputs(&[("counts.a", "1"), ("counts.b", "3"), ("counts.c", "4")]);
        let m = mismatches(&want, &got, &["counts"]);
        assert_eq!(m.len(), 2, "{m:?}");
        assert!(m[0].starts_with("counts.b"));
        assert!(m[1].starts_with("counts.c"));
        // Only the named sections are compared.
        assert_eq!(mismatches(&want, &got, &["mem"]).len(), 1);
    }

    #[test]
    fn restrict_keeps_the_items_a_run_covers() {
        let want = outputs(&[("summary.a", "1"), ("counts.a.x", "2"), ("summary.b", "3")]);
        let got = outputs(&[("summary.a", "1")]);
        let kept: Vec<String> = restrict(&want, &got).into_keys().collect();
        assert_eq!(kept, ["counts.a.x", "summary.a"]);
    }

    #[test]
    fn self_test_catches_one_wrong_value() {
        let o = outputs(&[("counts.a", "1"), ("counts.b", "2")]);
        assert!(self_test(&o, &o, &["counts"]));
        assert!(!self_test(&o, &o, &["check"]), "nothing to alter");
        // Still reported next to a difference that was already there.
        let got = outputs(&[("counts.a", "1"), ("counts.b", "3")]);
        assert!(self_test(&o, &got, &["counts"]));
    }

    #[test]
    fn golden_outputs_apply_at_their_seed_or_at_every_seed() {
        assert!(golden("dense-1k", Some(GOLDEN_SEED)).unwrap().is_some());
        assert!(golden("dense-1k", Some(HELD_OUT_SEED)).unwrap().is_none());
        assert!(golden("checker-ci", None).unwrap().is_some());
        assert!(golden("other", None).unwrap().is_none());
    }

    #[test]
    fn committed_files_parse() {
        for w in ["dense-1k", "checker-ci"] {
            let (seed, out) = parse(committed(w).expect("committed")).expect("parses");
            assert_eq!(seed, GOLDEN_SEED, "{w}");
            assert!(!out.is_empty(), "{w}");
        }
    }
}
