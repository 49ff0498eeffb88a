//! Expected outputs. Two kinds, both checked on every analysis:
//!
//! * **golden digests** (`golden/expected.txt`): a two-lane FNV-1a-64
//!   digest and line count of each rendering, written once by
//!   `bench golden --write` and thereafter only compared;
//! * **known answers**: numbers that do not come from this tool at all —
//!   the paper's Table II (18 deadlock ids) and the report / replay counts
//!   the repo's own tier-1 tests pin for the release versions.

use crate::gen::App;
use std::collections::BTreeMap;
use std::path::PathBuf;
use weseer_core::AppAnalysis;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 128-bit content digest (two FNV-1a-64 lanes, 32 hex characters) and
/// line count of a rendering, in one pass and without allocating: this
/// runs between timed operations, on half a megabyte for Broadleaf.
///
/// Reports name the code location that triggered a statement, through
/// `file!()`. For a path dependency outside the workspace that is an
/// absolute path, so the same program renders differently from another
/// checkout; the checkout's own prefix is skipped while hashing.
pub fn digest(text: &str) -> (String, usize) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/");
    let root = root.strip_suffix("benchmark/").unwrap_or(root);
    let (mut a, mut b) = (0xcbf2_9ce4_8422_2325u64, 0x6c62_272e_07bb_0142u64);
    let mut newlines = 0;
    let mut last = b'\n';
    for piece in text.split(root) {
        for &byte in piece.as_bytes() {
            a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            newlines += usize::from(byte == b'\n');
            last = byte;
        }
    }
    // Count an unterminated last line, as `str::lines` does.
    let lines = newlines + usize::from(last != b'\n');
    (format!("{a:016x}{b:016x}"), lines)
}

/// Known answers for the release version (`Fixes::none()`) of an app.
pub struct Known {
    pub reports: usize,
    /// Table II deadlock ids covered (13 + 5 = the paper's 18).
    pub table2_ids: usize,
    pub confirmed: usize,
    pub not_reproduced: usize,
}

pub fn known(app: App) -> Known {
    match app {
        App::Broadleaf => Known {
            reports: 124,
            table2_ids: 13,
            confirmed: 124,
            not_reproduced: 0,
        },
        App::Shopizer => Known {
            reports: 26,
            table2_ids: 5,
            confirmed: 19,
            not_reproduced: 7,
        },
    }
}

/// Check a release-version batch analysis against the known answers.
pub fn check_known(app: App, a: &AppAnalysis) -> Result<(), String> {
    let k = known(app);
    let replay = a.replay.as_ref().ok_or("replay was not run")?;
    let got = (
        a.diagnosis.deadlocks.len(),
        a.deadlock_ids_found(),
        replay.confirmed(),
        replay.not_reproduced(),
        replay.skipped(),
    );
    let want = (k.reports, k.table2_ids, k.confirmed, k.not_reproduced, 0);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{}: (reports, table2 ids, confirmed, not reproduced, skipped) = {got:?}, known answer {want:?}",
            app.name()
        ))
    }
}

/// Key of a golden entry: `batch/<app>` or `stream/<app>/<version>`.
pub fn batch_key(app: App) -> String {
    format!("batch/{}", app.name())
}

pub fn stream_key(app: App, variant: Option<u8>) -> String {
    match variant {
        None => format!("stream/{}/none", app.name()),
        Some(k) => format!("stream/{}/f{}", app.name(), k + 1),
    }
}

#[derive(Debug, Default, PartialEq, Eq)]
pub struct Golden {
    /// key → (digest, line count)
    entries: BTreeMap<String, (String, usize)>,
}

impl Golden {
    pub fn path() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden/expected.txt"))
    }

    pub fn load() -> Result<Golden, String> {
        let path = Golden::path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Golden::parse(&text)
    }

    /// One entry per line: `<key> <digest> <lines>`; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut entries = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let mut f = line.split_whitespace();
            let (Some(key), Some(dig), Some(n), None) = (f.next(), f.next(), f.next(), f.next())
            else {
                return Err(format!("malformed golden line {line:?}"));
            };
            let n: usize = n
                .parse()
                .map_err(|_| format!("bad line count in {line:?}"))?;
            entries.insert(key.to_string(), (dig.to_string(), n));
        }
        Ok(Golden { entries })
    }

    pub fn insert(&mut self, key: String, text: &str) {
        self.entries.insert(key, digest(text));
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Golden outputs: <key> <fnv1a-64 x2 digest> <line count>.\n\
             # Written by `bench golden --write`; every run only compares.\n",
        );
        for (k, (d, n)) in &self.entries {
            out.push_str(&format!("{k} {d} {n}\n"));
        }
        out
    }

    /// Compare one rendering with its committed digest and line count.
    pub fn check(&self, key: &str, text: &str) -> Result<(), String> {
        let (want_digest, want_lines) = self
            .entries
            .get(key)
            .ok_or_else(|| format!("no golden entry {key}"))?;
        let got = digest(text);
        if (&got.0, &got.1) == (want_digest, want_lines) {
            Ok(())
        } else {
            Err(format!(
                "{key}: output {} ({} lines) differs from golden {want_digest} ({want_lines} lines)",
                got.0, got.1
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a_in_both_lanes() {
        // FNV-1a-64 of the empty string is the offset basis itself.
        assert_eq!(
            digest(""),
            ("cbf29ce4842223256c62272e07bb0142".to_string(), 0)
        );
        // Published FNV-1a-64 test vector: "a" → af63dc4c8601ec8c.
        assert!(digest("a").0.starts_with("af63dc4c8601ec8c"));
        assert_ne!(digest("ab"), digest("ba"));
        for text in ["a\nb\n", "a\nb", "\n", "x"] {
            assert_eq!(digest(text).1, text.lines().count(), "{text:?}");
        }
    }

    #[test]
    fn golden_round_trips_and_catches_a_corrupted_digest() {
        let mut g = Golden::default();
        g.insert(batch_key(App::Shopizer), "deadlock: a\n  Q1\n");
        g.insert(stream_key(App::Broadleaf, Some(2)), "{}\n");
        let text = g.render();
        assert_eq!(Golden::parse(&text).unwrap(), g);
        assert!(text.contains("stream/broadleaf/f3 "));
        assert_eq!(g.check("batch/shopizer", "deadlock: a\n  Q1\n"), Ok(()));
        assert!(g.check("batch/shopizer", "deadlock: b\n  Q1\n").is_err());
        assert!(g.check("batch/broadleaf", "").is_err());
        let corrupted = text.replacen(&digest("{}\n").0, &digest("{ }\n").0, 1);
        let g2 = Golden::parse(&corrupted).unwrap();
        assert!(g2.check("stream/broadleaf/f3", "{}\n").is_err());
        assert!(Golden::parse("batch/x deadbeef notanumber\n").is_err());
    }

    #[test]
    fn the_checkout_path_does_not_reach_the_digest() {
        let here = env!("CARGO_MANIFEST_DIR")
            .strip_suffix("benchmark")
            .unwrap();
        let mut g = Golden::default();
        g.insert(
            "batch/x".into(),
            "triggered at crates/apps/src/a.rs:7 in f\n",
        );
        let elsewhere = format!("triggered at {here}crates/apps/src/a.rs:7 in f\n");
        assert_eq!(g.check("batch/x", &elsewhere), Ok(()));
    }
}
