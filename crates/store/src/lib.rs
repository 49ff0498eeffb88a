//! # weseer-store
//!
//! The persistence layer behind WeSEER's incremental warm starts: a
//! single-file, append-only JSON-lines store with an in-memory index,
//! std-only like the rest of the workspace.
//!
//! ## Data model
//!
//! Every record is **content-addressed** along two axes:
//!
//! * a **site** — *where* the result belongs (an app-namespaced
//!   `trace:api#txn` prefix id, a pair of those, a cycle within a pair…);
//! * a **content key** — *what* the inputs were when the result was
//!   computed (solver/tier configuration, lock-model version, the
//!   fingerprints themselves).
//!
//! [`Store::get`] classifies a lookup as [`Lookup::Hit`] (site known,
//! content matches — reuse the value), [`Lookup::Stale`] (site known but
//! the inputs changed — recompute and [`Store::put`] the replacement), or
//! [`Lookup::Miss`] (never seen). Each outcome bumps `store.{hit,stale,
//! miss}` plus a per-kind variant (`store.hit.pair3`, …) so tests can
//! assert *exactly which* entries a dirtied trace invalidates.
//!
//! ## File format
//!
//! Line 1 is the header `{"weseer_store":1}`; every other line is one
//! record `{"kind":…,"site":…,"content":…,"value":…}`. The file is only
//! ever appended to — a re-recorded site supersedes its earlier lines on
//! load (counted in `store.evicted`) — and [`Store::flush`] appends the
//! session's new or changed records in sorted order, so an unchanged warm
//! run leaves the file untouched.
//!
//! ## Concurrency
//!
//! The in-memory index sits behind an `RwLock`: lookups (the hot path for
//! warm analysis shards) take a shared read lock, puts a brief write
//! lock. [`Store::open_live`] additionally turns every put into an
//! immediate append to the backing file — one `write` per record, never a
//! whole-file rewrite — so a long-lived daemon persists verdicts as they
//! land and concurrent sessions against the same path see each other's
//! work on their next open. A record cut short by a crash mid-append is
//! recovered on the next open: a malformed **final** line is skipped
//! (counted in `store.recovered_truncation`), while corruption anywhere
//! else still fails the open.

pub mod codec;
pub mod json;

use crate::json::Json;
use std::collections::{BTreeSet, HashMap};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, RwLock};
use weseer_obs::snapshot::write_json_string;

/// Store header line (schema version 1).
const HEADER: &str = "{\"weseer_store\":1}";

/// The outcome of a [`Store::get`].
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// Site known and the content key matches: the stored value applies.
    Hit(Json),
    /// Site known but recorded under a different content key: the inputs
    /// changed, recompute.
    Stale,
    /// Site never recorded.
    Miss,
}

#[derive(Debug)]
struct Entry {
    content: String,
    value: Json,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<(String, String), Entry>,
    /// Keys added or changed since open, flushed in sorted order.
    dirty: BTreeSet<(String, String)>,
}

/// A single-file persistent store (thread-safe; share behind an `Arc`).
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    inner: RwLock<Inner>,
    /// `Some(file)` in live-append mode ([`Store::open_live`]): every put
    /// is written through immediately instead of waiting for a flush.
    live: Mutex<Option<std::fs::File>>,
    /// Truncated trailing records skipped during open.
    recovered: u64,
}

impl Store {
    /// Open (or create on first [`Store::flush`]) the store at `path`.
    ///
    /// Superseded lines — an old value for a site that a later line
    /// re-records — are counted in `store.evicted`. A malformed **final**
    /// line (a record cut short when the writing process died) is skipped
    /// and counted in `store.recovered_truncation`; corruption anywhere
    /// earlier in the file is still an error.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Store> {
        let path = path.as_ref().to_path_buf();
        let mut inner = Inner::default();
        let mut recovered = 0u64;
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let mut lines: Vec<&str> = text.lines().collect();
                match lines.first() {
                    None => {}
                    Some(&HEADER) => {
                        lines.remove(0);
                    }
                    Some(other) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("{}: not a weseer store (header {other:?})", path.display()),
                        ));
                    }
                }
                let last = lines.len().saturating_sub(1);
                let mut evicted = 0u64;
                for (n, line) in lines.iter().enumerate() {
                    let bad = |why: &str| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("{}:{}: {why}", path.display(), n + 2),
                        )
                    };
                    let parse = || -> io::Result<((String, String), Entry)> {
                        let record = Json::parse(line).map_err(|e| bad(&e))?;
                        let field = |k: &str| {
                            record
                                .get(k)
                                .and_then(Json::as_str)
                                .map(str::to_string)
                                .ok_or_else(|| bad(&format!("missing field {k:?}")))
                        };
                        let key = (field("kind")?, field("site")?);
                        let entry = Entry {
                            content: field("content")?,
                            value: record
                                .get("value")
                                .cloned()
                                .ok_or_else(|| bad("missing field \"value\""))?,
                        };
                        Ok((key, entry))
                    };
                    match parse() {
                        Ok((key, entry)) => {
                            if inner.map.insert(key, entry).is_some() {
                                evicted += 1;
                            }
                        }
                        // Only the trailing record can be a benign
                        // truncation — a daemon killed mid-append.
                        Err(_) if n == last => recovered += 1,
                        Err(e) => return Err(e),
                    }
                }
                if evicted > 0 {
                    weseer_obs::add("store.evicted", evicted);
                }
                if recovered > 0 {
                    weseer_obs::add("store.recovered_truncation", recovered);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Store {
            path,
            inner: RwLock::new(inner),
            live: Mutex::new(None),
            recovered,
        })
    }

    /// Open the store in **live-append** mode: every [`Store::put`] is
    /// written through to the backing file immediately (one appended line
    /// per new record), so a long-lived daemon never needs an explicit
    /// flush and a crash loses at most the record being written — which
    /// the next [`Store::open`] recovers from.
    pub fn open_live(path: impl AsRef<Path>) -> io::Result<Store> {
        let store = Self::open(&path)?;
        let fresh = !store.path.exists();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&store.path)?;
        if fresh {
            file.write_all(HEADER.as_bytes())?;
            file.write_all(b"\n")?;
        } else {
            // Before appending, make the physical tail clean: drop a
            // recovered partial record (otherwise the next append would
            // splice onto it, turning a benign truncation into mid-file
            // corruption) and newline-terminate a complete final record
            // that lost its newline.
            let text = std::fs::read_to_string(&store.path)?;
            if store.recovered > 0 {
                let trimmed = text.strip_suffix('\n').unwrap_or(&text);
                let keep = trimmed.rfind('\n').map(|i| i + 1).unwrap_or(0);
                file.set_len(keep as u64)?;
            } else if !text.is_empty() && !text.ends_with('\n') {
                file.write_all(b"\n")?;
            }
        }
        *store.live.lock().unwrap() = Some(file);
        Ok(store)
    }

    /// How many truncated trailing records [`Store::open`] skipped.
    pub fn recovered_truncations(&self) -> u64 {
        self.recovered
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Look up `(kind, site)` against the expected `content` key.
    pub fn get(&self, kind: &str, site: &str, content: &str) -> Lookup {
        let inner = self.inner.read().unwrap();
        let (outcome, result) = match inner.map.get(&(kind.to_string(), site.to_string())) {
            Some(e) if e.content == content => ("hit", Lookup::Hit(e.value.clone())),
            Some(_) => ("stale", Lookup::Stale),
            None => ("miss", Lookup::Miss),
        };
        drop(inner);
        weseer_obs::add(&format!("store.{outcome}"), 1);
        weseer_obs::add(&format!("store.{outcome}.{kind}"), 1);
        if weseer_obs::timeline::enabled() {
            weseer_obs::timeline::instant(
                &format!("store.{outcome}"),
                "store",
                &[("kind", kind.to_string())],
            );
        }
        result
    }

    /// Record (or replace) the value at `(kind, site)` under `content`.
    /// A put identical to the stored entry is a no-op, so repeat runs do
    /// not grow the file. In live-append mode the record is written
    /// through to the backing file immediately (a single appended line).
    pub fn put(&self, kind: &str, site: &str, content: &str, value: Json) {
        let key = (kind.to_string(), site.to_string());
        let mut inner = self.inner.write().unwrap();
        if let Some(e) = inner.map.get(&key) {
            if e.content == content && e.value == value {
                return;
            }
        }
        inner.map.insert(
            key.clone(),
            Entry {
                content: content.to_string(),
                value: value.clone(),
            },
        );
        let mut live = self.live.lock().unwrap();
        if let Some(file) = live.as_mut() {
            // Write through: one line per record, appended atomically with
            // respect to other puts (we hold the file mutex). The index
            // write lock is still held, so a concurrent open of the same
            // path can at worst see this line cut short — which it
            // recovers from.
            let line = record_line(&key.0, &key.1, content, &value);
            let _ = file.write_all(line.as_bytes());
        } else {
            inner.dirty.insert(key);
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().map.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append the session's new/changed records to the backing file (in
    /// sorted key order — the file is deterministic given the same work).
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.write().unwrap();
        let fresh = !self.path.exists();
        if inner.dirty.is_empty() && !fresh {
            return Ok(());
        }
        let mut out = String::new();
        if fresh {
            out.push_str(HEADER);
            out.push('\n');
        }
        for key in &inner.dirty {
            let e = &inner.map[key];
            write_record(&mut out, &key.0, &key.1, &e.content, &e.value);
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(out.as_bytes())?;
        inner.dirty.clear();
        Ok(())
    }
}

/// Append one serialized store record, newline-terminated, to `out` —
/// shared by the batch flush and the live write-through path so both
/// produce identical lines.
fn write_record(out: &mut String, kind: &str, site: &str, content: &str, value: &Json) {
    out.push_str("{\"kind\":");
    write_json_string(out, kind);
    out.push_str(",\"site\":");
    write_json_string(out, site);
    out.push_str(",\"content\":");
    write_json_string(out, content);
    out.push_str(",\"value\":");
    value.write(out);
    out.push_str("}\n");
}

/// One record as a line of its own.
fn record_line(kind: &str, site: &str, content: &str, value: &Json) -> String {
    let mut out = String::new();
    write_record(&mut out, kind, site, content, value);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "weseer-store-test-{}-{name}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn put_get_persist_reload() {
        let path = tmp("basic");
        let s = Store::open(&path).unwrap();
        assert_eq!(s.get("smt", "site1", "cfgA"), Lookup::Miss);
        s.put("smt", "site1", "cfgA", Json::str("unsat"));
        assert_eq!(
            s.get("smt", "site1", "cfgA"),
            Lookup::Hit(Json::str("unsat"))
        );
        assert_eq!(s.get("smt", "site1", "cfgB"), Lookup::Stale);
        s.flush().unwrap();

        let s2 = Store::open(&path).unwrap();
        assert_eq!(s2.len(), 1);
        assert_eq!(
            s2.get("smt", "site1", "cfgA"),
            Lookup::Hit(Json::str("unsat"))
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unchanged_flush_leaves_the_file_alone() {
        let path = tmp("stable");
        let s = Store::open(&path).unwrap();
        s.put("pair3", "fp1|fp2", "v1", Json::u64(7));
        s.flush().unwrap();
        let before = std::fs::read(&path).unwrap();

        let s2 = Store::open(&path).unwrap();
        // Identical re-put is a no-op; flush appends nothing.
        s2.put("pair3", "fp1|fp2", "v1", Json::u64(7));
        s2.flush().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn superseded_lines_evict_on_load() {
        let path = tmp("evict");
        let s = Store::open(&path).unwrap();
        s.put("wit", "a", "c1", Json::u64(1));
        s.flush().unwrap();
        let s2 = Store::open(&path).unwrap();
        s2.put("wit", "a", "c2", Json::u64(2));
        s2.flush().unwrap();

        // The file now holds both lines; the later one wins.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3, "header + two appends");
        let s3 = Store::open(&path).unwrap();
        assert_eq!(s3.len(), 1);
        assert_eq!(s3.get("wit", "a", "c2"), Lookup::Hit(Json::u64(2)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_foreign_files() {
        let path = tmp("foreign");
        std::fs::write(&path, "not a store\n").unwrap();
        assert!(Store::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_trailing_record_is_recovered() {
        let path = tmp("truncate");
        let s = Store::open(&path).unwrap();
        s.put("smt", "a", "c", Json::str("unsat"));
        s.put("smt", "b", "c", Json::str("sat"));
        s.flush().unwrap();

        // Simulate a daemon killed mid-append: cut the final record short.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 10;
        std::fs::write(&path, &text[..cut]).unwrap();

        let s2 = Store::open(&path).unwrap();
        assert_eq!(s2.recovered_truncations(), 1);
        assert_eq!(s2.len(), 1, "the intact record survives");
        assert_eq!(s2.get("smt", "a", "c"), Lookup::Hit(Json::str("unsat")));
        assert_eq!(s2.get("smt", "b", "c"), Lookup::Miss);

        // Re-recording through a live handle must not splice onto the
        // partial line: the next open sees a clean file.
        let s3 = Store::open_live(&path).unwrap();
        s3.put("smt", "b", "c", Json::str("sat"));
        drop(s3);
        let s4 = Store::open(&path).unwrap();
        assert_eq!(s4.recovered_truncations(), 0);
        assert_eq!(s4.len(), 2);
        assert_eq!(s4.get("smt", "b", "c"), Lookup::Hit(Json::str("sat")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_still_an_error() {
        let path = tmp("midfile");
        let s = Store::open(&path).unwrap();
        s.put("smt", "a", "c", Json::u64(1));
        s.flush().unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("garbage not json\n");
        text.push_str(&super::record_line("smt", "b", "c", &Json::u64(2)));
        std::fs::write(&path, text).unwrap();
        assert!(
            Store::open(&path).is_err(),
            "corruption before the final line must fail the open"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_record_is_the_canonical_json_object_of_its_fields() {
        let value = Json::Obj(vec![
            ("verdict".into(), Json::str("sat")),
            ("model".into(), Json::Arr(vec![Json::u64(7), Json::Null])),
            (
                "sql".into(),
                Json::str("WHERE N = \"x\\y\"\n\u{1}caf\u{e9}"),
            ),
        ]);
        let (kind, site, content) = ("pair3", "app|0:\"Ship\"#1", "fp\\1|fp2|\tcfg");
        let object = Json::Obj(vec![
            ("kind".into(), Json::str(kind)),
            ("site".into(), Json::str(site)),
            ("content".into(), Json::str(content)),
            ("value".into(), value.clone()),
        ]);
        let line = record_line(kind, site, content, &value);
        assert_eq!(line, object.to_line() + "\n");
        assert_eq!(Json::parse(line.trim_end()), Ok(object));
    }

    #[test]
    fn live_mode_appends_on_put_without_flush() {
        let path = tmp("live");
        let s = Store::open_live(&path).unwrap();
        s.put("wit", "x", "c1", Json::u64(1));
        s.put("wit", "y", "c1", Json::u64(2));
        // Identical re-put must not grow the file.
        s.put("wit", "x", "c1", Json::u64(1));
        drop(s); // no flush

        let s2 = Store::open(&path).unwrap();
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.get("wit", "x", "c1"), Lookup::Hit(Json::u64(1)));
        assert_eq!(s2.get("wit", "y", "c1"), Lookup::Hit(Json::u64(2)));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3, "header + one line per record");
        let _ = std::fs::remove_file(&path);
    }
}
