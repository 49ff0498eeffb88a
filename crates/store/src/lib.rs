//! # weseer-store
//!
//! The persistence layer behind WeSEER's incremental warm starts: a
//! single-file, append-only JSON-lines store with an in-memory index,
//! std-only like the rest of the workspace.
//!
//! ## Data model
//!
//! Every record is **content-addressed**: its key is the triple of
//!
//! * a **kind** — which result it is (`pair2`, `pair3`, `wit`);
//! * a **site** — *where* the result belongs (an app-namespaced
//!   `trace:api#txn` prefix id, a pair of those, a cycle within a pair…);
//! * a **content key** — *what* the inputs were when the result was
//!   computed (the trace fingerprints, solver/tier configuration,
//!   lock-model version).
//!
//! [`Store::get`] is a [`Lookup::Hit`] when that exact key was recorded
//! and a [`Lookup::Miss`] otherwise. Changed inputs are a new content key,
//! so their result is recorded *next to* the old one: two app versions
//! sharing a store both stay resident, and switching between them is a
//! pure hit. Each outcome bumps `store.{hit,miss}` plus a per-kind variant
//! (`store.hit.pair3`, …) so tests can assert *exactly which* entries a
//! dirtied trace invalidates.
//!
//! ## File format
//!
//! Line 1 is the header `{"weseer_store":1}`; every other line is one
//! record `{"kind":…,"site":…,"content":…,"value":…}`. The file is only
//! ever appended to, and [`Store::flush`] appends the session's new
//! records in sorted key order, so an unchanged warm run leaves the file
//! untouched.
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
    /// The key was recorded: the stored value applies.
    Hit(Json),
    /// The key was never recorded: compute and [`Store::put`] the value.
    Miss,
}

/// A record's identity: `(kind, site, content)`.
type Key = (String, String, String);

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Key, Json>,
    /// Keys added since open, flushed in sorted order.
    dirty: BTreeSet<Key>,
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
    /// A malformed **final** line (a record cut short when the writing
    /// process died) is skipped and counted in
    /// `store.recovered_truncation`; corruption anywhere earlier in the
    /// file is an error naming the file and line.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Store> {
        let path = path.as_ref().to_path_buf();
        let bytes = match std::fs::read(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        let invalid = |line: usize, why: &str| {
            let msg = format!("{}:{line}: {why}", path.display());
            io::Error::new(io::ErrorKind::InvalidData, msg)
        };
        // Lines as bytes: a kill can cut a multi-byte character in half,
        // and that is a truncated final record like any other.
        let body = bytes.strip_suffix(b"\n").unwrap_or(&bytes);
        let mut lines: Vec<&[u8]> = if bytes.is_empty() {
            Vec::new()
        } else {
            body.split(|&b| b == b'\n').collect()
        };
        match lines.first() {
            None => {}
            Some(&first) if first == HEADER.as_bytes() => {
                lines.remove(0);
            }
            Some(&other) => {
                let other = String::from_utf8_lossy(other);
                let msg = format!("not a weseer store (header {other:?})");
                return Err(invalid(1, &msg));
            }
        }
        let last = lines.len().saturating_sub(1);
        let mut map = HashMap::new();
        let mut recovered = 0u64;
        for (n, line) in lines.iter().enumerate() {
            let bad = |why: &str| invalid(n + 2, why);
            let parse = || -> io::Result<(Key, Json)> {
                let line = std::str::from_utf8(line).map_err(|e| bad(&e.to_string()))?;
                let record = Json::parse(line).map_err(|e| bad(&e))?;
                let field = |k: &str| {
                    record
                        .get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| bad(&format!("missing field {k:?}")))
                };
                let key = (field("kind")?, field("site")?, field("content")?);
                let value = record.get("value").cloned();
                Ok((key, value.ok_or_else(|| bad("missing field \"value\""))?))
            };
            match parse() {
                Ok((key, value)) => {
                    map.insert(key, value);
                }
                // Only the trailing record can be a benign truncation — a
                // daemon killed mid-append.
                Err(_) if n == last => recovered += 1,
                Err(e) => return Err(e),
            }
        }
        if recovered > 0 {
            weseer_obs::add("store.recovered_truncation", recovered);
        }
        Ok(Store {
            path,
            inner: RwLock::new(Inner {
                map,
                dirty: BTreeSet::new(),
            }),
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
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&store.path)?;
        // Before appending, make the physical tail clean: give an absent or
        // empty file its header, drop a recovered partial record (otherwise
        // the next append would splice onto it, turning a benign truncation
        // into mid-file corruption) and newline-terminate a complete final
        // record that lost its newline.
        let bytes = std::fs::read(&store.path)?;
        if bytes.is_empty() {
            file.write_all(format!("{HEADER}\n").as_bytes())?;
        } else if store.recovered > 0 {
            let trimmed = bytes.strip_suffix(b"\n").unwrap_or(&bytes);
            let keep = trimmed
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            file.set_len(keep as u64)?;
        } else if !bytes.ends_with(b"\n") {
            file.write_all(b"\n")?;
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

    /// Look up the record keyed `(kind, site, content)`.
    pub fn get(&self, kind: &str, site: &str, content: &str) -> Lookup {
        let key = (kind.to_string(), site.to_string(), content.to_string());
        let value = self.inner.read().unwrap().map.get(&key).cloned();
        let outcome = if value.is_some() { "hit" } else { "miss" };
        weseer_obs::add(&format!("store.{outcome}"), 1);
        weseer_obs::add(&format!("store.{outcome}.{kind}"), 1);
        if weseer_obs::timeline::enabled() {
            weseer_obs::timeline::instant(
                &format!("store.{outcome}"),
                "store",
                &[("kind", kind.to_string())],
            );
        }
        value.map_or(Lookup::Miss, Lookup::Hit)
    }

    /// Record `value` under `(kind, site, content)`. Re-putting a record
    /// the store already holds is a no-op, so repeat runs do not grow the
    /// file. In live-append mode the record is written through to the
    /// backing file immediately (a single appended line).
    pub fn put(&self, kind: &str, site: &str, content: &str, value: Json) {
        let key = (kind.to_string(), site.to_string(), content.to_string());
        let mut inner = self.inner.write().unwrap();
        if inner.map.get(&key) == Some(&value) {
            return;
        }
        let mut live = self.live.lock().unwrap();
        if let Some(file) = live.as_mut() {
            // Write through: one line per record, appended atomically with
            // respect to other puts (we hold the file mutex). The index
            // write lock is still held, so a concurrent open of the same
            // path can at worst see this line cut short — which it
            // recovers from.
            let _ = file.write_all(record_line(kind, site, content, &value).as_bytes());
        } else {
            inner.dirty.insert(key.clone());
        }
        inner.map.insert(key, value);
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().map.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append the session's new records to the backing file (in sorted key
    /// order — the file is deterministic given the same work), after the
    /// header if the file is absent or empty.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.write().unwrap();
        let fresh = std::fs::metadata(&self.path).map_or(true, |m| m.len() == 0);
        if inner.dirty.is_empty() && !fresh {
            return Ok(());
        }
        let mut out = String::new();
        if fresh {
            out.push_str(HEADER);
            out.push('\n');
        }
        for key in &inner.dirty {
            write_record(&mut out, &key.0, &key.1, &key.2, &inner.map[key]);
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
        assert_eq!(s.get("smt", "site1", "cfgB"), Lookup::Miss);
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
    fn every_content_of_a_site_stays_resident() {
        let path = tmp("versions");
        let s = Store::open(&path).unwrap();
        s.put("wit", "a", "c1", Json::u64(1));
        s.flush().unwrap();
        let s2 = Store::open(&path).unwrap();
        s2.put("wit", "a", "c2", Json::u64(2));
        s2.flush().unwrap();

        // One line per content; neither supersedes the other.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3, "header + two appends");
        let s3 = Store::open(&path).unwrap();
        assert_eq!(s3.len(), 2);
        assert_eq!(s3.get("wit", "a", "c1"), Lookup::Hit(Json::u64(1)));
        assert_eq!(s3.get("wit", "a", "c2"), Lookup::Hit(Json::u64(2)));
        // Switching back to the first content is a pure hit: no put, no
        // byte appended.
        s3.put("wit", "a", "c1", Json::u64(1));
        s3.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_empty_file_gets_the_header_on_first_write() {
        // `touch store.jsonl`, or a writer killed between creating the
        // file and writing its header.
        for live in [false, true] {
            let path = tmp(&format!("empty-live{live}"));
            std::fs::write(&path, "").unwrap();
            let s = if live {
                Store::open_live(&path)
            } else {
                Store::open(&path)
            }
            .unwrap();
            assert!(s.is_empty());
            s.put("wit", "a", "c", Json::u64(1));
            s.flush().unwrap();
            drop(s);
            let reopened = Store::open(&path).unwrap();
            assert_eq!(reopened.len(), 1, "live={live}");
            assert_eq!(reopened.get("wit", "a", "c"), Lookup::Hit(Json::u64(1)));
            let _ = std::fs::remove_file(&path);
        }
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
