//! Concurrent store access: the daemon shares one `Store` handle across
//! analysis shards, so N threads hammer overlapping sites through
//! `get`/`put` at once. Whatever the interleaving, the in-memory index
//! must converge to the same entries and a batch flush must produce a
//! byte-identical file (the flush order is the sorted key order, not the
//! arrival order).

use std::sync::Arc;
use weseer_store::{json::Json, Lookup, Store};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "weseer-store-concurrent-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Deterministic value for a site, independent of which thread wins the
/// race to record it.
fn value_for(site: usize) -> Json {
    Json::u64((site as u64) * 31 + 7)
}

fn hammer(store: &Arc<Store>, threads: usize, sites: usize) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = Arc::clone(store);
            scope.spawn(move || {
                // Every thread walks every site from a different start
                // offset, so puts and gets overlap heavily.
                for step in 0..sites {
                    let site = (t * 17 + step) % sites;
                    let name = format!("site{site:03}");
                    match store.get("smt", &name, "cfg") {
                        Lookup::Hit(v) => assert_eq!(v, value_for(site)),
                        Lookup::Miss => store.put("smt", &name, "cfg", value_for(site)),
                    }
                }
            });
        }
    });
}

#[test]
fn hammered_store_flushes_byte_identical() {
    const THREADS: usize = 8;
    const SITES: usize = 200;

    let mut reference: Option<Vec<u8>> = None;
    for round in 0..3 {
        let path = tmp(&format!("round{round}"));
        let store = Arc::new(Store::open(&path).unwrap());
        hammer(&store, THREADS, SITES);
        assert_eq!(store.len(), SITES);
        store.flush().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        match &reference {
            None => reference = Some(bytes),
            Some(first) => assert_eq!(
                &bytes, first,
                "flush must be byte-identical regardless of interleaving"
            ),
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn hammered_live_store_converges_on_reload() {
    const THREADS: usize = 8;
    const SITES: usize = 120;

    let path = tmp("live");
    {
        let store = Arc::new(Store::open_live(&path).unwrap());
        hammer(&store, THREADS, SITES);
        assert_eq!(store.len(), SITES);
        // No flush: live mode already wrote every record through.
    }
    let reloaded = Store::open(&path).unwrap();
    assert_eq!(reloaded.len(), SITES);
    for site in 0..SITES {
        let name = format!("site{site:03}");
        assert_eq!(
            reloaded.get("smt", &name, "cfg"),
            Lookup::Hit(value_for(site))
        );
    }
    let _ = std::fs::remove_file(&path);
}
