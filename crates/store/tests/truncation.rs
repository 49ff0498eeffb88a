//! Kill at any byte: a two-record store cut short at every offset of its
//! header and of its last record must either open with exactly the
//! records that were complete, or fail with an error naming the file —
//! never panic, never hand back a partly written record. And whatever
//! `open` accepts, a live append on top of it must leave a file the next
//! `open` reads back whole.

use weseer_store::{json::Json, Lookup, Store};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "weseer-store-truncation-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// `(kind, site, content, value)` of the two records, in file order (the
/// flush sorts by key). The second carries multi-byte characters, so some
/// cuts split one.
fn records() -> [(&'static str, &'static str, &'static str, Json); 2] {
    [
        ("pair3", "app|0:Register#0", "fp1|fp1|cfg", Json::u64(7)),
        (
            "wit",
            "app|Ship#0@1-2|Ship#0@1-2",
            "fp2|fp2|café",
            Json::Obj(vec![
                ("tag".into(), Json::str("confirmed")),
                ("witness".into(), Json::str("{\"steps\":[\"Ω\",1]}")),
            ]),
        ),
    ]
}

/// Open the first `cut` bytes of `full`, whose lines end at `line_ends`
/// (header first), and check the outcome; on success, append a record
/// live and check the reopened file. Returns how many records the cut
/// store held, or `None` if the open refused.
fn check_cut(full: &[u8], line_ends: &[usize], cut: usize) -> Option<usize> {
    let path = tmp(&format!("cut{cut}"));
    std::fs::write(&path, &full[..cut]).unwrap();
    let store = match Store::open(&path) {
        Ok(store) => store,
        Err(e) => {
            let name = path.display().to_string();
            assert!(e.to_string().contains(&name), "cut {cut}: {e}");
            let _ = std::fs::remove_file(&path);
            return None;
        }
    };
    // A record is complete once its closing brace is in; the newline
    // after it is optional.
    let complete = line_ends[1..].iter().filter(|&&end| cut >= end - 1).count();
    assert_eq!(store.len(), complete, "cut {cut}");
    for (i, (kind, site, content, value)) in records().into_iter().enumerate() {
        let expected = if i < complete {
            Lookup::Hit(value)
        } else {
            Lookup::Miss
        };
        assert_eq!(store.get(kind, site, content), expected, "cut {cut}");
    }
    drop(store);

    let live = Store::open_live(&path).unwrap();
    live.put("wit", "after", "c", Json::u64(3));
    drop(live);
    let reopened = Store::open(&path).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
    assert_eq!(reopened.recovered_truncations(), 0, "cut {cut}");
    assert_eq!(reopened.len(), complete + 1, "cut {cut}");
    assert_eq!(reopened.get("wit", "after", "c"), Lookup::Hit(Json::u64(3)));
    let _ = std::fs::remove_file(&path);
    Some(complete)
}

#[test]
fn a_store_cut_at_any_byte_opens_whole_or_refuses_loudly() {
    let path = tmp("full");
    let store = Store::open(&path).unwrap();
    for (kind, site, content, value) in records() {
        store.put(kind, site, content, value);
    }
    store.flush().unwrap();
    drop(store);
    let full = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let line_ends: Vec<usize> = (1..=full.len()).filter(|&i| full[i - 1] == b'\n').collect();
    assert_eq!(line_ends.len(), 3, "header + two records");
    assert_eq!(line_ends[2], full.len());
    let (header_end, last_start) = (line_ends[0], line_ends[1]);

    for cut in 0..=header_end {
        // Nothing, or the bare header with or without its newline, is an
        // empty store; any other prefix of the header is not a store.
        let opens = cut == 0 || cut >= header_end - 1;
        let outcome = check_cut(&full, &line_ends, cut);
        assert_eq!(outcome.is_some(), opens, "header cut {cut}");
        assert_eq!(outcome.unwrap_or(0), 0, "header cut {cut}");
    }
    let mut split_chars = 0;
    for cut in last_start..=full.len() {
        split_chars += usize::from(std::str::from_utf8(&full[..cut]).is_err());
        // A cut last record is a benign truncation: the open recovers.
        let held = check_cut(&full, &line_ends, cut).expect("a cut last record recovers");
        assert_eq!(held, if cut >= full.len() - 1 { 2 } else { 1 });
    }
    assert!(split_chars > 0, "some cut splits a multi-byte character");
}
