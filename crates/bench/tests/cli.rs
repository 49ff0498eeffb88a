//! `reproduce`'s command line: garbage is rejected with the usage and exit
//! status 2, and `--help` lists exactly the flags that parse.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = reproduce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran something before failing"
    );
}

#[test]
fn garbage_is_rejected_with_exit_2() {
    // A misspelt flag must not be dropped, nor swallow a run at defaults.
    assert_usage_error(&["--thread", "4", "table2"], "unknown flag \"--thread\"");
    // A misspelt selector must not select nothing and exit 0.
    assert_usage_error(&["tabel2"], "unknown selector \"tabel2\"");
    // The selector is checked before anything runs, wherever it stands.
    assert_usage_error(&["table1", "tabel2"], "unknown selector \"tabel2\"");
    assert_usage_error(&["table1", "--store"], "--store requires a value");
    assert_usage_error(&["--threads", "many"], "--threads expects a number");
    assert_usage_error(&["--isolation", "bogus"], "read-committed, repeatable-read");
    // A misspelt API must not turn a dirtied run into a plain warm one.
    assert_usage_error(&["--dirty", "Shp", "table2"], "known APIs: Register");
}

#[test]
fn help_lists_exactly_the_flags_that_parse() {
    let out = reproduce(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).expect("utf-8 usage");

    // The retired bench harnesses and daemon mode, and any environment
    // variable: the flags are the only way to configure a run.
    for retired in ["ablation", "-bench", "BENCH_", "daemon", "WESEER_"] {
        assert!(!help.contains(retired), "--help still mentions {retired}");
    }

    // Each OPTIONS entry is `--flag` or `--flag METAVAR`; parsing stops at
    // the first bad argument, so a trailing `--help` makes the run a pure
    // parse check: exit 0 iff everything before it was accepted.
    let options = help.split("OPTIONS:").nth(1).expect("an OPTIONS section");
    let mut flags = 0;
    for line in options.lines() {
        let mut words = line.split_whitespace();
        let Some(flag) = words.next().filter(|w| w.starts_with("--")) else {
            continue;
        };
        let value = match words.next() {
            Some("N" | "SECS") => Some("1"),
            Some("PATH") => Some("unused.out"),
            Some("API") => Some("Ship"),
            Some("LEVEL") => Some("snapshot"),
            Some("ADDR") => Some("127.0.0.1:0"),
            _ => None,
        };
        let mut args = vec![flag];
        args.extend(value);
        args.push("--help");
        let out = reproduce(&args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        flags += 1;
    }
    assert_eq!(flags, 13, "flag count changed: update the module doc too");
}
