//! The `tables` binary's argument handling: anything it does not know is
//! a usage error (exit 2) before an experiment runs, so a typo never
//! starts the full evaluation.

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("run the tables binary")
}

#[test]
fn unknown_flags_and_ids_exit_2_before_running() {
    for args in [&["--quik", "t1"][..], &["t9"], &["t1", "--frobnicate"]] {
        let out = tables(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("=== T1"), "{args:?} ran t1: {stdout}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: tables"), "{args:?}: {stderr}");
    }
}

#[test]
fn known_flag_and_id_run() {
    let out = tables(&["--quick", "t1"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("=== T1"));
}
