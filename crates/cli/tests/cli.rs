//! Integration tests driving the `sdplace` binary end to end through its
//! actual command-line interface.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sdplace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdplace"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join("sdp_cli_tests").join(name)
}

#[test]
fn help_prints_usage() {
    let out = sdplace(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("place"));
}

#[test]
fn unknown_subcommand_fails() {
    let out = sdplace(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn gen_extract_place_route_eval_pipeline() {
    let prefix = tmp("pipe/case");
    let prefix_s = prefix.to_str().expect("utf-8 tmp path");

    let out = sdplace(&["gen", "dp_tiny", "--seed", "3", "--out", prefix_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let aux = format!("{prefix_s}.aux");

    let out = sdplace(&["extract", &aux]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("groups"));

    let placed = tmp("pipe/placed");
    let placed_s = placed.to_str().expect("utf-8");
    let svg = tmp("pipe/view.svg");
    let out = sdplace(&[
        "place",
        &aux,
        "--fast",
        "--out",
        placed_s,
        "--svg",
        svg.to_str().expect("utf-8"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("legal violations | 0"));
    assert!(svg.exists(), "svg written");

    let placed_aux = format!("{placed_s}.aux");
    let out = sdplace(&["route", &placed_aux]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("routed wirelength"));

    let out = sdplace(&["eval", &placed_aux]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Steiner WL"));
    assert!(text.contains("netlist issues"));
}

#[test]
fn extraction_is_identical_across_hash_seeds() {
    // Every process gets fresh random SipHash keys for `HashMap`/`HashSet`,
    // so running extraction in two separate subprocesses and comparing
    // their full output proves it never observes hash-iteration order —
    // the invariant `sdp-lint`'s `nondeterministic-iter` rule enforces
    // statically. Only the elapsed-time line may differ.
    let prefix = tmp("hashseed/case");
    let prefix_s = prefix.to_str().expect("utf-8 tmp path");
    let out = sdplace(&["gen", "dp_small", "--seed", "7", "--out", prefix_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let aux = format!("{prefix_s}.aux");

    let extract_once = || {
        let out = sdplace(&["extract", &aux]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.contains(" ms)")) // drop the wall-clock line
            .collect::<Vec<_>>()
            .join("\n")
    };
    let first = extract_once();
    let second = extract_once();
    assert!(
        first.contains("group | bits | stages | cells"),
        "sanity: extraction ran\n{first}"
    );
    assert_eq!(
        first, second,
        "extraction output must not depend on the process's hash seed"
    );
}

#[test]
fn place_baseline_and_rigid_conflict() {
    let out = sdplace(&["place", "whatever.aux", "--baseline", "--rigid"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

#[test]
fn place_rejects_unknown_flags() {
    // Rejected while parsing, before the bundle is even opened.
    for (flag, value) in [("--solver", "cg"), ("--seeds", "3")] {
        let out = sdplace(&["place", "whatever.aux", flag, value]);
        assert!(!out.status.success(), "{flag} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
    }
}

#[test]
fn absurd_thread_counts_are_rejected() {
    // Rejected while parsing, before a bundle is opened or a port bound.
    for cmd in ["place whatever.aux", "serve"] {
        let mut argv: Vec<&str> = cmd.split(' ').collect();
        argv.extend(["--threads", "1000000"]);
        let out = sdplace(&argv);
        assert_eq!(out.status.code(), Some(1), "{cmd} must exit 1");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--threads: 1000000 is out of range 0..=256"),
            "{err}"
        );
    }
}

#[test]
fn out_of_range_track_counts_are_rejected() {
    let prefix = tmp("tracks/case");
    let prefix_s = prefix.to_str().expect("utf-8 tmp path");
    let out = sdplace(&["gen", "dp_tiny", "--seed", "9", "--out", prefix_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let aux = format!("{prefix_s}.aux");

    for tracks in ["0", "4294967296"] {
        let out = sdplace(&["route", &aux, "--tracks", tracks]);
        assert_eq!(out.status.code(), Some(1), "--tracks {tracks} must exit 1");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(
            err.contains(&format!(
                "--tracks: {tracks} is out of range 1..=4294967295"
            )),
            "{err}"
        );
        assert!(out.stdout.is_empty(), "nothing routed");
    }

    let out = sdplace(&["route", &aux, "--tracks", "1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("overflow"));
}

#[test]
fn gen_custom_fraction_design() {
    let prefix = tmp("custom/sweep");
    let prefix_s = prefix.to_str().expect("utf-8");
    let out = sdplace(&[
        "gen",
        "--gates",
        "800",
        "--fraction",
        "0.5",
        "--seed",
        "2",
        "--out",
        prefix_s,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("fraction"));
}

#[test]
fn gen_rejects_bad_input() {
    let out = sdplace(&["gen", "not_a_preset", "--out", "/tmp/x"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown preset"));

    let out = sdplace(&[
        "gen",
        "--gates",
        "100",
        "--fraction",
        "1.5",
        "--out",
        "/tmp/x",
    ]);
    assert!(!out.status.success());

    let out = sdplace(&["gen", "dp_tiny"]);
    assert!(!out.status.success(), "missing --out must fail");
}

/// Generates a tiny bundle under `tests/<name>/`, applies `corrupt` to
/// the file with extension `ext`, and returns the damaged bundle's `.aux`.
fn corrupted_bundle(name: &str, ext: &str, corrupt: impl Fn(&str) -> String) -> String {
    let prefix = tmp(&format!("{name}/case"));
    let prefix_s = prefix.to_str().expect("utf-8 tmp path");
    let out = sdplace(&["gen", "dp_tiny", "--seed", "3", "--out", prefix_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let victim = format!("{prefix_s}.{ext}");
    let text = std::fs::read_to_string(&victim).expect("generated file");
    std::fs::write(&victim, corrupt(&text)).expect("rewrite");
    format!("{prefix_s}.aux")
}

/// The CLI's output for `eval` on a bundle damaged by `corrupt`.
fn eval_corrupted(name: &str, ext: &str, corrupt: impl Fn(&str) -> String) -> Output {
    sdplace(&["eval", &corrupted_bundle(name, ext, corrupt)])
}

/// A malformed input must surface as a one-line typed error naming the
/// file and line — never a panic backtrace. This is the end-to-end check
/// behind the `panic-reachability` lint: the Bookshelf parse path is
/// reachable from every subcommand.
fn assert_clean_parse_error(out: &Output, file_ext: &str) {
    assert!(!out.status.success(), "corrupt input must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        !err.contains("panicked") && !err.contains("RUST_BACKTRACE"),
        "no panic/backtrace allowed:\n{err}"
    );
    assert_eq!(err.lines().count(), 1, "one-line message:\n{err}");
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains(file_ext), "names the offending file: {err}");
    let after_ext = err.split(file_ext).nth(1).unwrap_or("");
    assert!(
        after_ext.starts_with(':')
            && after_ext[1..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit()),
        "carries a line number after the file name: {err}"
    );
}

#[test]
fn corrupt_nodes_is_a_clean_error() {
    // A non-numeric width token in the .nodes body.
    let out = eval_corrupted("corrupt_nodes", "nodes", |text| {
        text.replacen(" 2 1", " banana 1", 1)
    });
    assert_clean_parse_error(&out, ".nodes");
}

#[test]
fn corrupt_nets_is_a_clean_error() {
    // A net declaring more pins than the file provides (truncated body).
    let out = eval_corrupted("corrupt_nets", "nets", |text| {
        let cut = text.len() * 2 / 3;
        let cut = text[..cut].rfind('\n').unwrap_or(cut);
        text[..cut].to_string()
    });
    assert_clean_parse_error(&out, ".nets");
}

#[test]
fn corrupt_nets_degree_is_a_clean_error() {
    let out = eval_corrupted("corrupt_degree", "nets", |text| {
        text.replacen("NetDegree : 3", "NetDegree : many", 1)
    });
    assert_clean_parse_error(&out, ".nets");
}

/// Numbers that parse but lie outside their field's range, a row without
/// a height, and a net degree no allocator can reserve. Each of these
/// once reached the placer and panicked (`inverted rect`, exit 101) or
/// aborted; now each is a located one-line error, exit 1.
#[test]
fn out_of_range_numbers_are_clean_errors() {
    // (member, text, replacement, what the error says)
    let probes = [
        (
            "nodes",
            "dp_tiny_0 2 1",
            "dp_tiny_0 NaN 1",
            "width `NaN` is outside (0, 1e9]",
        ),
        (
            "nodes",
            "dp_tiny_0 2 1",
            "dp_tiny_0 inf 1",
            "width `inf` is outside",
        ),
        (
            "nodes",
            "dp_tiny_0 2 1",
            "dp_tiny_0 1e300 1",
            "width `1e300` is outside",
        ),
        (
            "nodes",
            "dp_tiny_0 2 1",
            "dp_tiny_0 -3 1",
            "width `-3` is outside",
        ),
        (
            "nodes",
            "dp_tiny_0 2 1",
            "dp_tiny_0 0 0",
            "width `0` is outside",
        ),
        (
            "scl",
            "Coordinate : 0",
            "Coordinate : NaN",
            "Coordinate `NaN` is outside [-1e9, 1e9]",
        ),
        (
            "scl",
            "Coordinate : 0",
            "Coordinate : 1e300",
            "Coordinate `1e300` is outside",
        ),
        (
            "scl",
            "Height : 1",
            "Height : 0",
            "Height `0` is outside (0, 1e9]",
        ),
        ("scl", "Height : 1", "Height : -1", "Height `-1` is outside"),
        ("scl", "  Height : 1\n", "", "missing `Height`"),
        (
            "pl",
            "pi_clk -2.500000 -2.500000",
            "pi_clk NaN NaN",
            "x coordinate `NaN` is outside",
        ),
        (
            "wts",
            "w1 1\n",
            "w1 inf\n",
            "weight `inf` is outside [0, 1e9]",
        ),
        (
            "nets",
            "pi_tie0 O : 0.000000",
            "pi_tie0 O : NaN",
            "pin offset `NaN` is outside",
        ),
        (
            "nets",
            "NetDegree : 3 w1",
            "NetDegree : 99999999999999999 w1",
            "unknown cell",
        ),
    ];
    for (i, (ext, from, to, says)) in probes.into_iter().enumerate() {
        let aux = corrupted_bundle(&format!("range_{i}"), ext, |text| {
            assert!(text.contains(from), "`{from}` not in .{ext}");
            text.replacen(from, to, 1)
        });
        let out = sdplace(&["place", &aux, "--fast"]);
        assert_eq!(out.status.code(), Some(1), ".{ext} with `{to}`");
        assert_clean_parse_error(&out, &format!(".{ext}"));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(says), ".{ext} with `{to}`: {err}");
    }
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = sdplace(&["eval", "/nonexistent/missing.aux"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
}
