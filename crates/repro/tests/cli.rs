//! The `repro` binary's request handling, driven as a user drives it.

use std::process::Command;

use hcq_repro::{usage, EXHIBITS, MODES};

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn help_lists_every_registry_name() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let printed = String::from_utf8(out.stderr).unwrap();
    assert_eq!(printed, usage() + "\n", "--help prints `hcq_repro::usage`");
    let listed: Vec<&str> = printed
        .lines()
        .find_map(|l| l.strip_prefix("exhibits: "))
        .expect("an exhibits line")
        .split(' ')
        .collect();
    let names = EXHIBITS.iter().flat_map(|e| e.names.iter().copied());
    for name in names.chain(MODES.map(|(name, _)| name)).chain(["all"]) {
        assert!(listed.contains(&name), "--help omits {name}: {listed:?}");
    }
}

#[test]
fn a_misspelt_name_fails_before_anything_runs() {
    let dir = std::env::temp_dir().join(format!("hcq_cli_misspelt_{}", std::process::id()));
    let out = repro(&["fig5", "fgi12", "--out", dir.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown exhibit fgi12"));
    assert!(out.stdout.is_empty(), "the sweep must not have started");
    assert!(!dir.exists(), "nothing may be written");
}
