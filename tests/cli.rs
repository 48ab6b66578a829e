//! The `mvgnn` command-line binary, run as a user runs it: the per-loop
//! verdicts it prints for the reference program and its exit codes.

use std::process::{Command, Output};

fn mvgnn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mvgnn"))
        .args(args)
        .output()
        .expect("the mvgnn binary starts")
}

const KERNELS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/kernels.mv");

#[test]
fn classify_prints_one_verdict_per_loop_of_the_reference_program() {
    let out = mvgnn(&["classify", KERNELS]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    // `loop  N @ line  L: <verdict>`
    let verdicts: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("loop "))
        .map(|l| l.split_once(": ").expect("a verdict after the loop header").1)
        .collect();
    assert_eq!(verdicts.len(), 5, "{stdout}");
    assert_eq!(verdicts[0], "#pragma omp parallel for");
    assert_eq!(verdicts[1], "#pragma omp parallel for reduction(+:sum)");
    assert_eq!(verdicts[2], "#pragma omp parallel for");
    assert_eq!(verdicts[3], "#pragma omp parallel for reduction(+:hist)");
    assert!(verdicts[4].starts_with("sequential (carried RAW "), "{}", verdicts[4]);
}

#[test]
fn a_missing_file_exits_1_and_an_unknown_command_exits_2() {
    let missing = mvgnn(&["classify", "samples/no-such-file.mv"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&missing.stderr).starts_with("mvgnn: cannot read"));
    let unknown = mvgnn(&["frobnicate", KERNELS]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unknown.stderr).starts_with("usage: mvgnn"));
}
