//! The experiment binaries refuse out-of-range flag values at parse
//! time: exit status 2 (the unknown-flag status), nothing on stdout, and
//! a message naming the flag — instead of panicking inside a study after
//! part of the output has been printed.

use std::process::Command;

#[test]
fn out_of_range_flags_exit_2_before_any_output() {
    let cases: &[(&str, &[&str])] = &[
        (env!("CARGO_BIN_EXE_extensions"), &["--gamma", "0"]),
        (env!("CARGO_BIN_EXE_extensions"), &["--gamma", "nan"]),
        (env!("CARGO_BIN_EXE_extensions"), &["--gamma", "1.5"]),
        (env!("CARGO_BIN_EXE_extensions"), &["--datasets", "0"]),
        (env!("CARGO_BIN_EXE_extensions"), &["--instances", "0"]),
        (env!("CARGO_BIN_EXE_extensions"), &["--threads", "0"]),
        (env!("CARGO_BIN_EXE_extensions"), &["--seed", "x"]),
        (env!("CARGO_BIN_EXE_extensions"), &["--instances"]),
        (env!("CARGO_BIN_EXE_ablation"), &["--instances", "0"]),
        (env!("CARGO_BIN_EXE_ablation"), &["--threads", "0"]),
        (env!("CARGO_BIN_EXE_table1"), &["--instances", "0"]),
        (env!("CARGO_BIN_EXE_table1"), &["--threads", "0"]),
        (env!("CARGO_BIN_EXE_table1"), &["--procs", "0"]),
        (env!("CARGO_BIN_EXE_figures"), &["--instances", "0"]),
        (env!("CARGO_BIN_EXE_figures"), &["--grid", "1"]),
        (env!("CARGO_BIN_EXE_figures"), &["--threads", "0"]),
        (env!("CARGO_BIN_EXE_figures"), &["--fig", "9"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(*args).output().expect("binary runs");
        let what = format!("{bin} {}", args.join(" "));
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert!(out.stdout.is_empty(), "{what}: printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[0]), "{what}: message {stderr:?}");
    }
}
