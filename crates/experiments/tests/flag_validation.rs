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

/// A reader that is gone before the first line (`… | head -0`, or a
/// `head` that has already exited) ends each binary quietly with status
/// 0, instead of a "failed printing to stdout" panic with status 101.
#[test]
fn a_closed_stdout_ends_the_binaries_quietly() {
    let out = std::env::temp_dir().join(format!("closed-stdout-{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    let cases: &[(&str, &[&str])] = &[
        (
            env!("CARGO_BIN_EXE_extensions"),
            &["--instances", "2", "--datasets", "5"],
        ),
        (env!("CARGO_BIN_EXE_ablation"), &["--instances", "1"]),
        (
            env!("CARGO_BIN_EXE_figures"),
            &[
                "--fig",
                "2",
                "--instances",
                "1",
                "--grid",
                "2",
                "--out",
                out,
            ],
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--instances", "1", "--out", out],
        ),
    ];
    for (bin, args) in cases {
        // The read end is closed before the child starts, so its very
        // first write fails with a broken pipe.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let run = Command::new(bin)
            .args(*args)
            .stdout(writer)
            .output()
            .expect("binary runs");
        let what = format!("{bin} {}", args.join(" "));
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
        assert_eq!(run.status.code(), Some(0), "{what}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(out);
}
