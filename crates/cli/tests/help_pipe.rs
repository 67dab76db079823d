//! `disc --help` into a pipe whose reader has already gone, as in
//! `disc --help | head -1` once `head` exits: the help is not an error.

use std::process::{Command, Stdio};

/// Runs `disc args` with stdout on a pipe whose read end is closed, so
/// every write to it fails with `BrokenPipe`.
fn run_into_closed_pipe(args: &[&str]) -> std::process::Output {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_disc"))
        .args(args)
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .unwrap()
}

#[test]
fn help_into_a_closed_pipe_exits_zero_without_a_panic() {
    for args in [&["--help"][..], &["help"], &["cluster", "--help"]] {
        let out = run_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "disc {args:?}: {:?}\n{stderr}",
            out.status
        );
        assert!(
            stderr.is_empty(),
            "disc {args:?} wrote to stderr:\n{stderr}"
        );
    }
}
