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

/// Runs `disc args` with stdout captured; the run must succeed.
fn run_captured(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_disc"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "disc {args:?}: {:?}\n{stderr}",
        out.status
    );
}

/// A reader that goes away early costs a run none of its files: a durable
/// `cluster` and the `resume` after it, each into a closed pipe, write the
/// same `--out` snapshots as the same runs with stdout captured.
#[test]
fn runs_into_a_closed_pipe_still_write_their_files() {
    let dir = std::env::temp_dir().join(format!("disc_closed_pipe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (full, prefix) = (p("blobs.csv"), p("blobs_prefix.csv"));
    run_captured(&[
        "generate",
        "--dataset",
        "blobs",
        "--n",
        "600",
        "--out",
        &full,
    ]);
    let text = std::fs::read_to_string(&full).unwrap();
    let head: Vec<&str> = text.lines().take(400).collect();
    std::fs::write(&prefix, head.join("\n") + "\n").unwrap();

    for side in ["captured", "piped"] {
        let (ck, wal) = (p(&format!("{side}_ck")), p(&format!("{side}.wal")));
        let (cluster_out, resume_out) = (
            p(&format!("{side}_cluster.csv")),
            p(&format!("{side}_resume.csv")),
        );
        let durable = ["--checkpoint-dir", &ck, "--wal", &wal, "--quiet"];
        let cluster = [
            &["cluster", "--input", &prefix, "--eps", "1.0", "--tau", "4"][..],
            &["--window", "300", "--stride", "20", "--out", &cluster_out],
            &durable,
        ]
        .concat();
        let resume = [
            &["resume", "--input", &full, "--out", &resume_out][..],
            &durable,
        ]
        .concat();
        for args in [cluster, resume] {
            if side == "captured" {
                run_captured(&args);
                continue;
            }
            let out = run_into_closed_pipe(&args);
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
    for file in ["cluster.csv", "resume.csv"] {
        let captured = std::fs::read(p(&format!("captured_{file}"))).unwrap();
        let piped = std::fs::read(p(&format!("piped_{file}"))).unwrap();
        assert!(!captured.is_empty(), "{file} is empty");
        assert!(captured == piped, "{file} differs between the two runs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
