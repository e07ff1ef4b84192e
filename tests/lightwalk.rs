//! The `lightwalk` binary on graph files it must refuse: a corrupt
//! `LTGRAPH2` file or one of the older `LTGRAPH1` revision makes
//! `run` and `info` exit 1 with one `error:` line naming what is wrong,
//! never a panic's exit code 101.

use std::path::{Path, PathBuf};
use std::process::Command;

fn lightwalk(args: &[&str], dir: &Path) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lightwalk"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("lightwalk starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lt_lightwalk_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn corrupt_and_old_graph_files_exit_1_with_one_error_line() {
    let dir = scratch_dir();
    let (code, _, err) = lightwalk(&["generate", "--rmat", "9x4", "--out", "g.bin"], &dir);
    assert_eq!(code, Some(0), "{err}");
    let valid = std::fs::read(dir.join("g.bin")).unwrap();
    let (code, out, err) = lightwalk(&["info", "g.bin"], &dir);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("vertices"), "{out}");

    let mut flipped = valid.clone();
    let mid = valid.len() / 2;
    flipped[mid] ^= 0x04;
    let mut old = valid.clone();
    old[..8].copy_from_slice(b"LTGRAPH1");
    let cut = valid[..valid.len() - 3].to_vec();
    for (name, bytes, names) in [
        ("flipped.bin", flipped, "checksum"),
        ("old.bin", old, "LTGRAPH1"),
        ("cut.bin", cut, "header describes"),
    ] {
        std::fs::write(dir.join(name), &bytes).unwrap();
        for cmd in [
            vec!["info", name],
            vec!["run", name, "--walks", "100", "--length", "5"],
        ] {
            let (code, out, err) = lightwalk(&cmd, &dir);
            assert_eq!(code, Some(1), "{cmd:?}: stdout {out:?}, stderr {err:?}");
            let lines: Vec<&str> = err.lines().collect();
            assert_eq!(lines.len(), 1, "{cmd:?}: {err:?}");
            assert!(lines[0].starts_with("error: "), "{cmd:?}: {err:?}");
            assert!(lines[0].contains(names), "{cmd:?}: {err:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
