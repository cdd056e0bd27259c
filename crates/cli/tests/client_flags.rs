//! `saql client` flags that are refused before any connection is made.

use std::process::Command;

#[test]
fn tail_refuses_a_non_numeric_max() {
    // Port 1 on loopback has no server: a flag accepted by mistake would
    // surface as a connection error instead.
    let out = Command::new(env!("CARGO_BIN_EXE_saql"))
        .args(["client", "tail", "--addr", "127.0.0.1:1", "--query", "q"])
        .args(["--max", "abc"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--max expects a number"), "{err}");
}
