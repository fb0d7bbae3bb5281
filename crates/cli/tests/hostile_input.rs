//! Hostile request lines against the real `ftsyn serve` binary: input
//! nested deep enough to overflow a recursive-descent parser gets a
//! coded error reply, and the daemon keeps serving the lines after it.

use ftsyn_service::json::{self, Value};
use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_ftsyn");

#[test]
fn deeply_nested_request_and_spec_get_coded_errors_and_the_daemon_survives() {
    let n = 200_000;
    let spec = format!(
        "processes 1\\nprops P1: p\\ninit: {}p{}\\nglobal: p",
        "(".repeat(n),
        ")".repeat(n)
    );
    let input = [
        "[".repeat(n),
        format!(r#"{{"id":"deep-spec","op":"synthesize","spec":"{spec}","threads":1}}"#),
        r#"{"id":"after","op":"synthesize","problem":"mutex2-failstop-masking","threads":1}"#
            .to_owned(),
    ]
    .join("\n")
        + "\n";
    let mut child = Command::new(BIN)
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ftsyn serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .expect("write daemon stdin");
    let out = child.wait_with_output().expect("wait for daemon");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "daemon died: {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let replies: Vec<Value> = stdout.lines().map(|l| json::parse(l).unwrap()).collect();
    let field = |v: &Value, k| v.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
    let by_id = |id: &str| {
        replies
            .iter()
            .find(|v| field(v, "id") == id)
            .unwrap_or_else(|| panic!("no reply for {id:?}: {stdout}"))
    };
    assert_eq!(replies.len(), 3, "{stdout}");
    assert_eq!(field(by_id(""), "code"), "bad-request", "{stdout}");
    let deep_spec = by_id("deep-spec");
    assert_eq!(field(deep_spec, "code"), "bad-spec", "{stdout}");
    assert!(
        field(deep_spec, "message").contains("nested deeper than"),
        "{stdout}"
    );
    assert_eq!(field(by_id("after"), "status"), "solved", "{stdout}");
}
