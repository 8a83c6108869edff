//! `experiments serve` reads raw bytes from stdin: a line that is not
//! UTF-8 must get a typed rejection, like any other malformed line, and
//! must not stop the lines after it from being answered.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn non_utf8_line_is_rejected_as_malformed_and_the_stream_continues() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["serve", "--quick", "--worlds", "19"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn experiments serve");
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin
            .write_all(b"\xff\xfe\n{\"stats\": true}\n")
            .expect("write request bytes");
    }
    let output = child.wait_with_output().expect("serve exits");
    assert!(output.status.success(), "serve failed: {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 transcript");
    let responses: Vec<&str> = stdout.lines().collect();
    assert_eq!(responses.len(), 2, "one response per line:\n{stdout}");
    assert!(
        responses[0].contains("\"status\":\"rejected\"")
            && responses[0].contains("\"code\":\"malformed\""),
        "{}",
        responses[0]
    );
    assert!(
        responses[1].contains("\"status\":\"stats\""),
        "{}",
        responses[1]
    );
}
