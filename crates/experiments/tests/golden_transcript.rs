//! Golden served transcript: replays a fixed 108-request matrix
//! through `experiments serve` and compares each response line's
//! FNV-1a-64 hash with `golden/fold_transcript.txt`.
//!
//! The perf harness checks served reports against references scored
//! by the same τ fold, so a fold bug would agree with itself there.
//! These hashes were recorded once from a known-good build and depend
//! on no code in this tree: any change to a served byte — τ, p-value,
//! findings, the simulated distribution — fails here.

use std::io::Write;
use std::process::{Command, Stdio};

const GOLDEN: &str = include_str!("golden/fold_transcript.txt");

/// The request matrix, in transcript order: statistic × worldgen ×
/// null model × direction × seed, outermost first.
fn requests() -> Vec<String> {
    let mut lines = Vec::new();
    for statistic in ["bernoulli-llr", "equal-opp-tpr", "mean-residual"] {
        for worldgen in ["Scalar", "Word"] {
            for null_model in ["Bernoulli", "Permutation"] {
                for direction in ["TwoSided", "High", "Low"] {
                    for seed in [42, 43, 44] {
                        lines.push(format!(
                            "{{\"handle\": 0, \"request\": {{\"alpha\": 0.005, \"worlds\": 99, \
                             \"seed\": {seed}, \"direction\": \"{direction}\", \
                             \"null_model\": \"{null_model}\", \"mc_strategy\": \"FullBudget\", \
                             \"worldgen\": \"{worldgen}\", \"statistic\": \"{statistic}\"}}}}"
                        ));
                    }
                }
            }
        }
    }
    lines
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn served_transcript_matches_the_golden_hashes() {
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|line| !line.starts_with('#'))
        .collect();
    let requests = requests();
    assert_eq!(golden.len(), requests.len(), "one golden hash per request");

    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["serve", "--quick", "--worlds", "99"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn experiments serve");
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        for line in &requests {
            writeln!(stdin, "{line}").expect("write request");
        }
    }
    let output = child.wait_with_output().expect("serve exits");
    assert!(output.status.success(), "serve failed: {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 transcript");
    let responses: Vec<&str> = stdout.lines().collect();
    assert_eq!(responses.len(), requests.len(), "one response per request");

    for (i, ((response, expected), request)) in
        responses.iter().zip(&golden).zip(&requests).enumerate()
    {
        assert_eq!(
            format!("{:016x}", fnv1a64(response.as_bytes())),
            *expected,
            "response {i} changed\nrequest: {request}\nresponse: {response}"
        );
    }
}
