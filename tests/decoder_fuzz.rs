//! Line decoders never panic: every line a peer can send — a serve
//! request envelope, a shard-worker request or reply, a fault plan —
//! is decoded to `Ok` or a typed `Err`, whatever the bytes. Valid lines
//! are mutated by byte flips, inserts, deletes, truncation and spliced
//! integers, and every mutant is fed to every decoder.

use proptest::prelude::*;
use spatial_fairness::cluster::{CountRequest, FaultPlan, WorkerReply, WorkerRequest};
use spatial_fairness::prelude::*;
use spatial_fairness::scan::{McStrategy, NullModel, Statistic, WorldGen};
use spatial_fairness::serve::{DatasetHandle, RequestEnvelope};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;

/// Well-formed lines of every decoded kind.
fn corpus() -> Vec<String> {
    let r = AuditRequest::new(0.005).with_worlds(99).with_seed(42);
    let mut lines: Vec<String> = [
        r,
        r.with_worldgen(WorldGen::Word)
            .with_direction(Direction::High),
        r.with_null_model(NullModel::Permutation)
            .with_statistic(Statistic::MeanResidual),
        r.with_mc_strategy(McStrategy::EarlyStop { batch_size: 16 }),
    ]
    .iter()
    .map(|&request| RequestEnvelope::new(DatasetHandle(0), request).to_json())
    .collect();
    lines.push(
        RequestEnvelope::new(DatasetHandle(3), r)
            .with_geojson()
            .to_json(),
    );
    lines.extend(
        [
            WorkerRequest::Hello,
            WorkerRequest::Count(CountRequest {
                id: 7,
                null_model: NullModel::Permutation,
                seed: 42,
                worldgen: WorldGen::Word,
                first: 8,
                count: 4,
                word_lo: 16,
                word_hi: 64,
            }),
        ]
        .iter()
        .map(WorkerRequest::to_json),
    );
    lines.extend(
        [
            WorkerReply::Hello {
                version: 1,
                num_points: 100,
                num_regions: 16,
                num_words: 2,
            },
            WorkerReply::Count {
                id: 7,
                counts: vec![1, 2, 3, 4],
                p_partials: vec![9, 9],
            },
            WorkerReply::Err {
                id: Some(7),
                error: String::from("boom"),
            },
        ]
        .iter()
        .map(WorkerReply::to_json),
    );
    lines.extend(
        [
            "kill-after=3,delay-at=2:50,drop-at=1,corrupt-at=4",
            "delay-every=2:400",
        ]
        .map(String::from),
    );
    lines
}

/// Integers that sit on or past a decoder's numeric edges.
const SPLICES: [&str; 8] = [
    "0",
    "-1",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "1e308",
    "-0.5",
];

/// Applies one mutation to `bytes`; `a` and `b` pick positions and
/// values.
fn mutate(bytes: &mut Vec<u8>, op: u8, a: u64, b: u64) {
    let at = |len: usize| (a % (len as u64 + 1)) as usize;
    match op {
        0 if !bytes.is_empty() => {
            let i = at(bytes.len() - 1);
            bytes[i] ^= 1 << (b % 8);
        }
        1 => {
            let i = at(bytes.len());
            bytes.insert(i, b"{}[]\":,-.0e9 \\"[(b % 14) as usize]);
        }
        2 if !bytes.is_empty() => {
            let i = at(bytes.len() - 1);
            let end = (i + 1 + (b % 8) as usize).min(bytes.len());
            bytes.drain(i..end);
        }
        3 => bytes.truncate(at(bytes.len())),
        _ => {
            // Replace the digit run at or after a position with an
            // edge integer (or insert one if no digits follow).
            let start = at(bytes.len());
            let from = (start..bytes.len())
                .find(|&i| bytes[i].is_ascii_digit())
                .unwrap_or(start);
            let to = (from..bytes.len())
                .find(|&i| !bytes[i].is_ascii_digit())
                .unwrap_or(bytes.len());
            let splice = SPLICES[(b % SPLICES.len() as u64) as usize].bytes();
            bytes.splice(from..to, splice);
        }
    }
}

/// Runs every decoder on `line`; a panic fails with the line that
/// caused it.
fn decode_everything(line: &str) {
    let decoded = catch_unwind(AssertUnwindSafe(|| {
        let _ = RequestEnvelope::from_json(line);
        let _ = WorkerRequest::from_json(line);
        let _ = WorkerReply::from_json(line);
        let _ = FaultPlan::from_str(line);
    }));
    assert!(decoded.is_ok(), "a decoder panicked on {line:?}");
}

#[test]
fn the_corpus_decodes() {
    let lines = corpus();
    for line in &lines[..5] {
        assert!(RequestEnvelope::from_json(line).is_ok(), "{line}");
    }
    for line in &lines[5..7] {
        assert!(WorkerRequest::from_json(line).is_ok(), "{line}");
    }
    for line in &lines[7..10] {
        assert!(WorkerReply::from_json(line).is_ok(), "{line}");
    }
    for line in &lines[10..] {
        assert!(FaultPlan::from_str(line).is_ok(), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn mutated_lines_decode_to_ok_or_err_never_a_panic(
        pick in 0usize..12,
        edits in prop::collection::vec((0u8..5, any::<u64>(), any::<u64>()), 1..6),
    ) {
        let mut bytes = corpus().swap_remove(pick).into_bytes();
        for (op, a, b) in edits {
            mutate(&mut bytes, op, a, b);
            decode_everything(&String::from_utf8_lossy(&bytes));
        }
    }
}
