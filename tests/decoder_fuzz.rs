//! Line decoders never panic: every line a peer can send — a serve
//! request envelope, a shard-worker request or reply, a fault plan —
//! and every command-line flag value is decoded to `Ok` or a typed
//! `Err`, whatever the bytes. Valid lines are mutated by byte flips,
//! inserts, deletes, truncation and spliced integers, and every mutant
//! is fed to every decoder.

use proptest::prelude::*;
use spatial_fairness::cluster::{CountRequest, FaultPlan, WorkerReply, WorkerRequest};
use spatial_fairness::prelude::*;
use spatial_fairness::scan::{
    CountingStrategy, IndexBackend, KernelSelect, McStrategy, NullModel, Shards, Statistic,
    WorldGen,
};
use spatial_fairness::serve::{DatasetHandle, RequestEnvelope};
use std::fmt::{Debug, Display};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;

/// One valid value of each flag type, in [`parse_flag_values`] order.
const FLAG_TOKENS: [&str; 7] = [
    "kdtree",
    "blocked",
    "early-stop(batch=32)",
    "word",
    "12",
    "portable",
    "equal-opp-tpr",
];

/// Parses `value` with the `FromStr` of every flag-value type the
/// `experiments` CLI reads; entry `i` says whether type `i` accepted
/// it.
fn parse_flag_values(value: &str) -> [bool; 7] {
    [
        IndexBackend::from_str(value).is_ok(),
        CountingStrategy::from_str(value).is_ok(),
        McStrategy::from_str(value).is_ok(),
        WorldGen::from_str(value).is_ok(),
        Shards::from_str(value).is_ok(),
        KernelSelect::from_str(value).is_ok(),
        Statistic::from_str(value).is_ok(),
    ]
}

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
    lines.extend(FLAG_TOKENS.map(String::from));
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
        let _ = parse_flag_values(line);
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
    for line in &lines[10..12] {
        assert!(FaultPlan::from_str(line).is_ok(), "{line}");
    }
    assert_eq!(lines[12..], FLAG_TOKENS);
    for (i, token) in FLAG_TOKENS.iter().enumerate() {
        assert!(parse_flag_values(token)[i], "{token}");
    }
}

/// Asserts that every value's `Display` output parses back to it.
fn displays_and_parses_back<T>(values: impl IntoIterator<Item = T>)
where
    T: Display + FromStr + PartialEq + Debug,
    T::Err: Debug,
{
    for value in values {
        let shown = value.to_string();
        assert_eq!(shown.parse::<T>().unwrap(), value, "{shown}");
    }
}

#[test]
fn flag_values_display_and_parse_back() {
    displays_and_parses_back(IndexBackend::ALL);
    displays_and_parses_back(CountingStrategy::ALL);
    displays_and_parses_back([
        McStrategy::FullBudget,
        McStrategy::early_stop(),
        McStrategy::EarlyStop { batch_size: 1 },
    ]);
    displays_and_parses_back(WorldGen::ALL);
    displays_and_parses_back([Shards::Auto, Shards::Fixed(1), Shards::Fixed(64)]);
    displays_and_parses_back(KernelSelect::ALL);
    displays_and_parses_back(Statistic::ALL);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn mutated_lines_decode_to_ok_or_err_never_a_panic(
        pick in any::<usize>(),
        edits in prop::collection::vec((0u8..5, any::<u64>(), any::<u64>()), 1..6),
    ) {
        let mut lines = corpus();
        let pick = pick % lines.len();
        let mut bytes = lines.swap_remove(pick).into_bytes();
        for (op, a, b) in edits {
            mutate(&mut bytes, op, a, b);
            decode_everything(&String::from_utf8_lossy(&bytes));
        }
    }
}
