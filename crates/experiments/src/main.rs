//! Per-figure experiment harness.
//!
//! Every evaluation artifact of the paper has a subcommand that
//! regenerates its rows/series on the synthetic dataset clones
//! (DESIGN.md §4 maps each figure to modules and parameters):
//!
//! ```text
//! cargo run --release -p experiments -- fig1      # MeanVar vs audit on Synth/SemiSynth
//! cargo run --release -p experiments -- fig2      # most-suspicious region, both methods
//! cargo run --release -p experiments -- fig3      # LAR 100x50 grid
//! cargo run --release -p experiments -- fig4      # Crime 20x20 grid (equal opportunity)
//! cargo run --release -p experiments -- fig5      # LAR unrestricted squares
//! cargo run --release -p experiments -- fig6      # fair worlds / pure clusters (Appendix A)
//! cargo run --release -p experiments -- fig7      # LAR dataset rendering
//! cargo run --release -p experiments -- fig8      # Crime dataset rendering
//! cargo run --release -p experiments -- fig9      # LAR 25x12 grid (Appendix B.1)
//! cargo run --release -p experiments -- fig10     # square-scan geometry
//! cargo run --release -p experiments -- fig11     # one-sided "red" regions (B.2)
//! cargo run --release -p experiments -- fig12     # one-sided "green" regions (B.2)
//! cargo run --release -p experiments -- complexity# O(M*N*Q) cost model measurements
//! cargo run --release -p experiments -- serve     # JSONL request/response loop (AuditService)
//! cargo run --release -p experiments -- all       # every figure and `complexity`, in order
//! ```
//!
//! Options: `--quick` (reduced scales for smoke runs), `--seed <u64>`,
//! `--worlds <n>`, `--backend <brute|kdtree|quadtree|rtree|grid>`
//! (counting substrate; results are backend-invariant), `--strategy
//! <membership|requery|blocked|auto>` (per-world counting), `--mc
//! <full-budget|early-stop|early-stop(batch=N)>` (budget strategy),
//! `--early-stop` (shorthand for `--mc early-stop`), `--worldgen
//! <scalar|word>` (world-generation version; `word` — the default —
//! draws Bernoulli labels 64 per RNG pass), `--shards <auto|N>`
//! (contiguous rank shards for blocked counting/generation; `auto`
//! resolves to the available cores), `--kernel
//! <auto|scalar|avx2|avx512|portable>` (popcount kernel for the
//! blocked sweeps; every kernel is bit-identical, `auto` picks the
//! best one the CPU supports), `--statistic
//! <bernoulli-llr|equal-opp-tpr|mean-residual>` (test statistic
//! scoring every region in every world).
//! `serve` takes `--input <path>` (JSONL request envelopes; default
//! stdin) and `--max-pending <n>` (drain policy; default manual, one
//! batch at EOF), plus the network modes: `--listen <addr>` hosts the
//! `sfnet` TCP server over the same envelopes (with `--net-workers
//! <n>` executor threads, `--queue-capacity <n>` per-session
//! backpressure, `--deadline-ms <n>` wall-clock drains; SIGINT
//! shuts down gracefully and prints the final stats) and `--connect
//! <addr>` is the matching client (streams stdin/`--input` lines to
//! the socket with `--io-timeout-ms`/`--connect-retries` bounds,
//! prints response lines to stdout). The distributed modes:
//! `serve --shard-worker <addr>` hosts a count-partial shard worker
//! (optionally with a deterministic `--fault-plan`), and
//! `serve --coordinator <addr,addr,…>` routes the in-process loop's
//! world evaluation through the fault-tolerant coordinator
//! (`--dispatch-timeout-ms` per span) — bit-identical output by
//! construction. The backend/strategy/mc/worldgen
//! values are parsed with the types' `FromStr` impls, so error
//! messages list the valid values.
//!
//! No subcommand writes a file. Serving and per-world cost are
//! measured by the separate `perfbench/` package (`python3
//! perfbench/run.py --workload all`; see `perfbench/README.md`).

mod common;
mod complexity;
mod fig1;
mod fig23;
mod fig4;
mod fig5;
mod fig6;
mod fig78;
mod fig9;
mod serve_cmd;

use common::Options;

/// Parses a flag value with the target type's `FromStr`, dying with
/// the parse error's own message (which lists the valid values).
fn parse_flag<T>(flag: &str, value: Option<&String>) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let value = value.unwrap_or_else(|| die(&format!("{flag} needs a value")));
    value
        .parse()
        .unwrap_or_else(|e| die(&format!("{flag}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command: Option<String> = None;
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--seed" => {
                i += 1;
                opts.seed = parse_flag("--seed", args.get(i));
            }
            "--worlds" => {
                i += 1;
                opts.worlds = parse_flag("--worlds", args.get(i));
            }
            "--backend" => {
                i += 1;
                opts.backend = parse_flag("--backend", args.get(i));
            }
            "--strategy" => {
                i += 1;
                opts.strategy = parse_flag("--strategy", args.get(i));
            }
            "--mc" => {
                i += 1;
                opts.mc_strategy = parse_flag("--mc", args.get(i));
            }
            "--early-stop" => opts.mc_strategy = sfscan::McStrategy::early_stop(),
            "--worldgen" => {
                i += 1;
                opts.worldgen = parse_flag("--worldgen", args.get(i));
            }
            "--shards" => {
                i += 1;
                opts.shards = parse_flag("--shards", args.get(i));
            }
            "--kernel" => {
                i += 1;
                opts.kernel = parse_flag("--kernel", args.get(i));
            }
            "--statistic" => {
                i += 1;
                opts.statistic = parse_flag("--statistic", args.get(i));
            }
            "--input" => {
                i += 1;
                opts.input = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--input needs a path")),
                );
            }
            "--max-pending" => {
                i += 1;
                opts.max_pending = Some(parse_flag("--max-pending", args.get(i)));
            }
            "--listen" => {
                i += 1;
                opts.listen = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--listen needs an address (e.g. 127.0.0.1:7878)")),
                );
            }
            "--connect" => {
                i += 1;
                opts.connect = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--connect needs an address")),
                );
            }
            "--net-workers" => {
                i += 1;
                opts.net_workers = parse_flag("--net-workers", args.get(i));
            }
            "--queue-capacity" => {
                i += 1;
                opts.queue_capacity = Some(parse_flag("--queue-capacity", args.get(i)));
            }
            "--deadline-ms" => {
                i += 1;
                opts.deadline_ms = Some(parse_flag("--deadline-ms", args.get(i)));
            }
            "--io-timeout-ms" => {
                i += 1;
                opts.io_timeout_ms = parse_flag("--io-timeout-ms", args.get(i));
            }
            "--connect-retries" => {
                i += 1;
                opts.connect_retries = parse_flag("--connect-retries", args.get(i));
            }
            "--shard-worker" => {
                i += 1;
                opts.shard_worker = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--shard-worker needs a bind address")),
                );
            }
            "--coordinator" => {
                i += 1;
                opts.coordinator = Some(args.get(i).cloned().unwrap_or_else(|| {
                    die("--coordinator needs comma-separated worker addresses")
                }));
            }
            "--fault-plan" => {
                i += 1;
                opts.fault_plan = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--fault-plan needs a plan (e.g. kill-after=3)")),
                );
            }
            "--dispatch-timeout-ms" => {
                i += 1;
                opts.dispatch_timeout_ms = parse_flag("--dispatch-timeout-ms", args.get(i));
            }
            arg if !arg.starts_with('-') && command.is_none() => {
                command = Some(arg.to_string());
            }
            other => die(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if opts.shard_worker.is_some() && opts.coordinator.is_some() {
        die("--shard-worker and --coordinator are mutually exclusive");
    }
    let command = command.unwrap_or_else(|| die("missing command; try `all` or `fig1`..`fig12`"));
    run(&command, &opts);
}

fn run(command: &str, opts: &Options) {
    match command {
        "fig1" => fig1::run(opts),
        "fig2" => fig23::run_fig2(opts),
        "fig3" => fig23::run_fig3(opts),
        "fig4" => fig4::run(opts),
        "fig5" => fig5::run_fig5(opts),
        "fig6" => fig6::run(opts),
        "fig7" => fig78::run_fig7(opts),
        "fig8" => fig78::run_fig8(opts),
        "fig9" => fig9::run(opts),
        "fig10" => fig5::run_fig10(opts),
        "fig11" => fig5::run_fig11(opts),
        "fig12" => fig5::run_fig12(opts),
        "complexity" => complexity::run(opts),
        "serve" => serve_cmd::run(opts),
        "all" => {
            for c in [
                "fig1",
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "complexity",
            ] {
                run(c, opts);
            }
        }
        other => die(&format!("unknown command: {other}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments <fig1..fig12|complexity|serve|all> \
         [--quick] [--seed N] \
         [--worlds N] [--backend <brute|kdtree|quadtree|rtree|grid>] \
         [--strategy <membership|requery|blocked|auto>] \
         [--mc <full-budget|early-stop|early-stop(batch=N)>] [--early-stop] \
         [--worldgen <scalar|word>] [--shards <auto|N>] \
         [--kernel <auto|scalar|avx2|avx512|portable>] \
         [--statistic <bernoulli-llr|equal-opp-tpr|mean-residual>] \
         [--input PATH] [--max-pending N] \
         [--listen ADDR] [--connect ADDR] [--net-workers N] \
         [--queue-capacity N] [--deadline-ms N] \
         [--io-timeout-ms N] [--connect-retries N] \
         [--shard-worker ADDR] [--coordinator ADDR,ADDR,…] \
         [--fault-plan PLAN] [--dispatch-timeout-ms N]"
    );
    std::process::exit(2);
}
