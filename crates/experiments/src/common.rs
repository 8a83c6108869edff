//! Shared harness plumbing: options, dataset construction, rendering.

use sfdata::crime::{CrimeConfig, CrimeData, CrimePipelineResult};
use sfdata::lar::{LarConfig, LarDataset};
use sfgeo::Rect;
use sfml::RandomForestConfig;
use sfscan::outcomes::SpatialOutcomes;
use sfscan::{
    AuditConfig, CountingStrategy, IndexBackend, KernelSelect, McStrategy, Shards, Statistic,
    WorldGen,
};
use std::time::Instant;

/// Global harness options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Reduced scales for smoke runs.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Monte Carlo worlds (`w − 1`).
    pub worlds: usize,
    /// Spatial index backend serving every audit's range counts.
    pub backend: IndexBackend,
    /// Per-world counting strategy.
    pub strategy: CountingStrategy,
    /// Monte Carlo budget strategy for every calibration.
    pub mc_strategy: McStrategy,
    /// World-generation algorithm version for every calibration.
    pub worldgen: WorldGen,
    /// Shard count for the blocked counting/generation fan-out
    /// (`auto` resolves to the available cores).
    pub shards: Shards,
    /// Popcount kernel for the blocked counting sweeps (`auto`
    /// resolves to the best kernel the CPU supports).
    pub kernel: KernelSelect,
    /// Test statistic scoring every region in every world.
    pub statistic: Statistic,
    /// `serve`: JSONL request file (None reads stdin).
    pub input: Option<String>,
    /// `serve`: drain policy — execute a handle's queue as soon as it
    /// holds this many requests (None = manual, flush at EOF).
    pub max_pending: Option<usize>,
    /// `serve`: TCP listen address (e.g. `127.0.0.1:7878`); switches
    /// from the stdin/stdout loop to the `sfnet` server.
    pub listen: Option<String>,
    /// `serve`: connect to a live server instead of hosting one —
    /// streams stdin/`--input` lines to the socket and prints response
    /// lines to stdout (the CI TCP smoke client).
    pub connect: Option<String>,
    /// `serve --listen`: executor worker threads.
    pub net_workers: usize,
    /// `serve --listen`: per-session bound on outstanding requests
    /// (None = unbounded; full queues answer `"busy"`).
    pub queue_capacity: Option<usize>,
    /// `serve --listen`: drain deadline in milliseconds (switches the
    /// policy to `Deadline`; wins over `--max-pending`).
    pub deadline_ms: Option<u64>,
    /// `serve --connect`: connect/read timeout in milliseconds — the
    /// client aborts with a clear error instead of blocking forever on
    /// a dead or wedged server.
    pub io_timeout_ms: u64,
    /// `serve --connect`: bounded connection attempts (with a short
    /// backoff between them) before giving up.
    pub connect_retries: u32,
    /// `serve`: host a shard worker on this address instead of an
    /// audit service — serves count-partial spans to a coordinator.
    pub shard_worker: Option<String>,
    /// `serve`: comma-separated shard-worker addresses; the in-process
    /// loop routes world evaluation through the fault-tolerant
    /// coordinator instead of the local engine (bit-identical output).
    pub coordinator: Option<String>,
    /// `serve --shard-worker`: deterministic fault-injection plan
    /// (e.g. `kill-after=3,delay-every=2:50`; see `sfcluster`).
    pub fault_plan: Option<String>,
    /// Coordinator dispatch deadline per span request, milliseconds.
    pub dispatch_timeout_ms: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            quick: false,
            seed: 42,
            worlds: 999,
            backend: IndexBackend::default(),
            strategy: CountingStrategy::default(),
            mc_strategy: McStrategy::FullBudget,
            worldgen: WorldGen::Word,
            shards: Shards::Auto,
            kernel: KernelSelect::Auto,
            statistic: Statistic::BernoulliLlr,
            input: None,
            max_pending: None,
            listen: None,
            connect: None,
            net_workers: 4,
            queue_capacity: None,
            deadline_ms: None,
            io_timeout_ms: 30_000,
            connect_retries: 5,
            shard_worker: None,
            coordinator: None,
            fault_plan: None,
            dispatch_timeout_ms: 10_000,
        }
    }
}

impl Options {
    /// The significance level used throughout the paper's evaluation.
    pub const ALPHA: f64 = 0.005;

    /// Applies the harness-level audit knobs (index backend, counting
    /// strategy, Monte Carlo budget strategy, world generator, shard
    /// count, popcount kernel, test statistic) to a figure's config.
    pub fn decorate(&self, config: AuditConfig) -> AuditConfig {
        config
            .with_backend(self.backend)
            .with_strategy(self.strategy)
            .with_mc_strategy(self.mc_strategy)
            .with_worldgen(self.worldgen)
            .with_shards(self.shards)
            .with_kernel(self.kernel)
            .with_statistic(self.statistic)
    }

    /// LAR generator config at the selected scale.
    pub fn lar_config(&self) -> LarConfig {
        if self.quick {
            LarConfig {
                seed: self.seed,
                ..LarConfig::small()
            }
        } else {
            LarConfig {
                seed: self.seed,
                ..LarConfig::paper()
            }
        }
    }

    /// Crime generator config at the selected scale.
    pub fn crime_config(&self) -> CrimeConfig {
        if self.quick {
            CrimeConfig {
                seed: self.seed,
                ..CrimeConfig::small()
            }
        } else {
            CrimeConfig {
                seed: self.seed,
                ..CrimeConfig::medium()
            }
        }
    }

    /// Monte Carlo budget, clamped in quick mode.
    pub fn effective_worlds(&self) -> usize {
        if self.quick {
            self.worlds.min(199)
        } else {
            self.worlds
        }
    }
}

/// Generates SynthLAR, timing the construction.
pub fn build_lar(opts: &Options) -> LarDataset {
    let t = Instant::now();
    let lar = LarDataset::generate(&opts.lar_config());
    println!(
        "[data] SynthLAR: N={}, P={}, rate={:.4}, {} locations ({:.1?})",
        lar.outcomes.len(),
        lar.outcomes.positives(),
        lar.outcomes.rate(),
        lar.locations.len(),
        t.elapsed()
    );
    lar
}

/// Generates SynthCrime and runs the train→predict pipeline.
pub fn build_crime(opts: &Options) -> (CrimeData, CrimePipelineResult) {
    let t = Instant::now();
    let data = CrimeData::generate(&opts.crime_config());
    let mut rf = RandomForestConfig::new(if opts.quick { 8 } else { 20 }, opts.seed);
    rf.tree.max_depth = 12;
    let result = data.run_pipeline(&rf);
    println!(
        "[data] SynthCrime: {} incidents, base rate {:.3}; model accuracy {:.3} (paper 0.78), \
         TPR {:.3} (paper 0.58); equal-opportunity view: {} outcomes ({:.1?})",
        data.features.num_rows(),
        result.base_rate,
        result.accuracy,
        result.tpr,
        result.outcomes.len(),
        t.elapsed()
    );
    (data, result)
}

/// Renders a terminal density map of outcomes: glyph = local positive
/// rate (`.` low … `#` high), blank = no observations.
pub fn ascii_map(outcomes: &SpatialOutcomes, cols: usize, rows: usize) -> String {
    let bb = outcomes.expanded_bounding_box();
    let mut n = vec![0u64; cols * rows];
    let mut p = vec![0u64; cols * rows];
    for (pt, &l) in outcomes.points().iter().zip(outcomes.labels()) {
        let cx = (((pt.x - bb.min.x) / bb.width()) * cols as f64) as usize;
        let cy = (((pt.y - bb.min.y) / bb.height()) * rows as f64) as usize;
        let idx = cy.min(rows - 1) * cols + cx.min(cols - 1);
        n[idx] += 1;
        p[idx] += l as u64;
    }
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let mut out = String::with_capacity((cols + 1) * rows);
    // Render north-up.
    for cy in (0..rows).rev() {
        for cx in 0..cols {
            let idx = cy * cols + cx;
            if n[idx] == 0 {
                out.push(' ');
            } else {
                let rate = p[idx] as f64 / n[idx] as f64;
                let g =
                    1 + ((rate * (glyphs.len() - 2) as f64).round() as usize).min(glyphs.len() - 2);
                out.push(glyphs[g]);
            }
        }
        out.push('\n');
    }
    out
}

/// Pretty-prints a labelled key-value row comparing paper vs measured.
pub fn report_row(what: &str, paper: &str, measured: &str) {
    println!("  {what:<46} paper: {paper:<16} measured: {measured}");
}

/// Section banner.
pub fn banner(title: &str) {
    println!(
        "\n==== {title} {}",
        "=".repeat(66usize.saturating_sub(title.len()))
    );
}

/// A rect formatted as "side x side at (cx, cy)".
pub fn fmt_rect(r: &Rect) -> String {
    format!(
        "{:.2}x{:.2} deg at ({:.2}, {:.2})",
        r.width(),
        r.height(),
        r.center().x,
        r.center().y
    )
}
