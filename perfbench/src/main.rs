//! The Proteus benchmark: four workloads, end-to-end metrics from
//! untraced runs and a per-layer breakdown from traced runs. See
//! `METRICS.md` for what each metric means and which layer should move
//! it.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_calm --seed 1 --seconds 28 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload all --seed 1 --seconds 28
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when a
//! check fails. Failed ops are counted in `failed`, never retried.

mod fleet;
mod session;
mod study;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use util::{median, quantile, Tracer};

/// End-to-end metrics (name, unit), reported by untraced runs.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("decision_steps_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("work_per_s", "work/s"),
    ("usd_per_work", "usd/work"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (name, unit), reported by traced runs. A layer the
/// workload never calls reads 0 (see METRICS.md for the map).
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.launch_s", "s"),
    ("core.market_step_s", "s"),
    ("core.wait_clock_s", "s"),
    ("core.finish_s", "s"),
    ("market.trace_gen_s", "s"),
    ("bidbrain.beta_train_s", "s"),
    ("market.evictions", "count"),
    ("market.allocations", "count"),
    ("bidbrain.pre_drains", "count"),
    ("core.checkpoints", "count"),
    ("agileml.stage_changes", "count"),
    ("agileml.nodes_added", "count"),
    ("agileml.nodes_evicted", "count"),
    ("mlapps.iteration_ms", "ms"),
    ("agileml.parallel_efficiency", "ratio"),
    ("ps.apply_batch_keys_per_s", "1/s"),
    ("ps.snapshot_encode_ms", "ms"),
    ("simnet.messages_per_clock", "count"),
    ("simnet.dropped", "count"),
    ("costsim.job_ms.all_on_demand", "ms"),
    ("costsim.job_ms.standard_checkpoint", "ms"),
    ("costsim.job_ms.standard_agileml", "ms"),
    ("costsim.job_ms.proteus", "ms"),
    ("costsim.steps_per_job", "count"),
    ("fleet.sched_s", "s"),
    ("fleet.round_ms", "ms"),
    ("fleet.preemptions", "count"),
    ("fleet.completed", "count"),
    ("fleet.useful_work_ratio", "ratio"),
    ("obs.overhead_pct", "%"),
    ("obs.events", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    TrainCalm,
    TrainChurn,
    CostStudy,
    FleetContended,
}

const WORKLOADS: &[(&str, Workload)] = &[
    ("train_calm", Workload::TrainCalm),
    ("train_churn", Workload::TrainChurn),
    ("cost_study", Workload::CostStudy),
    ("fleet_contended", Workload::FleetContended),
];

/// The sub-seeds one run covers. A run averages over `count` inputs
/// derived from `--seed` (markets, data, faults, arrivals), so its
/// figures describe the workload rather than one draw of it.
pub fn sub_seeds(seed: u64, count: u64) -> Vec<u64> {
    (0..count)
        .map(|i| seed.wrapping_mul(1000).wrapping_add(i))
        .collect()
}

/// Whether a run that started at `start` and finished `cycles` whole
/// cycles has time for one more within `seconds`.
pub fn another_cycle(start: std::time::Instant, seconds: f64, cycles: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / cycles.max(1) as f64 <= seconds
}

/// The ops of one session, pass or fleet, in run order.
pub struct Unit {
    pub op_ms: Vec<f64>,
    /// Wall time spent inside the ops.
    pub wall_s: f64,
    /// Decision steps the ops completed.
    pub steps: f64,
    /// Work units the ops completed.
    pub work: f64,
}

/// One cycle over the sub-seeds, reduced to what the end-to-end
/// metrics need. Each cycle is one block, so every block holds the same
/// inputs.
pub struct Block {
    pub ops: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub wall_s: f64,
    pub steps: f64,
    pub work: f64,
}

impl Block {
    /// Reduces one cycle's units as soon as the cycle ends, so that what
    /// the benchmark keeps does not grow with the number of cycles;
    /// otherwise `peak_rss_mb` would follow the host's speed. `None`
    /// when the cycle completed no op.
    pub fn of(units: impl IntoIterator<Item = Unit>) -> Option<Block> {
        let mut ops = Vec::new();
        let (mut wall_s, mut steps, mut work) = (0.0, 0.0, 0.0);
        for u in units {
            ops.extend(u.op_ms);
            wall_s += u.wall_s;
            steps += u.steps;
            work += u.work;
        }
        if ops.is_empty() {
            return None;
        }
        ops.sort_by(f64::total_cmp);
        Some(Block {
            ops: ops.len(),
            p50_ms: quantile(&ops, 0.5),
            p99_ms: quantile(&ops, 0.99),
            wall_s,
            steps,
            work,
        })
    }
}

/// Raw end-to-end measurements of an untraced run.
pub struct E2e {
    /// One sample per set-up performed in the run.
    pub setup_s: Vec<f64>,
    pub blocks: Vec<Block>,
    pub usd_per_work: f64,
}

/// Ops per block needed for its 99th percentile to have ten samples
/// beyond it; every workload's cycle is sized to hold at least this.
const BLOCK_OPS: usize = 1000;

/// Per-layer values of a traced run, keyed by `PER_LAYER` names.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Starts from the span table: the traced wall and the part of it no
    /// layer span covers.
    pub fn from_tracer(tr: &Tracer) -> Self {
        let mut l = Layers::default();
        let table = tr.self_times();
        let (_, wall, own) = table.get("wall").copied().unwrap_or_default();
        l.set("trace.wall_s", wall);
        l.set("core.unattributed_s", own);
        l
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub notes: Vec<String>,
    pub e2e: Option<E2e>,
    pub layers: Option<Layers>,
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every check passed. Failed ops are reported beside it,
    /// not folded into it.
    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|(n, _)| *n == args.workload) {
        return Err(format!(
            "--workload must be one of train_calm, train_churn, cost_study, fleet_contended, all; got '{}'",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    match w {
        Workload::TrainCalm | Workload::TrainChurn => session::run(w, seed, seconds, trace),
        Workload::CostStudy => study::run(seed, seconds, trace),
        Workload::FleetContended => fleet::run(seed, seconds, trace),
    }
}

/// The end-to-end metric values of an untraced run. Every rate and
/// percentile is taken per block and the run reports the median block:
/// a burst of host noise that slows one block does not move the result.
fn e2e_metrics(e: &E2e, notes: &mut Vec<String>) -> Vec<(&'static str, f64)> {
    let blocks = &e.blocks;
    let per_block = |f: &dyn Fn(&Block) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());
    let ops: usize = blocks.iter().map(|b| b.ops).sum();
    let smallest = blocks.iter().map(|b| b.ops).min().unwrap_or(0);
    notes.push(format!(
        "ops: {ops} in {} blocks (smallest {smallest}{}); {} set-ups",
        blocks.len(),
        if smallest < BLOCK_OPS {
            ", too few for a p99 with ten beyond"
        } else {
            ""
        },
        e.setup_s.len()
    ));
    vec![
        ("setup_s", median(&e.setup_s)),
        ("decision_steps_per_s", per_block(&|b| b.steps / b.wall_s)),
        ("op_p50_ms", per_block(&|b| b.p50_ms)),
        ("op_p99_ms", per_block(&|b| b.p99_ms)),
        ("work_per_s", per_block(&|b| b.work / b.wall_s)),
        ("usd_per_work", e.usd_per_work),
        ("peak_rss_mb", util::peak_rss_mb()),
    ]
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Runs one workload and returns its metrics (end-to-end untraced,
/// per-layer traced) with the outcome holding checks and notes.
fn measure(
    name: &str,
    w: Workload,
    args: &Args,
    trace: bool,
) -> (Vec<(&'static str, f64)>, Outcome) {
    let mut out = run(w, args.seed, args.seconds, trace);
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    if trace {
        if let Some(layers) = &out.layers {
            metrics = PER_LAYER
                .iter()
                .map(|(n, _)| (*n, layers.0.get(n).copied().unwrap_or(0.0)))
                .collect();
        }
        if let Some(tr) = &out.spans {
            let dir = std::path::Path::new("perfbench/out");
            let path = dir.join(format!("{name}-seed{}.spans.jsonl", args.seed));
            match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tr.to_jsonl())) {
                Ok(()) => notes.push(format!("spans written to {}", path.display())),
                Err(e) => notes.push(format!("could not write spans: {e}")),
            }
            notes.push(span_table(tr));
        }
    } else if let Some(e) = &out.e2e {
        metrics = e2e_metrics(e, &mut notes);
    }
    out.notes.extend(notes);
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    out.check("every metric is finite", finite && !metrics.is_empty());
    (metrics, out)
}

/// The traced span table: per layer, calls, total and self time; the
/// self times plus `core.unattributed_s` add up to the traced wall.
fn span_table(tr: &Tracer) -> String {
    let table = tr.self_times();
    let wall = table.get("wall").map_or(0.0, |t| t.1);
    let mut s =
        String::from("span                               calls     total_s      self_s  self_%\n");
    let mut sum = 0.0;
    let mut rows: Vec<_> = table.iter().collect();
    rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
    for (name, (calls, total, own)) in rows {
        let label = if *name == "wall" {
            "wall (unattributed)"
        } else {
            name
        };
        let _ = writeln!(
            s,
            "{label:<34} {calls:>6} {total:>11.4} {own:>11.4} {:>7.2}",
            100.0 * own / wall.max(1e-12)
        );
        sum += own;
    }
    let _ = write!(
        s,
        "self times sum to {sum:.6} s of a {wall:.6} s traced wall"
    );
    s
}

fn host_line(trace: bool) -> String {
    format!(
        "host: nproc={} executor_threads=1 trace={} git_rev={} rustc=\"{}\"",
        util::nproc(),
        u8::from(trace),
        util::git_rev(),
        util::RUSTC_VERSION
    )
}

fn print_result(name: &str, metrics: &[(&'static str, f64)], out: &Outcome) {
    println!("== {name}");
    for n in &out.notes {
        println!("{n}");
    }
    for (what, ok) in &out.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "failed_ops_ratio {:.6} ({} of {} ops failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for (m, v) in metrics {
        println!("{m:<36} {v:>16.6} {}", unit_of(m));
    }
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v)| {
            let unit = unit_of(n.rsplit('/').next().unwrap_or(n));
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        // Every workload, untraced then traced, in one report.
        let mut correct = true;
        let (mut attempted, mut failed) = (0, 0);
        let mut all = Vec::new();
        for (name, w) in WORKLOADS {
            for trace in [false, true] {
                let (metrics, out) = measure(name, *w, &args, trace);
                println!("{}", host_line(trace));
                print_result(
                    &format!("{name} (trace {})", u8::from(trace)),
                    &metrics,
                    &out,
                );
                correct &= out.correct();
                attempted += out.attempted;
                failed += out.failed;
                all.extend(metrics.iter().map(|(m, v)| (format!("{name}/{m}"), *v)));
            }
        }
        println!("{}", json_result(correct, attempted, failed, &all));
        std::process::exit(if correct { 0 } else { 1 });
    }
    let (_, w) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .copied()
        .expect("workload validated");
    let (metrics, out) = measure(&args.workload, w, &args, args.trace);
    println!("{}", host_line(args.trace));
    print_result(&args.workload, &metrics, &out);
    let correct = out.correct();
    let named: Vec<(String, f64)> = metrics.iter().map(|(m, v)| (m.to_string(), *v)).collect();
    println!(
        "{}",
        json_result(correct, out.attempted.max(1), out.failed, &named)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
