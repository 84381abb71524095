//! Engine-level benchmark for the sparse format conversion engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk-default|bulk-verified|stream-small> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! A closed loop with one caller: each conversion starts when the previous
//! one returns. The run sets up a cold engine (synthesizing every pair's
//! plan) several times, converts one checked input of every pair to warm
//! up, then cycles through all pairs calling `Engine::convert` /
//! `Engine::convert_tensor` until `--seconds` have passed, checking every
//! output against the input's content.
//!
//! With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
//! also replays each conversion layer by layer through the crates' public
//! entry points (`Engine::plan`, `validate_*`, kernel or bind + interpreter,
//! `extract_*`), timing each call from the outside, reports the per-layer
//! metrics, and prints a per-pair layer table on standard error. The last
//! line of standard output is one JSON object.

mod cases;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use cases::{Case, Input, Output, Pair};
use sparse_engine::{Engine, EngineConfig, EngineError, EngineStats};
use sparse_synthesis::{bind_matrix, bind_tensor, extract_matrix, extract_tensor, RunError};
use spf_codegen::runtime::RtEnv;

/// Cold set-ups per run: at least `SETUP_MIN_REPS`, and more while they
/// have taken less than `SETUP_MIN_SECONDS` (up to `SETUP_MAX_REPS`), so
/// cheap set-ups are sampled across several seconds. `setup_s` is their
/// median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 1000;
const SETUP_MIN_SECONDS: f64 = 3.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// `Engine::new()` defaults on 40k-entry inputs: validation on, plans
    /// unverified, so every pair runs on the SPF-IR interpreter.
    BulkDefault,
    /// The same inputs with `verify_plans` on: plans are statically
    /// verified at set-up and the 14 pairs with a registered kernel run it.
    BulkVerified,
    /// Defaults on ~256-entry inputs, 16 distinct inputs per pair: per-call
    /// costs (plan lookup, dispatch, allocation) dominate.
    StreamSmall,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "bulk-default" => Some(Workload::BulkDefault),
            "bulk-verified" => Some(Workload::BulkVerified),
            "stream-small" => Some(Workload::StreamSmall),
            _ => None,
        }
    }

    fn config(self) -> EngineConfig {
        EngineConfig { verify_plans: self == Workload::BulkVerified, ..EngineConfig::default() }
    }

    /// `(n, variants)`: matrix extent and distinct inputs per pair.
    fn scale(self) -> (usize, usize) {
        match self {
            Workload::BulkDefault | Workload::BulkVerified => (5000, 1),
            Workload::StreamSmall => (32, 16),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Wall time of each layer call, summed over a run (nanoseconds).
#[derive(Default)]
struct Layers {
    plan: u64,
    validate: u64,
    exec: u64,
    extract: u64,
}

impl Layers {
    fn total(&self) -> u64 {
        self.plan + self.validate + self.exec + self.extract
    }

    fn add(&mut self, other: &Layers) {
        self.plan += other.plan;
        self.validate += other.validate;
        self.exec += other.exec;
        self.extract += other.extract;
    }
}

/// One successful measured conversion.
struct Call {
    /// `Engine::convert` latency.
    ns: u64,
    /// Stored entries converted.
    nnz: u64,
    /// Latency of the reference sort of the same entries, run right after
    /// the conversion (0 in traced runs, which skip it).
    sort_ns: u64,
}

/// One pair's measured conversions.
#[derive(Default)]
struct PairTally {
    calls: Vec<Call>,
    layers: Layers,
}

impl PairTally {
    fn median_ns(&self) -> u64 {
        median(self.calls.iter().map(|c| c.ns).collect())
    }

    /// Median over calls of conversion time / reference sort time.
    fn median_vs_sort(&self) -> f64 {
        median(self.calls.iter().map(|c| c.ns as f64 / c.sort_ns.max(1) as f64).collect())
    }

    fn nnz(&self) -> u64 {
        self.calls.iter().map(|c| c.nnz).sum()
    }

    fn convert_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.ns).sum()
    }
}

/// The reference the end-to-end metrics are expressed in: sorting the
/// case's stored-entry keys with the standard library. It runs right after
/// each conversion on the same host state, so the ratio of the two cancels
/// the host's speed swings (on shared cores every timing can run 10–50%
/// slow for minutes), which no statistic over raw times removes.
fn reference_sort_ns(case: &Case) -> u64 {
    let t = Instant::now();
    let mut keys = case.sort_keys.clone();
    keys.sort_unstable();
    std::hint::black_box(&keys);
    t.elapsed().as_nanos() as u64
}

/// Everything one run measured.
#[derive(Default)]
struct Tally {
    pairs: Vec<PairTally>,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

fn run(args: &Args) -> Result<String, String> {
    let pairs = cases::pairs();
    let (n, variants) = args.workload.scale();
    let cases = cases::generate(&pairs, n, variants, args.seed);
    let config = args.workload.config();

    let mut setups = Vec::new();
    let mut engine = None;
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && setups.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        let t = Instant::now();
        let e = Engine::with_config(config);
        for p in &pairs {
            e.plan(&p.src, &p.dst).map_err(|err| format!("{}: {err}", label(p)))?;
        }
        setups.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.ok_or("no set-up ran")?;

    let mut tally = Tally::default();
    tally.pairs.resize_with(pairs.len(), PairTally::default);
    // Warm-up: one checked, untimed conversion of every pair.
    for case in &cases[..pairs.len()] {
        let pair = &pairs[case.pair];
        tally.check(pair, case, convert(&engine, pair, &case.input));
    }

    let before = engine.stats();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    'run: for round in 0.. {
        let variant = round % variants;
        for case in &cases[variant * pairs.len()..(variant + 1) * pairs.len()] {
            if Instant::now() >= deadline {
                break 'run;
            }
            let pair = &pairs[case.pair];
            let kernels_before = if args.trace { engine.stats().kernels_hit } else { 0 };
            let t = Instant::now();
            let out = convert(&engine, pair, &case.input);
            let ns = t.elapsed().as_nanos() as u64;
            let slot = &mut tally.pairs[case.pair];
            if let Ok(converted) = &out {
                let sort_ns = if args.trace { 0 } else { reference_sort_ns(case) };
                slot.calls.push(Call { ns, nnz: case.nnz, sort_ns });
                if args.trace {
                    let kernel = engine.stats().kernels_hit > kernels_before;
                    let replayed = replay(&engine, pair, &case.input, kernel, &mut slot.layers);
                    if !matches!(&replayed, Ok(r) if r == converted) {
                        tally.wrong += 1;
                        eprintln!("perfbench: layer replay of {} disagrees", label(pair));
                    }
                }
            }
            tally.check(pair, case, out);
        }
    }
    let after = engine.stats();
    if args.trace {
        eprint!("{}", tally.layer_table(&pairs));
    }
    eprintln!(
        "perfbench: {} pairs, {} measured conversions, {} failed, {} wrong, \
         sum of per-pair median latencies {:.3} ms",
        pairs.len(),
        tally.pairs.iter().map(|p| p.calls.len()).sum::<usize>(),
        tally.failed,
        tally.wrong,
        tally.pairs.iter().map(PairTally::median_ns).sum::<u64>() as f64 / 1e6
    );
    let metrics = if args.trace {
        tally.layer_metrics(&before, &after)
    } else {
        tally.end_to_end_metrics(median(setups))
    };
    Ok(tally.json(&metrics))
}

fn label(pair: &Pair) -> String {
    format!("{} -> {}", pair.src.name, pair.dst.name)
}

impl Tally {
    fn check(&mut self, pair: &Pair, case: &Case, out: Result<Output, EngineError>) {
        self.attempted += 1;
        match out {
            Ok(out) if cases::output_ok(&pair.dst, case, &out) => {}
            Ok(_) => {
                self.wrong += 1;
                eprintln!("perfbench: wrong output for {}", label(pair));
            }
            Err(err) => {
                self.failed += 1;
                eprintln!("perfbench: {} failed: {err}", label(pair));
            }
        }
    }

    /// `sweep_vs_sort`: converting one input of every pair, in reference
    /// sorts (sum over pairs of each pair's median conversion / sort
    /// ratio), dominated by the slow pairs. `pair_geomean_vs_sort`: the
    /// geometric mean of those per-pair ratios, where fast pairs weigh as
    /// much as slow ones.
    fn end_to_end_metrics(&self, setup_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        let ratios: Vec<f64> = self.pairs.iter().map(PairTally::median_vs_sort).collect();
        let mean_ln = ratios.iter().map(|r| r.max(1e-9).ln()).sum::<f64>() / ratios.len() as f64;
        vec![
            ("sweep_vs_sort", ratios.iter().sum(), "ratio"),
            ("pair_geomean_vs_sort", mean_ln.exp(), "ratio"),
            ("setup_s", setup_s, "s"),
        ]
    }

    /// Layer times summed over all pairs, per call or per stored entry,
    /// the share of `Engine::convert` time the layers do not account for,
    /// and the engine's own counters over the measured phase.
    fn layer_metrics(
        &self,
        before: &EngineStats,
        after: &EngineStats,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let mut l = Layers::default();
        self.pairs.iter().for_each(|p| l.add(&p.layers));
        let calls = self.pairs.iter().map(|p| p.calls.len()).sum::<usize>().max(1) as f64;
        let nnz = self.pairs.iter().map(PairTally::nnz).sum::<u64>().max(1) as f64;
        let convert_ns = self.pairs.iter().map(PairTally::convert_ns).sum::<u64>().max(1) as f64;
        let delta = |f: fn(&EngineStats) -> u64| (f(after) - f(before)) as f64;
        vec![
            ("plan_ns_per_call", l.plan as f64 / calls, "ns"),
            ("validate_ns_per_nnz", l.validate as f64 / nnz, "ns"),
            ("exec_ns_per_nnz", l.exec as f64 / nnz, "ns"),
            ("extract_ns_per_nnz", l.extract as f64 / nnz, "ns"),
            ("unattributed_share", (convert_ns - l.total() as f64) / convert_ns, "ratio"),
            ("conversions", delta(|s| s.conversions), "count"),
            ("cache_hits", delta(|s| s.cache_hits), "count"),
            ("kernels_hit", delta(|s| s.kernels_hit), "count"),
            ("interp_fallbacks", delta(|s| s.interp_fallbacks), "count"),
        ]
    }

    /// Per pair: calls, then the mean ns per stored entry end to end and in
    /// each layer.
    fn layer_table(&self, pairs: &[Pair]) -> String {
        let mut out = format!(
            "{:<20} {:>7} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
            "pair", "calls", "ns/nnz", "plan", "validate", "exec", "extract"
        );
        for (pair, t) in pairs.iter().zip(&self.pairs) {
            let per = |ns: u64| ns as f64 / t.nnz().max(1) as f64;
            out += &format!(
                "{:<20} {:>7} {:>10.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}\n",
                label(pair),
                t.calls.len(),
                per(t.convert_ns()),
                per(t.layers.plan),
                per(t.layers.validate),
                per(t.layers.exec),
                per(t.layers.extract)
            );
        }
        out
    }

    fn json(&self, metrics: &[(&str, f64, &str)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// The end-to-end call a user makes.
fn convert(engine: &Engine, pair: &Pair, input: &Input) -> Result<Output, EngineError> {
    Ok(match input {
        Input::Matrix(m) => Output::Matrix(engine.convert(&pair.src, &pair.dst, m)?),
        Input::Tensor(t) => Output::Tensor(engine.convert_tensor(&pair.src, &pair.dst, t)?),
    })
}

/// Replays one conversion layer by layer through the public entry points
/// the engine itself calls, adding each call's wall time to `layers`.
/// `kernel` says whether the engine served this conversion with a native
/// kernel (observed from its `kernels_hit` counter), so the replay takes
/// the same path.
fn replay(
    engine: &Engine,
    pair: &Pair,
    input: &Input,
    kernel: bool,
    layers: &mut Layers,
) -> Result<Output, EngineError> {
    let t = Instant::now();
    let plan = engine.plan(&pair.src, &pair.dst)?;
    layers.plan += t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    match input {
        Input::Matrix(m) => sparse_formats::validate_matrix(&plan.synth.src, m.as_ref()),
        Input::Tensor(x) => sparse_formats::validate_tensor(&plan.synth.src, x.as_ref()),
    }
    .map_err(RunError::from)?;
    layers.validate += t.elapsed().as_nanos() as u64;

    if kernel {
        let t = Instant::now();
        let out = match input {
            Input::Matrix(m) => plan.run_matrix_kernel(m.as_ref()).map(|r| r.map(Output::Matrix)),
            Input::Tensor(x) => plan.run_tensor_kernel(x.as_ref()).map(|r| r.map(Output::Tensor)),
        };
        layers.exec += t.elapsed().as_nanos() as u64;
        if let Some(Ok(out)) = out {
            return Ok(out);
        }
    }

    let t = Instant::now();
    let mut env = RtEnv::new();
    match input {
        Input::Matrix(m) => bind_matrix(&mut env, &plan.synth.src, m.as_ref())?,
        Input::Tensor(x) => bind_tensor(&mut env, &plan.synth.src, x.as_ref())?,
    }
    plan.execute_env_quiet(&mut env)?;
    layers.exec += t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let out = match input {
        Input::Matrix(m) => {
            let (nr, nc) = m.dims();
            Output::Matrix(extract_matrix(&mut env, &plan.synth.dst, nr, nc)?)
        }
        Input::Tensor(x) => Output::Tensor(extract_tensor(&mut env, &plan.synth.dst, x.dims())?),
    };
    layers.extract += t.elapsed().as_nanos() as u64;
    Ok(out)
}

/// The median of `v` (upper median for even lengths); 0 when empty.
fn median<T: Copy + Default + PartialOrd>(mut v: Vec<T>) -> T {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v.get(v.len() / 2).copied().unwrap_or_default()
}
