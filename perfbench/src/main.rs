//! The repository benchmark binary. `perfbench/run.py` builds and drives
//! it; it can also be run directly:
//!
//! ```text
//! sov-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--expect <hex digest>] [--verify]
//! ```
//!
//! A run repeats *episodes* until the next one would overrun `--seconds`.
//! An episode is a fresh set-up (timed as `setup_s`) followed by a fixed
//! batch of timed steps, so every episode of one seed does identical work
//! and must produce identical step digests and exact counters. Spans live
//! only in this binary: they wrap the calls into each layer's public
//! functions, and nothing inside the program is instrumented. Every time
//! is scaled to a reference host speed by the calibration loop of
//! [`host`], run between episodes.
//!
//! With `--trace 1`, episodes alternate untraced and traced; per-layer
//! numbers come from the traced ones, and the untraced ones give the
//! tracing overhead. `--verify` runs one untraced episode, prints its
//! digest and fails if it differs from `--expect`.
//!
//! The last stdout line is one JSON object: the metrics, the digest,
//! `attempted`/`failed` step counts and whether the run was consistent.

mod alloc;
mod drive;
mod fleet;
mod host;
mod perception;

use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// What one episode measured.
#[derive(Default)]
pub struct Episode {
    /// Set-up time: from the start of the episode to its first timed step.
    pub setup_s: f64,
    /// Wall time of each timed step (ms).
    pub step_ms: Vec<f64>,
    /// Work units done by the timed steps.
    pub work: f64,
    /// Output digest of each timed step.
    pub step_digests: Vec<u64>,
    /// Counters that must repeat exactly in every episode of one seed.
    pub exact: Vec<(String, f64)>,
    /// Per-layer values (traced episodes only).
    pub layers: Vec<(String, f64)>,
    /// Traced: the part of the step spans their child spans cover (ms).
    pub children_ms: f64,
    /// Allocations and bytes allocated by the timed steps.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Peak live heap above the episode's starting live size (bytes).
    pub peak_bytes: u64,
}

impl Episode {
    /// Work units per second of step time.
    fn rate(&self) -> f64 {
        self.work / (self.step_ms.iter().sum::<f64>() / 1e3)
    }

    /// Multiplies every time by `f` (the host-speed correction).
    fn scale(&mut self, f: f64) {
        self.setup_s *= f;
        self.children_ms *= f;
        for ms in &mut self.step_ms {
            *ms *= f;
        }
        for (name, v) in &mut self.layers {
            if matches!(layer_unit(name), "ms" | "us" | "ns") {
                *v *= f;
            }
        }
    }
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Step-time percentile reported as `step_tail_ms`: the highest one
    /// that keeps at least ten samples beyond it at this workload's step
    /// count.
    pub tail_pct: f64,
    pub episode: fn(seed: u64, traced: bool) -> Episode,
}

/// Fewest episodes a run makes, whatever `--seconds` says: a traced run
/// needs one untraced and one traced episode.
const MIN_EPISODES: usize = 2;

const WORKLOADS: [Workload; 4] = [fleet::CITY, fleet::SPRAWL, drive::FUZZ, perception::FRAME];

/// FNV-style fold used by every digest.
pub fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0100_0000_01b3)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile `p ∈ (0, 100]` of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64 - 1e-9).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    expect: Option<u64>,
    verify: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        expect: None,
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--verify" {
            args.verify = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--expect" => args.expect = Some(u64::from_str_radix(&value, 16).map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Fold of an episode's step digests: the workload's output digest.
fn episode_digest(ep: &Episode) -> u64 {
    ep.step_digests
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &d| mix(h, d))
}

fn json_metrics(out: &mut String, metrics: &[(String, f64, &str)]) {
    out.push('{');
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite");
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sov-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("sov-perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };

    if args.verify {
        let digest = episode_digest(&(w.episode)(args.seed, false));
        println!("{{\"digest\": \"{digest:016x}\"}}");
        std::process::exit(i32::from(args.expect.is_some_and(|d| d != digest)));
    }

    // Episodes until the next one would overrun `--seconds`, each scaled
    // to the reference host speed by the calibrations around it.
    let start = Instant::now();
    let mut eps: Vec<Episode> = Vec::new();
    let mut calibration = host::Calibration::new();
    let mut before = calibration.run();
    let mut calibrations = vec![before];
    let mut last_s = 0.0;
    while eps.len() < MIN_EPISODES || start.elapsed().as_secs_f64() + last_s < args.seconds {
        let t = Instant::now();
        let traced = args.trace && eps.len() % 2 == 1;
        let mut ep = (w.episode)(args.seed, traced);
        let after = calibration.run();
        ep.scale(host::REFERENCE_S / ((before + after) / 2.0));
        eps.push(ep);
        calibrations.push(after);
        before = after;
        last_s = t.elapsed().as_secs_f64();
    }
    let pick = |want_traced: bool| -> Vec<&Episode> {
        eps.iter()
            .enumerate()
            .filter(|(i, _)| (args.trace && i % 2 == 1) == want_traced)
            .map(|(_, e)| e)
            .collect()
    };
    let (traced, plain) = (pick(true), pick(false));

    // Correctness: every step's digest must equal the expected one — the
    // first episode's step by step, and the recorded reference for the
    // episode as a whole when one is given.
    let expected_steps = &eps[0].step_digests;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for ep in &eps {
        let whole_ok = args.expect.is_none_or(|d| d == episode_digest(ep));
        for (i, d) in ep.step_digests.iter().enumerate() {
            attempted += 1;
            if !whole_ok || expected_steps.get(i) != Some(d) {
                failed += 1;
            }
        }
    }
    let exact_repeats = eps.iter().all(|e| e.exact == eps[0].exact);
    let digest = episode_digest(&eps[0]);

    let plain_rates: Vec<f64> = plain.iter().map(|e| e.rate()).collect();
    let steps: Vec<f64> = plain
        .iter()
        .flat_map(|e| e.step_ms.iter().copied())
        .collect();
    let beyond = steps.len() as f64 * (1.0 - w.tail_pct / 100.0);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut notes = String::new();
    if args.trace {
        let traced_rates: Vec<f64> = traced.iter().map(|e| e.rate()).collect();
        // Every traced episode reports the same layers in the same order.
        for (k, (name, _)) in traced[0].layers.iter().enumerate() {
            let vals: Vec<f64> = traced.iter().map(|e| e.layers[k].1).collect();
            metrics.push((name.clone(), median(&vals), layer_unit(name)));
        }
        let (allocs, bytes, n): (u64, u64, usize) = plain.iter().fold((0, 0, 0), |a, e| {
            (a.0 + e.allocs, a.1 + e.alloc_bytes, a.2 + e.step_ms.len())
        });
        metrics.push((
            "process.allocs_per_step".into(),
            allocs as f64 / n as f64,
            "count",
        ));
        metrics.push((
            "process.alloc_mb_per_step".into(),
            bytes as f64 / 1e6 / n as f64,
            "MB",
        ));
        metrics.push((
            "host.calibration_ms".into(),
            median(&calibrations) * 1e3,
            "ms",
        ));
        metrics.push((
            "trace.overhead_frac".into(),
            1.0 - median(&traced_rates) / median(&plain_rates),
            "fraction",
        ));
        let parent: f64 = traced.iter().flat_map(|e| &e.step_ms).sum();
        let children: f64 = traced.iter().map(|e| e.children_ms).sum();
        metrics.push((
            "trace.residual_frac".into(),
            (parent - children) / parent,
            "fraction",
        ));
    } else {
        let peak = plain.iter().map(|e| e.peak_bytes).max().unwrap_or(0);
        let setups: Vec<f64> = plain.iter().map(|e| e.setup_s).collect();
        metrics.push(("setup_s".into(), median(&setups), "s"));
        metrics.push(("work_per_s".into(), median(&plain_rates), "1/s"));
        let p50s: Vec<f64> = plain.iter().map(|e| median(&e.step_ms)).collect();
        metrics.push(("step_p50_ms".into(), median(&p50s), "ms"));
        metrics.push(("step_tail_ms".into(), percentile(&steps, w.tail_pct), "ms"));
        metrics.push(("peak_heap_mb".into(), peak as f64 / 1e6, "MB"));
    }
    let _ = write!(
        notes,
        "\"episodes\": {}, \"steps\": {}, \"tail_pct\": {}, \"tail_beyond\": {}, \
         \"exact_repeats\": {exact_repeats}",
        eps.len(),
        steps.len(),
        w.tail_pct,
        beyond.floor(),
    );
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {}, \"digest\": \"{digest:016x}\", \
         \"attempted\": {attempted}, \"failed\": {failed}, {notes}, \"metrics\": ",
        w.name, args.seed
    );
    json_metrics(&mut out, &metrics);
    out.push('}');
    println!("{out}");
}

/// Unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") || name.contains("_ms.") {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ns_per_vehicle") {
        "ns"
    } else if name.ends_with("_ratio") || name.ends_with("_fraction") || name.ends_with("density") {
        "fraction"
    } else {
        "count"
    }
}
