//! Fig. 5 / Sec. IV — the software pipeline's task-level parallelism,
//! demonstrated on real threads.
//!
//! "Sensing, perception, and planning are serialized; they are all on the
//! critical path of the end-to-end latency. We pipeline the three modules
//! to improve the throughput, which is dictated by the slowest stage."
//!
//! The stages run on [`FramePipeline`] over a three-lane pool: depth 1 is
//! the serialized baseline, deeper rings overlap successive frames. Exits
//! non-zero if any depth > 1 run fell back to the serial schedule — a
//! deterministic check that holds on any core count.

use sov_runtime::pipeline::{FrameControl, FramePipeline, PipelineRun, StageCtx};
use sov_runtime::pool::WorkerPool;
use std::thread::sleep;
use std::time::Duration;

const FRAMES: u64 = 60;

/// Runs `FRAMES` frames through sleeping 8 / 8 / 1 ms stages — scaled-down
/// stage times preserving the paper's proportions (sensing ≈ perception ≫
/// planning).
fn run(pool: &WorkerPool, depth: usize) -> PipelineRun {
    FramePipeline::new(depth).run(
        Some(pool),
        FRAMES,
        |k, _: StageCtx<'_, u64>| {
            sleep(Duration::from_millis(8));
            k
        },
        |_, s, _: StageCtx<'_, u64>| {
            sleep(Duration::from_millis(8));
            *s
        },
        |_, p, _: Option<&u64>| {
            sleep(Duration::from_millis(1));
            *p
        },
        |_, _| FrameControl::Continue,
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn main() {
    sov_bench::banner(
        "Fig. 5 / Sec. IV",
        "Task-level parallelism in the software pipeline",
    );
    println!(
        "running {FRAMES} frames through sensing(8 ms) → perception(8 ms) → planning(1 ms)\n\
         on a 3-lane pool; depth 1 is the serialized schedule, deeper rings\n\
         decouple stage jitter but let frames queue"
    );
    let pool = WorkerPool::new(3);

    sov_bench::section("depth sweep (FramePipeline ring capacity)");
    println!(
        "  depth  throughput  ×depth1  p50 lat  p99 lat  occupancy sense/perceive/plan  pipelined"
    );
    let runs: Vec<(usize, PipelineRun)> = [1, 2, 3, 4, 8, 16]
        .into_iter()
        .map(|depth| (depth, run(&pool, depth)))
        .collect();
    let serial_fps = runs[0].1.throughput_fps();
    let mut speedups = Vec::new();
    let mut fallbacks = Vec::new();
    for (depth, r) in &runs {
        let speedup = r.throughput_fps() / serial_fps;
        println!(
            "  {depth:>5}  {:>7.0} Hz  {:>7}  {:>5.1} ms  {:>5.1} ms  {:>9.2} / {:.2} / {:.2}       {:>3}/{}",
            r.throughput_fps(),
            sov_bench::times(speedup),
            ms(r.latency_percentile(0.50)),
            ms(r.latency_percentile(0.99)),
            r.occupancy(0),
            r.occupancy(1),
            r.occupancy(2),
            r.pipelined_frames,
            r.frames,
        );
        if *depth > 1 {
            speedups.push(speedup);
            if r.serial_fallback || r.pipelined_frames < r.frames {
                fallbacks.push(*depth);
            }
        }
    }

    let lo = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "\npipelining improves throughput ≥ {lo:.1}× at every depth > 1 (bounded by\n\
         the slowest 8 ms stage → ≤125 Hz) without reducing the 17 ms per-frame\n\
         latency — which is why the 10 Hz throughput requirement is 'relatively\n\
         easier to meet than latency' (Sec. III-A)."
    );
    println!(
        "\nintra-perception parallelism (Fig. 5): localization ∥ scene\n\
         understanding; the only serialized pair is detection → tracking."
    );

    if !fallbacks.is_empty() {
        eprintln!("pipelining gate: depth(s) {fallbacks:?} fell back to the serial schedule");
        std::process::exit(1);
    }
}
