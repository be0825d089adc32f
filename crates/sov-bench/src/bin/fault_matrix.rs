//! Fault-injection characterization: every fault kind × deployment
//! scenario, against the nominal baseline.
//!
//! For each scenario the harness first drives the nominal plan, then
//! re-drives with each [`FaultKind`] active over t = 4 s … 14 s at its
//! default intensity, and reports outcome, degraded-mode residency,
//! recovery latency, and distance retained vs nominal. The sweep is the
//! executable form of the paper's safety argument: **no single-modality
//! fault may produce a collision** — the worst allowed outcome is lost
//! availability (a slower or stopped vehicle).
//!
//! Each cell is driven twice: once serially (the committed simulated
//! row) and once through the depth-3 / 4-worker pipelined runtime, whose
//! [`DriveReport`] must stay **byte-identical** to the serial drive —
//! faults included. The piped drive's latency-ledger [`TailReport`] is
//! what fills each row's `attribution` object: the fault's end-to-end
//! tail cost split into compute, ring-queue wait, and drain/barrier
//! stall at p50/p99/p99.9/max, the same shape `BENCH_pipeline.json`
//! reports. Attribution is wall-clock telemetry and varies run to run;
//! every other field is simulated and a fixed seed reproduces it byte
//! for byte.
//!
//! `--seed N` picks the seed (default 42); `--json PATH` additionally
//! writes the matrix as JSON.

use sov_core::config::VehicleConfig;
use sov_core::health::DegradationMode;
use sov_core::sov::{DriveOutcome, DriveReport, Sov};
use sov_core::tail::TailReport;
use sov_fault::{FaultKind, FaultPlan};
use sov_math::stats::Summary;
use sov_runtime::PerfContext;
use sov_sim::time::SimTime;
use sov_world::scenario::Scenario;

const FRAMES: u64 = 300;
const FAULT_START_S: u64 = 4;
const FAULT_END_S: u64 = 14;

struct Run {
    scenario: &'static str,
    fault: String,
    report: DriveReport,
    /// Latency-ledger attribution of the piped re-drive (wall-clock).
    attribution: TailReport,
    /// Whether the piped re-drive's report matched the serial one bit
    /// for bit (the DESIGN.md §8 invariant, under this fault).
    piped_identical: bool,
}

fn drive(scenario: &Scenario, seed: u64, plan: &FaultPlan) -> DriveReport {
    let mut sov = Sov::new(VehicleConfig::perceptin_pod(), seed);
    sov.drive_with_plan(scenario, FRAMES, plan)
        .expect("FRAMES > 0")
}

/// Re-drives the cell through the pipelined runtime (depth 3, 4 workers
/// — the visual front-end on its own lane) to source the attribution
/// ledger. The simulated report must not change.
fn drive_piped(scenario: &Scenario, seed: u64, plan: &FaultPlan) -> DriveReport {
    let mut sov = Sov::new(VehicleConfig::perceptin_pod(), seed);
    sov.set_perf(PerfContext::with_pipeline_workers(3, 4));
    sov.drive_with_plan(scenario, FRAMES, plan)
        .expect("FRAMES > 0")
}

/// `[p50, p99, p99.9, max]` — the four points every attribution column
/// reports (the pipeline-matrix convention).
fn quad(s: &Summary) -> [f64; 4] {
    [s.percentile(50.0), s.p99(), s.p999(), s.max()]
}

fn quad_json(q: [f64; 4]) -> String {
    format!(
        "{{\"p50\": {:.3}, \"p99\": {:.3}, \"p999\": {:.3}, \"max\": {:.3}}}",
        q[0], q[1], q[2], q[3]
    )
}

fn attribution_json(r: &Run) -> String {
    let t = &r.attribution;
    format!(
        concat!(
            "{{\"total_ms\": {}, \"compute_ms\": {}, \"queue_ms\": {}, ",
            "\"stall_ms\": {}, \"piped_identical\": {}}}"
        ),
        quad_json(quad(&t.total_ms)),
        quad_json(quad(&t.compute_ms)),
        quad_json(quad(&t.queue_ms)),
        quad_json(quad(&t.stall_ms)),
        r.piped_identical,
    )
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Computing-latency tail columns (p50/p99/p99.9/max, ms). The deep
/// tail is where COLA locates the Level-4 safety breakers; a fault that
/// barely moves the mean can still stretch p99.9 by hundreds of ms.
fn tail(rep: &DriveReport) -> (f64, f64, f64, f64) {
    let c = &rep.computing;
    (c.median(), c.p99(), c.p999(), c.max())
}

fn run_json(r: &Run, nominal_distance: f64) -> String {
    let rep = &r.report;
    let recovery = if !rep.recovery_ms.is_empty() {
        format!("{:.3}", rep.recovery_ms.mean())
    } else {
        "null".to_string()
    };
    let (p50, p99, p999, max) = tail(rep);
    format!(
        concat!(
            "    {{\"scenario\": \"{}\", \"fault\": \"{}\", \"outcome\": \"{:?}\", ",
            "\"distance_m\": {:.3}, \"distance_vs_nominal\": {:.4}, ",
            "\"min_gap_m\": {:.3}, \"mode_ticks\": [{}, {}, {}, {}], ",
            "\"mode_transitions\": {}, \"recovery_ms_mean\": {}, ",
            "\"deadline_misses\": {}, \"can_frames_lost\": {}, ",
            "\"override_engagements\": {}, ",
            "\"computing_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}, ",
            "\"p999\": {:.3}, \"max\": {:.3}}}, ",
            "\"attribution\": {}}}"
        ),
        json_escape(r.scenario),
        json_escape(&r.fault),
        rep.outcome,
        rep.distance_m,
        rep.distance_m / nominal_distance.max(1e-9),
        if rep.min_obstacle_gap_m.is_finite() {
            rep.min_obstacle_gap_m
        } else {
            -1.0
        },
        rep.mode_ticks[0],
        rep.mode_ticks[1],
        rep.mode_ticks[2],
        rep.mode_ticks[3],
        rep.mode_transitions,
        recovery,
        rep.deadline_misses,
        rep.can_frames_lost,
        rep.override_engagements,
        p50,
        p99,
        p999,
        max,
        attribution_json(r),
    )
}

fn main() {
    sov_bench::banner(
        "Fault matrix",
        "Sensor/compute faults × scenarios, vs nominal",
    );
    let seed = sov_bench::seed_from_args();
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());

    let scenarios: Vec<(&'static str, Scenario)> = vec![
        ("fishers-indiana", Scenario::fishers_indiana(seed)),
        ("shenzhen-two-lane", Scenario::shenzhen_two_lane(seed)),
    ];
    let window = (
        SimTime::from_millis(FAULT_START_S * 1000),
        SimTime::from_millis(FAULT_END_S * 1000),
    );

    let mut runs: Vec<Run> = Vec::new();
    let mut nominal_distance: Vec<f64> = Vec::new();
    let mut safety_violations: Vec<String> = Vec::new();

    for (name, scenario) in &scenarios {
        sov_bench::section(name);
        println!(
            "{:<16} | {:>9} | {:>8} | {:>7} | {:>5} {:>5} {:>5} {:>5} | {:>9} | {:>7} {:>7} | {:>6}",
            "fault",
            "outcome",
            "dist (m)",
            "vs nom",
            "nom",
            "dloc",
            "react",
            "stop",
            "recov(ms)",
            "p99.9ms",
            "max ms",
            "misc"
        );
        println!(
            "{:-<16}-+-{:->9}-+-{:->8}-+-{:->7}-+-{:-<23}-+-{:->9}-+-{:-<15}-+-{:->6}",
            "", "", "", "", "", "", "", ""
        );
        let baseline = drive(scenario, seed, &FaultPlan::nominal());
        let base_dist = baseline.distance_m;
        nominal_distance.push(base_dist);
        let print_row = |fault: &str, rep: &DriveReport, misc: String| {
            let recovery = if !rep.recovery_ms.is_empty() {
                format!("{:.0}", rep.recovery_ms.mean())
            } else {
                "—".to_string()
            };
            let (_, _, p999, max) = tail(rep);
            println!(
                "{:<16} | {:>9} | {:>8.0} | {:>6.0}% | {:>5} {:>5} {:>5} {:>5} | {:>9} | {:>7.0} {:>7.0} | {:>6}",
                fault,
                format!("{:?}", rep.outcome),
                rep.distance_m,
                100.0 * rep.distance_m / base_dist.max(1e-9),
                rep.mode_ticks[0],
                rep.mode_ticks[1],
                rep.mode_ticks[2],
                rep.mode_ticks[3],
                recovery,
                p999,
                max,
                misc,
            );
        };
        print_row("nominal", &baseline, String::new());
        let piped = drive_piped(scenario, seed, &FaultPlan::nominal());
        runs.push(Run {
            scenario: name,
            fault: "nominal".into(),
            piped_identical: piped == baseline,
            attribution: piped.tail,
            report: baseline,
        });

        for kind in FaultKind::ALL {
            let plan = FaultPlan::new(seed).with(kind, window.0, window.1);
            let rep = drive(scenario, seed, &plan);
            let misc = match kind {
                FaultKind::CanFrameLoss => format!("{} lost", rep.can_frames_lost),
                FaultKind::StageOverrun | FaultKind::RprDelaySpike => {
                    format!("{} miss", rep.deadline_misses)
                }
                _ => String::new(),
            };
            if rep.outcome == DriveOutcome::Collision {
                safety_violations.push(format!("{kind} on {name}"));
            }
            print_row(&kind.to_string(), &rep, misc);
            let piped = drive_piped(scenario, seed, &plan);
            runs.push(Run {
                scenario: name,
                fault: kind.to_string(),
                piped_identical: piped == rep,
                attribution: piped.tail,
                report: rep,
            });
        }
    }

    // Where each fault's tail cost lives: the piped re-drive's ledger
    // split (wall-clock; the simulated rows above are the gated facts).
    sov_bench::section("tail attribution (piped d3 w4 re-drive, p99.9 ms)");
    println!(
        "{:<18} | {:<16} | {:>8} | {:>8} | {:>8} | {:>8} | {:>5}",
        "scenario", "fault", "total", "compute", "queue", "stall", "ident"
    );
    let mut piped_ok = true;
    for r in &runs {
        let t = &r.attribution;
        if !r.piped_identical {
            piped_ok = false;
        }
        println!(
            "{:<18} | {:<16} | {:>8.3} | {:>8.3} | {:>8.3} | {:>8.3} | {:>5}{}",
            r.scenario,
            r.fault,
            t.total_ms.p999(),
            t.compute_ms.p999(),
            t.queue_ms.p999(),
            t.stall_ms.p999(),
            r.piped_identical,
            if r.piped_identical {
                ""
            } else {
                "  REPORT DIVERGED FROM SERIAL"
            },
        );
    }

    // The two acceptance demonstrations of the degradation design.
    sov_bench::section("acceptance");
    let gps = runs
        .iter()
        .find(|r| r.scenario == "fishers-indiana" && r.fault == "gps-outage")
        .expect("swept above");
    let dloc = gps.report.mode_ticks[DegradationMode::DegradedLocalization as usize];
    println!(
        "gps-outage      → {} DegradedLocalization ticks, outcome {:?}: {}",
        dloc,
        gps.report.outcome,
        if dloc > 0 && gps.report.outcome != DriveOutcome::Collision {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let cam = runs
        .iter()
        .find(|r| r.scenario == "fishers-indiana" && r.fault == "camera-stall")
        .expect("swept above");
    let react = cam.report.mode_ticks[DegradationMode::ReactiveOnly as usize];
    println!(
        "camera-stall    → {} ReactiveOnly ticks, outcome {:?}: {}",
        react,
        cam.report.outcome,
        if react > 0 && cam.report.outcome != DriveOutcome::Collision {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let acceptance_ok = dloc > 0
        && react > 0
        && gps.report.outcome != DriveOutcome::Collision
        && cam.report.outcome != DriveOutcome::Collision;

    if let Some(path) = json_path {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"seed\": {seed},\n  \"frames\": {FRAMES},\n"));
        out.push_str(&format!(
            "  \"fault_window_s\": [{FAULT_START_S}, {FAULT_END_S}],\n  \"runs\": [\n"
        ));
        let rows: Vec<String> = runs
            .iter()
            .map(|r| {
                let idx = scenarios
                    .iter()
                    .position(|(n, _)| *n == r.scenario)
                    .expect("known");
                run_json(r, nominal_distance[idx])
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        std::fs::write(&path, out).expect("write JSON report");
        println!("\nwrote {path}");
    }

    if !safety_violations.is_empty() {
        println!("\nSAFETY VIOLATIONS: {}", safety_violations.join(", "));
        std::process::exit(1);
    }
    if !piped_ok {
        eprintln!("determinism violation: a piped re-drive diverged from its serial report");
        std::process::exit(1);
    }
    if !acceptance_ok {
        std::process::exit(1);
    }
    println!("\nno fault produced a collision: failures cost availability, never safety.");
}
