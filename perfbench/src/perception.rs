//! `perception_frame`: one synthetic stereo + LiDAR frame through the
//! serial arena/SoA kernels of `sov-perception` and `sov-lidar`.
//!
//! The inputs are those of the `perf_matrix` bench bin: a 160×120
//! tracking pair, a 192×144 stereo pair and a 4 000-point cloud. A step
//! (and a unit of work) is one frame: smooth, pyramid, corners, track,
//! depth, transform, voxel, kdtree, cluster. No other workload reaches
//! the pixel or point kernels.

use crate::{alloc, mix, ms_since, Episode, Workload};
use sov_lidar::cloud::PointCloud;
use sov_lidar::kdtree::KdTree;
use sov_lidar::segmentation::{euclidean_clusters_with, SegmentationConfig};
use sov_lidar::soa::PointCloudSoA;
use sov_math::SovRng;
use sov_perception::depth::DenseStereoMatcher;
use sov_perception::features::{fast_corners_with, track_features_with};
use sov_perception::image::{convolve3x3_with, pyramid_with, GrayImage, SMOOTH_3X3};
use sov_runtime::arena::FrameArena;
use std::time::Instant;

pub const FRAME: Workload = Workload {
    name: "perception_frame",
    tail_pct: 95.0,
    episode,
};

const WARMUP_FRAMES: usize = 6;
const TIMED_FRAMES: usize = 48;
const VOXEL_SIZE_M: f64 = 0.5;
const PATCH: usize = 9;
const SEARCH_RADIUS: isize = 7;
const TRACK_POINTS: usize = 300;
const KERNELS: [&str; 9] = [
    "perception.smooth_ms",
    "perception.pyramid_ms",
    "perception.corners_ms",
    "perception.track_ms",
    "perception.depth_ms",
    "lidar.transform_ms",
    "lidar.voxel_ms",
    "lidar.kdtree_ms",
    "lidar.cluster_ms",
];

struct Inputs {
    prev: GrayImage,
    next: GrayImage,
    left: GrayImage,
    right: GrayImage,
    cloud: PointCloudSoA,
}

fn noise_image(w: usize, h: usize, rng: &mut SovRng) -> GrayImage {
    GrayImage::from_raw(
        w,
        h,
        (0..w * h).map(|_| rng.uniform(0.0, 1.0) as f32).collect(),
    )
}

fn shifted(img: &GrayImage, dx: isize, dy: isize) -> GrayImage {
    let (w, h) = (img.width(), img.height());
    let mut out = GrayImage::new(w, h);
    for y in 0..h as isize {
        for x in 0..w as isize {
            out.set(x, y, img.get(x - dx, y - dy));
        }
    }
    out
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = SovRng::seed_from_u64(seed ^ 0x5045_5246);
    let prev = noise_image(160, 120, &mut rng);
    let next = shifted(&prev, 2, 1);
    let left = noise_image(192, 144, &mut rng);
    let right = shifted(&left, 6, 0);
    let cloud = PointCloud::from_points(
        (0..4_000)
            .map(|_| {
                [
                    rng.uniform(-25.0, 25.0),
                    rng.uniform(-25.0, 25.0),
                    rng.uniform(0.0, 6.0),
                ]
            })
            .collect(),
    );
    Inputs {
        prev,
        next,
        left,
        right,
        cloud: PointCloudSoA::from_cloud(&cloud),
    }
}

/// What one frame produced, beyond its digest.
#[derive(Default)]
struct FrameOut {
    digest: u64,
    kernel_ms: [f64; 9],
    tracked: usize,
    attempted: usize,
    disparity_valid: usize,
    disparity_px: usize,
    voxels: usize,
    clusters: usize,
}

struct Frame<'a> {
    inputs: &'a Inputs,
    arena: &'a FrameArena,
    matcher: &'a DenseStereoMatcher,
    seg: &'a SegmentationConfig,
}

impl Frame<'_> {
    /// Runs one frame; `lap` stamps kernel boundaries when tracing.
    fn run(&self, traced: bool) -> FrameOut {
        let (w, arena) = (self.inputs, Some(self.arena));
        let mut out = FrameOut::default();
        let mut t = Instant::now();
        let mut lap = |k: usize| {
            if traced {
                let now = Instant::now();
                out.kernel_ms[k] = (now - t).as_secs_f64() * 1e3;
                t = now;
            }
        };
        let smooth = convolve3x3_with(&w.prev, &SMOOTH_3X3, None, arena);
        lap(0);
        let pyr = pyramid_with(&smooth, 3, None, arena);
        lap(1);
        let corners = fast_corners_with(&smooth, 0.05, None, arena);
        lap(2);
        let points: Vec<(usize, usize)> = corners
            .iter()
            .take(TRACK_POINTS)
            .map(|c| (c.x, c.y))
            .collect();
        let tracked =
            track_features_with(&w.prev, &w.next, &points, PATCH, SEARCH_RADIUS, 0.5, None);
        lap(3);
        let disparity = self
            .matcher
            .compute_with(&w.left, &w.right, None, arena)
            .into_raw();
        lap(4);
        let moved = w.cloud.transformed_with(0.31, 1.5, -2.0, None);
        lap(5);
        let down = w.cloud.voxel_downsampled_with(VOXEL_SIZE_M, None);
        lap(6);
        let tree = KdTree::build_with(&down, None);
        lap(7);
        let clusters = euclidean_clusters_with(&down, &tree, self.seg, None);
        lap(8);

        // Digest and ratios outside the kernel spans.
        let f32s = |h: u64, v: &[f32]| v.iter().fold(h, |h, x| mix(h, u64::from(x.to_bits())));
        let point =
            |h: u64, p: [f64; 3]| mix(mix(mix(h, p[0].to_bits()), p[1].to_bits()), p[2].to_bits());
        let mut h = f32s(0, smooth.data());
        for level in &pyr {
            h = f32s(h, level.data());
        }
        for c in &corners {
            h = mix(
                mix(mix(h, c.x as u64), c.y as u64),
                u64::from(c.score.to_bits()),
            );
        }
        for t in &tracked {
            h = match t {
                Some((x, y)) => mix(mix(h, *x as u64 + 1), *y as u64 + 1),
                None => mix(h, 0),
            };
        }
        h = f32s(h, &disparity);
        h = (0..moved.len()).fold(h, |h, i| point(h, moved.get(i)));
        h = down.points().iter().fold(h, |h, &p| point(h, p));
        h = mix(h, tree.len() as u64);
        for cl in &clusters {
            h = cl
                .iter()
                .fold(mix(h, cl.len() as u64), |h, &i| mix(h, i as u64));
        }
        out.digest = h;
        out.tracked = tracked.iter().filter(|t| t.is_some()).count();
        out.attempted = tracked.len();
        out.disparity_valid = disparity.iter().filter(|d| !d.is_nan()).count();
        out.disparity_px = disparity.len();
        out.voxels = down.len();
        out.clusters = clusters.len();

        self.arena.recycle(disparity);
        self.arena.recycle(smooth.into_raw());
        for level in pyr {
            self.arena.recycle(level.into_raw());
        }
        out
    }
}

fn episode(seed: u64, traced: bool) -> Episode {
    let mut ep = Episode::default();
    let baseline = alloc::start_peak();
    let t_setup = Instant::now();
    let inputs = inputs(seed);
    let arena = FrameArena::default();
    let frame = Frame {
        inputs: &inputs,
        arena: &arena,
        matcher: &DenseStereoMatcher::default(),
        seg: &SegmentationConfig {
            cluster_tolerance_m: 0.9,
            min_cluster_size: 3,
            ..SegmentationConfig::default()
        },
    };
    for _ in 0..WARMUP_FRAMES {
        frame.run(false);
    }
    ep.setup_s = t_setup.elapsed().as_secs_f64();

    arena.reset_stats();
    let mut step_ms = Vec::with_capacity(TIMED_FRAMES);
    let mut outs = Vec::with_capacity(TIMED_FRAMES);
    let mut kernel_ms = [0.0f64; 9];
    let allocs0 = alloc::Snapshot::now();
    for _ in 0..TIMED_FRAMES {
        let t = Instant::now();
        let out = frame.run(traced);
        step_ms.push(ms_since(t));
        for (acc, k) in kernel_ms.iter_mut().zip(out.kernel_ms) {
            *acc += k;
        }
        outs.push(out);
    }
    (ep.allocs, ep.alloc_bytes) = allocs0.since();
    ep.peak_bytes = alloc::peak_above(baseline);

    ep.work = TIMED_FRAMES as f64;
    ep.step_digests = outs.iter().map(|o| o.digest).collect();
    let last = outs.last().expect("at least one timed frame");
    ep.exact = vec![
        ("process.allocs".into(), ep.allocs as f64),
        ("process.peak_bytes".into(), ep.peak_bytes as f64),
        ("lidar.voxels".into(), last.voxels as f64),
        ("lidar.clusters".into(), last.clusters as f64),
    ];
    if traced {
        let frames = TIMED_FRAMES as f64;
        for (name, total) in KERNELS.iter().zip(kernel_ms) {
            ep.layers.push(((*name).into(), total / frames));
        }
        ep.layers.push((
            "perception.track_ratio".into(),
            last.tracked as f64 / last.attempted as f64,
        ));
        ep.layers.push((
            "perception.disparity_density".into(),
            last.disparity_valid as f64 / last.disparity_px as f64,
        ));
        ep.layers.push(("lidar.voxels".into(), last.voxels as f64));
        ep.layers
            .push(("lidar.clusters".into(), last.clusters as f64));
        ep.layers.push((
            "runtime.arena_reuse_fraction".into(),
            arena.stats().reuse_fraction(),
        ));
        ep.children_ms = kernel_ms.iter().sum();
    }
    ep.step_ms = step_ms;
    ep
}
