//! One seeded sampler over the whole configuration space: plan id (2- and
//! 3-layer) × system × `P ∈ 1..=8` with `r_a | P` × wire × pipeline depth ×
//! aggregation (directed inputs included) × memoization × chaos × tracing
//! × kernel width × surface (training, full-graph serving with layer 1
//! SpMM- or GEMM-first, induced serving). Every sampled point must meet
//! `common::check`'s invariant set against its own reference run; sampled
//! flag vectors must make both binaries exit 0, or 1 with an `error:` line
//! — never a panic, an abort or a hang.
//!
//! The sample is a pure function of `CHAOS_SEED` (default 0), which also
//! seeds the fault universes: a failure prints the seed, the point's index
//! and the point on one line, and `CHAOS_SEED=<seed> cargo test --test
//! config_space` reproduces it. The draw is stratified: every seed covers
//! each axis value, each system and each kind of schedule `Step`.

mod common;

use common::{chaos_base, try_check, Agg, Config, Surface, System};
use gnn_rdm::dense::{KernelMode, KernelWidth};
use std::collections::BTreeSet;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Points drawn per seed: training, full-graph serving, induced serving.
const TRAIN: usize = 40;
const SERVE: usize = 10;
const INDUCED: usize = 6;
/// Sampled flag vectors per seed, each run by both binaries.
const FLAG_VECTORS: usize = 8;

/// SplitMix64 (Steele, Lea, Flood): the whole sample from one `u64`.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A sample under construction: each axis is dealt over the points it
/// applies to.
struct Draw {
    rng: SplitMix64,
    pts: Vec<Config>,
}

impl Draw {
    /// Deal `values`, shuffled and cycled, to the points `free` selects, in
    /// shuffled order — so each value lands on a point. The sampler's
    /// stratification rests on this assertion.
    fn deal<T: Copy + std::fmt::Debug>(
        &mut self,
        free: impl Fn(&Config) -> bool,
        values: &[T],
        set: fn(&mut Config, T),
    ) {
        self.deal_to(usize::MAX, free, values, set);
    }

    /// [`Draw::deal`] to at most `limit` points.
    fn deal_to<T: Copy + std::fmt::Debug>(
        &mut self,
        limit: usize,
        free: impl Fn(&Config) -> bool,
        values: &[T],
        set: fn(&mut Config, T),
    ) {
        let mut at: Vec<usize> = (0..self.pts.len()).collect();
        at.retain(|&i| free(&self.pts[i]));
        assert!(at.len() >= values.len(), "too few points for {values:?}");
        let mut values = values.to_vec();
        self.rng.shuffle(&mut at);
        self.rng.shuffle(&mut values);
        for (k, &i) in at.iter().take(limit).enumerate() {
            set(&mut self.pts[i], values[k % values.len()]);
        }
    }
}

/// Every `(P, r_a)` with `r_a | P` and `P ≤ 8` — 20 grids.
fn grids() -> Vec<(usize, usize)> {
    let divisors = |p: usize| {
        (1..=p)
            .filter(move |r| p.is_multiple_of(*r))
            .map(move |r| (p, r))
    };
    (1..=8).flat_map(divisors).collect()
}

fn plan_of(c: &Config) -> Option<(usize, bool)> {
    match c.system {
        System::Plan { id, memoize } => Some((id, memoize)),
        _ => None,
    }
}

fn training(c: &Config) -> bool {
    c.surface == Surface::Train
}

/// RDM with a plan the sampler draws: an explicit one, or one it prices.
fn rdm(c: &Config) -> bool {
    training(c) && matches!(c.system, System::Auto | System::Plan { .. })
}

/// An explicit plan that trains.
fn trained_plan(c: &Config) -> bool {
    training(c) && plan_of(c).is_some()
}

fn deep(c: &Config) -> bool {
    trained_plan(c) && c.layers == 3
}

/// The sample of `seed`.
fn sample(seed: u64) -> Vec<Config> {
    use System::*;
    let plan = Config::plan_id(0, 2, 1);
    let mut pts = vec![Config::train(Auto, 2, 1); TRAIN];
    pts.extend([plan.on(Surface::Serve); SERVE]);
    pts.extend([plan.on(Surface::Induced); INDUCED]);
    let rng = SplitMix64(seed);
    let mut d = Draw { rng, pts };
    let systems = [Auto, Cagnet1D, Cagnet15D, Dgcl, SaintRdm, SaintDdp];
    let systems = [&systems[..], &[plan.system; 4]].concat();
    d.deal(training, &systems, |c, s| c.system = s);
    for served in [false, true] {
        let group = |c: &Config| plan_of(c).is_some() && training(c) != served;
        d.deal(group, &[2, 3], |c, l| c.layers = l);
    }
    d.deal(|c| plan_of(c).is_none(), &[2, 3], |c, l| c.layers = l);
    for c in d.pts.iter_mut().filter(|c| plan_of(c).is_some()) {
        *c = c.plan(d.rng.below(1 << (2 * c.layers)), true);
    }
    // The 3-layer ids whose executed schedule the paper's rules misprice.
    d.deal_to(4, deep, &[36, 37, 44, 45], |c, id| *c = c.plan(id, true));
    let memo = |c: &mut Config, m| *c = c.plan(plan_of(c).unwrap().0, m);
    d.deal(trained_plan, &[true, false], memo);
    d.deal(rdm, &grids(), |c, (p, r)| (c.p, c.r_a) = (p, r));
    d.deal(|c| !rdm(c), &grids(), |c, (p, r)| (c.p, c.r_a) = (p, r));
    for c in &mut d.pts {
        if training(c) && !rdm(c) && c.system != Cagnet15D {
            c.r_a = c.p;
        }
    }
    // Full-graph serving reuses batch 0's Â·H⁰ when layer 1 runs SpMM
    // first and recomputes layer 1 when it runs GEMM first: both orders,
    // each at r_a = P and at r_a < P, with and without memoization.
    let full = |c: &Config| c.surface == Surface::Serve;
    let orders = [(false, false), (false, true), (true, false), (true, true)];
    d.deal(full, &orders, |c, (gemm_first, split)| {
        let (id, bit) = (plan_of(c).unwrap().0, 1 << (c.layers - 1));
        *c = c.plan(if gemm_first { id | bit } else { id & !bit }, true);
        if !split {
            c.r_a = c.p;
        } else if c.r_a == c.p {
            c.p = c.p.max(2);
            c.r_a = if c.p % 2 == 0 { c.p / 2 } else { 1 };
        }
    });
    d.deal(full, &[true, false], memo);
    let flags: [fn(&mut Config, bool); 3] =
        [|c, x| c.sparse = x, |c, x| c.chaos = x, |c, x| c.trace = x];
    for set in flags {
        d.deal(|_| true, &[false, true], set);
    }
    let depths = [None, Some(1), Some(2), Some(3), Some(64)];
    d.deal(|_| true, &depths, |c, chunks| c.chunks = chunks);
    // Non-symmetric aggregation is RDM-only; induced minibatches are
    // GCN-normalised.
    let asym = |c: &Config| matches!(c.system, Auto | Plan { .. }) && c.surface != Surface::Induced;
    d.deal(asym, &[Agg::Gcn, Agg::Mean, Agg::Row], |c, agg| c.agg = agg);
    d.deal(|c| c.agg != Agg::Gcn, &[false, true], |c, x| c.directed = x);
    let mut kernels = vec![KernelMode::Scalar];
    kernels.extend(KernelWidth::all().map(KernelMode::Fast));
    d.deal(|_| true, &kernels, |c, k| c.kernels = k);
    // A step kind no drawn plan runs gets a 2-layer training plan redrawn.
    let mut pts = d.pts;
    for kind in step_universe() {
        if pts.iter().any(|c| c.step_kinds().contains(&kind)) {
            continue;
        }
        let shallow = |c: &&mut Config| trained_plan(c) && c.layers == 2;
        let c = pts
            .iter_mut()
            .find(shallow)
            .expect("a 2-layer training plan");
        let memoize = plan_of(c).unwrap().1;
        let id = (0..16).find(|&id| c.plan(id, memoize).step_kinds().contains(&kind));
        *c = c.plan(id.expect("a 2-layer plan runs every kind"), memoize);
    }
    pts
}

/// Every kind of step some plan's schedule holds, training or serving.
fn step_universe() -> BTreeSet<String> {
    let plans = (0..16).map(|id| (id, 2)).chain((0..64).map(|id| (id, 3)));
    let points = plans.flat_map(|(id, l)| {
        let c = Config::plan_id(id, l, 1);
        [c, c.plan(id, false)]
    });
    points.flat_map(|c| c.step_kinds()).collect()
}

/// Check every point of the sample that `on` selects; fail naming each
/// broken point by seed and index.
fn check_sample(on: impl Fn(&Config) -> bool) {
    let (seed, mut failed) = (chaos_base(), Vec::new());
    for (i, c) in sample(seed).iter().enumerate().filter(|(_, c)| on(c)) {
        if let Err(e) = try_check(c) {
            failed.push(format!("config_space seed={seed} point={i}: {c:?}: {e}"));
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

#[test]
fn sampled_training_points_meet_every_invariant() {
    check_sample(|c| c.surface == Surface::Train);
}

#[test]
fn sampled_serving_points_meet_every_invariant() {
    check_sample(|c| c.surface != Surface::Train);
}

#[test]
fn the_sample_covers_every_step_kind() {
    let drawn: BTreeSet<String> = sample(chaos_base())
        .iter()
        .flat_map(Config::step_kinds)
        .collect();
    assert_eq!(drawn, step_universe(), "seed {}", chaos_base());
}

const BINS: [&str; 2] = [
    env!("CARGO_BIN_EXE_rdm-train"),
    env!("CARGO_BIN_EXE_rdm-serve"),
];

/// Run `bin` on `args` under a time bound, and require exit 0, or exit 1
/// with an `error:` line — which it returns.
fn exits_cleanly(bin: &str, args: &str) -> Option<String> {
    let seed = chaos_base();
    let mut child = Command::new(bin);
    let child = child.args(args.split_whitespace()).stdout(Stdio::null());
    let mut child = child.stderr(Stdio::piped()).spawn().unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("config_space seed={seed} {bin} {args}: still running after 120 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut err = String::new();
    std::io::Read::read_to_string(child.stderr.as_mut().unwrap(), &mut err).unwrap();
    let line = err
        .lines()
        .find(|l| l.starts_with("error: "))
        .map(str::to_string);
    let code = status.code();
    let clean = code == Some(0) || (code == Some(1) && line.is_some());
    assert!(
        clean && !err.contains("panicked"),
        "config_space seed={seed} {bin} {args}: exit {code:?}\n{err}"
    );
    line
}

/// The edge lists flag vectors name, `@<name>.txt`.
const LISTS: [(&str, &str); 5] = [
    ("pair", "0 1\n"),
    ("triangle", "0 1\n1 2\n2 0\n"),
    ("garbled", "0\n"),
    ("huge", "0 1\n1 4294967295\n"),
    ("near", "0 1\n1 4294967294\n"),
];

/// Write [`LISTS`] under Cargo's scratch directory for `test` and return
/// the prefix `@` stands for.
fn edge_lists(test: &str) -> String {
    let prefix = format!("{}/config-space-{test}-", env!("CARGO_TARGET_TMPDIR"));
    for (name, text) in LISTS {
        std::fs::write(format!("{prefix}{name}.txt"), text).unwrap();
    }
    prefix
}

/// Inputs both binaries must reject with one identical `error:` line (CI's
/// "Rejected once, identically" step runs this list).
const REJECTED: [&str; 13] = [
    "--ranks 4 --ra 3",
    "--drop-rate 0.2",
    "--ra 0",
    "--synthetic 1x10",
    "--synthetic 3x10 --classes 4",
    "--classes 0",
    "--classes 1",
    "--classes 70",
    "--features 0",
    "--dataset reddit --scale 0",
    "--edge-list @huge.txt",
    "--edge-list @near.txt",
    "--hidden 0 --layers 2",
];

#[test]
fn shared_flags_are_rejected_once_identically() {
    let lists = edge_lists("rejected");
    for flags in REJECTED {
        let args = format!("--synthetic 64x256 {flags}").replace('@', &lists);
        let [train, serve] = BINS.map(|bin| exits_cleanly(bin, &args));
        assert!(train.is_some(), "{flags}: rdm-train accepted it");
        assert_eq!(train, serve, "{flags}: the binaries disagree");
    }
    let nan = exits_cleanly(BINS[0], "--synthetic 64x256 --lr nan");
    assert!(nan.is_some(), "--lr nan was accepted");
}

/// Flag axes: one alternative of each is drawn, `|`-separated (an empty
/// one leaves the flag out).
const SHARED: [&str; 10] = [
    "--synthetic 2x4|--synthetic 3x10|--synthetic 24x96|--edge-list @pair.txt|--edge-list @garbled.txt|--edge-list @near.txt",
    "--features 0|--features 1|--features 6",
    "--classes 1|--classes 2|--classes 3|--classes 30",
    "--hidden 0|--hidden 4",
    "--layers 1|--layers 2|--layers 3",
    "--ranks 1|--ranks 2|--ranks 3|--ranks 4",
    "|--ra 0|--ra 1|--ra 2|--ra 3",
    "|--chaos 7",
    "|--sparse",
    "|--reference-kernels|--edge-list @triangle.txt",
];
const TRAIN_FLAGS: [&str; 5] = [
    "--epochs 2",
    "--algo rdm|--algo rdm:5|--algo rdm:99|--algo rdm-dynamic:1|--algo cagnet15d:2|--algo saint-rdm",
    "--overlap 0|--overlap 1|--overlap 3",
    "--agg gcn|--agg mean|--agg row",
    "--lr 0.05|--lr nan|--lr 0",
];
const SERVE_FLAGS: [&str; 3] = [
    "--train-epochs 1 --requests 12",
    "--pipeline 0|--pipeline 1|--pipeline 3",
    "|--budget 8|--budget 48",
];

#[test]
fn sampled_flag_vectors_exit_cleanly() {
    let rng = &mut SplitMix64(chaos_base() ^ 0xF1A6);
    let lists = edge_lists("sampled");
    let mut draw = |axes: &[&str]| -> String {
        let mut pick = |axis: &&str| {
            let alts: Vec<&str> = axis.split('|').collect();
            alts[rng.below(alts.len())].to_string()
        };
        axes.iter().map(&mut pick).collect::<Vec<_>>().join(" ")
    };
    for _ in 0..FLAG_VECTORS {
        let shared = draw(&SHARED);
        for (bin, own) in BINS.iter().zip([&TRAIN_FLAGS[..], &SERVE_FLAGS]) {
            exits_cleanly(bin, &format!("{shared} {}", draw(own)).replace('@', &lists));
        }
    }
}
