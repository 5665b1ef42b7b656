//! Counts what one step of the global-placement solver allocates.
//!
//! The Nesterov solver evaluates the objective hundreds of times per
//! placement, so an allocation inside a step is paid on every evaluation,
//! and one inside a kernel loop once per net or cell on top. A counting
//! global allocator runs under the real `GlobalPlacer` on `dp_small`: a
//! do-nothing [`ExtraTerm`] takes the counter at each objective evaluation
//! and zeroes it at the start of each outer iteration, so each sample is
//! everything one solver step allocated on every thread, through the
//! composed objective, the Nesterov step, the wirelength and density
//! kernels and the `Executor`.
//!
//! The counter is process-wide, so this file is a test binary of its own
//! with a single `#[test]`: a second test running beside it would count
//! into the same samples.

use sdp_dpgen::{generate, GenConfig};
use sdp_geom::Point;
use sdp_gp::{ExtraTerm, GlobalPlacer, GpConfig, WirelengthModel};
use sdp_netlist::Netlist;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations since the counter was last taken. `GlobalAlloc`'s default
/// `alloc_zeroed` and `realloc` go through `alloc`, so a zeroed block and
/// a grown `Vec` count too.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting every allocation it hands out.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, so
// each block meets `GlobalAlloc`'s contract exactly as `System`'s does; the
// only addition is a relaxed increment of a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Far below one allocation per net (`dp_small` has over a thousand), and
/// above the largest step the tree makes: the first step of each outer
/// iteration, which builds the composed objective and the solver's
/// scratch.
const MAX_ALLOCS_PER_STEP: usize = 64;

/// Room for every sample of one placement, reserved up front so that
/// recording a sample never allocates.
const SAMPLE_CAPACITY: usize = 1 << 16;

/// Samples the allocation counter once per objective evaluation.
struct Probe {
    samples: Vec<usize>,
}

impl ExtraTerm for Probe {
    fn eval(&mut self, _netlist: &Netlist, _pos: &[Point], _grad: &mut [Point]) -> f64 {
        self.samples.push(ALLOCS.swap(0, Ordering::Relaxed));
        0.0
    }

    fn begin_outer(&mut self, _outer: usize, _overflow: f64, _pos: &[Point]) {
        // What ran between two outer iterations (HPWL, the trace) is not
        // a solver step.
        ALLOCS.store(0, Ordering::Relaxed);
    }
}

#[test]
fn a_solver_step_allocates_a_bounded_amount() {
    let design = generate(&GenConfig::named("dp_small", 1).expect("dp_small is a preset"));
    let nl = &design.netlist;
    // Every third cell inflated, as the routability loop does to cells in
    // congested bins.
    let inflation: Vec<f64> = (0..nl.num_cells())
        .map(|i| if i % 3 == 0 { 1.5 } else { 1.0 })
        .collect();
    let mut over = Vec::new();
    for model in [WirelengthModel::Lse, WirelengthModel::Wa] {
        for threads in 1..=3 {
            for inflated in [None, Some(inflation.as_slice())] {
                let placer = GlobalPlacer::new(GpConfig {
                    model,
                    threads,
                    ..GpConfig::fast()
                });
                let mut placement = design.placement.clone();
                let mut probe = Probe {
                    samples: Vec::with_capacity(SAMPLE_CAPACITY),
                };
                let capacity = probe.samples.capacity();
                let stats = placer.place_inflated(
                    nl,
                    &design.design,
                    &mut placement,
                    Some(&mut probe),
                    inflated,
                    None,
                );
                let mut samples = probe.samples;
                assert_eq!(samples.capacity(), capacity, "recording a sample allocated");
                assert_eq!(samples.len(), stats.evals, "one sample per evaluation");
                samples.sort_unstable();
                let median = samples[samples.len() / 2];
                let max = samples[samples.len() - 1];
                let line = format!(
                    "{model:?}, {threads} thread(s), inflation {}: {} steps, \
                     median {median}, max {max} allocations per step",
                    if inflated.is_some() { "on" } else { "off" },
                    stats.evals
                );
                println!("{line}");
                if max > MAX_ALLOCS_PER_STEP {
                    over.push(line);
                }
            }
        }
    }
    assert!(
        over.is_empty(),
        "solver steps allocated more than {MAX_ALLOCS_PER_STEP} times:\n{}",
        over.join("\n")
    );
}
