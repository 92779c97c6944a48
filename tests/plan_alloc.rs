//! The label-routed path schemes plan with no heap allocation once the
//! arena is warm (DESIGN.md §16.3): every buffer `plan_into` writes comes
//! from the `PlanArena` pool or its routing scratch. A counting global
//! allocator checks it, counting only on the thread that plans, so the
//! test harness's own threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use mcast::prelude::*;
use mcast::sim::registry::schemes_for;

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees to this allocator are exactly the ones
// `System` requires; counting touches no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn label_routed_schemes_plan_without_allocating_once_warm() {
    let label_routed = [
        "dual-path",
        "multi-path",
        "fixed-path",
        "vc-multi-path",
        "circuit-dual-path",
    ];
    for topo_s in ["mesh:16x16", "cube:8", "mesh:4x4x4", "kary:4x3"] {
        let topo = TopoSpec::parse(topo_s).unwrap();
        let n = topo.num_nodes();
        for scheme in schemes_for(&topo) {
            if !label_routed.contains(&scheme.name.as_str()) {
                continue;
            }
            let router = build_router(&topo, &scheme).unwrap();
            let mut gen = MulticastGen::new(n, 0xa110c);
            let sets: Vec<MulticastSet> = (0..400)
                .map(|i| {
                    let src = gen.source();
                    gen.multicast_distinct(src, 1 + i % (n - 1))
                })
                .collect();
            let mut arena = PlanArena::new();
            let mut out = DeliveryPlan::default();
            // Warm the pools on the same messages, then count. The pool
            // hands buffers out in a different order each pass, so one
            // pass may still leave a buffer short of the longest path.
            for _ in 0..3 {
                for mc in &sets {
                    router.plan_into(mc, &mut arena, &mut out);
                }
            }
            ALLOCATIONS.store(0, Ordering::Relaxed);
            COUNTING.with(|c| c.set(true));
            for mc in &sets {
                router.plan_into(mc, &mut arena, &mut out);
            }
            COUNTING.with(|c| c.set(false));
            assert_eq!(
                ALLOCATIONS.load(Ordering::Relaxed),
                0,
                "{topo_s}/{scheme} allocated while planning"
            );
        }
    }
}
