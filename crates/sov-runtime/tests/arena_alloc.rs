//! Process-wide allocation check for [`FrameArena`]: once warm, a
//! take/recycle loop must not call the global allocator at all — not
//! merely keep the arena's own `allocations` counter flat.

use sov_runtime::arena::FrameArena;
use sov_testkit::alloc::{thread_allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One "frame" of scratch use: two element types, two buffers of one of
/// them live at once, each filled so its capacity is real.
fn frame(arena: &FrameArena) {
    let mut a: Vec<f64> = arena.take();
    let mut b: Vec<f64> = arena.take();
    let mut c: Vec<u32> = arena.take();
    a.extend((0..64).map(f64::from));
    b.extend((0..16).map(f64::from));
    c.extend(0..32);
    arena.recycle(a);
    arena.recycle(b);
    arena.recycle(c);
}

#[test]
fn counting_allocator_sees_heap_allocations() {
    // Guards the assertion below against a vacuous pass: the counter
    // must move when something really allocates.
    let before = thread_allocations();
    let v = std::hint::black_box(vec![1u8; 32]);
    assert!(thread_allocations() > before, "allocator is not counting");
    drop(v);
}

#[test]
fn warm_take_recycle_loop_allocates_nothing() {
    let arena = FrameArena::new();
    // Warm-up: buffers and free lists are created in the first frame.
    // The free list is LIFO, so the second frame hands the two f64
    // buffers back swapped and the smaller one grows once; from then on
    // both hold the larger fill.
    frame(&arena);
    frame(&arena);
    arena.reset_stats();
    let before = thread_allocations();
    for _ in 0..1000 {
        frame(&arena);
    }
    let allocs = thread_allocations() - before;
    let stats = arena.stats();
    assert_eq!(stats.takes, 3000);
    assert_eq!(stats.reuses, 3000, "every take must hit the pool");
    assert_eq!(
        allocs, 0,
        "warm take/recycle touched the heap {allocs} times"
    );
    assert_eq!(arena.pooled(), 3);
}
