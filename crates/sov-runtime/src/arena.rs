//! Per-frame reusable buffers: the allocation half of the hot-path work.
//!
//! The LiDAR case study (Sec. VI, Fig. 4b) attributes most of the
//! perception stack's cost to memory traffic and redundant data movement;
//! a steady stream of short-lived `Vec`s is the software version of that
//! waste. A [`FrameArena`] keeps one pool of cleared-but-capacitated
//! vectors per element type: kernels [`take`](FrameArena::take) scratch
//! buffers instead of allocating and [`recycle`](FrameArena::recycle) them
//! at frame end, so after a warm-up frame the steady-state tick performs
//! zero heap allocation — process-wide, not only by the arena's own
//! counters: each element type's free list is one boxed `Vec<Vec<T>>`
//! whose capacity is kept, so a warm take/recycle pair touches the
//! global allocator not at all (`tests/arena_alloc.rs` counts every
//! allocator call to prove it).
//!
//! The arena is deliberately **not** `Sync`: each thread of control owns
//! its own. Parallel kernels use the arena only for caller-side scratch;
//! per-chunk worker state lives on the worker's stack.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Allocation statistics of a [`FrameArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Buffers handed out in total.
    pub takes: u64,
    /// Takes satisfied by a recycled buffer (no heap allocation).
    pub reuses: u64,
    /// Takes that had to allocate a fresh buffer.
    pub allocations: u64,
}

impl ArenaStats {
    /// Fraction of takes served without allocating; 1.0 when idle.
    #[must_use]
    pub fn reuse_fraction(&self) -> f64 {
        if self.takes == 0 {
            return 1.0;
        }
        self.reuses as f64 / self.takes as f64
    }
}

/// A typed pool of reusable `Vec` buffers.
///
/// ```
/// use sov_runtime::arena::FrameArena;
///
/// let arena = FrameArena::new();
/// let mut buf: Vec<f64> = arena.take();
/// buf.extend([1.0, 2.0, 3.0]);
/// arena.recycle(buf);
/// let again: Vec<f64> = arena.take(); // same capacity, no allocation
/// assert!(again.is_empty() && again.capacity() >= 3);
/// assert_eq!(arena.stats().reuses, 1);
/// ```
#[derive(Debug, Default)]
pub struct FrameArena {
    /// One free list per element type: the box under `TypeId::of::<T>()`
    /// is a `Vec<Vec<T>>` of empty buffers with their old capacity intact.
    /// The list itself is boxed once, on the type's first recycle.
    pools: RefCell<HashMap<TypeId, Box<dyn Any>>>,
    /// Buffers currently pooled, across all types.
    pooled: Cell<usize>,
    takes: Cell<u64>,
    reuses: Cell<u64>,
    allocations: Cell<u64>,
}

impl FrameArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an empty `Vec<T>`, reusing a recycled buffer when available.
    #[must_use]
    pub fn take<T: 'static>(&self) -> Vec<T> {
        self.takes.set(self.takes.get() + 1);
        let recycled = self
            .pools
            .borrow_mut()
            .get_mut(&TypeId::of::<T>())
            .and_then(|list| {
                list.downcast_mut::<Vec<Vec<T>>>()
                    .expect("free list keyed by element type")
                    .pop()
            });
        match recycled {
            Some(buffer) => {
                self.reuses.set(self.reuses.get() + 1);
                self.pooled.set(self.pooled.get() - 1);
                buffer
            }
            None => {
                self.allocations.set(self.allocations.get() + 1);
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the arena; its contents are dropped, its
    /// capacity is kept for the next [`take`](Self::take).
    pub fn recycle<T: 'static>(&self, mut buffer: Vec<T>) {
        buffer.clear();
        self.pools
            .borrow_mut()
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(Vec::<Vec<T>>::new()))
            .downcast_mut::<Vec<Vec<T>>>()
            .expect("free list keyed by element type")
            .push(buffer);
        self.pooled.set(self.pooled.get() + 1);
    }

    /// Allocation statistics since construction (or the last
    /// [`reset_stats`](Self::reset_stats)).
    #[must_use]
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            takes: self.takes.get(),
            reuses: self.reuses.get(),
            allocations: self.allocations.get(),
        }
    }

    /// Zeroes the counters (buffers stay pooled). Used by steady-state
    /// tests: warm up, reset, run a frame, assert `allocations == 0`.
    pub fn reset_stats(&self) {
        self.takes.set(0);
        self.reuses.set(0);
        self.allocations.set(0);
    }

    /// Number of buffers currently pooled (across all types).
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.pooled.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_keeps_capacity_and_counts() {
        let arena = FrameArena::new();
        let mut v: Vec<u64> = arena.take();
        v.extend(0..100);
        let cap = v.capacity();
        arena.recycle(v);
        let v2: Vec<u64> = arena.take();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        let stats = arena.stats();
        assert_eq!(stats.takes, 2);
        assert_eq!(stats.reuses, 1);
        assert_eq!(stats.allocations, 1);
        assert!((stats.reuse_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn types_pool_independently() {
        let arena = FrameArena::new();
        arena.recycle::<f32>(Vec::with_capacity(8));
        let f: Vec<f64> = arena.take();
        assert_eq!(f.capacity(), 0, "f64 pool is empty");
        let g: Vec<f32> = arena.take();
        assert_eq!(g.capacity(), 8, "f32 buffer reused");
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let arena = FrameArena::new();
        // Warm-up frame.
        let a: Vec<f64> = arena.take();
        let b: Vec<usize> = arena.take();
        arena.recycle(a);
        arena.recycle(b);
        arena.reset_stats();
        // Steady-state frames.
        for _ in 0..10 {
            let a: Vec<f64> = arena.take();
            let b: Vec<usize> = arena.take();
            arena.recycle(a);
            arena.recycle(b);
        }
        let stats = arena.stats();
        assert_eq!(stats.allocations, 0, "steady state must not allocate");
        assert_eq!(stats.takes, 20);
        assert_eq!(stats.reuses, 20);
    }

    #[test]
    fn recycled_contents_are_dropped() {
        let arena = FrameArena::new();
        let mut v: Vec<String> = arena.take();
        v.push("x".into());
        arena.recycle(v);
        let v2: Vec<String> = arena.take();
        assert!(v2.is_empty(), "recycle clears contents");
        assert_eq!(arena.pooled(), 0, "taken back out");
    }
}
