//! A counting global allocator, switched on for the traced run only.
//!
//! Off, it costs one relaxed load per allocation. On, it counts every
//! allocation (and reallocation) of the whole process with its size, so
//! counts per request or per step are read from outside the program.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The benchmark's global allocator: [`System`] plus counters.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim (see the impl comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim (see the impl comment).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim (see the impl comment).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim (see the impl comment).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters: number of allocations and bytes requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocs {
    pub count: u64,
    pub bytes: u64,
}

/// Turns counting on or off for the whole process.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The counters so far.
pub fn snapshot() -> Allocs {
    Allocs {
        count: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

impl std::ops::Sub for Allocs {
    type Output = Allocs;

    fn sub(self, earlier: Allocs) -> Allocs {
        Allocs {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Allocations made by `f` (all threads), with counting switched on for
/// the call only if it was off.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let was = ENABLED.swap(true, Ordering::Relaxed);
    let before = snapshot();
    let out = f();
    let delta = snapshot() - before;
    ENABLED.store(was, Ordering::Relaxed);
    (out, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_enabled() {
        let (v, n) = counted(|| vec![0u8; 4096]);
        assert!(n.count >= 1 && n.bytes >= 4096, "{n:?}");
        drop(v);
        set_counting(false);
        let before = snapshot();
        let v = std::hint::black_box(vec![1u8; 64]);
        assert_eq!(snapshot(), before);
        drop(v);
    }
}
