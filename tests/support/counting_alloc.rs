//! A global allocator that counts allocations, for test binaries that pin
//! how often a code path allocates. A binary includes this file as a
//! module and installs the allocator with its own
//! `#[global_allocator] static ALLOC: CountingAllocator = CountingAllocator;`.
//! Each such binary holds a single test, so no concurrent test can
//! allocate while a measurement runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation path; frees are not counted (a steady state
/// is allowed to drop nothing, and counting both would hide an
/// alloc/free churn pair).
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Allocations made through [`CountingAllocator`] since the process
/// started.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}
