//! The counting global allocator of the allocation tests: it counts every
//! allocation and reallocation of the process, on any thread. A binary that
//! installs it (`mod counting;`) holds one test, so nothing else of the
//! process allocates while it counts — the test harness itself allocates
//! when a test finishes, and would add to a second test's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use bismarck_sql::SqlSession;

/// Allocations (and reallocations) made by every thread of the process.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a static atomic, so touching it
// neither allocates nor depends on the calling thread's state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` / `System.realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `sql` makes, and how many rows it returns.
pub fn allocations(session: &mut SqlSession, sql: &str) -> (usize, usize) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let result = session.execute(sql).unwrap();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, result.len())
}
