//! A counting global allocator: the proof side of the zero-allocation
//! datapath work.
//!
//! Every binary, bench and test that links `csar-bench` routes its heap
//! traffic through [`CountingAlloc`], which forwards to the system
//! allocator and bumps relaxed atomic counters plus a per-thread one.
//! [`count`] brackets a closure with snapshots of the calling thread's
//! counter, so the datapath audit can assert "this whole-group parity
//! computation performed N heap allocations" as a hard, hermetic fact
//! rather than a profiler estimate — and other threads of the process
//! (a parallel test harness, say) cannot leak into the number.
//!
//! Audited regions are single-threaded by contract: work a closure
//! hands to another thread is not counted. Keep them free of incidental
//! work (no printing, no collection growth) or the numbers will include
//! it — that strictness is the point.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwarding allocator that counts calls and requested bytes.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and `Drop`-free, so touching it from inside the
    // allocator never allocates and never registers a destructor.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // `try_with` only fails while the thread is being torn down; such
    // allocations still reach the process-wide totals above.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: a pure pass-through to `System` — every method forwards its
// arguments unchanged, so the `GlobalAlloc` contract (layout validity,
// pointer provenance) holds exactly when the caller's does.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `alloc`'s contract; forwarded as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: see above.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `alloc_zeroed`'s contract; forwarded as-is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: see above.
        unsafe { System.alloc_zeroed(layout) }
    }

    // A realloc is a fresh allocation for counting purposes: the
    // zero-allocation claim is about steady-state buffer reuse, and a
    // growing Vec defeats that exactly like a new Vec would.
    // SAFETY: caller upholds `realloc`'s contract; forwarded as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: see above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds `dealloc`'s contract; forwarded as-is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by this process so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested from the allocator so far.
pub fn allocated_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// Heap allocations made by the calling thread so far.
fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Run `f`, returning its result and the number of heap allocations the
/// calling thread performed while it ran.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = thread_allocations();
    let r = f();
    (r, thread_allocations() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_vec_allocation() {
        let (_v, n) = count(|| vec![0u8; 4096]);
        assert!(n >= 1, "allocating a Vec must be counted");
    }

    #[test]
    fn pure_arithmetic_allocates_nothing() {
        let (x, n) = count(|| (0u64..1000).fold(0u64, |a, b| a.wrapping_add(b)));
        assert_eq!(x, 499_500);
        assert_eq!(n, 0, "a pure loop must not touch the heap");
    }

    #[test]
    fn count_sees_only_the_calling_thread() {
        use std::sync::Barrier;
        let (start, done) = (Barrier::new(2), Barrier::new(2));
        let before = allocations();
        let ((), n) = std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                let held: Vec<Vec<u8>> = (0..100).map(|i| vec![i as u8; 64]).collect();
                std::hint::black_box(held);
                done.wait();
            });
            count(|| {
                start.wait();
                done.wait();
            })
        });
        assert!(allocations() - before >= 100, "the other thread's allocations happened");
        assert_eq!(n, 0, "another thread's allocations must not be counted");
        let (_v, n) = count(|| vec![0u8; 64]);
        assert_eq!(n, 1, "the calling thread's allocation must be counted");
    }
}
