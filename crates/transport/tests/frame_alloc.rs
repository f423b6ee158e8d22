//! `read_frame` reserves no more than a peer has sent: a header that claims
//! a 1 GiB payload and then closes costs a bounded allocation. The counting
//! allocator sees every allocation in this binary, so this file holds one
//! test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use xfd_transport::frame::read_frame;

struct CountingAlloc;

static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller, which
        // upholds GlobalAlloc's contract (non-zero size, valid alignment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`,
        // since every allocation above forwards to it.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: our caller upholds GlobalAlloc's realloc contract for a
        // block that `System` allocated.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn a_claimed_payload_is_not_reserved_before_it_arrives() {
    let mut header = (1u32 << 30).to_le_bytes().to_vec();
    header.push(9); // `Pass`, then EOF.
    let before = BYTES.load(Ordering::Relaxed);
    let result = read_frame(&mut header.as_slice());
    let allocated = BYTES.load(Ordering::Relaxed) - before;
    assert!(result.is_err(), "{result:?}");
    assert!(
        allocated < 1 << 20,
        "a 5-byte header made read_frame allocate {allocated} bytes"
    );
}
