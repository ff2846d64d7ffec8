//! A thread-local pool of reusable scratch buffers.
//!
//! The checker's big transient allocations — the edge builder's scatter
//! buffers ([`DepGraph`](crate::DepGraph)) and the gather pipeline's
//! counting-sort scratch ([`crate::gather`]) — are sized by history
//! length, so a cold one-shot run pays a first-touch page fault on every
//! 4 KiB of them.
//! Recycling the backing storage through this pool keeps those pages
//! faulted in across [`crate::Checker`] runs, across streaming epochs,
//! and across a benchmark bin's length sweep: after the first run at a
//! given size, rebuilds touch only warm memory.
//!
//! Buffers are plain `Vec<u32>` / `Vec<u64>`; a fresh allocation is
//! pre-faulted by writing every element (`Vec::with_capacity` +
//! `resize`, which memsets, rather than `vec![0; n]`, which gets lazily
//! mapped zero pages from the allocator). Arbitrary element types —
//! including the gather pipeline's history-borrowing occurrence types,
//! which cannot be type-erased behind a `TypeId` — recycle their raw
//! backing storage through the layout-keyed arena
//! (`take_layout` / `put_layout`), which only cares that
//! `(size_of, align_of)` match. The pool is instrumented with a peak
//! gauge (see [`take_peak_bytes`]) surfaced in `--timing` output
//! alongside the edge-buffer peak.

// The layout-keyed arena below is the crate's one unsafe island: it
// recycles raw `Vec` backing storage across element types that share a
// `(size, align)`. The invariants are spelled out at each site and the
// module's tests run under Miri and AddressSanitizer in CI.
#![allow(unsafe_code)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::ptr::NonNull;

/// How many buffers of each width the pool retains. The pipeline needs
/// at most a handful live at once (counts + cursor + scatter slots);
/// anything beyond this is released to the allocator on `put`.
const MAX_POOLED: usize = 8;

/// One retained raw allocation in a layout-keyed bucket: the pointer a
/// `Vec` handed over plus its capacity in bytes. The element type is
/// forgotten — the allocator only ever saw `(size, align)`, so any
/// later `Vec<U>` with the same layout may adopt it.
struct RawEntry {
    ptr: NonNull<u8>,
    bytes: usize,
}

#[derive(Default)]
struct Pool {
    u32s: Vec<Vec<u32>>,
    u64s: Vec<Vec<u64>>,
    /// Raw allocations keyed by element `(size_of, align_of)` — the
    /// arena for element types that borrow from the history and so
    /// cannot carry a `TypeId`. Entries hold no elements (they are
    /// cleared before stashing), only faulted-in capacity.
    raw: HashMap<(usize, usize), Vec<RawEntry>>,
    /// Bytes currently resident in the pool (sum of retained
    /// capacities).
    resident: usize,
    /// High-water mark of `resident`.
    peak: usize,
}

impl Drop for Pool {
    fn drop(&mut self) {
        for (&(_, align), bucket) in &mut self.raw {
            for entry in bucket.drain(..) {
                // SAFETY: `put_layout` stashed exactly this allocation —
                // `entry.bytes` capacity bytes at alignment `align`, as
                // produced by `Vec`'s allocator call with that layout.
                unsafe {
                    let layout = std::alloc::Layout::from_size_align(entry.bytes, align)
                        .expect("raw pool entry has a valid layout");
                    std::alloc::dealloc(entry.ptr.as_ptr(), layout);
                }
            }
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

fn prefault<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    // `resize` writes every new element, touching each page now instead
    // of on first use mid-build.
    v.clear();
    v.resize(len, T::default());
}

/// Take a zero-filled `Vec<u32>` of exactly `len` elements.
pub(crate) fn take_u32(len: usize) -> Vec<u32> {
    let mut v = take_u32_empty();
    if v.capacity() < len {
        v.reserve_exact(len - v.len());
    }
    prefault(&mut v, len);
    v
}

/// Take an empty `Vec<u32>` with whatever capacity a previous user
/// faulted in.
pub(crate) fn take_u32_empty() -> Vec<u32> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        match p.u32s.pop() {
            Some(mut v) => {
                p.resident -= v.capacity() * 4;
                v.clear();
                v
            }
            None => Vec::new(),
        }
    })
}

/// Return a `Vec<u32>` to the pool.
pub(crate) fn put_u32(v: Vec<u32>) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.u32s.len() < MAX_POOLED {
            p.resident += v.capacity() * 4;
            p.peak = p.peak.max(p.resident);
            p.u32s.push(v);
        }
    });
}

/// Take a zero-filled `Vec<u64>` of exactly `len` elements.
pub(crate) fn take_u64(len: usize) -> Vec<u64> {
    let mut v = POOL.with(|p| {
        let mut p = p.borrow_mut();
        match p.u64s.pop() {
            Some(v) => {
                p.resident -= v.capacity() * 8;
                v
            }
            None => Vec::new(),
        }
    });
    if v.capacity() < len {
        v.reserve_exact(len - v.len());
    }
    prefault(&mut v, len);
    v
}

/// Return a `Vec<u64>` to the pool.
pub(crate) fn put_u64(v: Vec<u64>) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.u64s.len() < MAX_POOLED {
            p.resident += v.capacity() * 8;
            p.peak = p.peak.max(p.resident);
            p.u64s.push(v);
        }
    });
}

/// Take an empty `Vec<T>` whose backing storage a previous user of any
/// element type with the same `(size_of, align_of)` faulted in. This is
/// the arena for history-borrowing occurrence types: the `TypeId`-keyed
/// pool cannot hold them (no `'static` bound here), but the allocator
/// only ever saw the layout, so recycling across lifetimes — and across
/// distinct types that happen to share a layout — is sound.
pub(crate) fn take_layout<T>() -> Vec<T> {
    let size = std::mem::size_of::<T>();
    let align = std::mem::align_of::<T>();
    if size == 0 {
        return Vec::new();
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        match p.raw.get_mut(&(size, align)).and_then(|b| b.pop()) {
            Some(entry) => {
                p.resident -= entry.bytes;
                let cap = entry.bytes / size;
                // SAFETY: the entry came from `put_layout` on a cleared
                // `Vec` whose element layout was exactly `(size, align)`
                // and whose capacity was `entry.bytes / size`, so
                // `Layout::array::<T>(cap)` reproduces the allocation's
                // layout bit-for-bit; length 0 means no element of the
                // old type is ever reinterpreted as `T`.
                unsafe { Vec::from_raw_parts(entry.ptr.as_ptr().cast::<T>(), 0, cap) }
            }
            None => Vec::new(),
        }
    })
}

/// Return a `Vec<T>` to the layout-keyed arena. Elements are dropped
/// here (so borrowed data is released before the storage outlives it);
/// only the raw faulted-in capacity is retained.
pub(crate) fn put_layout<T>(mut v: Vec<T>) {
    v.clear();
    let size = std::mem::size_of::<T>();
    let align = std::mem::align_of::<T>();
    if size == 0 || v.capacity() == 0 {
        return;
    }
    let bytes = v.capacity() * size;
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let p = &mut *p;
        let bucket = p.raw.entry((size, align)).or_default();
        if bucket.len() < MAX_POOLED {
            let ptr = NonNull::new(v.as_mut_ptr().cast::<u8>())
                .expect("Vec with nonzero capacity has a nonnull pointer");
            std::mem::forget(v);
            bucket.push(RawEntry { ptr, bytes });
            p.resident += bytes;
            p.peak = p.peak.max(p.resident);
        }
    });
}

/// Read and reset the peak bytes resident in this thread's pool since
/// the last call — the size of the scratch working set being recycled
/// instead of re-faulted (mirrors `DepGraph::take_edge_buf_peak`).
pub fn take_peak_bytes() -> usize {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let peak = p.peak;
        p.peak = p.resident;
        peak
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_and_gauge_tracks_peak() {
        // Drain anything earlier tests on this thread left behind.
        while !POOL.with(|p| p.borrow().u32s.is_empty()) {
            let _ = take_u32_empty();
        }
        let _ = take_peak_bytes();

        let v = take_u32(1024);
        assert_eq!(v.len(), 1024);
        assert!(v.iter().all(|&x| x == 0));
        let cap = v.capacity();
        put_u32(v);
        assert!(take_peak_bytes() >= cap * 4);

        // The recycled buffer comes back zeroed at the new length.
        let mut v = take_u32(10);
        assert_eq!(v.len(), 10);
        assert!(v.capacity() >= cap, "capacity survives recycling");
        v[3] = 7;
        put_u32(v);
        let v = take_u32(10);
        assert_eq!(v[3], 0, "take zero-fills");
        put_u32(v);
    }

    #[test]
    fn layout_buffers_recycle_across_same_layout_types() {
        // Drain anything earlier tests on this thread left behind.
        while {
            let v: Vec<(u32, u32)> = take_layout();
            v.capacity() > 0
        } {}
        let _ = take_peak_bytes();

        let mut v: Vec<(u32, u32)> = take_layout();
        v.extend((0..512u32).map(|i| (i, i)));
        let cap = v.capacity();
        put_layout(v);
        assert!(take_peak_bytes() >= cap * 8);

        // A *different* type with the same (size 8, align 4) layout
        // adopts the storage — that's the point of keying by layout,
        // not TypeId.
        let v: Vec<[u32; 2]> = take_layout();
        assert!(v.is_empty(), "take_layout hands out empty vecs");
        assert!(v.capacity() >= cap, "capacity survives across types");
        put_layout(v);

        // A layout with a different alignment gets its own bucket, even
        // at the same size: (size 8, align 1) never sees the entry above.
        let other: Vec<[u8; 8]> = take_layout();
        assert_eq!(other.capacity(), 0);
        put_layout(other);
    }

    #[test]
    fn layout_pool_drops_borrowed_elements_on_put() {
        // Borrowed (non-'static) element types are the arena's reason to
        // exist; stashing must drop the borrows, not leak them.
        let data = vec![1u32, 2, 3];
        let mut v: Vec<&u32> = take_layout();
        v.extend(data.iter());
        put_layout(v);
        drop(data); // sound only if put_layout cleared the elements

        let v: Vec<&u32> = take_layout();
        assert!(v.is_empty());
        put_layout(v);
    }

    #[test]
    fn layout_pool_is_bounded_and_ignores_zsts() {
        for _ in 0..4 * MAX_POOLED {
            put_layout::<u16>(Vec::with_capacity(16));
        }
        let held = POOL.with(|p| p.borrow().raw.get(&(2, 2)).map_or(0, |b| b.len()));
        assert!(held <= MAX_POOLED);

        put_layout::<()>(Vec::with_capacity(16));
        let v: Vec<()> = take_layout();
        assert_eq!(v.capacity(), usize::MAX, "ZST vecs never touch the pool");
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..4 * MAX_POOLED {
            put_u64(vec![0; 16]);
        }
        let held = POOL.with(|p| p.borrow().u64s.len());
        assert!(held <= MAX_POOLED);
    }
}
