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
//! mapped zero pages from the allocator). Only these two widths are
//! pooled: the gather's occurrence buffers are ordinary allocations
//! ([`crate::gather`]). The pool is instrumented with a peak gauge (see
//! [`take_peak_bytes`]) surfaced in `--timing` output alongside the
//! edge-buffer peak.

use std::cell::RefCell;

/// How many buffers of each width the pool retains. The pipeline needs
/// at most a handful live at once (counts + cursor + scatter slots);
/// anything beyond this is released to the allocator on `put`.
const MAX_POOLED: usize = 8;

#[derive(Default)]
struct Pool {
    u32s: Vec<Vec<u32>>,
    u64s: Vec<Vec<u64>>,
    /// Bytes currently resident in the pool (sum of retained
    /// capacities).
    resident: usize,
    /// High-water mark of `resident`.
    peak: usize,
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
    fn pool_is_bounded() {
        for _ in 0..4 * MAX_POOLED {
            put_u64(vec![0; 16]);
        }
        let held = POOL.with(|p| p.borrow().u64s.len());
        assert!(held <= MAX_POOLED);
    }
}
