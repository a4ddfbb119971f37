//! The text loaders' memory shape, measured by a counting global
//! allocator: `read_text` frees its edge list once `A` is built, before
//! `Aᵀ` is allocated. The list grows by `Vec`'s doubling, so it holds
//! 8·E bytes rounded up to 8·E.next_power_of_two(); the loader's peak
//! stays below that plus bytes(A) + bytes(Aᵀ), which a loader that keeps
//! the list beside `Aᵀ` and the transpose's fill cursors exceeds. The
//! rank-ordered loader may add one `u32` per vertex for its id maps, and
//! nothing for a second labelling.
//!
//! The allocator counts the whole process, so the tests take one lock.

use bfly_graph::io::{read_konect, read_text_rank_ordered, TextFormat};
use bfly_graph::BipartiteGraph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Forwards to the system allocator, tracking live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes of one CSR half: `usize` row pointers and `u32` column ids.
fn csr_bytes(rows: usize, nnz: usize) -> usize {
    8 * (rows + 1) + 4 * nnz
}

/// 3,000 × 5,000 vertices with `per_row` distinct edges per V1 vertex,
/// listed in a scrambled order as KONECT text with its size header; the
/// last `dup_rows` V1 vertices list every edge a second time.
fn scrambled_konect(per_row: u64, dup_rows: u64) -> String {
    let (m, n) = (3_000u64, 5_000u64);
    let lines = m * per_row + dup_rows * per_row;
    let mut text = format!("% bip unweighted\n% {lines} {m} {n}\n");
    for i in 0..m * per_row {
        let k = (i * 7_919) % (m * per_row);
        let (u, j) = (k / per_row, k % per_row);
        let v = (u * 7 + j * 13) % n;
        for _ in 0..1 + u64::from(u >= m - dup_rows) {
            text.push_str(&format!("{} {}\n", u + 1, v + 1));
        }
    }
    text
}

#[test]
fn read_text_frees_the_edge_list_before_the_transpose() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // E = 60,000 sits just below the list's 65,536-edge doubling step and
    // E = 33,000 just above the 32,768-edge one, where its spare capacity
    // is largest.
    for per_row in [20u64, 11] {
        let e = (3_000 * per_row) as usize;
        let text = scrambled_konect(per_row, 0);

        let before = LIVE.load(Relaxed);
        PEAK.store(before, Relaxed);
        let g: BipartiteGraph = read_konect(text.as_bytes()).unwrap();
        let peak = PEAK.load(Relaxed) - before;

        assert_eq!(g.nedges(), e);
        let list = 8 * e.next_power_of_two();
        let bound = list + csr_bytes(g.nv1(), g.nedges()) + csr_bytes(g.nv2(), g.nedges());
        assert!(
            peak < bound,
            "E = {e}: read_text peaked at {peak} B, bound \
             8·E.next_power_of_two() + bytes(A) + bytes(Aᵀ) = {bound} B"
        );
    }
}

#[test]
fn rank_ordered_loader_holds_one_labelling() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Without and with duplicate lines (the last 600 V1 vertices listed
    // twice, so the line-counted degrees rank them first and the loader
    // ranks and builds a second time). A loader that built the input
    // graph and then relabelled it would hold two graphs, past the bound.
    for (per_row, dup_rows) in [(11u64, 0u64), (11, 600)] {
        let text = scrambled_konect(per_row, dup_rows);
        let lines = (3_000 * per_row + dup_rows * per_row) as usize;

        let before = LIVE.load(Relaxed);
        PEAK.store(before, Relaxed);
        let g = read_text_rank_ordered(text.as_bytes(), TextFormat::Konect).unwrap();
        let peak = PEAK.load(Relaxed) - before;

        assert_eq!(g.nedges(), (3_000 * per_row) as usize);
        let list = 8 * lines.next_power_of_two();
        let ids = 4 * (g.nv1() + g.nv2());
        let bound = list + ids + csr_bytes(g.nv1(), g.nedges()) + csr_bytes(g.nv2(), g.nedges());
        assert!(
            peak < bound,
            "{lines} lines: read_text_rank_ordered peaked at {peak} B, bound \
             8·lines.next_power_of_two() + 4·V + bytes(A) + bytes(Aᵀ) = {bound} B"
        );
    }
}
