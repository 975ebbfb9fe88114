//! Allocation gate for the direct wire codec: decoding a 128×17 request
//! body and encoding its reply each take at most two heap allocations.
//!
//! Allocation counts carry no timing noise, so unlike a wall-clock bound
//! this gate is exact. The counting allocator counts per thread, so tests
//! running in parallel do not see each other's allocations.

use ifair::core::{CertMethod, Certificate};
use ifair::linalg::Matrix;
use ifair_serve::codec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const ROWS: usize = 128;
const WIDTH: usize = 17;
const MAX_ALLOCS: usize = 2;

/// Seeded feature-like values: integral counts, shortest-form fractions
/// and full-precision floats, as request bodies carry them.
fn values(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            match i % 3 {
                0 => (unit * 90.0).floor(),
                1 => (unit * 1000.0).round() / 1000.0,
                _ => unit * 50_000.0,
            }
        })
        .collect()
}

fn rows_body(data: &[f64]) -> String {
    let rows: Vec<Vec<f64>> = data.chunks(WIDTH).map(<[f64]>::to_vec).collect();
    format!("{{\"rows\":{}}}", serde_json::to_string(&rows).unwrap())
}

#[test]
fn decoding_a_128_by_17_body_allocates_at_most_twice() {
    for seed in [1, 2, 3] {
        let data = values(seed, ROWS * WIDTH);
        let body = rows_body(&data);
        let (decoded, n) = allocations(|| codec::decode_rows_request(&body).unwrap());
        assert_eq!(decoded.rows.data, data);
        assert!(n <= MAX_ALLOCS, "rows body: {n} allocations");

        let body = format!("{},\"eps\":0.05,\"delta\":0.5}}", &body[..body.len() - 1]);
        let (decoded, n) = allocations(|| codec::decode_certify_request(&body).unwrap());
        assert_eq!(decoded.rows.data, data);
        assert!(n <= MAX_ALLOCS, "certify body: {n} allocations");
    }
}

#[test]
fn encoding_a_128_row_reply_allocates_at_most_twice() {
    for seed in [1, 2, 3] {
        let unit: Vec<f64> = values(seed, ROWS * WIDTH)
            .iter()
            .map(|v| v.fract())
            .collect();
        let rows = Matrix::from_vec(ROWS, WIDTH, unit.clone()).unwrap();
        let (_, n) = allocations(|| codec::encode_transform("bench", &rows).unwrap());
        assert!(n <= MAX_ALLOCS, "transform reply: {n} allocations");

        let decisions: Vec<f64> = unit[..ROWS].iter().map(|s| s.round()).collect();
        let (_, n) =
            allocations(|| codec::encode_predict("bench", &unit[..ROWS], &decisions).unwrap());
        assert!(n <= MAX_ALLOCS, "predict reply: {n} allocations");

        let certs: Vec<Certificate> = unit[..ROWS]
            .iter()
            .map(|&delta| Certificate {
                eps: 0.05,
                delta,
                method: CertMethod::IntervalBound,
            })
            .collect();
        let (_, n) =
            allocations(|| codec::encode_certify("bench", 0.05, &certs, Some(0.5)).unwrap());
        assert!(n <= MAX_ALLOCS, "certify reply: {n} allocations");
    }
}
