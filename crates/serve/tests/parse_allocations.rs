//! The heap allocations of decoding one request line, counted by a
//! global allocator.
//!
//! A cache hit's time is mostly `parse_line`, and a decoder that builds a
//! JSON tree pays an allocation for every key, string and container of
//! the line. Reading the line straight into the typed request allocates
//! what the request keeps: one name per layer, the chain's name, its
//! vectors, the cache key and the request box. These tests hold that to
//! `layers + c`, a count that repeats exactly on every host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use madpipe_json::{ToJson, Value};
use madpipe_model::Platform;
use madpipe_serve::{parse_line, Request};

/// Counts the allocations (and reallocations) made by each thread: the
/// test harness runs tests on parallel threads.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the thread-local counter has a const initializer and no
// destructor, so touching it never allocates or recurses.
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
static COUNTING: Counting = Counting;

/// Allocations beyond one per layer: the chain's name, its layer vector
/// (grown by doubling, so a few for these sizes), its four prefix-sum
/// vectors, the cache key and the boxed request.
const PER_REQUEST: u64 = 11;

/// Decode `line` as a plan request; the allocations it took and its
/// layer count.
fn allocations_of(line: &str) -> (u64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let parsed = parse_line(line);
    let after = ALLOCATIONS.with(Cell::get);
    let Ok((Request::Plan(req), None)) = parsed else {
        panic!("{line} must parse as an untraced plan request");
    };
    (after - before, req.chain.len() as u64)
}

#[test]
fn a_default_loadgen_line_allocates_per_layer_and_a_constant() {
    let lines = madpipe_bench::loadgen::request_lines(
        4,
        madpipe_bench::loadgen::LoadgenConfig::default().seed,
    );
    assert_eq!(lines.len(), 4);
    for line in &lines {
        let (allocations, layers) = allocations_of(line);
        assert_eq!(layers, 8, "the default loadgen chains have 8 layers");
        assert!(
            allocations <= layers + PER_REQUEST,
            "{allocations} allocations for {layers} layers: {line}"
        );
    }
}

#[test]
fn a_resnet50_line_allocates_per_layer_and_a_constant() {
    let chain = madpipe_dnn::networks::resnet50()
        .profile(8, 1000, &madpipe_dnn::GpuModel::default())
        .expect("ResNet-50 profiles cleanly");
    let platform = Platform::gb(2, 4, 12.0).expect("valid platform");
    let line = Value::Object(vec![
        ("cmd".into(), Value::Str("plan".into())),
        ("chain".into(), chain.to_json()),
        (
            "platform".into(),
            Value::Object(vec![
                ("n_gpus".into(), Value::UInt(platform.n_gpus as u64)),
                ("memory_bytes".into(), Value::UInt(platform.memory_bytes)),
                ("bandwidth_bytes".into(), Value::Float(platform.bandwidth)),
            ]),
        ),
    ])
    .to_string_compact();
    let (allocations, layers) = allocations_of(&line);
    assert_eq!(layers, 19, "ResNet-50 profiles to 19 layers");
    assert!(
        allocations <= layers + PER_REQUEST,
        "{allocations} allocations for {layers} layers: {line}"
    );
}
