//! Allocation budget of the engine: steady-state heap allocations per
//! event, and the bytes they request, for four deployments over one
//! high-cardinality trace. The rows are pinned in `alloc_budget.ceiling`
//! next to this file; a row over its ceiling fails. The ceiling only goes
//! down: a change that allocates less lowers the row it moved.
//!
//! Only the engine is counted. The events are built before counting
//! starts and fed as batches of the engine's own size (what a run session
//! feeds it), so decoding and the store are not part of the figure. The
//! trace has the shape of the ladder's `hicard` workload: tens of
//! executables × thousands of destinations drawn with repetition, so every
//! 2 s window both revisits groups and creates new ones. A warm-up of two
//! such windows runs before counting starts.
//!
//! ```text
//! cargo test --test alloc_budget -- --nocapture    # prints the measured rows
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use saql::engine::register_pipeline;
use saql::model::event::EventBuilder;
use saql::model::{NetworkInfo, ProcessInfo};
use saql::stream::{EventBatch, SharedEvent};
use saql::{Engine, EngineConfig};

thread_local! {
    /// Allocations (and reallocations) made on this thread, and the bytes
    /// they asked for.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(size: usize) {
    let _ = COUNTS.try_with(|c| {
        let (n, bytes) = c.get();
        c.set((n + 1, bytes + size as u64));
    });
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const RATE: u64 = 4_000; // events per trace-second
const WARM_UP: usize = 16_000; // two `hicard` windows
const MEASURED: usize = 32_000; // four more

/// The trace: network writes by 24 executables on 4 hosts to 2,000
/// destinations, the destination drawn as the cube of a uniform draw so
/// popular pairs recur: a window of 8,000 events holds ≈5,900 groups. Two
/// executables are the ones the family's outlier and pipeline queries
/// watch.
fn trace() -> Vec<SharedEvent> {
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |bound: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % bound
    };
    (0..(WARM_UP + MEASURED) as u64)
        .map(|i| {
            let exe = match next(24) {
                0 => "dbsrv.exe".to_string(),
                1 => "uploader.exe".to_string(),
                n => format!("app-{n}.exe"),
            };
            let r = next(2_000);
            let d = r * r / 2_000 * r / 2_000;
            let dst = format!("10.1.{}.{}", d / 250, d % 250);
            let host = format!("host-{}", next(4));
            let event = EventBuilder::new(i + 1, host, 1_000_000 + i * 1_000 / RATE)
                .subject(ProcessInfo::new(100 + (i % 7) as u32, exe, "svc"))
                .sends(NetworkInfo::new("10.0.0.2", 44_000, dst, 443, "tcp"))
                .amount(next(10_000))
                .build();
            Arc::new(event)
        })
        .collect()
}

fn query(name: &str) -> String {
    let path = format!(
        "{}/benchmark/queries/family/{name}.saql",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Allocations and bytes per event over the measured span, for an engine
/// holding `queries` (a `|>` query is registered as a pipeline).
fn per_event(queries: &[&str], events: &[SharedEvent]) -> (f64, f64) {
    let mut engine = Engine::new(EngineConfig::default());
    for name in queries {
        let text = query(name);
        if text.contains("|>") {
            register_pipeline(&mut engine, name, &text).expect("pipeline registers");
        } else {
            engine.register(name, &text).expect("query registers");
        }
    }
    let batches: Vec<EventBatch> = events
        .chunks(engine.batch_size())
        .map(|part| EventBatch::from_events(part.to_vec()))
        .collect();
    let warm = WARM_UP / engine.batch_size();
    let mut feed = |batches: &[EventBatch]| {
        for batch in batches {
            engine.process_batch(batch).expect("runs");
        }
    };
    feed(&batches[..warm]);
    let before = COUNTS.with(Cell::get);
    feed(&batches[warm..]);
    let after = COUNTS.with(Cell::get);
    let measured: usize = batches[warm..].iter().map(EventBatch::len).sum();
    let n = measured as f64;
    (
        (after.0 - before.0) as f64 / n,
        (after.1 - before.1) as f64 / n,
    )
}

#[test]
fn steady_state_allocations_stay_under_the_ceiling() {
    const FAMILY: [&str; 8] = [
        "rule-1step",
        "rule-2step",
        "rule-4step",
        "ts-sma",
        "invariant",
        "outlier",
        "hicard",
        "pipeline",
    ];
    let deployments: [(&str, &[&str]); 4] = [
        ("none", &[]),
        ("hicard", &["hicard"]),
        ("ts-sma", &["ts-sma"]),
        ("family", &FAMILY),
    ];
    let ceiling_text = include_str!("alloc_budget.ceiling");
    let ceiling = |name: &str| -> (f64, f64) {
        let row = (ceiling_text.lines())
            .map(str::split_whitespace)
            .find_map(|mut cols| {
                (cols.next() == Some(name)).then(|| {
                    let mut num = || cols.next().and_then(|c| c.parse().ok()).expect("a number");
                    (num(), num())
                })
            });
        row.unwrap_or_else(|| panic!("no ceiling row for `{name}`"))
    };
    let events = trace();
    let mut over = Vec::new();
    println!(
        "{:<10} {:>10} {:>10}",
        "deployment", "allocs/ev", "bytes/ev"
    );
    for (name, queries) in deployments {
        let (allocs, bytes) = per_event(queries, &events);
        let (max_allocs, max_bytes) = ceiling(name);
        println!("{name:<10} {allocs:>10.4} {bytes:>10.2}");
        if allocs > max_allocs || bytes > max_bytes {
            over.push(format!(
                "{name}: {allocs:.3} allocs/ev, {bytes:.1} B/ev over the ceiling's {max_allocs} and {max_bytes}"
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}
