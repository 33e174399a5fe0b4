//! The allocation-free steady state, enforced at the allocator: once a
//! batched round has warmed the site's scratch and the coordinator's
//! decode buffers, driving the *library data path* — columnar frame in,
//! columnar reply out, survival fold on the coordinator — must perform
//! zero heap allocations. This is the harness the zero-copy wire layout
//! exists for: the footprint tests in `dsud-core` watch buffer capacities,
//! this test watches `malloc` itself.
//!
//! Scope: the test drives `Service::handle_frame` and
//! `wire::decode_survivals_into` directly (the library data path). Real
//! transports add channel/socket frame shipping on top, which necessarily
//! allocates the owned reply frame; that overhead is bounded per *round*,
//! not per tuple, and is covered by the footprint assertions in the
//! transport tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsud_core::{LocalSite, SiteOptions};
use dsud_net::{wire, Message, Service, TupleBlock, TupleMsg};
use dsud_uncertain::{Probability, TupleId, UncertainTuple};

/// A shim around the system allocator that counts allocations so tests
/// can assert a code region performs none. Counting is always on; the
/// assertions difference two readings around the region under test.
///
/// The count is per thread: the test harness runs tests on parallel
/// threads, and a process-wide counter would charge one test's
/// allocations to another's region. Each region under test runs on the
/// thread that reads the counter, so a per-thread count sees exactly its
/// own allocations.
struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: reading it never
    // allocates and stays valid for the thread's whole life, which is what
    // makes it usable from inside the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn tuple(site: u32, seq: u64, values: Vec<f64>, p: f64) -> UncertainTuple {
    UncertainTuple::new(TupleId::new(site, seq), values, Probability::new(p).unwrap()).unwrap()
}

/// One warm site plus one encoded columnar feedback frame of `k` probes.
fn warm_site_and_frame(k: u64) -> (LocalSite, Vec<u8>) {
    let tuples: Vec<_> = (0..256)
        .map(|i| tuple(0, i, vec![(i % 16) as f64 + 1.0, (i / 16) as f64 + 1.0], 0.6))
        .collect();
    let mut site = LocalSite::new(0, 2, tuples, SiteOptions::default()).unwrap();
    site.handle(Message::Start {
        q: 0.01,
        mask: dsud_uncertain::SubspaceMask::full(2).unwrap(),
        counted: false,
    });
    let batch: Vec<TupleMsg> = (0..k)
        .map(|j| TupleMsg::new(&tuple(1, j, vec![4.0 + j as f64, 12.0 - j as f64], 0.5), 0.5))
        .collect();
    let frame = Message::FeedbackBatchC(TupleBlock::from_msgs(&batch)).encode().as_ref().to_vec();
    (site, frame)
}

/// The site half: a warm `LocalSite` answering columnar feedback frames
/// into a reused reply buffer must not allocate at all.
#[test]
fn warm_site_rounds_allocate_nothing() {
    let (mut site, frame) = warm_site_and_frame(8);
    let mut out = bytes::BytesMut::new();
    // Warm-up: sizes the multi-probe scratch, the gathered probe rows,
    // the survival vector, and the reply buffer.
    for _ in 0..3 {
        site.handle_frame(&frame, &mut out);
    }
    let before = allocations();
    for _ in 0..64 {
        site.handle_frame(&frame, &mut out);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "warm columnar rounds must not touch the allocator (site side)");
    // Sanity: the replies stayed real.
    assert!(matches!(Message::decode_slice(&out), Some(Message::SurvivalBatchReplyC { .. })));
}

/// The coordinator half: decoding a columnar survival reply into a reused
/// vector and folding the factors must not allocate either.
#[test]
fn warm_coordinator_fold_allocates_nothing() {
    let (mut site, frame) = warm_site_and_frame(8);
    let mut reply = bytes::BytesMut::new();
    site.handle_frame(&frame, &mut reply);

    let mut survivals: Vec<f64> = Vec::new();
    let mut globals = [1.0f64; 8];
    // Warm-up sizes the survival vector once.
    wire::decode_survivals_into(&reply, &mut survivals).expect("reply decodes");

    let before = allocations();
    for _ in 0..64 {
        let pruned = wire::decode_survivals_into(&reply, &mut survivals).expect("reply decodes");
        for (g, s) in globals.iter_mut().zip(&survivals) {
            *g *= s;
        }
        assert!(pruned <= 256);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm survival folds must not touch the allocator (coordinator side)"
    );
    assert!(globals.iter().all(|g| (0.0..=1.0).contains(g)));
}

/// End to end in one loop: frame in, reply out, fold — the whole batched
/// round body the wire layout optimizes — at zero allocations per round
/// once warm, for both sides at once.
#[test]
fn warm_round_trip_allocates_nothing() {
    let (mut site, frame) = warm_site_and_frame(16);
    let mut reply = bytes::BytesMut::new();
    let mut survivals: Vec<f64> = Vec::new();
    for _ in 0..3 {
        site.handle_frame(&frame, &mut reply);
        wire::decode_survivals_into(&reply, &mut survivals).expect("reply decodes");
    }
    let before = allocations();
    let mut product = 1.0f64;
    for _ in 0..128 {
        site.handle_frame(&frame, &mut reply);
        wire::decode_survivals_into(&reply, &mut survivals).expect("reply decodes");
        for s in &survivals {
            product *= s;
        }
    }
    let after = allocations();
    assert_eq!(after - before, 0, "warm round trips must not touch the allocator");
    assert!(product.is_finite());
}

/// A draw — the columnar flush and the refill in one frame, bare and
/// inside a session wrapper — is answered on the same allocation-free
/// path: the survival factors and the uploaded representative are
/// encoded straight into the reused reply buffer.
#[test]
fn warm_columnar_draws_allocate_nothing() {
    for query_id in [None, Some(9)] {
        let (mut site, flush) = warm_site_and_frame(8);
        let mut draw = vec![wire::TAG_DRAW];
        draw.extend_from_slice(&flush);
        if let Some(id) = query_id {
            let start = Message::Start {
                q: 0.01,
                mask: dsud_uncertain::SubspaceMask::full(2).unwrap(),
                counted: false,
            };
            site.handle(Message::Tagged { query_id: id, inner: Box::new(start) });
            let mut tagged = vec![wire::TAG_TAGGED];
            tagged.extend_from_slice(&id.to_be_bytes());
            tagged.extend_from_slice(&draw);
            draw = tagged;
        }
        let mut out = bytes::BytesMut::new();
        // Warm-up: sizes the scratch and the reply buffer on a draw that
        // carries an upload.
        site.handle_frame(&draw, &mut out);
        assert!(matches!(Message::decode_slice(&out), Some(Message::Drawn { next: Some(_), .. })));
        let before = allocations();
        let mut uploads = 0;
        for _ in 0..64 {
            site.handle_frame(&draw, &mut out);
            uploads += usize::from(out[0] == wire::TAG_DRAWN);
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "warm columnar draws must not touch the allocator ({query_id:?})"
        );
        // Sanity: the draws uploaded representatives until the local
        // skyline ran dry, then kept answering exhausted.
        assert!(uploads > 0, "{query_id:?}");
        assert!(matches!(
            Message::decode_slice(&out),
            Some(Message::Drawn { survivals, next: None, drained: true })
                if matches!(*survivals, Message::SurvivalBatchReplyC { .. })
        ));
    }
}
