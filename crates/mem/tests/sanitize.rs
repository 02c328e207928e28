//! Negative test for the DEBUG_VM-style sanitizer: deliberately corrupted
//! frame accounting must trip the named invariant, and a healthy pool must
//! not.

#![cfg(feature = "sanitize")]

use pagesim_mem::{PhysMem, Watermarks};

#[test]
fn healthy_pool_passes_through_lifecycle() {
    let mut pm = PhysMem::new(32, Watermarks::for_capacity(32));
    pm.check_invariants();
    let a = pm.allocate(3).expect("frames available");
    let b = pm.allocate(4).expect("frames available");
    pm.check_invariants();
    pm.begin_writeback(a);
    pm.check_invariants();
    pm.writeback_done(a);
    pm.free(b);
    pm.check_invariants();
}

#[test]
#[should_panic(expected = "sanitize: frame-accounting")]
fn corrupted_frame_accounting_trips_named_invariant() {
    let mut pm = PhysMem::new(32, Watermarks::for_capacity(32));
    pm.allocate(3).expect("frames available");
    pm.check_invariants();
    pm.corrupt_frame_accounting_for_test();
    // The panic must name the violated invariant.
    pm.check_invariants();
}
