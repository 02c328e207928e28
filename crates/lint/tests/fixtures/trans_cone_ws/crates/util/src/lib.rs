//! Fixture util crate. Nothing here is a hot root, so only the call-graph
//! pass can see that `Kernel::fault` (core crate) reaches the `vec!` two
//! helpers down, across the crate boundary.

pub fn helper_a() -> u64 {
    helper_b()
}

fn helper_b() -> u64 {
    let scratch = vec![1u64, 2, 3];
    scratch.iter().sum()
}
