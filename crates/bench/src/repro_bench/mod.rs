//! The path `pagebench` imports the workspace's JSON module from.
//!
//! Only [`json`] is left here, a re-export of [`pagesim_trace::json`]. It
//! stays until the next change to the benchmark moves `pagebench`'s
//! imports to `pagesim_trace::json` directly.

pub mod json;
