//! The workspace's one JSON module ([`pagesim_trace::json`]), re-exported
//! at the path the `pagebench` package imports.

pub use pagesim_trace::json::{escape, parse, Json};
