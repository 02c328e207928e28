//! # pagesim-repro
//!
//! Umbrella package for the `pagesim` reproduction of *"Characterizing
//! Emerging Page Replacement Policies for Memory-Intensive Applications"*
//! (IISWC 2024). It hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); the library itself is empty.
