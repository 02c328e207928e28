//! Property tests for the accessed bitmap and the per-region present
//! counts: under arbitrary mutation sequences the word-level scans must
//! stay observationally identical to a naive per-page walk over a
//! reference model, each page's PTE present bit and bitmap accessed bit
//! must match the model, and [`AddressSpace::check_bitmap_coherence`] must
//! hold after every single operation.

use proptest::prelude::*;

use pagesim_mem::{
    region_of, AddressSpace, AsId, PageArena, PTES_PER_LINE, PTES_PER_REGION, PTES_PER_WORD,
    WORDS_PER_REGION,
};

/// Reference model: one (present, accessed) pair per page, mutated with
/// the plain-English semantics each `AddressSpace` method documents.
#[derive(Clone, Copy, Default)]
struct ModelPte {
    present: bool,
    accessed: bool,
}

/// A deliberately awkward page count: spans multiple regions, ends
/// mid-word and mid-line so the tail-clamping paths run every time.
const PAGES: u32 = 2 * PTES_PER_REGION as u32 + 3 * PTES_PER_WORD as u32 + 13;

fn check_mirror(space: &AddressSpace, model: &[ModelPte]) -> Result<(), String> {
    space
        .check_bitmap_coherence()
        .map_err(|e| format!("coherence: {e}"))?;
    for (vpn, m) in model.iter().enumerate() {
        let pte = space.pte(vpn as u32);
        prop_assert_eq!(pte.present(), m.present, "present mismatch at vpn {}", vpn);
        prop_assert_eq!(
            space.accessed(vpn as u32),
            m.accessed,
            "accessed mismatch at vpn {}",
            vpn
        );
    }
    let resident = model.iter().filter(|m| m.present).count() as u32;
    prop_assert_eq!(space.resident_pages(), resident);
    Ok(())
}

proptest! {
    /// Random op soup: every mutator keeps the accessed bitmap, the region
    /// counters, and the PTE present flags in lockstep with the model.
    #[test]
    fn bitmaps_mirror_ptes_under_random_ops(
        ops in prop::collection::vec((0u8..7, 0u32..PAGES), 1..400),
    ) {
        let mut arena = PageArena::new();
        let mut space = AddressSpace::new(AsId(0), PAGES, &mut arena);
        let mut model = vec![ModelPte::default(); PAGES as usize];

        for (op, vpn) in ops {
            let m = &mut model[vpn as usize];
            match op {
                0 => {
                    // Fault in (mapping an already-mapped page is a remap:
                    // hardware bits reset like a fresh install).
                    space.map(vpn, vpn);
                    *m = ModelPte { present: true, accessed: false };
                }
                1 => {
                    if m.present {
                        space.set_swapped(vpn, vpn);
                        *m = ModelPte::default();
                    }
                }
                2 => {
                    space.clear_mapping(vpn);
                    *m = ModelPte::default();
                }
                3 => {
                    if m.present {
                        space.mark_accessed(vpn, vpn % 2 == 0);
                        m.accessed = true;
                    }
                }
                4 => {
                    // rmap probe: returns exactly the model's accessed bit
                    // and clears it.
                    let was = space.test_and_clear_accessed(vpn);
                    prop_assert_eq!(was, m.accessed, "t&c at vpn {}", vpn);
                    m.accessed = false;
                }
                5 => {
                    if m.present {
                        space.set_dirty(vpn);
                    }
                }
                _ => {
                    // Aging-walk step over the region containing vpn: the
                    // harvested words must equal the model's accessed bits
                    // in ascending-vpn bit order, and clear them.
                    let region = region_of(vpn);
                    let mut words = [0u64; WORDS_PER_REGION];
                    let examined = space.scan_region(region, &mut words);
                    let range = space.region_vpns(region);
                    prop_assert_eq!(examined, range.end - range.start);
                    let mut expect = [0u64; WORDS_PER_REGION];
                    for v in range.clone() {
                        if model[v as usize].accessed {
                            let off = (v - range.start) as usize;
                            expect[off / PTES_PER_WORD] |= 1 << (off % PTES_PER_WORD);
                        }
                    }
                    prop_assert_eq!(words, expect, "region {} scan mask", region);
                    for v in range {
                        model[v as usize].accessed = false;
                    }
                }
            }
            check_mirror(&space, &model)?;
        }
    }

    /// The spatial line probe is the per-PTE walk in miniature: for any
    /// state, `scan_line_mask(line)` returns exactly the bits a naive
    /// 8-PTE read-and-clear loop would, for every line in the space.
    #[test]
    fn line_masks_match_naive_walk(
        touched in prop::collection::vec((0u32..PAGES, any::<bool>()), 1..200),
    ) {
        let mut arena = PageArena::new();
        let mut space = AddressSpace::new(AsId(0), PAGES, &mut arena);
        let mut model = vec![ModelPte::default(); PAGES as usize];
        for (vpn, touch) in touched {
            space.map(vpn, vpn);
            model[vpn as usize] = ModelPte { present: true, accessed: false };
            if touch {
                space.mark_accessed(vpn, false);
                model[vpn as usize].accessed = true;
            }
        }
        for line in 0..space.lines() {
            let range = space.line_vpns(line);
            let mut expect = 0u8;
            for v in range.clone() {
                if model[v as usize].accessed {
                    expect |= 1 << (v - range.start);
                    model[v as usize].accessed = false;
                }
            }
            let (mask, examined) = space.scan_line_mask(line);
            prop_assert_eq!(mask, expect, "line {} mask", line);
            prop_assert_eq!(examined, range.end - range.start);
            prop_assert_eq!(
                examined,
                PTES_PER_LINE.min(PAGES as usize - range.start as usize) as u32
            );
        }
        // Everything harvested: a second pass over every line is all-zero.
        for line in 0..space.lines() {
            prop_assert_eq!(space.scan_line_mask(line).0, 0);
        }
        check_mirror(&space, &model)?;
    }

    /// `scan_region` visits set bits in ascending vpn order — the exact
    /// order the old per-PTE loop produced — when decoded with the same
    /// `trailing_zeros` idiom the consumers use.
    #[test]
    fn word_decode_order_is_ascending(
        touched in prop::collection::vec(0u32..PAGES, 1..128),
    ) {
        let mut arena = PageArena::new();
        let mut space = AddressSpace::new(AsId(0), PAGES, &mut arena);
        let mut expect: Vec<u32> = Vec::new();
        for &vpn in &touched {
            space.map(vpn, vpn);
            space.mark_accessed(vpn, false);
        }
        let mut sorted: Vec<u32> = touched.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut visited: Vec<u32> = Vec::new();
        for region in 0..space.regions() {
            let range = space.region_vpns(region);
            let mut words = [0u64; WORDS_PER_REGION];
            space.scan_region(region, &mut words);
            for (i, &word) in words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let vpn =
                        range.start + i as u32 * PTES_PER_WORD as u32 + bits.trailing_zeros();
                    bits &= bits - 1;
                    visited.push(vpn);
                }
            }
            expect.extend(sorted.iter().copied().filter(|v| range.contains(v)));
        }
        prop_assert_eq!(visited, expect);
    }
}
