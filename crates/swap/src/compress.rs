//! Byte-RLE page compression.
//!
//! ZRAM in the paper uses LZO-RLE. On the synthetic page contents this
//! simulator generates, the run-length stage dominates, so we implement a
//! real byte-RLE codec and derive per-class compression ratios by actually
//! compressing representative 4 KiB pages. Incompressible pages are stored
//! raw plus a header, exactly like zram does.

use pagesim_mem::{EntropyClass, PAGE_SIZE};

/// Encoded-stream tokens: `(run_len, byte)` pairs, `run_len` in `1..=255`.
const MAX_RUN: usize = 255;

/// Compresses `input` with byte-level run-length encoding.
///
/// The output alternates `[len, byte]` pairs. Compression is effective
/// whenever average run length exceeds 2.
///
/// ```rust
/// use pagesim_swap::{compress, decompress};
/// let data = vec![7u8; 1000];
/// let enc = compress(&data);
/// assert!(enc.len() < 20);
/// assert_eq!(decompress(&enc), data);
/// ```
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 4);
    let mut i = 0;
    while i < input.len() {
        let byte = input[i];
        let mut run = 1;
        while i + run < input.len() && input[i + run] == byte && run < MAX_RUN {
            run += 1;
        }
        out.push(run as u8);
        out.push(byte);
        i += run;
    }
    out
}

/// Inverse of [`compress`].
///
/// # Panics
///
/// Panics if the stream is malformed (odd length or zero-length run).
pub fn decompress(encoded: &[u8]) -> Vec<u8> {
    assert!(encoded.len().is_multiple_of(2), "malformed RLE stream");
    let mut out = Vec::with_capacity(encoded.len() * 4);
    for pair in encoded.chunks_exact(2) {
        let (len, byte) = (pair[0], pair[1]);
        assert!(len > 0, "zero-length run");
        out.extend(std::iter::repeat_n(byte, len as usize));
    }
    out
}

/// Generates a representative 4 KiB page for an entropy class.
///
/// The generator is deterministic in `seed` so compression ratios are
/// stable across runs. Run-length structure per class:
///
/// * `Zero` — all zeroes.
/// * `Text` — word-like runs of 6–14 identical bytes (≈4:1 under RLE).
/// * `Structured` — record-like runs of 3–7 bytes (≈2.5:1).
/// * `Random` — no runs; incompressible.
pub fn page_for_class(class: EntropyClass, seed: u64) -> Vec<u8> {
    let mut page = Vec::with_capacity(PAGE_SIZE);
    let mut state = seed | 1;
    let mut next = || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    match class {
        EntropyClass::Zero => page.resize(PAGE_SIZE, 0),
        EntropyClass::Text => {
            while page.len() < PAGE_SIZE {
                let r = next();
                let run = 6 + (r % 9) as usize; // 6..=14
                let byte = (r >> 32) as u8;
                let run = run.min(PAGE_SIZE - page.len());
                page.extend(std::iter::repeat_n(byte, run));
            }
        }
        EntropyClass::Structured => {
            while page.len() < PAGE_SIZE {
                let r = next();
                let run = 3 + (r % 5) as usize; // 3..=7
                let byte = (r >> 32) as u8;
                let run = run.min(PAGE_SIZE - page.len());
                page.extend(std::iter::repeat_n(byte, run));
            }
        }
        EntropyClass::Random => {
            while page.len() < PAGE_SIZE {
                page.push((next() >> 24) as u8);
            }
        }
    }
    page
}

/// Per-slot storage overhead for raw (incompressible) pages, matching
/// zram's object header.
const RAW_HEADER: usize = 16;

/// Cached per-class compressed sizes, derived by running the real codec on
/// representative pages. Used by [`ZramDevice`](crate::ZramDevice) for
/// pool-capacity accounting without compressing on every swap-out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressionModel {
    sizes: [usize; 4],
}

impl CompressionModel {
    /// Builds the model by compressing one representative page per class.
    pub fn build() -> CompressionModel {
        let mut sizes = [0usize; 4];
        for (i, class) in [
            EntropyClass::Zero,
            EntropyClass::Text,
            EntropyClass::Structured,
            EntropyClass::Random,
        ]
        .into_iter()
        .enumerate()
        {
            let page = page_for_class(class, 0x5EED_0000 + i as u64);
            let encoded = compress(&page);
            // zram stores pages that don't compress as raw + header.
            sizes[i] = encoded.len().clamp(2, PAGE_SIZE + RAW_HEADER);
            if encoded.len() >= PAGE_SIZE {
                sizes[i] = PAGE_SIZE + RAW_HEADER;
            }
        }
        CompressionModel { sizes }
    }

    /// Stored bytes for one page of the given class.
    pub fn stored_size(&self, class: EntropyClass) -> usize {
        self.sizes[class as usize]
    }
}

impl Default for CompressionModel {
    fn default() -> Self {
        Self::build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_classes() {
        for class in [
            EntropyClass::Zero,
            EntropyClass::Text,
            EntropyClass::Structured,
            EntropyClass::Random,
        ] {
            let page = page_for_class(class, 42);
            assert_eq!(page.len(), PAGE_SIZE);
            let enc = compress(&page);
            assert_eq!(decompress(&enc), page, "roundtrip failed for {class:?}");
        }
    }

    #[test]
    fn ratios_are_ordered_by_entropy() {
        let m = CompressionModel::build();
        let size = |c| m.stored_size(c);
        assert!(size(EntropyClass::Zero) < size(EntropyClass::Text));
        assert!(size(EntropyClass::Text) < size(EntropyClass::Structured));
        assert!(size(EntropyClass::Structured) < size(EntropyClass::Random));
    }

    #[test]
    fn text_ratio_is_lzo_like() {
        // LZO-RLE on textual datacenter pages lands around 3-5x: a ratio
        // in [3, 6) for text and [2, 3.5) for structured pages.
        let m = CompressionModel::build();
        let s = m.stored_size(EntropyClass::Text);
        assert!(
            (PAGE_SIZE / 6 + 1..=PAGE_SIZE / 3).contains(&s),
            "text {s} B"
        );
        let s = m.stored_size(EntropyClass::Structured);
        assert!(
            (PAGE_SIZE * 2 / 7 + 1..=PAGE_SIZE / 2).contains(&s),
            "structured {s} B"
        );
    }

    #[test]
    fn random_pages_are_stored_raw() {
        let m = CompressionModel::build();
        assert_eq!(m.stored_size(EntropyClass::Random), PAGE_SIZE + RAW_HEADER);
    }

    #[test]
    fn zero_page_compresses_to_nothing() {
        let enc = compress(&page_for_class(EntropyClass::Zero, 1));
        assert!(enc.len() <= 34); // ceil(4096/255) pairs
    }

    #[test]
    fn empty_input() {
        assert!(compress(&[]).is_empty());
        assert!(decompress(&[]).is_empty());
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(
            page_for_class(EntropyClass::Text, 7),
            page_for_class(EntropyClass::Text, 7)
        );
        assert_ne!(
            page_for_class(EntropyClass::Text, 7),
            page_for_class(EntropyClass::Text, 8)
        );
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn odd_stream_rejected() {
        decompress(&[3]);
    }

    #[test]
    fn compress_respects_max_run() {
        let data = vec![9u8; 1000];
        let enc = compress(&data);
        // ceil(1000/255) = 4 runs
        assert_eq!(enc.len(), 8);
        assert_eq!(decompress(&enc).len(), 1000);
    }
}
