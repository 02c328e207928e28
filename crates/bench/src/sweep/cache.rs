//! Content-addressed on-disk trial cache, format v3: checksummed entries
//! with corrupt-entry quarantine.
//!
//! One file per trial, named by the trial content hash. Layout:
//!
//! ```text
//! pagesim-cell v3 <ident>
//! sum <entry_sum over the ident line and the body, 16 hex digits>
//! <RunMetrics cache text>
//! ```
//!
//! A read is one `open` and plain `read`s into a buffer each thread keeps
//! across reads, then byte-level checks: no `stat`, no per-read
//! allocation, and no UTF-8 pass over the whole file.
//!
//! Reads never trust the file: the checksum is verified before the body is
//! parsed, and a mismatch — truncation, a flipped byte, a torn write that
//! slipped past rename — moves the entry aside to `<name>.quarantine`
//! (preserved for inspection), logs it to stderr, and reports
//! [`CacheRead::Quarantined`] so the trial recomputes and rewrites a fresh
//! entry. A checksum-valid entry whose ident differs is someone else's
//! cell behind a 64-bit file-name collision: that is a plain miss, not
//! corruption. Entries of an older layout (v2, summed with FNV-1a, and
//! pre-v2, unsummed) read as stale misses and are overwritten on store.

use std::cell::RefCell;
use std::fs;
use std::io::{ErrorKind, Read as _, Write as _};
use std::path::{Path, PathBuf};

use pagesim::experiments::{Bench, CellSpec};
use pagesim::RunMetrics;

/// How every entry starts: the ident line up to the ident, spelling the
/// on-disk layout version (independent of the body's
/// `CACHE_FORMAT_VERSION`, which is part of the content hash).
const ENTRY_HEADER: &str = "pagesim-cell v3 ";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over raw bytes — the same constants the config hash uses, but
/// untagged: this guards file integrity, not field aliasing.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |state, &b| {
        (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// xxHash64's primes, the multipliers of [`entry_sum`]'s lane step.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// An entry's checksum: a word-at-a-time 64-bit hash of the ident line
/// and then the body, each hashed in place.
///
/// Four independent lanes take turns absorbing the input's little-endian
/// 8-byte words (a final short stripe is zero-padded, and each part's
/// length follows it). A lane step is a bijection of the lane for a fixed
/// word and an injection of the word for a fixed lane, and the lanes fold
/// into the result injectively, so two inputs of equal lengths that
/// differ within one aligned word, one byte in particular, always sum
/// differently. The lanes keep four multiplies in flight, for about 16
/// times FNV-1a's speed (EXPERIMENTS.md has the timings).
pub fn entry_sum(ident_line: &[u8], body: &[u8]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    absorb(&mut lanes, ident_line);
    absorb(&mut lanes, body);
    let [a, b, c, d] = lanes;
    // Each fold step is injective in the lane it takes in.
    let h = [b, c, d]
        .into_iter()
        .fold(a, |h, lane| (h.rotate_left(27) ^ lane).wrapping_mul(P1));
    // MurmurHash3's finalizer: a bijection that spreads every bit.
    let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// xxHash64's round: add the scaled word, rotate, multiply.
fn lane_step(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Feeds `bytes` to the lanes in 32-byte stripes, one word per lane, the
/// last stripe zero-padded, then the length.
fn absorb(lanes: &mut [u64; 4], bytes: &[u8]) {
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut last = [0u8; 32];
    last[..tail.len()].copy_from_slice(tail);
    for stripe in stripes.iter().chain([&last]) {
        for (lane, word) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
            *lane = lane_step(*lane, u64::from_le_bytes(*word));
        }
    }
    lanes[0] = lane_step(lanes[0], bytes.len() as u64);
}

/// What a cache read found.
#[derive(Debug)]
pub enum CacheRead {
    /// A checksum-valid entry for exactly this trial. Boxed: a hit is
    /// ~60× the size of the other variants.
    Hit(Box<RunMetrics>),
    /// No entry, a stale-format entry, or a collision with another cell.
    Miss,
    /// A corrupt entry: moved aside to `.quarantine`, caller recomputes.
    Quarantined,
}

/// A trial's cache identity, computed once per trial: the content hash
/// that names its entry file and keys its journal line, and the
/// human-readable ident stored in the entry for inspection and collision
/// detection.
#[derive(Clone, Debug)]
pub struct TrialKey {
    /// The trial content hash.
    pub hash: u64,
    /// `<cell ident> trial <n>`.
    pub ident: String,
}

impl TrialKey {
    /// The key of `spec` in `bench`.
    pub fn of(bench: &Bench, spec: &CellSpec) -> Self {
        TrialKey {
            hash: bench.trial_content_hash(&spec.query, spec.trial),
            ident: format!("{} trial {}", spec.query.ident(), spec.trial),
        }
    }

    fn path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{:016x}.cell", self.hash))
    }
}

/// The cache file for one trial and the identity it carries.
pub fn entry_path(dir: &Path, bench: &Bench, spec: &CellSpec) -> (PathBuf, String) {
    let key = TrialKey::of(bench, spec);
    (key.path(dir), key.ident)
}

/// Reads one trial's entry, verifying the checksum before parsing.
pub fn load(dir: &Path, bench: &Bench, spec: &CellSpec) -> CacheRead {
    load_keyed(dir, &TrialKey::of(bench, spec))
}

thread_local! {
    /// Each thread's read buffer: it keeps its room from one read to the
    /// next, so a sweep worker allocates for its first entries only.
    static READ_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// [`load`] for a trial whose key is already computed.
pub fn load_keyed(dir: &Path, key: &TrialKey) -> CacheRead {
    let path = key.path(dir);
    READ_BUF.with_borrow_mut(|buf| {
        let Ok(bytes) = read_entry(&path, buf) else {
            return CacheRead::Miss;
        };
        match parse_entry(bytes, &key.ident) {
            Parsed::Hit(m) => CacheRead::Hit(m),
            Parsed::Miss => CacheRead::Miss,
            Parsed::Corrupt => {
                quarantine(&path);
                CacheRead::Quarantined
            }
        }
    })
}

/// Reads the file at `path` into `buf` with plain `read` calls, growing
/// `buf` only when a file outgrows it, and returns the bytes read.
fn read_entry<'b>(path: &Path, buf: &'b mut Vec<u8>) -> std::io::Result<&'b [u8]> {
    let mut file = fs::File::open(path)?;
    let mut filled = 0;
    loop {
        if filled == buf.len() {
            buf.resize((2 * buf.len()).max(16 * 1024), 0);
        }
        match file.read(&mut buf[filled..]) {
            Ok(0) => return Ok(&buf[..filled]),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

enum Parsed {
    Hit(Box<RunMetrics>),
    Miss,
    Corrupt,
}

/// Splits off the first line (without its `\n`); `None` without one.
fn split_line(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let i = bytes.iter().position(|&b| b == b'\n')?;
    Some((&bytes[..i], &bytes[i + 1..]))
}

/// Exactly the 16 lowercase hex digits [`store`] writes.
fn parse_sum(hex: &[u8]) -> Option<u64> {
    if hex.len() != 16 {
        return None;
    }
    hex.iter().try_fold(0u64, |v, &c| {
        let d = match c {
            b'0'..=b'9' => c - b'0',
            b'a'..=b'f' => c - b'a' + 10,
            _ => return None,
        };
        Some(v << 4 | u64::from(d))
    })
}

fn parse_entry(bytes: &[u8], expected_ident: &str) -> Parsed {
    let Some((ident_line, rest)) = split_line(bytes) else {
        return Parsed::Corrupt;
    };
    let Some(ident) = ident_line.strip_prefix(ENTRY_HEADER.as_bytes()) else {
        // A recognizable older header is a stale format (plain miss, the
        // store path overwrites it); anything else is corruption.
        return if ident_line.starts_with(b"pagesim-cell ") {
            Parsed::Miss
        } else {
            Parsed::Corrupt
        };
    };
    let Some((sum_line, body)) = split_line(rest) else {
        return Parsed::Corrupt;
    };
    let Some(stored_sum) = sum_line.strip_prefix(b"sum ").and_then(parse_sum) else {
        return Parsed::Corrupt;
    };
    if entry_sum(ident_line, body) != stored_sum {
        return Parsed::Corrupt;
    }
    // Checksum-valid but a different cell: a 64-bit file-name collision
    // must read as a miss, never as someone else's metrics.
    if ident != expected_ident.as_bytes() {
        return Parsed::Miss;
    }
    match RunMetrics::from_cache_bytes(body) {
        Ok(m) => Parsed::Hit(Box::new(m)),
        // A verified body that fails to parse means a writer bug, not bit
        // rot — quarantine it too so it is preserved and never re-read.
        Err(_) => Parsed::Corrupt,
    }
}

/// Writes one trial's entry. Write-then-rename so a concurrent reader
/// never sees a torn entry; the spec index makes the temp name unique
/// within this sweep. Best-effort: any failure just means a future miss.
pub fn store(dir: &Path, bench: &Bench, spec: &CellSpec, metrics: &RunMetrics, tag: usize) {
    store_keyed(dir, &TrialKey::of(bench, spec), metrics, tag);
}

/// [`store`] for a trial whose key is already computed.
pub fn store_keyed(dir: &Path, key: &TrialKey, metrics: &RunMetrics, tag: usize) {
    let path = key.path(dir);
    let tmp = path.with_extension(format!("tmp{tag}"));
    let ident_line = format!("{ENTRY_HEADER}{}", key.ident);
    let body = metrics.to_cache_text();
    let sum = entry_sum(ident_line.as_bytes(), body.as_bytes());
    // One buffer, so the unbuffered file takes one `write`.
    let entry = format!("{ident_line}\nsum {sum:016x}\n{body}");
    let write = || -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(entry.as_bytes())?;
        f.sync_all()?;
        fs::rename(&tmp, &path)
    };
    if write().is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

/// Moves a corrupt entry aside (appending `.quarantine` to its name) so it
/// is preserved for inspection but never read again; the caller recomputes
/// and a fresh entry takes its place. Falls back to deletion if the rename
/// fails — re-reading known-bad bytes is the one unacceptable outcome.
fn quarantine(path: &Path) {
    let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return;
    };
    let qpath = path.with_file_name(format!("{name}.quarantine"));
    if fs::rename(path, &qpath).is_err() {
        let _ = fs::remove_file(path);
    }
    eprintln!("# cache: quarantined corrupt entry {}", path.display());
}

/// Deletes stale `*.tmp*` files left behind by write-then-rename sequences
/// that a crash interrupted. Runs once at sweep startup; returns how many
/// files were removed.
pub fn clean_stale_tmp(dir: &Path) -> usize {
    let Ok(rd) = fs::read_dir(dir) else { return 0 };
    let mut cleaned = 0;
    for entry in rd.flatten() {
        let path = entry.path();
        let is_tmp = path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().contains(".tmp"));
        if is_tmp && path.is_file() && fs::remove_file(&path).is_ok() {
            cleaned += 1;
        }
    }
    cleaned
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_sensitive() {
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
        assert_ne!(fnv64(b""), fnv64(b"\0"));
    }

    #[test]
    fn parse_rejects_garbage_and_stale_formats() {
        assert!(matches!(parse_entry(b"", "x"), Parsed::Corrupt));
        assert!(matches!(
            parse_entry(b"pagesim-cell old-ident\nbody\n", "old-ident"),
            Parsed::Miss
        ));
        assert!(matches!(
            parse_entry(b"not-a-cell\nbody\n", "x"),
            Parsed::Corrupt
        ));
        assert!(matches!(
            parse_entry(b"pagesim-cell v3 x\nsum zz\nbody\n", "x"),
            Parsed::Corrupt
        ));
    }

    #[test]
    fn checksum_guards_ident_and_body() {
        let ident_line = "pagesim-cell v3 my-cell";
        let body = RunMetrics::default().to_cache_text();
        let sum = entry_sum(ident_line.as_bytes(), body.as_bytes());
        let good = format!("{ident_line}\nsum {sum:016x}\n{body}");
        assert!(matches!(
            parse_entry(good.as_bytes(), "my-cell"),
            Parsed::Hit(_)
        ));
        // Valid checksum, wrong expected ident: collision → miss.
        assert!(matches!(
            parse_entry(good.as_bytes(), "other-cell"),
            Parsed::Miss
        ));
        // Any byte flip in ident or body breaks the checksum → corrupt.
        let bad = good.replace("my-cell", "my-celL");
        assert!(matches!(
            parse_entry(bad.as_bytes(), "my-celL"),
            Parsed::Corrupt
        ));
        let bad = good.replace("format 2", "format 3");
        assert!(matches!(
            parse_entry(bad.as_bytes(), "my-cell"),
            Parsed::Corrupt
        ));
        // The sum is read as the writer spells it: 16 lowercase hex digits.
        for spelled in [
            format!("{sum:016X}"),
            format!("+{sum:016x}"),
            format!("0{sum:016x}"),
        ] {
            let bad = good.replacen(&format!("{sum:016x}"), &spelled, 1);
            assert!(matches!(
                parse_entry(bad.as_bytes(), "my-cell"),
                Parsed::Corrupt
            ));
        }
    }

    /// A change of hash, word order or endianness must fail here.
    #[test]
    fn entry_sum_is_pinned() {
        let ident_line = b"pagesim-cell v3 ycsb-a/mglru/Ssd/r0.50 trial 0";
        let body = b"format 2\nruntime_ns 1234567890\naccesses 42\nlru_gen a\\nb\nend\n";
        assert_eq!(entry_sum(ident_line, body), 0xc816_7bbe_294c_d101);
        assert_eq!(entry_sum(b"", b""), 0x35b2_42e5_29c4_d726);
    }

    /// A stored smoke YCSB-A entry of fig1, and its key.
    fn stored_ycsb_entry(dir: &Path) -> (TrialKey, Vec<u8>) {
        use pagesim::experiments::{figure_cells, Scale, Wl};
        let bench = Bench::new(Scale::smoke());
        let query = figure_cells("fig1")
            .into_iter()
            .find(|q| q.wl == Wl::YcsbA)
            .expect("fig1 runs YCSB-A");
        let spec = CellSpec { query, trial: 0 };
        let key = TrialKey::of(&bench, &spec);
        store_keyed(dir, &key, &bench.run_trial(&spec.query, 0), 0);
        let bytes = fs::read(key.path(dir)).expect("stored entry");
        (key, bytes)
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pagesim-{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every byte of a real entry, XORed with `0x01` and with `0x80`,
    /// reads back corrupt: its ident line, its sum line and its body. The
    /// one exception is the layout tag `v3 `, whose change makes the
    /// header one of another layout: a stale-format miss, never a hit.
    #[test]
    fn every_single_byte_change_is_detected() {
        let dir = scratch("cache-flip");
        let (key, bytes) = stored_ycsb_entry(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(parse_entry(&bytes, &key.ident), Parsed::Hit(_)));
        let tag = "pagesim-cell ".len()..ENTRY_HEADER.len();
        for at in 0..bytes.len() {
            for xor in [0x01, 0x80] {
                let mut flipped = bytes.clone();
                flipped[at] ^= xor;
                let read = parse_entry(&flipped, &key.ident);
                let ok = match read {
                    Parsed::Miss => tag.contains(&at),
                    Parsed::Corrupt => !tag.contains(&at),
                    Parsed::Hit(_) => false,
                };
                assert!(ok, "byte {at} xor {xor:#04x}");
            }
        }
    }

    /// A v2 entry (FNV-1a summed) is a plain miss: not corrupt, so not
    /// quarantined. The store path then rewrites it as v3, a hit.
    #[test]
    fn a_v2_entry_is_a_stale_miss_and_is_rewritten() {
        const V2: &[u8] = include_bytes!("../../tests/fixtures/cache_entry_v2.cell");
        let (ident_line, rest) = split_line(V2).unwrap();
        let (sum_line, body) = split_line(rest).unwrap();
        let fnv = fnv64(&[ident_line, b"\n", body].concat());
        assert_eq!(
            sum_line,
            format!("sum {fnv:016x}").as_bytes(),
            "a well-formed v2 entry"
        );

        let dir = scratch("cache-v2");
        let key = TrialKey {
            hash: 0x2,
            ident: "fixture-cell trial 0".to_owned(),
        };
        let path = key.path(&dir);
        fs::write(&path, V2).unwrap();
        assert!(matches!(load_keyed(&dir, &key), CacheRead::Miss));
        assert_eq!(fs::read(&path).unwrap(), V2, "left in place");
        let metrics = RunMetrics::from_cache_bytes(body).unwrap();
        store_keyed(&dir, &key, &metrics, 0);
        assert!(fs::read(&path)
            .unwrap()
            .starts_with(ENTRY_HEADER.as_bytes()));
        assert!(matches!(load_keyed(&dir, &key), CacheRead::Hit(_)));
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            1,
            "nothing quarantined"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reads_reuse_the_buffer_and_grow_past_it() {
        let dir = std::env::temp_dir().join(format!("pagesim-cache-read-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry");
        let mut buf = Vec::new();
        for len in [10usize, 40_000, 3] {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
            fs::write(&path, &bytes).unwrap();
            assert_eq!(read_entry(&path, &mut buf).unwrap(), &bytes[..]);
        }
        assert!(buf.len() >= 40_000, "the buffer keeps its room");
        assert!(read_entry(&dir.join("missing"), &mut buf).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
