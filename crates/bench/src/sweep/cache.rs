//! Content-addressed on-disk trial cache, format v2: checksummed entries
//! with corrupt-entry quarantine.
//!
//! One file per trial, named by the trial content hash. Layout:
//!
//! ```text
//! pagesim-cell v2 <ident>
//! sum <fnv64 over the ident line + body, 16 hex digits>
//! <RunMetrics cache text>
//! ```
//!
//! Reads never trust the file: the checksum is verified before the body is
//! parsed, and a mismatch — truncation, a flipped byte, a torn write that
//! slipped past rename — moves the entry aside to `<name>.quarantine`
//! (preserved for inspection), logs it to stderr, and reports
//! [`CacheRead::Quarantined`] so the trial recomputes and rewrites a fresh
//! entry. A checksum-valid entry whose ident differs is someone else's
//! cell behind a 64-bit file-name collision: that is a plain miss, not
//! corruption. Pre-v2 entries (no checksum) read as stale misses and are
//! overwritten on store.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use pagesim::experiments::{Bench, CellSpec};
use pagesim::RunMetrics;

/// On-disk entry layout version (independent of the body's
/// `CACHE_FORMAT_VERSION`, which is part of the content hash).
pub const CACHE_ENTRY_VERSION: u32 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over raw bytes — the same constants the config hash uses, but
/// untagged: this guards file integrity, not field aliasing.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash over more bytes: hashing `a` then `b` equals
/// hashing their concatenation.
fn fnv64_extend(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// An entry's checksum: FNV-1a over the ident line, `\n` and the body,
/// hashed in place rather than over a joined copy.
fn entry_sum(ident_line: &str, body: &str) -> u64 {
    let state = fnv64_extend(FNV_OFFSET, ident_line.as_bytes());
    fnv64_extend(fnv64_extend(state, b"\n"), body.as_bytes())
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

/// The cache file for one trial: named by the trial content hash, carrying
/// the human-readable identity for inspection and collision detection.
pub fn entry_path(dir: &Path, bench: &Bench, spec: &CellSpec) -> (PathBuf, String) {
    let hash = bench.trial_content_hash(&spec.query, spec.trial);
    let ident = format!("{} trial {}", spec.query.ident(), spec.trial);
    (dir.join(format!("{hash:016x}.cell")), ident)
}

/// Reads one trial's entry, verifying the checksum before parsing.
pub fn load(dir: &Path, bench: &Bench, spec: &CellSpec) -> CacheRead {
    let (path, ident) = entry_path(dir, bench, spec);
    let Ok(text) = fs::read_to_string(&path) else {
        return CacheRead::Miss;
    };
    match parse_entry(&text, &ident) {
        Parsed::Hit(m) => CacheRead::Hit(m),
        Parsed::Miss => CacheRead::Miss,
        Parsed::Corrupt => {
            quarantine(&path);
            CacheRead::Quarantined
        }
    }
}

enum Parsed {
    Hit(Box<RunMetrics>),
    Miss,
    Corrupt,
}

fn parse_entry(text: &str, expected_ident: &str) -> Parsed {
    let Some((ident_line, rest)) = text.split_once('\n') else {
        return Parsed::Corrupt;
    };
    let Some(ident) = ident_line.strip_prefix("pagesim-cell v2 ") else {
        // A recognizable pre-v2 header is a stale format (plain miss, the
        // store path overwrites it); anything else is corruption.
        return if ident_line.starts_with("pagesim-cell ") {
            Parsed::Miss
        } else {
            Parsed::Corrupt
        };
    };
    let Some((sum_line, body)) = rest.split_once('\n') else {
        return Parsed::Corrupt;
    };
    let Some(stored_sum) = sum_line
        .strip_prefix("sum ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
    else {
        return Parsed::Corrupt;
    };
    if entry_sum(ident_line, body) != stored_sum {
        return Parsed::Corrupt;
    }
    // Checksum-valid but a different cell: a 64-bit file-name collision
    // must read as a miss, never as someone else's metrics.
    if ident != expected_ident {
        return Parsed::Miss;
    }
    match RunMetrics::from_cache_text(body) {
        Some(m) => Parsed::Hit(Box::new(m)),
        // A verified body that fails to parse means a writer bug, not bit
        // rot — quarantine it too so it is preserved and never re-read.
        None => Parsed::Corrupt,
    }
}

/// Writes one trial's entry. Write-then-rename so a concurrent reader
/// never sees a torn entry; the spec index makes the temp name unique
/// within this sweep. Best-effort: any failure just means a future miss.
pub fn store(dir: &Path, bench: &Bench, spec: &CellSpec, metrics: &RunMetrics, tag: usize) {
    let (path, ident) = entry_path(dir, bench, spec);
    let tmp = path.with_extension(format!("tmp{tag}"));
    let ident_line = format!("pagesim-cell v{CACHE_ENTRY_VERSION} {ident}");
    let body = metrics.to_cache_text();
    let sum = entry_sum(&ident_line, &body);
    let write = || -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        writeln!(f, "{ident_line}")?;
        writeln!(f, "sum {sum:016x}")?;
        f.write_all(body.as_bytes())?;
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
        assert!(matches!(parse_entry("", "x"), Parsed::Corrupt));
        assert!(matches!(
            parse_entry("pagesim-cell old-ident\nbody\n", "old-ident"),
            Parsed::Miss
        ));
        assert!(matches!(
            parse_entry("not-a-cell\nbody\n", "x"),
            Parsed::Corrupt
        ));
        assert!(matches!(
            parse_entry("pagesim-cell v2 x\nsum zz\nbody\n", "x"),
            Parsed::Corrupt
        ));
    }

    #[test]
    fn checksum_guards_ident_and_body() {
        let ident_line = "pagesim-cell v2 my-cell";
        let body = "format 1\nend\n";
        let sum = fnv64(format!("{ident_line}\n{body}").as_bytes());
        let good = format!("{ident_line}\nsum {sum:016x}\n{body}");
        // Valid checksum, wrong expected ident: collision → miss.
        assert!(matches!(parse_entry(&good, "other-cell"), Parsed::Miss));
        // Any byte flip in ident or body breaks the checksum → corrupt.
        let bad = good.replace("my-cell", "my-celL");
        assert!(matches!(parse_entry(&bad, "my-celL"), Parsed::Corrupt));
        let bad = good.replace("format 1", "format 2");
        assert!(matches!(parse_entry(&bad, "my-cell"), Parsed::Corrupt));
    }
}
