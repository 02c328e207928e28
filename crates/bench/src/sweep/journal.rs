//! Append-only JSONL run journal: the sweep's checkpoint for resume.
//!
//! One line per event. Lines are group-committed: [`Journal::trial`]
//! appends to a buffer, and [`Journal::commit`] writes the buffer with one
//! `write_all` and one `sync_data`. The sweep's collector commits before
//! it next waits for an outcome, so every outcome it has received is
//! synced by then. A crash loses at most the outcomes received since the
//! last commit; each of those is re-served from its already-durable cache
//! entry, or re-run. The run header and the end line commit at once, and
//! dropping the journal commits what is left:
//!
//! ```text
//! {"v":1,"kind":"run","cells":12,"trials":120,"figs":"fig1 fig2","resume":false}
//! {"v":1,"kind":"trial","hash":"89ab...","ident":"tpch/clock/Ssd/r0.50 trial 0","status":"done","attempts":1,"ms":41}
//! {"v":1,"kind":"trial","hash":"0f3c...","ident":"...","status":"failed","detail":"panic: boom","attempts":3,"ms":12}
//! {"v":1,"kind":"end","done":120,"failed":1,"aborted":false}
//! ```
//!
//! `hash` is the trial content hash ([`Bench::trial_content_hash`]): it
//! folds in config, seed, trial index, footprint and format versions, so a
//! journal from a different scale or crate version simply matches nothing
//! on resume — stale journals are harmless, never wrong. `status` is
//! `done` (metrics merged; `attempts:0` means served from cache),
//! `done-degraded` (merged, but the metrics carry a `SimError` — the fault
//! experiments plot these), or `failed` (a typed [`CellFailure`] was
//! recorded; `detail` carries the classification).
//!
//! Resume reads the journal back ([`load_prior`]); trials recorded `done`
//! whose cache entry is still present and intact are served from cache and
//! counted in `SweepStats::resumed`, everything else — failed, missing, or
//! quarantined — re-runs. Because the merge is content-keyed and
//! canonical-ordered, a resumed sweep's figure output is byte-identical to
//! an uninterrupted one.
//!
//! [`Bench::trial_content_hash`]: pagesim::experiments::Bench::trial_content_hash
//! [`CellFailure`]: pagesim::CellFailure

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use pagesim_trace::json::{escape, parse};

/// Journal line format version.
const JOURNAL_VERSION: u32 = 1;

/// The journal writer. All writes are best-effort: journalling failures
/// degrade to "no checkpoint", never abort the sweep.
pub struct Journal {
    file: fs::File,
    /// Lines appended since the last [`Journal::commit`].
    pending: String,
}

impl Journal {
    /// Opens the journal: truncating for a fresh run, appending when
    /// resuming (the prior run's lines are the resume state).
    pub fn open(path: &Path, resume: bool) -> Option<Journal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = fs::create_dir_all(parent);
            }
        }
        let file = if resume {
            fs::OpenOptions::new().create(true).append(true).open(path)
        } else {
            fs::File::create(path)
        };
        file.ok().map(|file| Journal {
            file,
            pending: String::new(),
        })
    }

    /// Makes every appended line durable: one `write_all` of whole lines
    /// (atomic enough for a local file), then one `sync_data`. A no-op when
    /// nothing is pending.
    pub fn commit(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let _ = self.file.write_all(self.pending.as_bytes());
        let _ = self.file.sync_data();
        self.pending.clear();
    }

    /// The run header: what was planned. Committed at once.
    pub fn run_header(&mut self, cells: usize, trials: usize, figs: &[String], resume: bool) {
        let _ = writeln!(
            self.pending,
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"run\",\"cells\":{cells},\"trials\":{trials},\
             \"figs\":\"{}\",\"resume\":{resume}}}",
            escape(&figs.join(" "))
        );
        self.commit();
    }

    /// One trial outcome, appended to the buffer: durable at the next
    /// [`Journal::commit`].
    pub fn trial(
        &mut self,
        hash: u64,
        ident: &str,
        status: &str,
        detail: Option<&str>,
        attempts: u32,
        ms: u64,
    ) {
        let _ = write!(
            self.pending,
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"trial\",\"hash\":\"{hash:016x}\",\
             \"ident\":\"{}\",\"status\":\"{status}\"",
            escape(ident)
        );
        if let Some(d) = detail {
            let _ = write!(self.pending, ",\"detail\":\"{}\"", escape(d));
        }
        let _ = writeln!(self.pending, ",\"attempts\":{attempts},\"ms\":{ms}}}");
    }

    /// The run trailer: what actually happened. Committed at once, with
    /// any trial lines still pending.
    pub fn end(&mut self, done: usize, failed: usize, aborted: bool) {
        let _ = writeln!(
            self.pending,
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"end\",\"done\":{done},\
             \"failed\":{failed},\"aborted\":{aborted}}}"
        );
        self.commit();
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.commit();
    }
}

/// What a previous run's journal says about each trial, keyed by content
/// hash. Later lines win, so a trial that failed and then succeeded on a
/// prior resume reads as done.
#[derive(Debug, Default)]
pub struct PriorRun {
    done: BTreeMap<u64, bool>,
}

impl PriorRun {
    /// Whether the journal recorded this trial as completed (merged).
    pub fn is_done(&self, hash: u64) -> bool {
        self.done.get(&hash).copied().unwrap_or(false)
    }
}

/// Reads a journal back into resume state. An unreadable file yields an
/// empty prior; a malformed line (a torn last line, or one that is not
/// UTF-8) is skipped alone — resume then just re-runs more.
pub fn load_prior(path: &Path) -> PriorRun {
    let mut prior = PriorRun::default();
    let Ok(bytes) = fs::read(path) else {
        return prior;
    };
    for line in bytes.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Ok(line) = std::str::from_utf8(line) else {
            continue;
        };
        let Ok(rec) = parse(line) else { continue };
        let field = |key| rec.get(key).and_then(|v| v.as_str());
        if field("kind") != Some("trial") {
            continue;
        }
        let Some(hash) = field("hash").and_then(|h| u64::from_str_radix(h, 16).ok()) else {
            continue;
        };
        let done = matches!(field("status"), Some("done" | "done-degraded"));
        prior.done.insert(hash, done);
    }
    prior
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_last_line_wins() {
        let dir = std::env::temp_dir().join(format!("pagesim-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.jsonl");
        {
            let mut j = Journal::open(&path, false).expect("open");
            j.run_header(2, 4, &["fig1".to_owned()], false);
            j.trial(0xA, "cell a trial 0", "failed", Some("panic: x"), 3, 10);
            j.trial(0xB, "cell a trial 1", "done", None, 1, 20);
            j.end(2, 1, true);
        }
        {
            // Resume appends; the retried trial now succeeds.
            let mut j = Journal::open(&path, true).expect("append");
            j.trial(0xA, "cell a trial 0", "done", None, 1, 12);
        }
        let prior = load_prior(&path);
        assert!(prior.is_done(0xA), "later line wins");
        assert!(prior.is_done(0xB));
        assert!(!prior.is_done(0xC));
        assert_eq!(prior.done.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trial_lines_are_durable_only_after_a_commit() {
        let dir = std::env::temp_dir().join(format!("pagesim-journal3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.jsonl");
        let read = || std::fs::read_to_string(&path).expect("journal file");
        let mut j = Journal::open(&path, false).expect("open");
        j.run_header(1, 3, &["fig1".to_owned()], false);
        assert_eq!(read().lines().count(), 1, "the header commits at once");
        j.trial(0x1, "cell trial 0", "done", None, 0, 1);
        assert!(
            !read().contains("\"kind\":\"trial\""),
            "buffered until commit"
        );
        j.commit();
        assert_eq!(read().lines().count(), 2);
        j.trial(0x2, "cell trial 1", "done", None, 0, 1);
        j.end(2, 0, false);
        assert_eq!(read().lines().count(), 4, "end commits the pending line");
        j.trial(0x3, "cell trial 2", "done", None, 0, 1);
        assert_eq!(read().lines().count(), 4);
        drop(j);
        let text = read();
        assert_eq!(text.lines().count(), 5, "drop commits what is left");
        assert!(text
            .lines()
            .last()
            .is_some_and(|l| l.contains("\"hash\":\"0000000000000003\"")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_counts_as_done() {
        let dir = std::env::temp_dir().join(format!("pagesim-journal2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.jsonl");
        let mut j = Journal::open(&path, false).expect("open");
        j.trial(
            0x1,
            "cell",
            "done-degraded",
            Some("sim error: deadlock"),
            1,
            5,
        );
        drop(j);
        assert!(load_prior(&path).is_done(0x1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Escaped text inside `ident` or `detail` is data, not structure: a
    /// failed trial whose strings spell out other fields still reads as
    /// failed, and a torn last line is skipped.
    #[test]
    fn escaped_fields_and_torn_lines_are_not_misread() {
        let dir = std::env::temp_dir().join(format!("pagesim-journal4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.jsonl");
        let mut j = Journal::open(&path, false).expect("open");
        j.trial(
            0x1,
            "cell \"status\":\"done\" trial 0",
            "failed",
            Some("panic: \"kind\":\"trial\",\"status\":\"done\""),
            3,
            5,
        );
        j.trial(0x2, "cell trial 1", "done", None, 1, 5);
        drop(j);
        let text = std::fs::read_to_string(&path).expect("journal file");
        std::fs::write(&path, &text[..text.len() - 10]).expect("tear the last line");
        let prior = load_prior(&path);
        assert!(!prior.is_done(0x1), "escaped text read as a status");
        assert!(!prior.is_done(0x2), "a torn line read as done");
        assert_eq!(prior.done.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
