//! Append-only JSONL run journal: the sweep's write-only audit log.
//!
//! One line per event. Lines are group-committed: [`Journal::trial`]
//! appends to a buffer, and [`Journal::commit`] writes the buffer with one
//! `write_all` and one `sync_data`. The sweep's collector commits before
//! it next waits for an outcome, so every outcome it has received is
//! synced by then. The run header and the end line commit at once, and
//! dropping the journal commits what is left:
//!
//! ```text
//! {"v":1,"kind":"run","cells":12,"trials":120,"figs":"fig1 fig2","resume":false}
//! {"v":1,"kind":"trial","hash":"89ab...","ident":"tpch/clock/Ssd/r0.50 trial 0","status":"done","attempts":1,"ms":41}
//! {"v":1,"kind":"trial","hash":"0f3c...","ident":"...","status":"failed","detail":"panic: boom","attempts":3,"ms":12}
//! {"v":1,"kind":"end","done":120,"failed":1,"aborted":false}
//! ```
//!
//! `hash` is the trial content hash ([`Bench::trial_content_hash`]), the
//! same key the cell cache files the trial under. `status` is `done`
//! (metrics merged; `attempts:0` means served from cache),
//! `done-degraded` (merged, but the metrics carry a `SimError` — the fault
//! experiments plot these), or `failed` (a typed [`CellFailure`] was
//! recorded; `detail` carries the classification).
//!
//! Nothing reads the journal back. The cell cache is the checkpoint: an
//! interrupted sweep continues when it is rerun on the same cache
//! directory, whatever the journal says. The header's `resume` field is
//! always `false` from the sweep.
//!
//! [`Bench::trial_content_hash`]: pagesim::experiments::Bench::trial_content_hash
//! [`CellFailure`]: pagesim::CellFailure

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use pagesim_trace::json::escape;

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
    /// Opens the journal: truncating it, or keeping its lines and appending
    /// when `append` is set.
    pub fn open(path: &Path, append: bool) -> Option<Journal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = fs::create_dir_all(parent);
            }
        }
        let file = if append {
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

    /// The run header: what was planned. Committed at once. `resume` is
    /// written as the header's `resume` field.
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

#[cfg(test)]
mod tests {
    use super::*;
    use pagesim_trace::json::parse;

    /// A fresh journal path in its own directory.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pagesim-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join("j.jsonl")
    }

    fn cleanup(path: &Path) {
        if let Some(dir) = path.parent() {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn every_written_line_parses() {
        let path = scratch("parse");
        {
            let mut j = Journal::open(&path, false).expect("open");
            j.run_header(2, 4, &["fig1".to_owned(), "fig\"2".to_owned()], false);
            j.trial(0xA, "cell a trial 0", "failed", Some("panic: x\ny"), 3, 10);
            j.trial(0xB, "cell a trial 1", "done", None, 0, 20);
            j.trial(0xC, "cell b trial 0", "done-degraded", Some("oom"), 1, 5);
            j.end(3, 1, true);
        }
        let text = std::fs::read_to_string(&path).expect("journal file");
        let kinds: Vec<String> = text
            .lines()
            .map(|line| {
                let rec = parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(rec.get("v").and_then(|v| v.as_u64()), Some(1), "{line}");
                rec.get("kind")
                    .and_then(|k| k.as_str())
                    .expect("kind")
                    .to_owned()
            })
            .collect();
        assert_eq!(kinds, ["run", "trial", "trial", "trial", "end"]);
        let header = parse(text.lines().next().expect("header")).expect("header parses");
        assert_eq!(
            header.get("figs").and_then(|f| f.as_str()),
            Some("fig1 fig\"2")
        );
        assert_eq!(header.get("resume").and_then(|r| r.as_bool()), Some(false));
        cleanup(&path);
    }

    /// Escaped text inside `ident` or `detail` is data, not structure: a
    /// failed trial whose strings spell out other fields reads back with
    /// its own status and those strings intact.
    #[test]
    fn escaped_fields_read_back_as_data() {
        let path = scratch("escape");
        let ident = "cell \"status\":\"done\" trial 0";
        let detail = "panic: \"kind\":\"trial\",\"status\":\"done\"";
        {
            let mut j = Journal::open(&path, false).expect("open");
            j.trial(0x1, ident, "failed", Some(detail), 3, 5);
        }
        let text = std::fs::read_to_string(&path).expect("journal file");
        let [line] = text.lines().collect::<Vec<_>>()[..] else {
            panic!("one line expected:\n{text}");
        };
        let rec = parse(line).expect("line parses");
        let field = |key| rec.get(key).and_then(|v| v.as_str());
        assert_eq!(field("status"), Some("failed"));
        assert_eq!(field("ident"), Some(ident));
        assert_eq!(field("detail"), Some(detail));
        assert_eq!(field("hash"), Some("0000000000000001"));
        cleanup(&path);
    }

    #[test]
    fn append_keeps_earlier_lines_and_a_fresh_open_truncates() {
        let path = scratch("append");
        let read = || std::fs::read_to_string(&path).expect("journal file");
        {
            let mut j = Journal::open(&path, false).expect("open");
            j.run_header(1, 2, &["fig1".to_owned()], false);
            j.trial(0xA, "cell trial 0", "done", None, 1, 10);
        }
        {
            let mut j = Journal::open(&path, true).expect("append");
            j.trial(0xB, "cell trial 1", "done", None, 1, 12);
        }
        let text = read();
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.contains("\"hash\":\"000000000000000a\""));
        assert!(text.contains("\"hash\":\"000000000000000b\""));
        {
            let mut j = Journal::open(&path, false).expect("reopen");
            j.trial(0xC, "cell trial 0", "done", None, 0, 1);
        }
        let text = read();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("\"hash\":\"000000000000000c\""));
        cleanup(&path);
    }

    #[test]
    fn trial_lines_are_durable_only_after_a_commit() {
        let path = scratch("commit");
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
        cleanup(&path);
    }
}
