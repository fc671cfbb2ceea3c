//! The checkpoint journal: the crash-consistent record of completed jobs.
//!
//! One `done` line per completed job — job id plus the hex-armored
//! [`JobResult`] payload — appended and
//! OS-flushed *after* the job's store records. A killed campaign
//! therefore restarts from exactly the set of jobs whose `done` lines
//! made it to disk; a job cut down mid-append is simply re-run (its
//! store appends are at-least-once and deduplicated on read).
//!
//! The header pins the spec fingerprint: resuming a journal against an
//! edited spec is rejected, because job ids are only meaningful for the
//! plan they were derived from. Journal *line order* is completion
//! order, which is scheduling-dependent — resume consumes the journal
//! as a set, so the order never influences the final report.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

use crate::job::{JobId, JobResult};
use crate::wire::{from_hex, to_hex};

/// Journal format version (major; readers reject anything else).
const VERSION: &str = "v1";

/// An open journal being appended to by a running campaign.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Creates a fresh journal with the version/fingerprint header.
    pub fn create(path: &Path, fingerprint: u64) -> std::io::Result<Journal> {
        let mut file = File::create(path)?;
        writeln!(
            file,
            "symsc-campaign-journal {VERSION} fp={fingerprint:016x}"
        )?;
        Ok(Journal { file })
    }

    /// Reopens an existing journal for appending (header already
    /// validated by [`read_journal`]).
    pub fn open_append(path: &Path) -> std::io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal { file })
    }

    /// Appends one completed job. The single `write(2)` per line is the
    /// checkpoint boundary a kill can land on.
    pub fn append_done(&mut self, id: JobId, result: &JobResult) -> std::io::Result<()> {
        let line = format!("done {id} {}\n", to_hex(&result.encode()));
        self.file.write_all(line.as_bytes())
    }
}

/// Reads a journal: validates the header against `fingerprint` and
/// returns the completed results by job id. A torn final line (the kill
/// landed mid-append) is tolerated and dropped; any other malformation
/// is an error.
pub fn read_journal(path: &Path, fingerprint: u64) -> Result<BTreeMap<JobId, JobResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let ends_complete = text.ends_with('\n');
    let mut lines = text.lines().peekable();
    let header = lines.next().ok_or("empty journal")?;
    let mut parts = header.split(' ');
    if parts.next() != Some("symsc-campaign-journal") {
        return Err(format!("not a campaign journal: header {header:?}"));
    }
    let version = parts.next().unwrap_or_default();
    if version != VERSION {
        return Err(format!(
            "journal version {version:?} is not supported (want {VERSION})"
        ));
    }
    let expected = format!("fp={fingerprint:016x}");
    let fp = parts.next().unwrap_or_default();
    if fp != expected {
        return Err(format!(
            "journal belongs to a different campaign ({fp}, want {expected})"
        ));
    }
    let mut done = BTreeMap::new();
    while let Some(line) = lines.next() {
        if line.is_empty() {
            continue;
        }
        let last = lines.peek().is_none();
        let parse = || -> Result<(JobId, JobResult), String> {
            let fields: Vec<&str> = line.split(' ').collect();
            let [tag, id, hex] = fields.as_slice() else {
                return Err(format!("malformed journal line {line:?}"));
            };
            if *tag != "done" {
                return Err(format!("unknown journal record {tag:?}"));
            }
            let id: JobId = id.parse().map_err(|_| format!("bad job id {id:?}"))?;
            let payload = from_hex(hex).map_err(|e| e.to_string())?;
            let result = JobResult::decode(&payload).map_err(|e| e.to_string())?;
            Ok((id, result))
        };
        match parse() {
            Ok((id, result)) => {
                if done.insert(id, result).is_some() {
                    return Err(format!("job {line:?} journaled twice"));
                }
            }
            // A torn tail is the expected shape of a mid-append kill.
            Err(_) if last && !ends_complete => break,
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("symsc_campaign_journal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn result(n: u64) -> JobResult {
        JobResult::Confirm {
            findings: n,
            confirmed_trace: n,
            confirmed_replay: n,
        }
    }

    #[test]
    fn journal_round_trips_and_pins_the_fingerprint() {
        let path = tmp("roundtrip.log");
        let mut journal = Journal::create(&path, 0xFEED).unwrap();
        journal.append_done(3, &result(1)).unwrap();
        journal.append_done(0, &result(2)).unwrap();
        let done = read_journal(&path, 0xFEED).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[&3], result(1));
        assert_eq!(done[&0], result(2));
        assert!(read_journal(&path, 0xBEEF)
            .unwrap_err()
            .contains("different campaign"));
    }

    #[test]
    fn a_torn_tail_is_dropped_but_interior_corruption_is_fatal() {
        let path = tmp("torn.log");
        let mut journal = Journal::create(&path, 1).unwrap();
        journal.append_done(0, &result(1)).unwrap();
        // Simulate a kill mid-append: a truncated last line, no newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("done 1 abc");
        std::fs::write(&path, &text).unwrap();
        let done = read_journal(&path, 1).unwrap();
        assert_eq!(done.len(), 1);
        // The same garbage in the interior (newline-terminated) is fatal.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push('\n');
        text.push_str(&format!("done 2 {}\n", to_hex(&result(9).encode())));
        std::fs::write(&path, &text).unwrap();
        assert!(read_journal(&path, 1).is_err());
    }

    #[test]
    fn duplicate_done_records_are_rejected() {
        let path = tmp("dup.log");
        let mut journal = Journal::create(&path, 2).unwrap();
        journal.append_done(5, &result(1)).unwrap();
        journal.append_done(5, &result(1)).unwrap();
        assert!(read_journal(&path, 2).unwrap_err().contains("twice"));
    }
}
