//! Checkpoint sinks: where long runs park resumable state.
//!
//! A checkpointed run (the load engine's chunk windows, the governance
//! history's submitter windows) periodically serialises its watermark plus
//! merged partial state through the vendored serde shim into a
//! [`CheckpointSink`]. The checkpointed entry point continues from the
//! sink's latest checkpoint (or starts fresh on an empty sink), so killing
//! the run and calling it again against the same sink produces a final
//! report field-for-field equal to an uninterrupted run — the property the
//! checkpoint test suites pin by killing at every boundary.
//!
//! Two sinks are provided:
//!
//! * [`MemorySink`] — an `Arc<Mutex<Vec<Value>>>`; clones share storage, so
//!   a test can hand the same sink to the interrupted and resumed runs, and
//!   [`MemorySink::truncated`] replays "the process died after checkpoint
//!   k" by keeping only a prefix;
//! * [`FileSink`] — one JSON checkpoint per line, appended to a file on
//!   disk, surviving the process itself.
//!
//! A sink holds a monotone sequence of self-contained values where the
//! latest one is sufficient to continue.

use serde::Value;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// A destination for resumable run state. `store` appends one checkpoint;
/// `latest` answers the resume path. Implementations must tolerate
/// concurrent stores (runs checkpoint from the supervising thread only,
/// but sinks are shared across test harness threads).
pub trait CheckpointSink: Send + Sync {
    /// Append one serialised checkpoint.
    fn store(&self, checkpoint: Value);

    /// The most recent checkpoint, if any.
    fn latest(&self) -> Option<Value>;

    /// Number of checkpoints stored so far.
    fn count(&self) -> usize;
}

/// In-memory checkpoint storage; clones share the same slots.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    slots: Arc<Mutex<Vec<Value>>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A new independent sink holding only the first `keep` checkpoints —
    /// the "process was killed after checkpoint `keep - 1`" fixture the
    /// resume property tests iterate over.
    pub fn truncated(&self, keep: usize) -> MemorySink {
        let slots = self.lock();
        MemorySink {
            slots: Arc::new(Mutex::new(
                slots.iter().take(keep).cloned().collect::<Vec<_>>(),
            )),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Value>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl CheckpointSink for MemorySink {
    fn store(&self, checkpoint: Value) {
        self.lock().push(checkpoint);
    }

    fn latest(&self) -> Option<Value> {
        self.lock().last().cloned()
    }

    fn count(&self) -> usize {
        self.lock().len()
    }
}

/// On-disk checkpoint storage: one JSON value per line, appended. The file
/// is the durable twin of [`MemorySink`] — `latest` re-reads the last
/// parseable line, so a resumed process needs nothing but the path.
#[derive(Debug, Clone)]
pub struct FileSink {
    path: PathBuf,
}

impl FileSink {
    /// A sink appending to `path` (created on first store).
    pub fn new(path: impl AsRef<Path>) -> FileSink {
        FileSink {
            path: path.as_ref().to_path_buf(),
        }
    }

    /// The file the sink appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn lines(&self) -> Vec<Value> {
        let Ok(text) = std::fs::read_to_string(&self.path) else {
            return Vec::new();
        };
        text.lines()
            .filter(|line| !line.trim().is_empty())
            .filter_map(|line| serde_json::from_str::<Value>(line).ok())
            .collect()
    }
}

impl CheckpointSink for FileSink {
    fn store(&self, checkpoint: Value) {
        let line = serde_json::to_string(&checkpoint).expect("checkpoint value serialises");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.path)
            .expect("open checkpoint file");
        // A kill mid-write leaves a torn final line with no newline: start a
        // fresh line, or this record would be glued onto the fragment and
        // be unparseable too.
        let torn = file.metadata().expect("stat checkpoint file").len() > 0 && {
            let mut last = [0u8];
            file.seek(SeekFrom::End(-1))
                .and_then(|_| file.read_exact(&mut last))
                .expect("read checkpoint file tail");
            last[0] != b'\n'
        };
        let separator = if torn { "\n" } else { "" };
        writeln!(file, "{separator}{line}").expect("append checkpoint line");
    }

    fn latest(&self) -> Option<Value> {
        self.lines().pop()
    }

    fn count(&self) -> usize {
        self.lines().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[test]
    fn memory_sink_stores_in_order_and_shares_across_clones() {
        let sink = MemorySink::new();
        assert!(sink.latest().is_none());
        assert_eq!(sink.count(), 0);
        let clone = sink.clone();
        clone.store(1u64.serialize());
        sink.store(2u64.serialize());
        assert_eq!(sink.count(), 2);
        assert_eq!(sink.latest().and_then(|v| v.as_u64()), Some(2));
    }

    #[test]
    fn truncated_replays_a_kill_after_checkpoint_k() {
        let sink = MemorySink::new();
        for i in 0..5u64 {
            sink.store(i.serialize());
        }
        let killed = sink.truncated(2);
        assert_eq!(killed.count(), 2);
        assert_eq!(killed.latest().and_then(|v| v.as_u64()), Some(1));
        // The truncated sink is independent: storing to it leaves the
        // original untouched.
        killed.store(99u64.serialize());
        assert_eq!(sink.count(), 5);
    }

    #[test]
    fn file_sink_round_trips_through_disk() {
        let path = std::env::temp_dir().join(format!(
            "rws-checkpoint-test-{}-{}.jsonl",
            std::process::id(),
            "file_sink_round_trips"
        ));
        let _ = std::fs::remove_file(&path);
        let sink = FileSink::new(&path);
        assert!(sink.latest().is_none());
        sink.store(7u64.serialize());
        sink.store("watermark".to_string().serialize());
        assert_eq!(sink.count(), 2);
        assert_eq!(
            sink.latest().as_ref().and_then(|v| v.as_str()),
            Some("watermark")
        );
        // A second sink over the same path sees the same history — the
        // resume-after-process-death path.
        let resumed = FileSink::new(&path);
        assert_eq!(resumed.count(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_sink_store_after_a_torn_final_line_starts_a_fresh_line() {
        let path = std::env::temp_dir().join(format!(
            "rws-checkpoint-test-{}-{}.jsonl",
            std::process::id(),
            "file_sink_torn_line"
        ));
        let _ = std::fs::remove_file(&path);
        let sink = FileSink::new(&path);
        sink.store(1u64.serialize());
        sink.store(2u64.serialize());
        // The process is killed halfway through writing a third record.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(file, "{{\"seed\": 3, \"wat").unwrap();
        drop(file);
        assert_eq!(sink.latest().and_then(|v| v.as_u64()), Some(2));
        // The first store after resuming must not be glued onto the
        // fragment, or it would be lost too.
        sink.store(3u64.serialize());
        assert_eq!(sink.latest().and_then(|v| v.as_u64()), Some(3));
        assert_eq!(sink.count(), 3);
        std::fs::remove_file(&path).unwrap();
    }
}
