//! Durable plan journal: crash recovery for the plan cache.
//!
//! A daemon started with `--journal FILE` appends every freshly
//! computed `(canonical key, rendered plan)` pair to an append-only
//! JSONL file and replays it on startup, warming the cache so a
//! `SIGKILL`ed daemon comes back serving the same plans — byte-identical,
//! because the journal stores the plan exactly as rendered and
//! [`Value`] rendering is deterministic.
//!
//! ## Frame format
//!
//! One record per line:
//!
//! ```text
//! <len> <fnv64-hex> <payload>\n
//! ```
//!
//! where `payload` is the compact JSON `{"key":…,"plan":…}`, `len` its
//! byte length and the checksum FNV-1a over the payload bytes. The
//! header makes replay robust against the one corruption an append-only
//! log actually suffers: a torn tail. A `SIGKILL` (or disk-full) can cut
//! the last record anywhere — short payload, missing newline, garbage
//! bytes — and replay simply stops at the first frame that fails its
//! length or checksum, keeping every intact record before it. Torn
//! frames are counted, never propagated.
//!
//! ## Compaction
//!
//! The journal grows by one record per cache miss forever, including
//! keys long since evicted. On drain the server rewrites the journal
//! from the live cache (newest-first), via a temp file + atomic rename,
//! so the next start replays only what the cache would hold anyway.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::{Arc, Mutex};

use madpipe_json::{write_str, Value};

use crate::server::lock_unpoisoned;

/// 64-bit FNV-1a: cheap, and stable across builds and hosts, which both
/// of its uses need — the journal's frame checksum, which is on disk, and
/// the router ring's placement of keys. Not cryptographic: it detects
/// torn frames, not adversaries (anyone who can forge a checksummed
/// record can also replace the whole file), and the ring only needs
/// uniformity.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What [`Journal::replay`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Intact records decoded (pre-dedup; the cache's insert-if-absent
    /// warming dedups repeated keys, keeping the *oldest* record —
    /// which for a given key is the one the daemon served first).
    pub recovered: usize,
    /// Frames discarded at the tail (0 on a clean file, 1 after a torn
    /// write; counts every undecodable trailing line).
    pub torn: usize,
}

/// An append-only, checksummed plan journal. All methods take `&self`;
/// the file handle lives behind a mutex so workers can append
/// concurrently.
pub struct Journal {
    path: String,
    file: Mutex<Option<File>>,
}

impl Journal {
    /// Open (creating if absent) the journal at `path` for appending.
    /// Existing records are untouched — call [`Journal::replay`] to read
    /// them.
    pub fn open(path: &str) -> std::io::Result<Journal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            path: path.to_string(),
            file: Mutex::new(Some(file)),
        })
    }

    /// The journal's path on disk.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Decode every intact record. Stops at the first frame that fails
    /// its length or checksum check — everything after a torn write is
    /// unreachable by construction (appends are sequential), so nothing
    /// valid is lost.
    pub fn replay(&self) -> (Vec<(String, Arc<Value>)>, ReplayStats) {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(_) => return (Vec::new(), ReplayStats::default()),
        };
        let mut entries = Vec::new();
        let mut stats = ReplayStats::default();
        let mut rest: &[u8] = &bytes;
        while !rest.is_empty() {
            match decode_frame(rest) {
                Some((key, plan, consumed)) => {
                    entries.push((key, Arc::new(plan)));
                    stats.recovered += 1;
                    rest = &rest[consumed..];
                }
                None => {
                    // Torn tail: count the undecodable remainder as one
                    // discarded frame per newline-delimited fragment and
                    // stop — later frames could only have been written
                    // after this one, so they cannot be intact.
                    stats.torn += rest
                        .split(|&b| b == b'\n')
                        .filter(|f| !f.is_empty())
                        .count();
                    break;
                }
            }
        }
        (entries, stats)
    }

    /// Append one record: `key` and its plan's compact JSON `plan`.
    /// Errors are returned, not retried — the caller counts them; a
    /// journal that stops persisting degrades recovery, never serving.
    pub fn append(&self, key: &str, plan: &str) -> std::io::Result<()> {
        let frame = encode_frame(key, plan);
        let mut guard = lock_unpoisoned(&self.file);
        match guard.as_mut() {
            Some(f) => f.write_all(frame.as_bytes()),
            None => Err(std::io::Error::other("journal closed")),
        }
    }

    /// Rewrite the journal to hold exactly `entries`, each a key and its
    /// plan's compact JSON (temp file + atomic rename, so a crash
    /// mid-compaction leaves either the old or the new journal, never a
    /// mix). The append handle is re-pointed at the new file.
    pub fn compact<'a>(
        &self,
        entries: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> std::io::Result<()> {
        let tmp_path = format!("{}.tmp", self.path);
        let mut guard = lock_unpoisoned(&self.file);
        {
            let mut tmp = File::create(&tmp_path)?;
            for (key, plan) in entries {
                tmp.write_all(encode_frame(key, plan).as_bytes())?;
            }
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        *guard = Some(OpenOptions::new().append(true).open(&self.path)?);
        Ok(())
    }
}

/// The frame of `{"key":…,"plan":…}`, written as the [`Value`] object of
/// those two members renders, around the plan's stored text.
fn encode_frame(key: &str, plan: &str) -> String {
    let mut payload = String::with_capacity(key.len() + plan.len() + 20);
    payload.push_str(r#"{"key":"#);
    write_str(&mut payload, key);
    payload.push_str(r#","plan":"#);
    payload.push_str(plan);
    payload.push('}');
    let sum = fnv1a(payload.as_bytes());
    format!("{} {sum:016x} {payload}\n", payload.len())
}

/// Decode the frame at the head of `bytes`. Returns the record and how
/// many bytes it consumed (including the trailing newline), or `None`
/// if the head is not an intact frame.
fn decode_frame(bytes: &[u8]) -> Option<(String, Value, usize)> {
    let sp1 = bytes.iter().position(|&b| b == b' ')?;
    let len: usize = std::str::from_utf8(&bytes[..sp1]).ok()?.parse().ok()?;
    let after_len = &bytes[sp1 + 1..];
    let sp2 = after_len.iter().position(|&b| b == b' ')?;
    let sum = u64::from_str_radix(std::str::from_utf8(&after_len[..sp2]).ok()?, 16).ok()?;
    let payload_start = sp1 + 1 + sp2 + 1;
    let payload_end = payload_start.checked_add(len)?;
    // The payload must be fully present and followed by its newline.
    if payload_end >= bytes.len() || bytes[payload_end] != b'\n' {
        return None;
    }
    let payload = &bytes[payload_start..payload_end];
    if fnv1a(payload) != sum {
        return None;
    }
    let v = Value::parse(std::str::from_utf8(payload).ok()?).ok()?;
    let key = v.field("key").ok()?.as_str().ok()?.to_string();
    let plan = v.field("plan").ok()?.clone();
    Some((key, plan, payload_end + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!(
                "madpipe-journal-{}-{name}.jsonl",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned()
    }

    fn plan(i: u64) -> Value {
        Value::Object(vec![
            ("period".into(), Value::Float(0.125 * i as f64)),
            ("stages".into(), Value::Array(vec![Value::UInt(i)])),
        ])
    }

    fn text(i: u64) -> String {
        plan(i).to_string_compact()
    }

    #[test]
    fn round_trip_preserves_records_and_rendering() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        for i in 0..5 {
            j.append(&format!("key-{i}"), &text(i)).unwrap();
        }
        let (entries, stats) = j.replay();
        assert_eq!(
            stats,
            ReplayStats {
                recovered: 5,
                torn: 0
            }
        );
        assert_eq!(entries.len(), 5);
        for (i, (key, p)) in entries.iter().enumerate() {
            assert_eq!(key, &format!("key-{i}"));
            // Byte-identity: the replayed plan renders exactly as the
            // original did — the property cache warming relies on.
            assert_eq!(p.to_string_compact(), plan(i as u64).to_string_compact());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_frame_is_the_key_and_plan_object_as_a_value_renders_it() {
        for key in ["plain", "q\"uote\\back\nline\u{1}", "層-λ 🚀"] {
            let tree = Value::Object(vec![
                ("key".into(), Value::Str(key.into())),
                ("plan".into(), plan(3)),
            ])
            .to_string_compact();
            let sum = fnv1a(tree.as_bytes());
            let expected = format!("{} {sum:016x} {tree}\n", tree.len());
            assert_eq!(encode_frame(key, &text(3)), expected, "{key:?}");
        }
    }

    #[test]
    fn torn_tail_keeps_intact_prefix_at_every_cut_point() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        for i in 0..3 {
            j.append(&format!("k{i}"), &text(i)).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Cut the file at every byte offset inside the last record: the
        // first two records must always survive, the third never half-
        // decodes.
        let second_end = {
            let mut seen = 0;
            full.iter()
                .position(|&b| {
                    if b == b'\n' {
                        seen += 1;
                    }
                    seen == 2
                })
                .unwrap()
                + 1
        };
        for cut in second_end..full.len() - 1 {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (entries, stats) = Journal::open(&path).unwrap().replay();
            assert_eq!(entries.len(), 2, "cut at {cut}");
            assert_eq!(stats.recovered, 2);
            if cut == second_end {
                // Cut exactly on the record boundary: indistinguishable
                // from a clean two-record file, nothing is torn.
                assert_eq!(stats.torn, 0);
            } else {
                assert!(stats.torn >= 1, "cut at {cut} must report a torn frame");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_and_checksum_corruption_stop_replay_cleanly() {
        let path = tmp("garbage");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.append("good", &text(1)).unwrap();
        // Arbitrary trailing garbage, including invalid UTF-8.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"12 deadbeef \xff\xfe not json\n");
        std::fs::write(&path, &bytes).unwrap();
        let (entries, stats) = Journal::open(&path).unwrap().replay();
        assert_eq!(entries.len(), 1);
        assert_eq!(stats.torn, 1);

        // Flip one payload byte of an otherwise well-framed record: the
        // checksum catches it.
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.append("good", &text(1)).unwrap();
        j.append("flipped", &text(2)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (entries, stats) = Journal::open(&path).unwrap().replay();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "good");
        assert_eq!(stats.torn, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_rewrites_and_appends_keep_working() {
        let path = tmp("compact");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        for i in 0..10 {
            j.append(&format!("k{i}"), &text(i)).unwrap();
        }
        let keep = [("k3", text(3)), ("k7", text(7))];
        j.compact(keep.iter().map(|(k, p)| (*k, p.as_str())))
            .unwrap();
        let (entries, stats) = j.replay();
        assert_eq!(
            stats,
            ReplayStats {
                recovered: 2,
                torn: 0
            }
        );
        assert_eq!(entries[0].0, "k3");
        assert_eq!(entries[1].0, "k7");
        // The append handle survived the rename swap.
        j.append("post", &text(11)).unwrap();
        let (entries, _) = j.replay();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[2].0, "post");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_missing_files_replay_to_nothing() {
        let path = tmp("empty");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        let (entries, stats) = j.replay();
        assert!(entries.is_empty());
        assert_eq!(stats, ReplayStats::default());
        let _ = std::fs::remove_file(&path);
    }
}
