//! The deduplicated, minimized finding corpus.
//!
//! One entry per [`Signature`]; each entry keeps the *smallest* known
//! reproduction — ordered by `(demo bytes, seed, strategy)`, with
//! demo-less recipes (strategies that cannot record) sorting last — and
//! evicts superseded demos from disk. Winner selection is a total order
//! over findings, so the corpus contents are independent of the order in
//! which workers race to report: the determinism half of the farm's
//! worker-count invariance.
//!
//! On disk, a corpus directory holds an `INDEX` file (one protocol-style
//! line per entry), a content-addressed [`DemoStore`] deduplicating the
//! stream blobs across entries, and one subdirectory per entry that has
//! a demo (stream files hard-linked out of the store, so entries stay
//! directly replayable with `srr replay --demo`):
//!
//! ```text
//! corpus/
//!   INDEX
//!   store/                          # blobs shared across entries
//!     INDEX blobs/<hash>
//!   race_counter_0,1_ww-a1b2c3d4/   # sanitized signature + fnv tag
//!     HEADER QUEUE SYSCALL ...      # links into store/blobs
//! ```

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use srr_replay::{Demo, DemoStore};

use crate::protocol::Finding;
use crate::signature::{escape, unescape, Signature};

/// The retained reproduction for one signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Workload that produced the finding.
    pub workload: String,
    /// Strategy of the winning reproduction.
    pub strategy: String,
    /// Seed of the winning reproduction.
    pub seed: u64,
    /// Demo size in bytes (`None` for recipe-only entries).
    pub demo_bytes: Option<u64>,
    /// Subdirectory (relative to the corpus dir) holding the demo.
    pub demo_subdir: Option<String>,
}

impl CorpusEntry {
    /// The minimization key: smaller is better, demo-less sorts last.
    fn rank(&self) -> (u64, u64, String) {
        (
            self.demo_bytes.unwrap_or(u64::MAX),
            self.seed,
            self.strategy.clone(),
        )
    }
}

/// What [`Corpus::offer`] did with a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offered {
    /// First reproduction of a new signature.
    Inserted,
    /// Smaller than the retained reproduction; the old one was evicted.
    Replaced,
    /// Not better than the retained reproduction; dropped.
    Kept,
}

/// The deduplicated corpus, optionally persisted to a directory.
#[derive(Debug, Default)]
pub struct Corpus {
    dir: Option<PathBuf>,
    store: Option<DemoStore>,
    entries: BTreeMap<Signature, CorpusEntry>,
}

impl Corpus {
    /// An unpersisted corpus (dedup and minimization only).
    #[must_use]
    pub fn in_memory() -> Corpus {
        Corpus::default()
    }

    /// Opens (or creates) an on-disk corpus, loading any existing INDEX
    /// so repeated farm sessions accumulate.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created or an existing INDEX
    /// is unreadable or malformed.
    pub fn open(dir: &Path) -> io::Result<Corpus> {
        std::fs::create_dir_all(dir)?;
        let mut corpus = Corpus {
            dir: Some(dir.to_owned()),
            store: Some(DemoStore::open(&dir.join("store"))?),
            entries: BTreeMap::new(),
        };
        let index = dir.join("INDEX");
        if index.exists() {
            let text = std::fs::read_to_string(&index)?;
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                let (sig, entry) = parse_index_line(line).map_err(io::Error::other)?;
                corpus.entries.insert(sig, entry);
            }
        }
        Ok(corpus)
    }

    /// Offers a finding; keeps it only when it is the first or the
    /// smallest reproduction of its signature. The winning demo (if any)
    /// is copied from the worker's spool path into the corpus directory
    /// and a superseded demo is deleted.
    ///
    /// # Errors
    ///
    /// Fails only on filesystem errors while copying or evicting demos.
    pub fn offer(&mut self, workload: &str, finding: &Finding) -> io::Result<Offered> {
        let candidate = CorpusEntry {
            workload: workload.to_owned(),
            strategy: finding.strategy.clone(),
            seed: finding.seed,
            demo_bytes: finding.demo_bytes,
            demo_subdir: None,
        };
        let verdict = match self.entries.get(&finding.signature) {
            None => Offered::Inserted,
            Some(cur) if candidate.rank() < cur.rank() => Offered::Replaced,
            Some(_) => Offered::Kept,
        };
        if verdict == Offered::Kept {
            return Ok(Offered::Kept);
        }
        let mut winner = candidate;
        if let Some(dir) = self.dir.clone() {
            // Evict the superseded demo before importing the new one.
            let old_sub = self
                .entries
                .get(&finding.signature)
                .and_then(|old| old.demo_subdir.clone());
            if let Some(sub) = old_sub {
                let _ = std::fs::remove_dir_all(dir.join(&sub));
                if let Some(store) = self.store.as_mut() {
                    let _ = store.remove(&sub);
                }
            }
            if let Some(spool) = &finding.demo_path {
                let subdir = entry_dir_name(&finding.signature);
                let dest = dir.join(&subdir);
                let _ = std::fs::remove_dir_all(&dest);
                // Loadable demos go through the content-addressed store
                // (streams shared byte-identically across entries) and
                // are materialized back as a replayable directory.
                // Spools that are not demo directories import verbatim.
                match (Demo::load_dir(Path::new(spool)), self.store.as_mut()) {
                    (Ok(demo), Some(store)) => {
                        store.insert(&subdir, &demo)?;
                        store.materialize(&subdir, &dest)?;
                    }
                    _ => copy_dir_flat(Path::new(spool), &dest)?,
                }
                winner.demo_subdir = Some(subdir);
            }
        }
        self.entries.insert(finding.signature.clone(), winner);
        self.save()?;
        Ok(verdict)
    }

    /// The content-addressed demo store backing an on-disk corpus
    /// (`None` for in-memory corpora).
    #[must_use]
    pub fn store(&self) -> Option<&DemoStore> {
        self.store.as_ref()
    }

    /// All signatures, sorted.
    #[must_use]
    pub fn signatures(&self) -> Vec<Signature> {
        self.entries.keys().cloned().collect()
    }

    /// Entry for a signature.
    #[must_use]
    pub fn entry(&self, sig: &Signature) -> Option<&CorpusEntry> {
        self.entries.get(sig)
    }

    /// All `(signature, entry)` pairs, sorted by signature.
    pub fn iter(&self) -> impl Iterator<Item = (&Signature, &CorpusEntry)> {
        self.entries.iter()
    }

    /// Number of distinct signatures.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rewrites the INDEX (no-op for in-memory corpora).
    ///
    /// # Errors
    ///
    /// Fails when the INDEX cannot be written.
    pub fn save(&self) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let mut text = String::new();
        for (sig, e) in &self.entries {
            text.push_str(&format!(
                "sig={} workload={} strategy={} seed={} demo_bytes={} demo={}\n",
                sig.encode(),
                escape(&e.workload),
                escape(&e.strategy),
                e.seed,
                e.demo_bytes.map_or("-".to_owned(), |b| b.to_string()),
                e.demo_subdir.as_deref().map_or("-".to_owned(), escape),
            ));
        }
        std::fs::write(dir.join("INDEX"), text)
    }
}

fn parse_index_line(line: &str) -> Result<(Signature, CorpusEntry), String> {
    let mut fields = BTreeMap::new();
    for tok in line.split_ascii_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("INDEX field `{tok}` is not key=value"))?;
        fields.insert(k.to_owned(), v.to_owned());
    }
    let get = |k: &str| {
        fields
            .get(k)
            .cloned()
            .ok_or_else(|| format!("INDEX line missing `{k}`: {line}"))
    };
    let opt = |v: String| if v == "-" { None } else { Some(v) };
    Ok((
        Signature::decode(&get("sig")?)?,
        CorpusEntry {
            workload: unescape(&get("workload")?)?,
            strategy: unescape(&get("strategy")?)?,
            seed: get("seed")?
                .parse()
                .map_err(|_| format!("bad seed in `{line}`"))?,
            demo_bytes: match opt(get("demo_bytes")?) {
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| format!("bad demo_bytes in `{line}`"))?,
                ),
                None => None,
            },
            demo_subdir: match opt(get("demo")?) {
                Some(v) => Some(unescape(&v)?),
                None => None,
            },
        },
    ))
}

/// Deterministic, filesystem-safe directory name for a signature:
/// sanitized prefix for readability plus an FNV-1a tag for uniqueness.
fn entry_dir_name(sig: &Signature) -> String {
    let encoded = sig.encode();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in encoded.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let safe: String = encoded
        .chars()
        .take(48)
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | ',' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}-{:08x}", hash as u32)
}

fn copy_dir_flat(src: &Path, dest: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dest)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), dest.join(entry.file_name()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SignatureKind;

    fn sig(detail: &str) -> Signature {
        Signature {
            kind: SignatureKind::Race,
            detail: detail.to_owned(),
        }
    }

    fn finding(detail: &str, seed: u64, bytes: Option<u64>, path: Option<&str>) -> Finding {
        Finding {
            task_id: 0,
            signature: sig(detail),
            strategy: "rnd".into(),
            seed,
            demo_bytes: bytes,
            demo_path: path.map(str::to_owned),
        }
    }

    #[test]
    fn keeps_the_smallest_reproduction() {
        let mut c = Corpus::in_memory();
        assert_eq!(
            c.offer("w", &finding("x|0,1|ww", 9, Some(500), None))
                .unwrap(),
            Offered::Inserted
        );
        // Bigger demo: dropped.
        assert_eq!(
            c.offer("w", &finding("x|0,1|ww", 1, Some(900), None))
                .unwrap(),
            Offered::Kept
        );
        // Smaller demo: replaces.
        assert_eq!(
            c.offer("w", &finding("x|0,1|ww", 30, Some(200), None))
                .unwrap(),
            Offered::Replaced
        );
        // Equal bytes, smaller seed: replaces (total order, no ties by
        // arrival).
        assert_eq!(
            c.offer("w", &finding("x|0,1|ww", 4, Some(200), None))
                .unwrap(),
            Offered::Replaced
        );
        assert_eq!(c.len(), 1);
        let e = c.entry(&sig("x|0,1|ww")).unwrap();
        assert_eq!((e.seed, e.demo_bytes), (4, Some(200)));
        // A recipe-only finding never beats a demo.
        assert_eq!(
            c.offer("w", &finding("x|0,1|ww", 0, None, None)).unwrap(),
            Offered::Kept
        );
    }

    #[test]
    fn winner_is_arrival_order_independent() {
        let findings = [
            finding("a|0,1|rw", 7, Some(300), None),
            finding("a|0,1|rw", 2, Some(300), None),
            finding("a|0,1|rw", 5, Some(100), None),
            finding("b|1,2|ww", 1, None, None),
        ];
        let mut orders = vec![findings.to_vec()];
        orders.push({
            let mut r = findings.to_vec();
            r.reverse();
            r
        });
        let mut winners = Vec::new();
        for order in orders {
            let mut c = Corpus::in_memory();
            for f in &order {
                c.offer("w", f).unwrap();
            }
            winners.push((c.signatures(), c.entry(&sig("a|0,1|rw")).cloned()));
        }
        assert_eq!(winners[0], winners[1]);
        assert_eq!(winners[0].1.as_ref().unwrap().seed, 5);
    }

    #[test]
    fn on_disk_corpus_imports_demos_and_evicts_losers() {
        let root = std::env::temp_dir().join(format!("srr-corpus-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spool_a = root.join("spool-a");
        let spool_b = root.join("spool-b");
        std::fs::create_dir_all(&spool_a).unwrap();
        std::fs::create_dir_all(&spool_b).unwrap();
        std::fs::write(spool_a.join("QUEUE"), "big demo contents").unwrap();
        std::fs::write(spool_b.join("QUEUE"), "small").unwrap();

        let dir = root.join("corpus");
        let mut c = Corpus::open(&dir).unwrap();
        c.offer("w", &finding("x|0,1|ww", 3, Some(17), spool_a.to_str()))
            .unwrap();
        let first_sub = c
            .entry(&sig("x|0,1|ww"))
            .unwrap()
            .demo_subdir
            .clone()
            .unwrap();
        assert!(dir.join(&first_sub).join("QUEUE").exists());

        // Smaller demo replaces and the old dir is gone (same signature →
        // same dir name, so assert on contents).
        c.offer("w", &finding("x|0,1|ww", 8, Some(5), spool_b.to_str()))
            .unwrap();
        let e = c.entry(&sig("x|0,1|ww")).unwrap().clone();
        assert_eq!(e.demo_bytes, Some(5));
        let kept =
            std::fs::read_to_string(dir.join(e.demo_subdir.as_deref().unwrap()).join("QUEUE"))
                .unwrap();
        assert_eq!(kept, "small");

        // Reopening loads the INDEX back.
        let reopened = Corpus::open(&dir).unwrap();
        assert_eq!(reopened.signatures(), c.signatures());
        assert_eq!(reopened.entry(&sig("x|0,1|ww")), Some(&e));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn identical_spooled_demos_share_store_blobs() {
        use srr_replay::{DemoHeader, QueueStream};
        let root = std::env::temp_dir().join(format!("srr-corpus-dedup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        // Two shards record byte-identical demos into separate spools.
        let mut demo = Demo::new(DemoHeader::new("tsan11rec", "queue", [3, 5]));
        demo.queue = QueueStream::new(vec![1, 2], &[3, 4, 0, 0]);
        let spool_a = root.join("t0_s3");
        let spool_b = root.join("t1_s3");
        demo.save_dir(&spool_a).unwrap();
        demo.save_dir(&spool_b).unwrap();

        let dir = root.join("corpus");
        let mut c = Corpus::open(&dir).unwrap();
        c.offer("w", &finding("x|0,1|ww", 3, Some(17), spool_a.to_str()))
            .unwrap();
        c.offer("w", &finding("y|1,2|rw", 3, Some(17), spool_b.to_str()))
            .unwrap();
        assert_eq!(c.len(), 2);

        // Two entries, one set of blobs: every stream hash is shared.
        let hb = {
            let store = c.store().expect("on-disk corpus has a store");
            assert_eq!(store.len(), 2);
            let ids: Vec<String> = store.ids().map(str::to_owned).collect();
            let ha = store.streams(&ids[0]).unwrap().clone();
            let hb = store.streams(&ids[1]).unwrap().clone();
            assert_eq!(ha, hb, "identical streams must share hashes");
            assert_eq!(store.blob_count().unwrap(), ha.len());
            for hash in ha.values() {
                assert_eq!(store.refcount(*hash), 2);
            }
            hb
        };

        // Both materialized entries still load as the original demo.
        for (sig_detail, _) in [("x|0,1|ww", ()), ("y|1,2|rw", ())] {
            let sub = c
                .entry(&sig(sig_detail))
                .unwrap()
                .demo_subdir
                .clone()
                .unwrap();
            assert_eq!(Demo::load_dir(&dir.join(sub)).unwrap(), demo);
        }

        // Evicting one entry keeps the shared blobs alive for the other.
        let spool_c = root.join("t2_s1");
        let mut smaller = demo.clone();
        smaller.queue = Default::default();
        smaller.save_dir(&spool_c).unwrap();
        c.offer("w", &finding("x|0,1|ww", 1, Some(5), spool_c.to_str()))
            .unwrap();
        let store = c.store().unwrap();
        let sub_b = c.entry(&sig("y|1,2|rw")).unwrap().demo_subdir.clone();
        assert_eq!(store.refcount(hb["QUEUE"]), 1, "y still references QUEUE");
        assert_eq!(
            Demo::load_dir(&dir.join(sub_b.unwrap())).unwrap(),
            demo,
            "surviving entry is intact after the shared-blob eviction"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn entry_dir_names_are_safe_and_distinct() {
        let a = entry_dir_name(&sig("counter cell|0,1|rw"));
        let b = entry_dir_name(&sig("counter cell|0,2|rw"));
        assert_ne!(a, b);
        for name in [&a, &b] {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | ',' | '-' | '_')),
                "{name}"
            );
        }
    }
}
