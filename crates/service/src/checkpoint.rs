//! Durable job state: one JSON document per job, written atomically.
//!
//! The daemon persists every job to its checkpoint directory — at
//! submit time (so queued jobs survive a restart), every time the
//! running job crosses the configured device-write interval, and at
//! each terminal transition. A checkpoint stores the *completed cells*
//! of the job's matrix; because each cell is a pure function of the
//! spec and its index (see [`crate::job::JobSpec::run_cell`]), a
//! resumed daemon re-runs only the missing cells and the assembled
//! result is bit-identical to an uninterrupted run.
//!
//! Files are written through [`write_atomic`]: to a temp file unique to
//! each save, then renamed into place. So a crash mid-write never
//! corrupts an existing checkpoint, and two threads saving one job at
//! once (the submit handler and the worker that claimed the job) never
//! share a temp file. The last rename wins; both documents are whole.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use twl_telemetry::json::{int, str, Json};

use crate::job::{cells_from_json, cells_to_json, req_str, req_u64, JobSpec};

/// Schema tag stamped on every checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = "twl-service/v1";

/// The durable state of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The daemon-assigned job id.
    pub job_id: u64,
    /// The full job spec — a checkpoint is self-contained.
    pub spec: JobSpec,
    /// Status label at save time (`queued`, `running`, `completed`,
    /// `failed`, `cancelled`).
    pub status: String,
    /// Encoded reports of the cells finished so far, by cell index.
    pub completed_cells: BTreeMap<u64, Json>,
    /// The assembled result document, once the job completed.
    pub result: Option<Json>,
    /// The failure message, if the job failed.
    pub error: Option<String>,
}

impl Checkpoint {
    /// Encodes the checkpoint document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", str(CHECKPOINT_SCHEMA)),
            ("job_id", int(self.job_id)),
            ("spec", self.spec.to_json()),
            ("status", str(&self.status)),
            ("completed_cells", cells_to_json(&self.completed_cells)),
            ("result", self.result.clone().unwrap_or(Json::Null)),
            ("error", self.error.as_deref().map_or(Json::Null, str)),
        ])
    }

    /// Decodes a checkpoint document.
    ///
    /// # Errors
    ///
    /// Returns a message on a schema mismatch or a malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let schema = req_str(v, "schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(format!(
                "checkpoint schema `{schema}` is not `{CHECKPOINT_SCHEMA}`"
            ));
        }
        Ok(Self {
            job_id: req_u64(v, "job_id")?,
            spec: JobSpec::from_json(v.get("spec").ok_or("checkpoint is missing `spec`")?)?,
            status: req_str(v, "status")?.to_owned(),
            completed_cells: cells_from_json(
                v.get("completed_cells")
                    .ok_or("checkpoint is missing `completed_cells`")?,
            )?,
            result: match v.get("result") {
                None | Some(Json::Null) => None,
                Some(r) => Some(r.clone()),
            },
            error: match v.get("error") {
                None | Some(Json::Null) => None,
                Some(e) => Some(e.as_str().ok_or("non-string `error`")?.to_owned()),
            },
        })
    }
}

/// A directory of per-job checkpoint files.
#[derive(Debug)]
pub struct CheckpointDir {
    dir: PathBuf,
}

impl CheckpointDir {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The file a job's checkpoint lives in.
    #[must_use]
    pub fn path_for(&self, job_id: u64) -> PathBuf {
        self.dir.join(format!("job-{job_id}.json"))
    }

    /// Atomically writes `cp` (temp file + rename). Safe to call from
    /// several threads for the same job.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, cp: &Checkpoint) -> io::Result<()> {
        write_atomic(
            &self.path_for(cp.job_id),
            cp.to_json().to_compact().as_bytes(),
        )
    }

    /// Loads every parseable checkpoint, sorted by job id. Temp files
    /// left by a crash mid-save are ignored; unparseable checkpoints
    /// are skipped with a warning on stderr — a schema from the future
    /// must not brick the daemon.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn load_all(&self) -> io::Result<Vec<Checkpoint>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if !is_checkpoint_file(&path) {
                continue;
            }
            match load_one(&path) {
                Ok(cp) => out.push(cp),
                Err(e) => eprintln!("twl-serviced: skipping checkpoint {}: {e}", path.display()),
            }
        }
        out.sort_by_key(|cp| cp.job_id);
        Ok(out)
    }
}

/// Writes `bytes` to `path` atomically: into a temp file beside it,
/// `<file name>.<pid>-<n>.tmp` with `n` unique within the process, then
/// renamed over `path`. Concurrent writers of one path never share a
/// temp file, so each rename moves a whole document and the last one
/// wins. A crashed writer leaves `path` as it was; a failed write
/// removes its temp file. There is deliberately no fsync: power-loss
/// durability is not a goal, and the daemons call this on request
/// paths such as an NBD FLUSH.
///
/// # Errors
///
/// Propagates filesystem errors; `path` then still holds its previous
/// contents (or nothing).
///
/// # Panics
///
/// Panics if `path` has no file name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().expect("path names a file").to_owned();
    name.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        WRITES.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(name);
    let written = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

fn is_checkpoint_file(path: &Path) -> bool {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    name.starts_with("job-") && name.ends_with(".json")
}

fn load_one(path: &Path) -> Result<Checkpoint, String> {
    let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
    Checkpoint::from_json(&Json::parse(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_attacks::AttackKind;
    use twl_lifetime::{SchemeKind, SimLimits};
    use twl_pcm::PcmConfig;

    fn spec() -> JobSpec {
        JobSpec {
            kind: crate::job::JobKind::AttackMatrix,
            pcm: PcmConfig::scaled(128, 2_000, 8),
            limits: SimLimits::default(),
            schemes: vec![SchemeKind::Nowl.into()],
            attacks: vec![AttackKind::Repeat.into()],
            benchmarks: vec![],
            fault: None,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("twl_service_ckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoints_round_trip_on_disk() {
        let dirpath = temp_dir("roundtrip");
        let dir = CheckpointDir::open(&dirpath).unwrap();
        let mut completed_cells = BTreeMap::new();
        completed_cells.insert(0u64, Json::obj([("years", twl_telemetry::json::num(4.25))]));
        let cp = Checkpoint {
            job_id: 7,
            spec: spec(),
            status: "running".to_owned(),
            completed_cells,
            result: None,
            error: None,
        };
        dir.save(&cp).unwrap();
        let loaded = dir.load_all().unwrap();
        assert_eq!(loaded, vec![cp]);
        fs::remove_dir_all(&dirpath).ok();
    }

    #[test]
    fn unparseable_files_are_skipped() {
        let dirpath = temp_dir("skip");
        let dir = CheckpointDir::open(&dirpath).unwrap();
        fs::write(dir.path_for(1), "{not json").unwrap();
        fs::write(dirpath.join("notes.txt"), "ignore me").unwrap();
        let cp = Checkpoint {
            job_id: 2,
            spec: spec(),
            status: "queued".to_owned(),
            completed_cells: BTreeMap::new(),
            result: None,
            error: None,
        };
        dir.save(&cp).unwrap();
        let loaded = dir.load_all().unwrap();
        assert_eq!(loaded, vec![cp]);
        fs::remove_dir_all(&dirpath).ok();
    }

    #[test]
    fn concurrent_saves_of_one_job_all_succeed() {
        let dirpath = temp_dir("concurrent");
        let dir = CheckpointDir::open(&dirpath).unwrap();
        let cp = |status: &str| Checkpoint {
            job_id: 3,
            spec: spec(),
            status: status.to_owned(),
            completed_cells: BTreeMap::new(),
            result: None,
            error: None,
        };
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for status in ["queued", "running"] {
                let (dir, start, cp) = (&dir, &start, cp(status));
                s.spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        dir.save(&cp).expect("concurrent save");
                    }
                });
            }
        });
        let loaded = dir.load_all().unwrap();
        assert_eq!(loaded.len(), 1);
        assert!(
            loaded == vec![cp("queued")] || loaded == vec![cp("running")],
            "final checkpoint is one of the saved documents"
        );
        fs::remove_dir_all(&dirpath).ok();
    }

    #[test]
    fn a_failed_atomic_write_leaves_no_temp_file() {
        // Renaming a file over a non-empty directory fails after the
        // temp file has been written.
        let dirpath = temp_dir("failed_write");
        let target = dirpath.join("job-1.json");
        fs::create_dir_all(target.join("occupied")).unwrap();
        assert!(write_atomic(&target, b"{}").is_err());
        let names: Vec<String> = fs::read_dir(&dirpath)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, ["job-1.json"]);
        fs::remove_dir_all(&dirpath).ok();
    }

    #[test]
    fn leftover_temp_files_are_ignored() {
        let dirpath = temp_dir("leftover");
        let dir = CheckpointDir::open(&dirpath).unwrap();
        let cp = Checkpoint {
            job_id: 4,
            spec: spec(),
            status: "queued".to_owned(),
            completed_cells: BTreeMap::new(),
            result: None,
            error: None,
        };
        dir.save(&cp).unwrap();
        let text = cp.to_json().to_compact();
        // A whole temp document and a torn one, as a crash mid-save
        // leaves them.
        fs::write(dirpath.join("job-4.json.1-0.tmp"), &text).unwrap();
        fs::write(dirpath.join("job-5.json.1-1.tmp"), &text[..text.len() / 2]).unwrap();
        assert_eq!(dir.load_all().unwrap(), vec![cp]);
        fs::remove_dir_all(&dirpath).ok();
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let mut v = Checkpoint {
            job_id: 1,
            spec: spec(),
            status: "queued".to_owned(),
            completed_cells: BTreeMap::new(),
            result: None,
            error: None,
        }
        .to_json();
        if let Json::Obj(map) = &mut v {
            map.insert("schema".to_owned(), str("twl-service/v999"));
        }
        assert!(Checkpoint::from_json(&v).unwrap_err().contains("schema"));
    }
}
