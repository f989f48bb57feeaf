//! Demo validation end to end: every committed fixture and every demo the
//! recorder writes passes `Demo::validate` on load, and the loader
//! pinpoints a truncated SYSCALL record in a recorded text demo.

use std::path::{Path, PathBuf};

use srr_apps::client;
use srr_apps::harness::Tool;
use srr_apps::hazards;
use srr_replay::{Demo, DemoFormat, DemoLoadError};
use tsan11rec::Execution;

/// Every directory under `dir` (itself included) holding a `HEADER`.
fn demo_dirs(dir: &Path, out: &mut Vec<PathBuf>) {
    if dir.join("HEADER").is_file() {
        out.push(dir.to_owned());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    entries.sort();
    for sub in entries {
        demo_dirs(&sub, out);
    }
}

#[test]
fn every_committed_fixture_loads_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut dirs = Vec::new();
    demo_dirs(&root, &mut dirs);
    // Codec goldens, the sched/profile/predict fixtures: 15 at least.
    assert!(dirs.len() >= 15, "sweep found only {dirs:?}");
    for dir in &dirs {
        if let Err(e) = Demo::load_dir(dir) {
            panic!("{}: {e}", dir.display());
        }
    }
}

/// Every recorded demo (two different workloads, two strategies) loads
/// back equal, and a truncated SYSCALL stream is rejected with an error
/// pointing at the syscall header line.
#[test]
fn recorded_demos_validate_and_truncation_is_line_precise() {
    type Case = (&'static str, Tool, Box<dyn FnOnce() + Send>);
    let dir = std::env::temp_dir().join(format!("srr-validate-e2e-{}", std::process::id()));
    let cases: Vec<Case> = vec![
        ("client-queue", Tool::QueueRec, {
            let p = client::ClientParams::default();
            Box::new(move || (client::client(p))())
        }),
        ("client-rnd", Tool::RndRec, {
            let p = client::ClientParams::default();
            Box::new(move || (client::client(p))())
        }),
        ("hazard-queue", Tool::QueueRec, {
            Box::new(move || (hazards::mixed_counter())())
        }),
    ];
    for (name, tool, program) in cases {
        let out = dir.join(name);
        let needs_world = name.starts_with("client");
        let exec = Execution::new(tool.config([9, 13]));
        let exec = if needs_world {
            let p = client::ClientParams::default();
            exec.setup(move |vos| (client::world(p))(vos))
        } else {
            exec
        };
        let (report, demo) = exec.record(program);
        assert!(report.outcome.is_ok(), "{name}: {:?}", report.outcome);
        assert!(demo.validate().is_empty(), "{name}: {:?}", demo.validate());
        // Text format: the truncation below edits SYSCALL line by line.
        demo.save_dir_as(&out, DemoFormat::Text).expect("save demo");
        match Demo::load_dir(&out) {
            Ok(back) => assert_eq!(back, demo, "{name} loads back equal"),
            Err(e) => panic!("{name} must load clean: {e}"),
        }
    }

    // Corrupt the client-queue demo: drop everything after the first
    // syscall record's header line, leaving its buffers missing.
    let syscall = dir.join("client-queue").join("SYSCALL");
    let text = std::fs::read_to_string(&syscall).expect("client records syscalls");
    let first_syscall_ln = text
        .lines()
        .position(|l| l.trim_start().starts_with("syscall ") && !l.contains("nbufs=0"))
        .expect("at least one syscall record carrying buffers")
        + 1;
    let keep: String = text
        .lines()
        .take(first_syscall_ln)
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(keep.contains("nbufs="), "header line declares buffers");
    std::fs::write(&syscall, keep).unwrap();
    match Demo::load_dir(&dir.join("client-queue")) {
        Err(DemoLoadError::Malformed { file, line, err }) => {
            assert_eq!(file, "SYSCALL");
            assert_eq!(line, Some(first_syscall_ln), "{err}");
            assert!(err.contains("missing"), "{err}");
        }
        other => panic!("truncated SYSCALL must be rejected as malformed, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}
