//! Known answers committed under `ci/`: the explore signature corpus
//! (`ci/explore_expected.txt`) and the predict verdicts
//! (`ci/predict_expected.txt`). Both files are `<workload> <rest>` lines.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Reads a known-answer file from the repository's `ci/` directory.
///
/// # Errors
///
/// Fails when the file cannot be read.
pub fn read_ci(name: &str) -> Result<String, String> {
    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("ci")
        .join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Splits `<workload> <rest>` lines, skipping blank ones, into the
/// per-workload lists of `rest` in file order.
fn by_workload(text: &str, what: &str) -> Result<BTreeMap<String, Vec<String>>, String> {
    let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        match line.split_once(' ') {
            Some((w, rest)) if !w.is_empty() && !rest.trim().is_empty() => {
                map.entry(w.to_owned())
                    .or_default()
                    .push(rest.trim().to_owned());
            }
            _ => return Err(format!("{what}:{}: expected `<workload> <value>`", n + 1)),
        }
    }
    if map.is_empty() {
        return Err(format!("{what}: no expectations"));
    }
    Ok(map)
}

/// Parses `ci/explore_expected.txt`: workload → encoded signatures that
/// an exploration of it must find.
///
/// # Errors
///
/// Fails on a line without a workload and a signature, or an empty file.
pub fn parse_explore(text: &str) -> Result<BTreeMap<String, Vec<String>>, String> {
    let map = by_workload(text, "explore_expected.txt")?;
    for sigs in map.values() {
        if let Some(bad) = sigs.iter().find(|s| s.contains(char::is_whitespace)) {
            return Err(format!(
                "explore_expected.txt: signature `{bad}` has whitespace"
            ));
        }
    }
    Ok(map)
}

/// Parses `ci/predict_expected.txt`: workload → its normalized
/// `"key": value` verdict lines followed by `exit=N`, in file order.
///
/// # Errors
///
/// Fails on a malformed line, or a workload without exactly one final
/// `exit=` line.
pub fn parse_predict(text: &str) -> Result<BTreeMap<String, Vec<String>>, String> {
    let map = by_workload(text, "predict_expected.txt")?;
    for (w, lines) in &map {
        let exits = lines.iter().filter(|l| l.starts_with("exit=")).count();
        let last_is_exit = lines.last().is_some_and(|l| l.starts_with("exit="));
        if exits != 1 || !last_is_exit {
            return Err(format!(
                "predict_expected.txt: `{w}` needs exactly one final exit= line"
            ));
        }
        if let Some(bad) = lines
            .iter()
            .find(|l| !(l.starts_with("exit=") || l.starts_with('"') && l.contains("\": ")))
        {
            return Err(format!(
                "predict_expected.txt: `{w}`: `{bad}` is not a \"key\": value line"
            ));
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_lines_group_by_workload() {
        let map = parse_explore("barrier race:a|1,2|rw\n\nbarrier race:b|1,2|rw\nx race:c\n")
            .expect("valid");
        assert_eq!(map["barrier"], ["race:a|1,2|rw", "race:b|1,2|rw"]);
        assert_eq!(map["x"], ["race:c"]);
        assert!(parse_explore("barrier\n").is_err());
        assert!(parse_explore(" race:a\n").is_err());
        assert!(parse_explore("barrier race:a extra\n").is_err());
        assert!(parse_explore("\n").is_err());
    }

    #[test]
    fn predict_lines_keep_order_and_need_a_final_exit() {
        let text = "h \"candidates\": 1\nh \"classification\": \"confirmed\"\nh exit=2\n\
                    g \"candidates\": 0\ng exit=0\n";
        let map = parse_predict(text).expect("valid");
        assert_eq!(
            map["h"],
            [
                "\"candidates\": 1",
                "\"classification\": \"confirmed\"",
                "exit=2"
            ]
        );
        assert_eq!(map["g"], ["\"candidates\": 0", "exit=0"]);
        assert!(parse_predict("h \"candidates\": 1\n").is_err());
        assert!(parse_predict("h exit=2\nh \"candidates\": 1\n").is_err());
        assert!(parse_predict("h candidates 1\nh exit=0\n").is_err());
    }

    #[test]
    fn committed_files_parse() {
        let explore = parse_explore(&read_ci("explore_expected.txt").expect("committed"))
            .expect("explore_expected.txt parses");
        assert!(explore.contains_key("barrier") && explore.contains_key("dekker-fences"));
        let predict = parse_predict(&read_ci("predict_expected.txt").expect("committed"))
            .expect("predict_expected.txt parses");
        assert_eq!(
            predict["hidden_handoff"].last().map(String::as_str),
            Some("exit=2")
        );
        assert_eq!(
            predict["atomic_guard"].last().map(String::as_str),
            Some("exit=0")
        );
    }
}
