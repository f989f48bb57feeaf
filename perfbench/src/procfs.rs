//! Process-wide resource readings from `/proc/self` (Linux).

/// Clock ticks per second of `/proc/self/stat`'s CPU times (`CLK_TCK`,
/// 100 on every mainstream Linux configuration).
const CLK_TCK: f64 = 100.0;

/// Peak resident set size in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails when `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Resets the peak resident set size to the current one, so that the
/// next [`peak_rss_mb`] reads the peak since this call.
///
/// # Errors
///
/// Fails when `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// User plus system CPU seconds of the whole process, including threads
/// that have already exited.
///
/// # Errors
///
/// Fails when `/proc/self/stat` is unreadable or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 11 and
    // 12 after the state field that follows the command name.
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_owned())
    };
    Ok((ticks(11)? + ticks(12)?) / CLK_TCK)
}
