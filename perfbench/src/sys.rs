//! Host probes read from `/proc`: process CPU time, peak resident set,
//! load average and core count.

use std::time::Instant;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU ticks of the whole process from the text of
/// `/proc/self/stat` (fields 14 and 15). Threads that have already been
/// joined are included. The command name (field 2) is parenthesised and
/// may itself contain spaces and `)`, so fields are counted from the
/// last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Process CPU seconds (user + system, all threads) so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat") as f64 / USER_HZ
}

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Steal ticks of all CPUs (time the hypervisor ran something else
/// while this machine's CPUs wanted to run) from the text of
/// `/proc/stat`: the eighth number of the `cpu` line.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Steal seconds of all CPUs so far, a diagnostic only.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .map_or(f64::NAN, |t| t as f64 / USER_HZ)
}

/// The 1-minute load average, a diagnostic only.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall and CPU time over a phase, started by [`Clock::start`].
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// `(wall seconds, CPU seconds)` since the start.
    pub fn stop(&self) -> (f64, f64) {
        (self.wall_s(), cpu_seconds() - self.cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_after_plain_name() {
        let stat = "1234 (perfbench) R 1 1234 1234 0 -1 4194304 100 0 0 0 \
                    250 30 0 0 20 0 3 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(280));
    }

    #[test]
    fn stat_cpu_fields_after_name_with_spaces_and_parens() {
        let stat = "99 (a) b (c)) S 1 99 99 0 -1 0 0 0 0 0 7 5 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(12));
    }

    #[test]
    fn stat_cpu_rejects_truncated_text() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn own_stat_parses() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
    }

    #[test]
    fn steal_parse() {
        let stat =
            "cpu  1010932 0 375582 1227207 425 0 94856 106066 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(106066));
        assert_eq!(parse_steal_ticks("cpu0 1 2\n"), None);
    }

    #[test]
    fn vm_hwm_parse() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    4096 kB\nVmRSS:\t 2000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(4096));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }
}
