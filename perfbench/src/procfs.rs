//! Process counters from `/proc/self`.
//!
//! `rchar`/`wchar` count bytes passed to read/write system calls by every
//! thread of the process, whether or not they reached a device. The engine
//! never calls fsync and its reads are served from the page cache, so these
//! are the bytes the code moves, not device traffic.

use std::fs;

/// Byte counters from `/proc/self/io`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    pub rchar: u64,
    pub wchar: u64,
}

impl IoCounters {
    /// Counter growth since `earlier`.
    pub fn since(self, earlier: IoCounters) -> IoCounters {
        IoCounters {
            rchar: self.rchar.saturating_sub(earlier.rchar),
            wchar: self.wchar.saturating_sub(earlier.wchar),
        }
    }
}

/// The value of `key:` in a `/proc` key-value file, first number only
/// (units such as `kB` are dropped).
pub fn field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim() != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

pub fn parse_io(text: &str) -> Option<IoCounters> {
    Some(IoCounters {
        rchar: field(text, "rchar")?,
        wchar: field(text, "wchar")?,
    })
}

/// Current I/O counters; zeros where `/proc/self/io` is unavailable.
pub fn io() -> IoCounters {
    fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|t| parse_io(&t))
        .unwrap_or_default()
}

/// Peak resident set size (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    field(&status, "VmHWM").map(|kb| kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    const IO: &str = "rchar: 123456\nwchar: 7890\nsyscr: 12\nsyscw: 3\n\
                      read_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n";

    const STATUS: &str = "Name:\tperfbench\nVmPeak:\t  200000 kB\n\
                          VmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\nThreads:\t3\n";

    #[test]
    fn parses_io_counters() {
        let io = parse_io(IO).unwrap();
        assert_eq!(
            io,
            IoCounters {
                rchar: 123456,
                wchar: 7890
            }
        );
        let later = IoCounters {
            rchar: 123460,
            wchar: 7990,
        };
        assert_eq!(
            later.since(io),
            IoCounters {
                rchar: 4,
                wchar: 100
            }
        );
        assert_eq!(parse_io("rchar: 1\n"), None);
    }

    #[test]
    fn parses_status_fields_with_units() {
        assert_eq!(field(STATUS, "VmHWM"), Some(51200));
        assert_eq!(field(STATUS, "Threads"), Some(3));
        assert_eq!(field(STATUS, "VmSwap"), None);
        // A key is matched whole, never as a prefix.
        assert_eq!(field(STATUS, "Vm"), None);
    }

    #[test]
    fn live_counters_grow_with_a_write() {
        let path = format!(".perfbench-io-test-{}", std::process::id());
        let before = io();
        fs::write(&path, vec![0u8; 1 << 16]).unwrap();
        let grew = io().since(before);
        fs::remove_file(&path).unwrap();
        assert!(grew.wchar >= 1 << 16, "{grew:?}");
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
