//! What the harness reads from the host: CPU time, core count, and the
//! facts a result file records about where it ran.

use std::path::{Path, PathBuf};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Process user + system CPU seconds so far, threads that have already
/// exited included: what `/proc/self/stat` reports as utime + stime,
/// read at nanosecond instead of 10 ms resolution (a rep burns well
/// under a second of CPU).
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the layout the C
    // library expects on 64-bit Linux, and `clock_gettime` writes
    // nothing else. The clock id is a constant the kernel defines.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The benchmark package's directory: where `cargo run` says it is, or
/// where it was when this binary was compiled.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Where run artefacts go (traces, result files, WAL directories):
/// `$STEM_BENCH_DIR`, or `out/` inside the package so a run writes
/// nothing outside its checkout.
pub fn out_dir() -> PathBuf {
    std::env::var_os("STEM_BENCH_DIR").map_or_else(|| package_dir().join("out"), PathBuf::from)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

/// The checked-out commit, read from `.git` above the package (the
/// harness never shells out to git); `unknown` outside a repository.
pub fn commit() -> String {
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    package_dir()
        .ancestors()
        .map(|dir| dir.join(".git"))
        .find(|git| git.is_dir())
        .and_then(|git| {
            let head = read(git.join("HEAD"))?;
            match head.strip_prefix("ref: ") {
                Some(reference) => read(git.join(reference)).or_else(|| {
                    let packed = read(git.join("packed-refs"))?;
                    let line = packed.lines().find(|l| l.ends_with(reference))?;
                    Some(line.split_whitespace().next()?.to_owned())
                }),
                None => Some(head),
            }
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc --version`, or `unknown` when no compiler is on the path.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() >= before);
        assert!(nproc() >= 1);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
