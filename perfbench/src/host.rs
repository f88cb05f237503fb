//! The host block printed with every run: what ran where, and how fast
//! the host was while it ran.
//!
//! The reference kernel is a fixed integer/floating-point loop that
//! touches no memory beyond registers, so its time depends on the host
//! alone. It is timed before and after the workload (five passes each)
//! and around every timed pass and set-up. The host's CPU speed swings by
//! up to 2x over seconds to minutes; the samples show such a slowdown
//! beside the numbers, and [`HostSpeed::factor`] scales each pass's times
//! to a fixed host speed so that a slow phase is not mistaken for a code
//! change.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Reference-kernel time of the host speed every pass is scaled to, µs
/// (a fast phase of a 2-core Firecracker VM takes ~0.37 ms).
pub const NOMINAL_KERNEL_US: f64 = 370.0;

/// One pass of the reference kernel, µs: a fixed dependent chain of
/// 2^17 multiply-add/xorshift steps.
pub fn kernel_pass_us() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut f = 1.0f64;
    for i in 0..black_box(1u64 << 17) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        f = f * 0.999_999 + (x & 0xff) as f64 * 1e-9;
        x = x.wrapping_add(i);
    }
    black_box(x ^ f.to_bits());
    t.elapsed().as_secs_f64() * 1e6
}

/// Reference-kernel samples taken through one run.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Takes one sample and returns it, µs.
    pub fn sample(&mut self) -> f64 {
        let k = kernel_pass_us();
        self.samples.push(k);
        k
    }

    /// Takes five samples back to back (before and after the workload)
    /// and returns the fastest, µs.
    pub fn burst(&mut self) -> f64 {
        (0..5).map(|_| self.sample()).fold(f64::INFINITY, f64::min)
    }

    /// The factor that scales times measured between two samples to the
    /// nominal host speed: the faster of the two samples stands for the
    /// host's speed in between (a single sample slowed by an interrupt
    /// does not count).
    pub fn factor(before_us: f64, after_us: f64) -> f64 {
        NOMINAL_KERNEL_US / before_us.min(after_us)
    }

    fn sorted(&self) -> Vec<f64> {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        s
    }

    /// Fastest sample, µs.
    pub fn min_us(&self) -> f64 {
        self.sorted()[0]
    }

    /// Median sample, µs.
    pub fn median_us(&self) -> f64 {
        let s = self.sorted();
        s[s.len() / 2]
    }

    /// Number of samples taken.
    pub fn count(&self) -> usize {
        self.samples.len()
    }
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Static facts about the host and build.
#[derive(Debug, Clone)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// `git rev-parse HEAD` (`unknown` outside a git checkout).
    pub git_rev: String,
}

impl Host {
    /// Probes the host.
    pub fn probe() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}
