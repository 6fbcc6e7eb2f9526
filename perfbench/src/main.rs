//! One benchmark for the gcomm compiler and compile service.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (all closed loop, at most `nproc` client threads):
//!
//! * `compile-corpus` — the compiler library in-process on one thread,
//!   stats off: the six paper kernels plus seeded generated programs,
//!   each under `orig`, `nored` and `comb`, each compiled and simulated.
//!   Its traced pass also sends the same op mix to an in-process compile
//!   server, every request renamed so it misses the payload cache and
//!   query memo.
//! * `serve-mixed` — a persistent server (fsync every 64 appends) under a
//!   skewed mix: 80% Zipf repeats of a warm set, 15% single-routine edits
//!   of warm modules, 5% new programs sent on both connections at once.
//!
//! The traced pass of every workload also measures the router hop on a
//! two-shard cluster of its own.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! pass instead, with spans around each call into a layer, and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! `{"correct","attempted","failed","metrics"}`; everything else goes to
//! standard error. Spans are written to `perfbench/out/` when the run
//! ends.

mod inputs;
mod library;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (want one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for standard error.
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records one failed op or check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what.into());
        }
    }

    /// Counts `Err` as a failure; passes `Ok` through.
    pub fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// The environment a result was measured in, as a JSON object.
pub fn env_json() -> String {
    let nproc = workloads::nproc();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\":{nproc},\"profile\":\"{profile}\",\"git_rev\":\"{}\"}}",
        git_rev()
    )
}

/// The checked-out revision, read from `.git` when the run happens in a
/// git checkout; `unknown` otherwise.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.len() == 40 && rev.bytes().all(|b| b.is_ascii_hexdigit()) {
        rev.to_string()
    } else {
        "unknown".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match workloads::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, _) in &mut report.metrics {
        if !value.is_finite() {
            let msg = format!("metric {name} is not finite");
            *value = 0.0;
            report.failed += 1;
            report.failures.push(msg);
        }
    }
    eprintln!("env {}", env_json());
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("{name:<32} {value:>16.6} {unit}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
