//! The host block every result carries: what ran where, with how many
//! threads, so results are compared like with like.

use std::process::Command;

/// Facts about the host and the build.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores the process may use.
    pub nproc: usize,
    /// Thread budget the run used.
    pub threads: usize,
    /// Cargo build profile of this binary.
    pub profile: &'static str,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `none` outside a git tree.
    pub git_rev: String,
    /// Workload seed.
    pub seed: u64,
}

impl Host {
    /// Probes the host; `threads` is the run's budget.
    pub fn probe(threads: usize, seed: u64) -> Host {
        Host {
            nproc: cores(),
            threads,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: output_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_rev: output_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into()),
            seed,
        }
    }

    /// A run whose thread budget exceeds the cores is flagged and must not
    /// be gated: its walls measure oversubscription, not the code.
    pub fn oversubscribed(&self) -> bool {
        self.threads > self.nproc
    }

    /// The block as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"threads\":{},\"oversubscribed\":{},\"gated\":{},\"profile\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\",\"seed\":{}}}",
            self.nproc,
            self.threads,
            self.oversubscribed(),
            !self.oversubscribed(),
            self.profile,
            esc(&self.rustc),
            esc(&self.git_rev),
            self.seed
        )
    }
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn output_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
