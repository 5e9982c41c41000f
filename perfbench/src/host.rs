//! Host fingerprint written into every report: two reports are only
//! comparable when their fingerprints match.

use std::fmt::Write as _;

/// What identifies the measuring host and build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// CPU brand string.
    pub cpu: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Every kernel ISA the host supports, preference-ordered.
    pub isas: String,
    /// The ISA GEMMs dispatch to.
    pub dispatched_isa: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Source commit, or `none` outside a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Fingerprint of this process's host and build.
    pub fn current() -> Self {
        let isas: Vec<&str> = quq_tensor::linalg::isa::supported()
            .iter()
            .map(|i| i.name())
            .collect();
        Self {
            cpu: cpu_brand(),
            nproc: nproc(),
            isas: isas.join(","),
            dispatched_isa: quq_tensor::linalg::isa::resolve().name().to_string(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit: git_commit(),
        }
    }

    /// The fields that must agree for two reports to be compared (the
    /// commit may differ: comparing commits is the point).
    pub fn host_fields(&self) -> [(&'static str, String); 5] {
        [
            ("cpu", self.cpu.clone()),
            ("nproc", self.nproc.to_string()),
            ("isas", self.isas.clone()),
            ("dispatched_isa", self.dispatched_isa.clone()),
            ("rustc", self.rustc.clone()),
        ]
    }

    /// JSON object form.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (k, v) in self.host_fields() {
            let _ = write!(out, "\"{k}\": \"{}\", ", escape(&v));
        }
        let _ = write!(out, "\"commit\": \"{}\"}}", escape(&self.commit));
        out
    }

    /// One-line human form.
    pub fn summary(&self) -> String {
        format!(
            "cpu: {} | nproc: {} | isas: {} (dispatched {}) | {} | commit {}",
            self.cpu, self.nproc, self.isas, self.dispatched_isa, self.rustc, self.commit
        )
    }
}

/// Logical CPUs available to the process (the pool's default size).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Minimal JSON string escaping for fingerprint values.
pub fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(target_arch = "x86_64")]
fn cpu_brand() -> String {
    use std::arch::x86_64::__cpuid;
    // The extended brand-string leaves are only read after leaf
    // 0x8000_0000 reports them.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown x86_64".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_brand() -> String {
    format!("unknown {}", std::env::consts::ARCH)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".to_string())
}
