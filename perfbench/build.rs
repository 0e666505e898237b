//! Embeds the compiler version and a digest of the measured sources in
//! the binary. The git commit names the code only where `.git` exists;
//! the digest names it also in an exported source tree (for example
//! one made by `git archive`), where the commit reads `unavailable`.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let crates = Path::new("../crates");
    let mut files = Vec::new();
    collect(crates, &mut files);
    files.sort();
    // Stable for one toolchain, which the fingerprint also names.
    let mut hasher = DefaultHasher::new();
    for file in &files {
        file.hash(&mut hasher);
        std::fs::read(file).unwrap_or_default().hash(&mut hasher);
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={:016x}", hasher.finish());
    println!("cargo:rerun-if-changed=../crates");
    println!("cargo:rerun-if-changed=src");
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
