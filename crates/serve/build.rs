//! Stamps build metadata into the crate environment so the serving
//! surface can report exactly which build is running (`ccsa_build_info`
//! on `/metrics`, `build` in the `stats` verb). `git describe` is best
//! effort: outside a git checkout (or without git) the revision is
//! "unknown" rather than a build failure.

fn main() {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=CCSA_GIT_DESCRIBE={git}");
    // Re-stamp when the checked-out commit moves. Only in a git checkout:
    // cargo treats a watched path that does not exist as always changed,
    // and an exported tree would rebuild serve and everything above it on
    // every invocation. With no `rerun-if-changed` at all cargo would
    // instead re-run on any change in the package, so watch this script.
    println!("cargo:rerun-if-changed=build.rs");
    let head = std::path::Path::new("../../.git/HEAD");
    if head.exists() {
        println!("cargo:rerun-if-changed={}", head.display());
    }
}
