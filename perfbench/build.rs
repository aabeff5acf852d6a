//! Records the toolchain and source revision for the host fingerprint.

use std::process::Command;

fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        first_line(Command::new(rustc).arg("--version"))
    );
    // Outside a git checkout (e.g. an exported tree) the sha reads "unknown";
    // the ceiling keeps git from searching above the source tree.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo");
    let root = std::path::Path::new(&manifest)
        .parent()
        .expect("the benchmark lives one level below the repository root");
    let ceiling = root.parent().unwrap_or(root);
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_SHA={}",
        first_line(
            Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .current_dir(root)
                .env("GIT_CEILING_DIRECTORIES", ceiling)
        )
    );
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=../.git/HEAD");
}
