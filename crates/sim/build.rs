//! Names the result store's producer by the source that decides what a cell
//! or a stride profile measures: hashes the `sdv-*` dependency closure of
//! this crate (see `src/source_hash.rs`) together with the compiler version
//! and target, and exports it as `SDV_MODEL_SOURCE_HASH` for
//! `cachefile::simulator_fingerprint`.

#[path = "src/source_hash.rs"]
mod source_hash;

use std::env;
use std::path::PathBuf;
use std::process::Command;

fn main() {
    let manifest_dir = PathBuf::from(env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest_dir.join("../..");
    let crates = source_hash::closure(&root, "sdv-sim")
        .unwrap_or_else(|e| panic!("reading the sdv-sim dependency closure: {e}"));

    let rustc = env::var("RUSTC").expect("set by cargo");
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .unwrap_or_else(|e| panic!("running {rustc} -V: {e}"));
    assert!(version.status.success(), "{rustc} -V failed");
    let toolchain = format!(
        "{} {}",
        String::from_utf8_lossy(&version.stdout).trim(),
        env::var("TARGET").expect("set by cargo")
    );

    let hash = source_hash::source_hash(&root, &crates, &toolchain)
        .unwrap_or_else(|e| panic!("hashing the model source: {e}"));

    println!(
        "cargo:rerun-if-changed={}",
        root.join("Cargo.toml").display()
    );
    for dir in &crates {
        let dir = root.join(dir);
        println!(
            "cargo:rerun-if-changed={}",
            dir.join("Cargo.toml").display()
        );
        println!("cargo:rerun-if-changed={}", dir.join("src").display());
    }
    println!("cargo:rustc-env=SDV_TOOLCHAIN={toolchain}");
    println!("cargo:rustc-env=SDV_MODEL_SOURCE_HASH={hash:016x}");
}
