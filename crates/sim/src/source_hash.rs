//! The content hash that names the result store's producer.
//!
//! A cell's `RunStats` and a stride profile are decided by the source of
//! `sdv-sim` and of every `sdv-*` crate it depends on, directly or not.
//! [`closure`] reads that set from the crate manifests, [`files`] lists each
//! crate's `Cargo.toml` and every file under its `src/`, and [`source_hash`]
//! hashes them with FNV-1a, path then bytes in sorted path order, after the
//! toolchain string.  `build.rs` runs it at build time (it includes this
//! file with `#[path]`) and exports the result for
//! [`crate::cachefile::simulator_fingerprint`]; the tests reuse it to check
//! that the exported value is the tree on disk.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::hash::Hasher;
use std::io;
use std::path::Path;

/// A 64-bit FNV-1a hasher: trivially stable across Rust releases, which the
/// standard library's `DefaultHasher` explicitly is not.
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The FNV-1a offset basis xor `seed`.
    pub fn seeded(seed: u64) -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325 ^ seed)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The `sdv-*` entries of a manifest's `[section]` table, as
/// `(name, value)` pairs, where the value is the text after `=`.
fn sdv_entries<'a>(manifest: &'a str, section: &str) -> Vec<(&'a str, &'a str)> {
    let mut current = "";
    let mut entries = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            current = header.trim_end_matches(']');
        } else if current == section && line.starts_with("sdv-") {
            if let Some((name, value)) = line.split_once('=') {
                entries.push((name.trim(), value.trim()));
            }
        }
    }
    entries
}

/// The crate directories, relative to the workspace `root` and sorted, of
/// `start` and every `sdv-*` crate it depends on (normal dependencies,
/// transitively).  Each dependency must be a `workspace = true` entry whose
/// path the root manifest's `[workspace.dependencies]` names.
///
/// # Errors
///
/// A manifest that cannot be read, or a dependency the root manifest does not
/// place, is an error: the hash never covers less than the closure.
pub fn closure(root: &Path, start: &str) -> io::Result<Vec<String>> {
    let workspace = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut paths = BTreeMap::new();
    for (name, value) in sdv_entries(&workspace, "workspace.dependencies") {
        let path = value
            .split_once("path = \"")
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(path, _)| path)
            .ok_or_else(|| invalid(format!("workspace dependency {name} has no path")))?;
        paths.insert(name, path);
    }
    let mut dirs = BTreeSet::new();
    let mut todo = vec![start.to_string()];
    while let Some(name) = todo.pop() {
        let dir = *paths
            .get(name.as_str())
            .ok_or_else(|| invalid(format!("{name} is not a workspace dependency")))?;
        if !dirs.insert(dir.to_string()) {
            continue;
        }
        let manifest = fs::read_to_string(root.join(dir).join("Cargo.toml"))?;
        for (dep, value) in sdv_entries(&manifest, "dependencies") {
            if !value.contains("workspace = true") {
                return Err(invalid(format!(
                    "{dir}/Cargo.toml: {dep} must be a `workspace = true` dependency"
                )));
            }
            todo.push(dep.to_string());
        }
    }
    Ok(dirs.into_iter().collect())
}

/// Appends every file under `dir` (relative to `root`), recursively.
fn walk(root: &Path, dir: &str, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(root.join(dir))? {
        let entry = entry?;
        let name = entry
            .file_name()
            .into_string()
            .map_err(|name| invalid(format!("{dir}/{}: not a UTF-8 file name", name.display())))?;
        let path = format!("{dir}/{name}");
        if fs::metadata(root.join(&path))?.is_dir() {
            walk(root, &path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// The hashed files of `crates`: each one's `Cargo.toml` and every file
/// under its `src/`, as `/`-separated paths relative to `root`, sorted.
///
/// # Errors
///
/// Any directory that cannot be read.
pub fn files(root: &Path, crates: &[String]) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for dir in crates {
        out.push(format!("{dir}/Cargo.toml"));
        walk(root, &format!("{dir}/src"), &mut out)?;
    }
    out.sort();
    Ok(out)
}

/// FNV-1a over `toolchain` and then, for each of [`files`]`(root, crates)`,
/// its relative path and its bytes, each length-prefixed so that no two
/// trees share a byte stream.
///
/// # Errors
///
/// Any file or directory that cannot be read.
pub fn source_hash(root: &Path, crates: &[String], toolchain: &str) -> io::Result<u64> {
    let mut h = Fnv1a::seeded(0);
    let mut field = |bytes: &[u8]| {
        h.write(&(bytes.len() as u64).to_le_bytes());
        h.write(bytes);
    };
    field(toolchain.as_bytes());
    for path in files(root, crates)? {
        field(path.as_bytes());
        field(&fs::read(root.join(&path))?);
    }
    Ok(h.finish())
}
