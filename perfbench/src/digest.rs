//! Correctness: pinned digests of every cell's full `RunStats` and of every
//! printed figure, and the operation tally that counts mismatches as failed
//! operations.
//!
//! The pin file (`digests/pins.txt`) holds one `<id> <digest>` line per cell
//! or figure; `--pin` rewrites it from the current code.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::PathBuf;

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
pub fn fnv_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of a value's full `Debug` rendering (every field of a `RunStats`).
pub fn of_debug(value: &impl Debug) -> String {
    fnv_hex(format!("{value:?}").as_bytes())
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation; `ok == false` counts it as failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The pinned digests, or (under `--pin`) the digests being collected.
#[derive(Debug, Default)]
pub struct Pins {
    pinned: BTreeMap<String, String>,
    seen: BTreeMap<String, String>,
    pinning: bool,
}

/// Where the pin file lives, next to the benchmark's sources.
pub fn pin_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("digests/pins.txt")
}

impl Pins {
    /// Parses pin-file text (`#` comments and blank lines ignored).
    pub fn parse(text: &str) -> Self {
        let pinned = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .map(|(id, digest)| (id.to_string(), digest.to_string()))
            .collect();
        Pins {
            pinned,
            ..Pins::default()
        }
    }

    /// Loads the pin file; with `pinning`, starts empty and collects instead.
    pub fn load(pinning: bool) -> std::io::Result<Self> {
        if pinning {
            return Ok(Pins {
                pinning: true,
                ..Pins::default()
            });
        }
        Ok(Self::parse(&std::fs::read_to_string(pin_path())?))
    }

    /// Whether `digest` matches the pin for `id` (always true while
    /// pinning; a missing pin is a mismatch).
    pub fn check(&mut self, id: &str, digest: &str) -> bool {
        if self.pinning {
            let first = self
                .seen
                .entry(id.to_string())
                .or_insert_with(|| digest.to_string());
            return first == digest;
        }
        self.pinned.get(id).is_some_and(|pin| pin == digest)
    }

    /// Merges the collected digests into the pin file (under `--pin`).
    pub fn write(&self) -> std::io::Result<()> {
        let path = pin_path();
        let mut all = std::fs::read_to_string(&path)
            .map(|t| Self::parse(&t).pinned)
            .unwrap_or_default();
        all.extend(self.seen.clone());
        let mut out = String::from(
            "# Pinned digests of every benchmark cell's full RunStats and of every\n\
             # printed figure.  Regenerate with `--pin` after an intended model change.\n",
        );
        for (id, digest) in all {
            out.push_str(&format!("{id} {digest}\n"));
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_uarch::RunStats;

    #[test]
    fn a_flipped_counter_is_a_failed_operation() {
        let mut stats = RunStats::new(1);
        stats.cycles = 1_000;
        stats.committed = 1_500;
        let mut pins = Pins::parse(&format!("cell 4-way 1pV/swim {}\n", of_debug(&stats)));
        let mut tally = Tally::default();
        tally.record(pins.check("cell 4-way 1pV/swim", &of_debug(&stats)));
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 0
            }
        );
        stats.l1d.misses ^= 1;
        tally.record(pins.check("cell 4-way 1pV/swim", &of_debug(&stats)));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        tally.record(pins.check("cell 4-way 1pV/unpinned", &of_debug(&stats)));
        assert_eq!(tally.failed, 2, "an unpinned cell fails too");
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv_hex(b"a"), "af63dc4c8601ec8c");
    }
}
