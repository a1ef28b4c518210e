//! Store-file binary format: serialization, checksums, and a fault-tolerant
//! scanner.
//!
//! # Layout (version 2)
//!
//! ```text
//! magic "SDVS" | version u32 | fingerprint u64 | count u64
//!   count × ( key_lo u64 | key_hi u64 | payload_len u32 | crc32 u32 | payload )
//! ```
//!
//! The per-entry CRC32 (IEEE polynomial) covers `key_lo | key_hi |
//! payload_len | payload` — everything the entry claims — so a bit flip
//! anywhere in an entry is attributable to *that entry*, and its neighbours
//! stay readable.  Any other version
//! — including the CRC-less version 1 of earlier releases — is an unreadable
//! header.
//!
//! # Scanning
//!
//! [`scan_entries`] is deliberately *lenient*: an unreadable header is fatal
//! for the file, but any damage past the header is recorded as a
//! [`EntryFault`] with its byte range, the damaged entry is skipped, and
//! scanning continues wherever framing allows.  Corrupt bytes can therefore
//! only ever cost the entries they landed in.

use std::collections::HashMap;

pub(crate) const MAGIC: &[u8; 4] = b"SDVS";
/// Bump whenever the store-file layout changes; [`scan_entries`] reads only
/// this version.
pub const STORE_VERSION: u32 = 2;

// -------------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3 polynomial, reflected), the same function `zlib` and
/// `cksum -o 3` compute — table-driven, table built at compile time.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    !bytes.iter().fold(!0u32, |crc, &b| {
        (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xff) as usize]
    })
}

/// The bytes an entry's CRC covers: its full framing plus payload.
fn entry_crc(key: u128, payload: &[u8]) -> u32 {
    let mut buf = Vec::with_capacity(20 + payload.len());
    buf.extend_from_slice(&(key as u64).to_le_bytes());
    buf.extend_from_slice(&((key >> 64) as u64).to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    crc32(&buf)
}

// ------------------------------------------------------------ serialization

/// Serializes entries as a current-version store file.
///
/// Entry order is deterministic (sorted by key) so byte-identical content
/// produces byte-identical files — CI cache stability, golden fixtures, and
/// the truncation property tests all rely on this.
#[must_use]
pub fn serialize_entries(fingerprint: u64, entries: &HashMap<u128, Vec<u8>>) -> Vec<u8> {
    let mut keys: Vec<&u128> = entries.keys().collect();
    keys.sort_unstable();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for key in keys {
        let payload = &entries[key];
        out.extend_from_slice(&(*key as u64).to_le_bytes());
        out.extend_from_slice(&((key >> 64) as u64).to_le_bytes());
        out.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("payload fits u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(&entry_crc(*key, payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

// ----------------------------------------------------------------- scanning

/// One localized defect found while scanning a store file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryFault {
    /// Human-readable description (`entry 3: crc mismatch …`).
    pub what: String,
    /// The byte range `[start, end)` of the damaged region in the file.
    pub range: (usize, usize),
    /// How many entries this fault definitely cost (0 for trailing garbage).
    pub entries_lost: u64,
}

/// The outcome of leniently scanning one store file.
#[derive(Debug, Clone, Default)]
pub struct EntryScan {
    /// The producer fingerprint the file was written under.
    pub fingerprint: u64,
    /// Every entry whose bytes checked out.
    pub entries: HashMap<u128, Vec<u8>>,
    /// Localized damage found past the header; empty for a healthy file.
    pub faults: Vec<EntryFault>,
}

impl EntryScan {
    /// `true` when the file parsed without a single fault.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }

    /// Total entries lost to faults (corrupt, truncated, or duplicate).
    #[must_use]
    pub fn corrupt_entries(&self) -> u64 {
        self.faults.iter().map(|f| f.entries_lost).sum()
    }
}

/// A bounds-checked little-endian reader that remembers its position.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let (head, rest) = self
            .buf
            .split_at_checked(n)
            .ok_or_else(|| format!("truncated at a {n}-byte field ({} left)", self.buf.len()))?;
        self.buf = rest;
        self.pos += n;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Leniently parses a store file.
///
/// # Errors
///
/// `Err` only when the *header* is unreadable (too short, bad magic, or an
/// unknown version) — then nothing in the file can be trusted, and the store
/// reads it as empty.  All damage past the header comes back as
/// [`EntryScan::faults`] alongside every entry that survived.
pub fn scan_entries(bytes: &[u8]) -> Result<EntryScan, String> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.take(4)? != MAGIC {
        return Err("bad magic".into());
    }
    let version = c.u32()?;
    if version != STORE_VERSION {
        return Err(format!("version {version}, expected {STORE_VERSION}"));
    }
    let fingerprint = c.u64()?;
    let count = c.u64()?;
    let mut scan = EntryScan {
        fingerprint,
        ..EntryScan::default()
    };
    for i in 0..count {
        let start = c.pos;
        let framing = (|| {
            let lo = c.u64()?;
            let hi = c.u64()?;
            let len = c.u32()?;
            let stored_crc = c.u32()?;
            let payload = c.take(len as usize)?;
            Ok::<_, String>((lo, hi, stored_crc, payload))
        })();
        let (lo, hi, stored_crc, payload) = match framing {
            Ok(parts) => parts,
            Err(e) => {
                // Framing is gone: nothing after this point can be trusted
                // to start where an entry starts, so the rest of the file is
                // one damaged region.
                scan.faults.push(EntryFault {
                    what: format!("entry {i}: {e}"),
                    range: (start, bytes.len()),
                    entries_lost: count - i,
                });
                return Ok(scan);
            }
        };
        let key = (u128::from(hi) << 64) | u128::from(lo);
        let computed = entry_crc(key, payload);
        if stored_crc != computed {
            scan.faults.push(EntryFault {
                what: format!(
                    "entry {i}: crc mismatch (stored {stored_crc:#010x}, computed {computed:#010x})"
                ),
                range: (start, c.pos),
                entries_lost: 1,
            });
            continue;
        }
        if scan.entries.insert(key, payload.to_vec()).is_some() {
            scan.faults.push(EntryFault {
                what: format!("entry {i}: duplicate key {key:#034x}"),
                range: (start, c.pos),
                entries_lost: 1,
            });
        }
    }
    if !c.buf.is_empty() {
        scan.faults.push(EntryFault {
            what: format!("{} trailing bytes after {count} entries", c.buf.len()),
            range: (c.pos, bytes.len()),
            entries_lost: 0,
        });
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value and a couple of zlib-verified ones.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"hello"), 0x3610_a686);
    }

    #[test]
    fn clean_round_trip() {
        let mut entries = HashMap::new();
        entries.insert(1u128 << 120 | 7, vec![1, 2, 3]);
        entries.insert(1u128 << 120 | 9, vec![]);
        let scan = scan_entries(&serialize_entries(0xfeed, &entries)).unwrap();
        assert_eq!(scan.fingerprint, 0xfeed);
        assert_eq!(scan.entries, entries);
        assert!(scan.is_clean());
    }

    #[test]
    fn bit_flip_loses_exactly_one_entry() {
        let mut entries = HashMap::new();
        for i in 0..5u128 {
            entries.insert(1u128 << 120 | i, vec![i as u8; 8]);
        }
        let mut bytes = serialize_entries(1, &entries);
        // Flip one payload bit of entry 1 (header 24, each entry 24 framing
        // + 8 payload).
        let victim = 24 + 32 + 24 + 2;
        bytes[victim] ^= 0x40;
        let scan = scan_entries(&bytes).unwrap();
        assert_eq!(scan.faults.len(), 1, "{:?}", scan.faults);
        assert_eq!(scan.corrupt_entries(), 1);
        assert_eq!(scan.entries.len(), 4, "neighbours survive");
        assert!(scan.faults[0].what.contains("crc mismatch"));
    }

    #[test]
    fn truncation_keeps_every_fully_intact_entry() {
        let mut entries = HashMap::new();
        for i in 0..4u128 {
            entries.insert(2u128 << 120 | i, vec![0xab; 6]);
        }
        let bytes = serialize_entries(1, &entries);
        let header = 24;
        let per_entry = 8 + 8 + 4 + 4 + 6;
        // Cut in the middle of entry 2: entries 0 and 1 survive.
        let cut = header + 2 * per_entry + 3;
        let scan = scan_entries(&bytes[..cut]).unwrap();
        assert_eq!(scan.entries.len(), 2);
        assert_eq!(scan.corrupt_entries(), 2, "entry 2 and the unseen entry 3");
        assert_eq!(scan.faults[0].range, (header + 2 * per_entry, cut));
    }

    #[test]
    fn header_damage_is_fatal() {
        let bytes = serialize_entries(1, &HashMap::new());
        assert!(scan_entries(&bytes[..3]).is_err(), "short header");
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(scan_entries(&bad).is_err(), "bad magic");
        let mut future = bytes;
        future[4] = 99;
        assert!(scan_entries(&future).is_err(), "unknown version");
    }

    #[test]
    fn trailing_bytes_are_a_fault_not_a_loss() {
        let mut entries = HashMap::new();
        entries.insert(7u128, vec![1]);
        let mut bytes = serialize_entries(1, &entries);
        bytes.extend_from_slice(b"junk");
        let scan = scan_entries(&bytes).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.corrupt_entries(), 0);
        assert_eq!(scan.faults.len(), 1);
        assert!(scan.faults[0].what.contains("trailing"));
        assert_eq!(scan.faults[0].range, (bytes.len() - 4, bytes.len()));
    }
}
