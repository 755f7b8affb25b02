//! CRC32 integrity footers for on-disk artifacts.
//!
//! Atomic publishes ([`Storage::write_atomic`](crate::storage::Storage))
//! guarantee a file is either the old version or the new one — but they
//! cannot detect bytes altered *after* the rename (bit rot, a foreign tool
//! truncating the file in place, a bad disk sector). The integrity footer
//! closes that gap: writers append a fixed-width CRC32 trailer over the
//! payload, and loaders recompute it before parsing.
//!
//! The footer is deliberately JSON-inert — a trailing comment-style line —
//! so a human inspecting the file sees the checksum, and tooling that
//! strips it recovers the exact original payload:
//!
//! ```text
//! {"version":1, ...}
//! #crc32:9a8b7c6d
//! ```
//!
//! Every writer seals what it publishes, so a missing or malformed footer
//! is damage (a truncation, or a flip inside the footer itself) and is
//! refused like a checksum mismatch.

use crate::error::{CpdgError, CpdgResult};
use std::path::Path;

/// Footer prefix: newline so the payload's final byte is untouched, then a
/// comment-style marker no JSON payload can end with.
const FOOTER_PREFIX: &[u8] = b"\n#crc32:";
/// Total footer width: prefix + 8 lowercase hex digits + trailing newline.
const FOOTER_LEN: usize = FOOTER_PREFIX.len() + 8 + 1;

/// The reflected IEEE 802.3 CRC32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `CRC_TABLE[b]` is the CRC register after shifting the byte `b` through
/// it: one lookup per input byte in place of eight shift-xor steps. Built
/// at compile time from `POLY`.
static CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
}

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`, one
/// table lookup per byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Appends the integrity footer to `payload`, producing the bytes to hand
/// to [`Storage::write_atomic`](crate::storage::Storage::write_atomic).
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FOOTER_LEN);
    out.extend_from_slice(payload);
    out.extend_from_slice(FOOTER_PREFIX);
    out.extend_from_slice(format!("{:08x}", crc32(payload)).as_bytes());
    out.push(b'\n');
    out
}

/// Splits `bytes` into payload + verified footer.
///
/// * Footer present and CRC matches → the payload slice.
/// * Footer present and CRC differs → [`CpdgError::CorruptArtifact`].
/// * Footer missing or malformed → [`CpdgError::Corrupt`] naming `path`.
///
/// Both refusals bump `integrity.crc_failures` and map to exit code 4.
pub fn unseal<'a>(bytes: &'a [u8], path: &Path) -> CpdgResult<&'a [u8]> {
    let Some((payload, footer_crc)) = split_footer(bytes) else {
        cpdg_obs::counter!("integrity.crc_failures").inc();
        return Err(CpdgError::corrupt(
            path,
            "integrity footer missing or unparseable",
        ));
    };
    let computed = crc32(payload);
    if computed != footer_crc {
        cpdg_obs::counter!("integrity.crc_failures").inc();
        return Err(CpdgError::CorruptArtifact {
            path: path.to_path_buf(),
            expected: footer_crc,
            found: computed,
        });
    }
    Ok(payload)
}

/// Parses the trailing footer, if one is present and well-formed.
fn split_footer(bytes: &[u8]) -> Option<(&[u8], u32)> {
    if bytes.len() < FOOTER_LEN || bytes.last() != Some(&b'\n') {
        return None;
    }
    let footer_start = bytes.len() - FOOTER_LEN;
    let footer = &bytes[footer_start..];
    if !footer.starts_with(FOOTER_PREFIX) {
        return None;
    }
    // Only the lowercase digits `seal` writes: a flip that changes a
    // digit's case must not parse to the same checksum.
    let hex = &footer[FOOTER_PREFIX.len()..FOOTER_LEN - 1];
    if !hex.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    let crc = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
    Some((&bytes[..footer_start], crc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bitwise CRC32 the table is built from: eight shift-xor steps
    /// per byte.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    fn seeded_bytes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn table_crc32_matches_the_bitwise_reference() {
        for len in 0..=64 {
            let bytes = seeded_bytes(len, 0x1234 + len as u64);
            assert_eq!(crc32(&bytes), bitwise_crc32(&bytes), "len {len}");
        }
        let mib = seeded_bytes(1 << 20, 0x5eed);
        assert_eq!(crc32(&mib), bitwise_crc32(&mib), "1 MiB");
        assert_eq!(crc32(&[0xff; 1000]), bitwise_crc32(&[0xff; 1000]));
    }

    #[test]
    fn seal_unseal_round_trips() {
        let payload = br#"{"version":1,"params":{}}"#;
        let sealed = seal(payload);
        assert_eq!(sealed.len(), payload.len() + FOOTER_LEN);
        let back = unseal(&sealed, Path::new("/x.json")).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn flipped_bit_is_detected() {
        let mut sealed = seal(b"important model bytes");
        sealed[3] ^= 0x40;
        let err = unseal(&sealed, Path::new("/m.json")).unwrap_err();
        match err {
            CpdgError::CorruptArtifact {
                path,
                expected,
                found,
            } => {
                assert_eq!(path, PathBuf::from("/m.json"));
                assert_ne!(expected, found);
            }
            other => panic!("expected CorruptArtifact, got {other}"),
        }
    }

    #[test]
    fn tampered_footer_is_detected() {
        let sealed = seal(b"payload");
        // Rewrite the recorded checksum to a different valid hex string.
        let mut forged = sealed.clone();
        let at = forged.len() - 2;
        forged[at] = if forged[at] == b'0' { b'1' } else { b'0' };
        assert!(matches!(
            unseal(&forged, Path::new("/m.json")),
            Err(CpdgError::CorruptArtifact { .. })
        ));
    }

    #[test]
    fn unfootered_or_malformed_footer_bytes_are_refused() {
        let bare = br#"{"version":1}"#;
        let err = unseal(bare, Path::new("/bare.json")).unwrap_err();
        assert!(matches!(err, CpdgError::Corrupt { .. }), "{err}");
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("/bare.json"), "{err}");
        // A sealed file cut exactly at its footer is refused too.
        let payload = b"payload";
        let sealed = seal(payload);
        assert!(unseal(&sealed[..payload.len()], Path::new("/cut")).is_err());
        // A footer hex letter with its case flipped no longer parses.
        for at in sealed.len() - 9..sealed.len() - 1 {
            if sealed[at].is_ascii_lowercase() {
                let mut upper = sealed.clone();
                upper[at] = upper[at].to_ascii_uppercase();
                assert!(unseal(&upper, Path::new("/case")).is_err());
            }
        }
        // Short inputs never index out of bounds.
        assert!(unseal(b"", Path::new("/e")).is_err());
        assert!(unseal(b"\n", Path::new("/n")).is_err());
    }

    #[test]
    fn payload_ending_in_footer_lookalike_still_verifies() {
        // A payload whose own tail mimics the footer marker must survive a
        // seal/unseal round trip untouched (the real footer wins).
        let tricky = b"data\n#crc32:deadbeef\n";
        let sealed = seal(tricky);
        assert_eq!(unseal(&sealed, Path::new("/t")).unwrap(), tricky.as_slice());
    }
}
