//! Compact versioned binary (de)serialization of the [`ServerKey`] — the
//! wire format a [`KeyStore`](crate::KeyStore) backend stores per tenant.
//!
//! The server-key frame is the only frame:
//!
//! ```text
//! magic   b"MPHK"                      4 bytes
//! version u16 little-endian            2 bytes   (currently 2)
//! kind    u8                           1 byte    (5: a server key)
//! length  u64 little-endian            8 bytes   (payload byte count)
//! payload length bytes
//! check   u64 little-endian            8 bytes   (over all preceding
//!                                                 bytes; see below)
//! ```
//!
//! Any other kind is rejected as a kind mismatch. The payload is the
//! parameter block, the backend tag, then the embedded bootstrapping and
//! key-switching keys, each behind its own length. All multi-byte
//! integers are little-endian; torus values travel as raw `u32` words;
//! noise parameters as IEEE-754 `f64` bit patterns. The bootstrapping key
//! is serialized in the **coefficient domain** only — the transform-domain
//! form is recomputed on load, never trusted from the wire (and the key
//! holds spectra only: the writer derives the coefficients back). The
//! key-switching key's payload is its in-memory layout: a shape header,
//! then every `KSK_(i,j)` as `dim_out + 1` words in the order the key
//! switch streams them.
//!
//! The version selects the checksum and nothing else. Version 2 (written)
//! folds eight bytes per multiply (`fnv1a_words`); version 1 (still read)
//! is byte-wise FNV-1a-64, whose one multiply per byte was half to two
//! thirds of a cold key load.
//!
//! Deserialization never panics on malformed input: every framing,
//! bounds, checksum, or shape violation surfaces as
//! [`TfheError::KeyCorrupted`] with a description of the first failure.
//! There is no serde involved; the format is hand-rolled and pinned by
//! round-trip property tests (`tests/serialization.rs`).
//!
//! A frame is decoded in one pass into the key's own storage, after every
//! check: each wire polynomial through one reused coefficient buffer and
//! a forward transform in place into its spectrum, the KSK words straight
//! into the key's word buffer. The storage is a key of the same
//! parameters the caller hands over — the [`KeyStore`](crate::KeyStore)'s
//! loader passes the key it last evicted — or else allocated once.

use morphling_math::{DecompParams, Polynomial, Torus32};

use crate::bootstrap_key::BootstrapKey;
use crate::error::TfheError;
use crate::fft_cache::fft_for;
use crate::glwe::GlweCiphertext;
use crate::ksk::KeySwitchKey;
use crate::params::TfheParams;
use crate::server::ServerKey;

/// Frame magic: "MPHK" (Morphling key).
const MAGIC: [u8; 4] = *b"MPHK";
/// Current wire-format version: what [`Writer::frame`] writes.
const VERSION: u16 = 2;
/// Bytes in front of a frame's payload: magic, version, kind, length.
const HEADER: usize = 15;

/// The frame kind tag of a server key (1–4 tag other key types, which the
/// decoder rejects).
const SERVER_KEY: u8 = 5;

/// Parameter-set names the reader can intern back to `&'static str`
/// (matching [`crate::ParamSet`]); anything else round-trips as "CUSTOM".
const KNOWN_NAMES: [&str; 11] = [
    "I", "II", "III", "IV", "A", "B", "C", "FIG1", "TEST", "TEST-M", "CUSTOM",
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over `bytes`, continuing from `h` — cheap,
/// dependency-free, and plenty to catch truncation and bit flips (malice
/// is out of scope: blobs come from the operator's own key backend). The
/// checksum of version-1 frames.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The checksum of version-2 frames: FNV-1a taking a little-endian `u64`
/// per step where the original takes a byte, with a fold of the high half
/// into the low one after each multiply (a multiply only carries upwards),
/// and plain [`fnv1a`] over the last `len % 8` bytes. Every step — xor
/// with the data, multiply by an odd constant, xor-shift — is a bijection
/// of `h`, so any corruption confined to one word changes the result.
pub(crate) fn fnv1a_words(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = FNV_OFFSET;
    for w in &mut words {
        let w = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        h = (h ^ w).wrapping_mul(FNV_PRIME);
        h ^= h >> 32;
    }
    fnv1a(h, words.remainder())
}

fn corrupt(detail: impl Into<String>) -> TfheError {
    TfheError::KeyCorrupted {
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------
// Little-endian writer / bounds-checked reader
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start a server-key frame in a buffer with room for `payload` bytes
    /// of payload (a hint: the length field is filled in by
    /// [`finish`](Self::finish)).
    fn frame(payload: usize) -> Self {
        let mut w = Self {
            buf: Vec::with_capacity(HEADER + payload + 8),
        };
        w.bytes(&MAGIC);
        w.bytes(&VERSION.to_le_bytes());
        w.u8(SERVER_KEY);
        w.open_len();
        w
    }

    /// Close the frame: payload length, then the checksum of everything
    /// before it.
    fn finish(mut self) -> Vec<u8> {
        self.close_len(HEADER - 8);
        let check = fnv1a_words(&self.buf);
        self.u64(check);
        self.buf
    }

    /// A length field counting what follows it, up to the matching
    /// [`close_len`](Self::close_len): returns where it sits.
    fn open_len(&mut self) -> usize {
        self.u64(0);
        self.buf.len() - 8
    }

    fn close_len(&mut self, at: usize) {
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    fn torus_words(&mut self, words: &[Torus32]) {
        let at = self.buf.len();
        self.buf.resize(at + 4 * words.len(), 0);
        for (dst, w) in self.buf[at..].chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&w.into_raw().to_le_bytes());
        }
    }

    fn glwe(&mut self, ct: &GlweCiphertext) {
        for comp in ct.components() {
            self.torus_words(comp.coeffs());
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TfheError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                corrupt(format!(
                    "truncated: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, TfheError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, TfheError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, TfheError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A `u64` that must fit `usize` and stay under a sanity cap — wire
    /// lengths drive allocations, so a corrupt length must not OOM us.
    fn len_field(&mut self, what: &str) -> Result<usize, TfheError> {
        const CAP: u64 = 1 << 33; // 8 GiB of elements is already absurd
        let v = self.u64()?;
        if v > CAP {
            return Err(corrupt(format!("{what} length {v} is implausible")));
        }
        usize::try_from(v).map_err(|_| corrupt(format!("{what} length {v} overflows usize")))
    }

    fn f64(&mut self) -> Result<f64, TfheError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Bytes not yet taken.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The product of a shape header's `dims`, if that many torus words
    /// are exactly what is left: a header must account for the bytes
    /// behind it before anything is sized by it.
    fn words_left(&self, dims: &[usize]) -> Option<usize> {
        (dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d)))
            .filter(|&words| words.checked_mul(4) == Some(self.remaining()))
    }

    fn done(&self) -> Result<(), TfheError> {
        if self.remaining() != 0 {
            return Err(corrupt(format!(
                "trailing garbage: {} unread payload bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

fn unframe(bytes: &[u8]) -> Result<&[u8], TfheError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:02x?}")));
    }
    let version = {
        let b = r.take(2)?;
        u16::from_le_bytes([b[0], b[1]])
    };
    let checksum: fn(&[u8]) -> u64 = match version {
        1 => |bytes: &[u8]| fnv1a(FNV_OFFSET, bytes),
        VERSION => fnv1a_words,
        _ => {
            return Err(corrupt(format!(
                "unsupported version {version} (expected 1 or {VERSION})"
            )))
        }
    };
    let kind = r.u8()?;
    if kind != SERVER_KEY {
        return Err(corrupt(format!(
            "kind mismatch: frame holds kind {kind}, expected {SERVER_KEY} (server key)"
        )));
    }
    let len = r.len_field("payload")?;
    let payload = r.take(len)?;
    let check = r.u64()?;
    r.done()
        .map_err(|_| corrupt("trailing bytes after checksum"))?;
    let computed = checksum(&bytes[..bytes.len() - 8]);
    if check != computed {
        return Err(corrupt(format!(
            "checksum mismatch: stored {check:#018x}, computed {computed:#018x}"
        )));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------
// Parameter block (embedded in the ServerKey payload)
// ---------------------------------------------------------------------

fn write_params(w: &mut Writer, p: &TfheParams) {
    let name = if KNOWN_NAMES.contains(&p.name) {
        p.name
    } else {
        "CUSTOM"
    };
    w.u8(name.len() as u8);
    w.bytes(name.as_bytes());
    w.usize(p.poly_size);
    w.usize(p.lwe_dim);
    w.usize(p.glwe_dim);
    w.u32(p.bsk_decomp.base_log());
    w.usize(p.bsk_decomp.level());
    w.u32(p.ksk_decomp.base_log());
    w.usize(p.ksk_decomp.level());
    w.f64(p.lwe_noise_std);
    w.f64(p.glwe_noise_std);
    w.u64(p.plaintext_modulus);
    w.u32(p.security_bits);
    w.u8(u8::from(p.functional));
}

fn read_params(r: &mut Reader<'_>) -> Result<TfheParams, TfheError> {
    let name_len = r.u8()? as usize;
    let name_bytes = r.take(name_len)?;
    let name = KNOWN_NAMES
        .iter()
        .copied()
        .find(|n| n.as_bytes() == name_bytes)
        .unwrap_or("CUSTOM");
    let poly_size = r.len_field("poly_size")?;
    let lwe_dim = r.len_field("lwe_dim")?;
    let glwe_dim = r.len_field("glwe_dim")?;
    let bsk_base_log = r.u32()?;
    let bsk_level = r.len_field("bsk level")?;
    let ksk_base_log = r.u32()?;
    let ksk_level = r.len_field("ksk level")?;
    let lwe_noise_std = r.f64()?;
    let glwe_noise_std = r.f64()?;
    let plaintext_modulus = r.u64()?;
    let security_bits = r.u32()?;
    let functional = r.u8()? != 0;
    if poly_size < 4 || !poly_size.is_power_of_two() {
        return Err(corrupt(format!(
            "poly_size {poly_size} not a power of two ≥ 4"
        )));
    }
    if bsk_base_log == 0 || bsk_base_log > 32 || ksk_base_log == 0 || ksk_base_log > 32 {
        return Err(corrupt("decomposition base_log out of range"));
    }
    if bsk_level == 0
        || ksk_level == 0
        || bsk_base_log as usize * bsk_level > 32
        || ksk_base_log as usize * ksk_level > 32
    {
        return Err(corrupt("decomposition level out of range"));
    }
    if !lwe_noise_std.is_finite() || !glwe_noise_std.is_finite() {
        return Err(corrupt("noise parameters are not finite"));
    }
    // What `TfheParams::with_plaintext_modulus` asserts: a LUT is built
    // over `p` slots of a power-of-two torus grid.
    if plaintext_modulus < 2 || !plaintext_modulus.is_power_of_two() {
        return Err(corrupt(format!(
            "plaintext modulus {plaintext_modulus} not a power of two ≥ 2"
        )));
    }
    Ok(TfheParams {
        name,
        poly_size,
        lwe_dim,
        glwe_dim,
        bsk_decomp: DecompParams::new(bsk_base_log, bsk_level),
        ksk_decomp: DecompParams::new(ksk_base_log, ksk_level),
        lwe_noise_std,
        glwe_noise_std,
        plaintext_modulus,
        security_bits,
        functional,
    })
}

// ---------------------------------------------------------------------
// Embedded key payloads
// ---------------------------------------------------------------------

/// Payload bytes of a [`BootstrapKey`]: what [`write_bootstrap_key`]
/// appends.
fn bootstrap_key_len(key: &BootstrapKey) -> usize {
    let first = key.fourier(0);
    let polys = (first.glwe_dim() + 1) * first.level() * (first.glwe_dim() + 1);
    32 + 4 * key.lwe_dim() * polys * first.poly_size()
}

fn write_bootstrap_key(w: &mut Writer, key: &BootstrapKey) {
    let n_ggsw = key.lwe_dim();
    let first = key.fourier(0);
    w.usize(n_ggsw);
    w.usize(first.glwe_dim());
    w.usize(first.level());
    w.usize(first.poly_size());
    for i in 0..n_ggsw {
        for row in key.coefficient(i).rows() {
            w.glwe(row);
        }
    }
}

/// An embedded BSK's shape header: `(n, k, level, N)`.
type BskShape = (usize, usize, usize, usize);

/// An embedded BSK's shape header, checked against the words behind it,
/// and those words' bytes.
fn read_bootstrap_key<'a>(r: &mut Reader<'a>) -> Result<(BskShape, &'a [u8]), TfheError> {
    let n_ggsw = r.len_field("BSK GGSW count")?;
    let k = r.len_field("BSK GLWE dimension")?;
    let level = r.len_field("BSK level")?;
    let n = r.len_field("BSK poly size")?;
    // No transform engine exists below N = 4.
    if n_ggsw == 0 || level == 0 || n < 4 || !n.is_power_of_two() {
        return Err(corrupt("BSK shape header is degenerate"));
    }
    let k1 = k.saturating_add(1);
    if r.words_left(&[n_ggsw, k1, level, k1, n]).is_none() {
        return Err(corrupt(format!(
            "BSK header {n_ggsw}×({k}+1)·{level}×({k}+1)×{n} words disagrees with {} payload bytes",
            r.remaining()
        )));
    }
    Ok(((n_ggsw, k, level, n), r.take(r.remaining())?))
}

/// Payload bytes of a [`KeySwitchKey`]: what [`write_key_switch_key`]
/// appends.
fn key_switch_key_len(key: &KeySwitchKey) -> usize {
    28 + 4 * key.words().len()
}

fn write_key_switch_key(w: &mut Writer, key: &KeySwitchKey) {
    w.usize(key.dim_in());
    w.usize(key.dim_out());
    w.u32(key.decomp_params().base_log());
    w.usize(key.decomp_params().level());
    w.torus_words(key.words());
}

/// An embedded KSK's shape header: `(dim_in, dim_out, decomposition)`.
type KskShape = (usize, usize, DecompParams);

/// An embedded KSK's shape header, checked against the words behind it,
/// and those words' bytes.
fn read_key_switch_key<'a>(r: &mut Reader<'a>) -> Result<(KskShape, &'a [u8]), TfheError> {
    let dim_in = r.len_field("KSK input dimension")?;
    let dim_out = r.len_field("KSK output dimension")?;
    let base_log = r.u32()?;
    let level = r.len_field("KSK level")?;
    if base_log == 0 || base_log > 32 || level == 0 || base_log as usize * level > 32 {
        return Err(corrupt("KSK decomposition parameters out of range"));
    }
    r.words_left(&[dim_in, level, dim_out.saturating_add(1)])
        .ok_or_else(|| {
            corrupt(format!(
                "KSK header {dim_in}×{level}×({dim_out}+1) words disagrees with {} payload bytes",
                r.remaining()
            ))
        })?;
    let decomp = DecompParams::new(base_log, level);
    Ok(((dim_in, dim_out, decomp), r.take(r.remaining())?))
}

/// The torus words of an embedded key's payload, in wire order.
fn torus_words(bytes: &[u8]) -> impl Iterator<Item = Torus32> + '_ {
    let (words, _) = bytes.as_chunks();
    words
        .iter()
        .map(|&w| Torus32::from_raw(u32::from_le_bytes(w)))
}

/// Checks a frame's backend byte. Tags 0–3 were the transform-path
/// spellings (0 `Fft`, 1 `FftPlain`, the FFT path without merge-split)
/// and the exact ones (2 `Ntt`, 3 `Exact`, the correctness oracle's
/// multiplier); the key material never depended on them, so all four load
/// as the one key there is now, and the writer puts 0.
fn check_backend_tag(tag: u8) -> Result<(), TfheError> {
    match tag {
        0..=3 => Ok(()),
        other => Err(corrupt(format!("unknown backend tag {other}"))),
    }
}

/// Serialize a [`ServerKey`]: parameter block, backend tag (0) and two
/// reserved bytes, then the embedded BSK and KSK payloads.
///
/// Everything is written once, into one buffer sized up front (the
/// payload is 58 MB at Set III).
pub fn serialize_server_key(key: &ServerKey) -> Vec<u8> {
    let (bsk, ksk) = (key.bootstrap_key(), key.key_switch_key());
    // 128 bytes cover the parameter block, the flags and the two lengths.
    let mut w = Writer::frame(128 + bootstrap_key_len(bsk) + key_switch_key_len(ksk));
    write_params(&mut w, key.params());
    // The backend tag, then two bytes where earlier writers stored
    // transform-path flags.
    w.u8(0);
    w.u8(0);
    w.u8(0);
    let at = w.open_len();
    write_bootstrap_key(&mut w, bsk);
    w.close_len(at);
    let at = w.open_len();
    write_key_switch_key(&mut w, ksk);
    w.close_len(at);
    w.finish()
}

/// Deserialize a [`ServerKey`], rebuilding its transform engine (and the
/// BSK's Fourier form) locally.
///
/// # Errors
///
/// [`TfheError::KeyCorrupted`] on any framing, checksum, or shape
/// violation.
pub fn deserialize_server_key(bytes: &[u8]) -> Result<ServerKey, TfheError> {
    decode(bytes, None)
}

/// Decode a server-key frame into `recycled`'s storage if its parameters
/// are the frame's, else into a key allocated once for them (`recycled`
/// is freed first). Every check runs before a word is written, so a
/// rejected frame leaves nothing half-decoded behind.
pub(crate) fn decode(bytes: &[u8], recycled: Option<ServerKey>) -> Result<ServerKey, TfheError> {
    let mut r = Reader::new(unframe(bytes)?);
    let params = read_params(&mut r)?;
    check_backend_tag(r.u8()?)?;
    let _reserved = [r.u8()?, r.u8()?];
    let bsk_len = r.len_field("embedded BSK")?;
    let (bsk_shape, bsk_words) = read_bootstrap_key(&mut Reader::new(r.take(bsk_len)?))?;
    let ksk_len = r.len_field("embedded KSK")?;
    let ((dim_in, dim_out, ksk_decomp), ksk_words) =
        read_key_switch_key(&mut Reader::new(r.take(ksk_len)?))?;
    r.done()?;
    let level = params.bsk_decomp.level();
    let params_shape = (params.lwe_dim, params.glwe_dim, level, params.poly_size);
    if bsk_shape != params_shape {
        return Err(corrupt(format!(
            "BSK shape (n, k, level, N) = {bsk_shape:?} disagrees with params {params_shape:?}"
        )));
    }
    if dim_out != params.lwe_dim || dim_in != params.extracted_lwe_dim() {
        return Err(corrupt(format!(
            "KSK dims {dim_in}→{dim_out} disagree with params {}→{}",
            params.extracted_lwe_dim(),
            params.lwe_dim
        )));
    }
    let decomp = params.ksk_decomp;
    if ksk_decomp != decomp {
        return Err(corrupt(format!(
            "KSK decomposition (base_log, level) = ({}, {}) disagrees with params ({}, {})",
            ksk_decomp.base_log(),
            ksk_decomp.level(),
            decomp.base_log(),
            decomp.level()
        )));
    }
    let n = params.poly_size;
    let mut key = match recycled.filter(|key| *key.params() == params) {
        Some(key) => key,
        None => {
            let bsk = BootstrapKey::zeroed(&params);
            ServerKey::from_parts(params, bsk, KeySwitchKey::empty(decomp, dim_out))
        }
    };
    let (bsk, ksk) = key.material_mut();
    // Each wire polynomial goes through one buffer as the centered
    // representatives `forward_torus` would read (so the spectra are its,
    // bit for bit) and is transformed into its spectrum in place.
    let (fft, mut coeffs) = (fft_for(n), Polynomial::<i64>::zero(n));
    for (spectrum, poly) in bsk.spectra_mut().zip(bsk_words.chunks_exact(4 * n)) {
        for (c, w) in coeffs.coeffs_mut().iter_mut().zip(torus_words(poly)) {
            *c = i64::from(w.to_signed());
        }
        fft.forward_int_into(&coeffs, spectrum);
    }
    let words = ksk.words_mut();
    words.clear();
    words.extend(torus_words(ksk_words));
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ClientKey;
    use crate::params::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn word_wise_checksum_is_fnv1a_on_the_tail_and_sees_every_byte() {
        // Shorter than a word, it is FNV-1a itself.
        assert_eq!(fnv1a_words(b"foobar"), fnv1a(FNV_OFFSET, b"foobar"));
        // One word is one step; the tail continues from it byte-wise.
        let step = (FNV_OFFSET ^ u64::from_le_bytes(*b"morphlin")).wrapping_mul(FNV_PRIME);
        let step = step ^ (step >> 32);
        assert_eq!(fnv1a_words(b"morphlin"), step);
        assert_eq!(fnv1a_words(b"morphling"), fnv1a(step, b"g"));
        // Every bit of every byte, in whole words and in the tail, and
        // every length, moves the result.
        let data: Vec<u8> = (0..29u8).map(|i| i.wrapping_mul(37)).collect();
        let clean = fnv1a_words(&data);
        for pos in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[pos] ^= 1 << bit;
                assert_ne!(fnv1a_words(&bad), clean, "byte {pos} bit {bit}");
            }
            assert_ne!(fnv1a_words(&data[..pos]), clean, "cut at {pos}");
        }
    }

    #[test]
    fn server_key_round_trips_bit_identically() {
        let mut rng = StdRng::seed_from_u64(43);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params, &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let blob = serialize_server_key(&sk);
        // Written once into a buffer sized up front: it never regrew.
        assert!(blob.capacity() - blob.len() < 128, "{}", blob.capacity());
        let back = deserialize_server_key(&blob).unwrap();
        assert_eq!(back.params(), sk.params());
        // Key material matches exactly...
        for i in 0..sk.bootstrap_key().lwe_dim() {
            assert_eq!(
                back.bootstrap_key().coefficient(i),
                sk.bootstrap_key().coefficient(i),
                "BSK_{i}"
            );
        }
        assert_eq!(back.key_switch_key().words(), sk.key_switch_key().words());
        // ...and so does a bootstrap through the reloaded key.
        let lut = crate::Lut::identity(sk.params().poly_size, 4);
        let ct = ck.encrypt(3, &mut rng);
        assert_eq!(
            back.programmable_bootstrap(&ct, &lut),
            sk.programmable_bootstrap(&ct, &lut)
        );
    }

    #[test]
    fn empty_and_garbage_inputs_are_rejected_not_panicked() {
        for bad in [&b""[..], &b"MP"[..], &b"NOPE1234"[..], &[0u8; 64][..]] {
            assert!(matches!(
                deserialize_server_key(bad),
                Err(TfheError::KeyCorrupted { .. })
            ));
        }
    }
}
