//! SWAR (SIMD Within A Register) byte-scanning primitives.
//!
//! Every hot positional scan over page bytes — tag-start/tag-end probes in
//! the raw scan, the uppercase probe before a tag name is lower-cased, the
//! single-space check of `class` values, word-boundary splitting in the
//! classifier — funnels through the helpers here. They process eight bytes
//! per iteration using the classic broadcast/XOR/zero-mask word tricks,
//! with scalar heads and tails for unaligned slices. Nothing here is
//! architecture specific: the only requirement is a 64-bit multiply and
//! `u64::from_le_bytes`, so the same code runs on any target the workspace
//! builds for.
//!
//! Correctness notes (the subtle parts, spelled out because the naive
//! versions of these formulas are wrong in ways unit tests on short inputs
//! do not catch):
//!
//! * The folklore `haszero` trick `(v - 0x01…01) & !v & 0x80…80` may set
//!   high bits in lanes *above* the lowest zero byte (the subtraction
//!   borrows across lanes). That is fine when only the lowest set bit is
//!   consumed, but not for exact per-lane masks. [`eq_mask`] uses the
//!   carry-free form `!(((x & 0x7f…7f) + 0x7f…7f) | x) & 0x80…80`, which is
//!   exact in every lane.
//! * The add-based range test (`byte >= n` iff adding `0x80 - n` sets the
//!   lane's high bit) is only valid when the input lane is below 0x80;
//!   otherwise the sum overflows into the neighbouring lane. All range
//!   tests here therefore operate on `w & 0x7f…7f` and separately exclude
//!   lanes whose original high bit was set.

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// Broadcast a byte into all eight lanes of a `u64`.
#[inline(always)]
pub const fn broadcast(b: u8) -> u64 {
    (b as u64) * LO
}

/// Exact per-lane equality mask: the high bit of lane *i* is set iff byte
/// *i* of `w` equals `b`. Unlike the folklore `haszero` trick this has no
/// false positives in higher lanes.
#[inline(always)]
pub const fn eq_mask(w: u64, b: u8) -> u64 {
    let x = w ^ broadcast(b);
    // Carry-free zero test: a lane of `x` is zero iff adding 0x7f to its
    // low seven bits does not reach 0x80 *and* its own high bit is clear.
    let y = (x & LOW7).wrapping_add(LOW7);
    !(y | x) & HI
}

/// Load eight bytes starting at `chunk[0]` as a little-endian word.
/// Callers guarantee `chunk.len() >= 8`.
#[inline(always)]
fn load(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(*chunk.first_chunk().expect("callers keep chunk.len() >= 8"))
}

/// Lossy zero-lane test: some high bit of the result is set iff `x` has a
/// zero byte, and the *lowest* set bit always flags the lowest zero lane
/// exactly (borrows only smear false positives into higher lanes). One op
/// cheaper than [`eq_mask`]; only valid when the caller consumes nothing
/// but `trailing_zeros`.
#[inline(always)]
const fn zero_lanes_lossy(x: u64) -> u64 {
    x.wrapping_sub(LO) & !x & HI
}

/// Index of the first occurrence of `needle` in `haystack`, eight bytes at
/// a time. Equivalent to `haystack.iter().position(|&b| b == needle)`.
///
/// The tail (when the length is not a multiple of eight) is handled with
/// one overlapping word read at `len - 8` rather than a scalar loop: the
/// overlapped lanes were already scanned without a match, so they cannot
/// light up again and no masking is needed.
#[inline]
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let len = haystack.len();
    if len < 8 {
        return haystack.iter().position(|&b| b == needle);
    }
    let n = broadcast(needle);
    let mut i = 0;
    // Two words per iteration: halves the loop overhead on the mid-length
    // runs (tag bodies, sentences) that dominate real scans.
    while i + 16 <= len {
        let m1 = zero_lanes_lossy(load(&haystack[i..]) ^ n);
        let m2 = zero_lanes_lossy(load(&haystack[i + 8..]) ^ n);
        if m1 | m2 != 0 {
            let hit = if m1 != 0 {
                i + (m1.trailing_zeros() / 8) as usize
            } else {
                i + 8 + (m2.trailing_zeros() / 8) as usize
            };
            return Some(hit);
        }
        i += 16;
    }
    if i + 8 <= len {
        let m = zero_lanes_lossy(load(&haystack[i..]) ^ n);
        if m != 0 {
            return Some(i + (m.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    if i < len {
        let m = zero_lanes_lossy(load(&haystack[len - 8..]) ^ n);
        if m != 0 {
            return Some(len - 8 + (m.trailing_zeros() / 8) as usize);
        }
    }
    None
}

/// True iff the slice contains an ASCII uppercase letter (`A`–`Z`).
/// Equivalent to `haystack.iter().any(u8::is_ascii_uppercase)`.
#[inline]
pub fn has_ascii_uppercase(haystack: &[u8]) -> bool {
    let len = haystack.len();
    if len < 8 {
        return haystack.iter().any(u8::is_ascii_uppercase);
    }
    let mut i = 0;
    while i + 8 <= len {
        if uppercase_mask(load(&haystack[i..])) != 0 {
            return true;
        }
        i += 8;
    }
    // Overlapping tail word: re-testing already-clean lanes is harmless.
    i < len && uppercase_mask(load(&haystack[len - 8..])) != 0
}

/// Per-lane mask of ASCII uppercase letters. Safe on arbitrary bytes: the
/// range test runs on the low seven bits and lanes with the original high
/// bit set are excluded.
#[inline(always)]
const fn uppercase_mask(w: u64) -> u64 {
    let low = w & LOW7;
    // low7 >= 0x41 ('A')
    let ge_a = low.wrapping_add(broadcast(0x80 - 0x41)) & HI;
    // low7 >= 0x5b ('Z' + 1)
    let gt_z = low.wrapping_add(broadcast(0x80 - 0x5b)) & HI;
    ge_a & !gt_z & !(w & HI)
}

/// Per-lane mask of bytes that are *not* ASCII alphanumeric. Non-ASCII
/// bytes (high bit set) count as boundaries, matching the classifier's
/// byte-level word split. Exact in every lane.
#[inline(always)]
const fn non_alnum_mask(w: u64) -> u64 {
    let low = w & LOW7;
    let high = w & HI;
    let ge_0 = low.wrapping_add(broadcast(0x80 - b'0')) & HI;
    let gt_9 = low.wrapping_add(broadcast(0x80 - (b'9' + 1))) & HI;
    let digit = ge_0 & !gt_9;
    let ge_au = low.wrapping_add(broadcast(0x80 - b'A')) & HI;
    let gt_zu = low.wrapping_add(broadcast(0x80 - (b'Z' + 1))) & HI;
    let upper = ge_au & !gt_zu;
    let ge_al = low.wrapping_add(broadcast(0x80 - b'a')) & HI;
    let gt_zl = low.wrapping_add(broadcast(0x80 - (b'z' + 1))) & HI;
    let lower = ge_al & !gt_zl;
    let alnum = (digit | upper | lower) & !high;
    !alnum & HI
}

/// Compress the eight per-lane high-bit flags of `mask` (a value whose set
/// bits all lie on 0x80 lane boundaries) into the low eight bits of a
/// `u32`: bit *i* set iff lane *i*'s flag was set.
#[inline(always)]
const fn movemask(mask: u64) -> u32 {
    // Each lane flag is at bit 8*i + 7. After `>> 7` flag i sits at bit 8*i;
    // the multiplier has bits at 56 - 7*i, sliding flag i up to bit 56 + i
    // (cross terms land at pairwise-distinct positions below bit 56, so no
    // carries reach the high byte). The high byte of the product is the
    // bitmask.
    ((mask >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32 & 0xff
}

/// Bitmask of word-boundary positions in the next eight bytes of
/// `haystack` starting at `i`: bit *k* set iff `haystack[i + k]` is not
/// ASCII alphanumeric. Returns `None` when fewer than eight bytes remain.
#[inline]
pub fn boundary_mask8(haystack: &[u8], i: usize) -> Option<u32> {
    if i + 8 > haystack.len() {
        return None;
    }
    Some(movemask(non_alnum_mask(load(&haystack[i..]))))
}

/// Conservative "already collapsed" probe: returns `true` only when the
/// slice is pure ASCII with no control whitespace (0x09–0x0d), no
/// leading/trailing space, and no two adjacent spaces — i.e. when splitting
/// at single spaces gives exactly `split_whitespace`'s pieces. A `false`
/// answer is allowed for clean inputs (e.g. anything non-ASCII); callers
/// must fall back to the exact per-char check.
#[inline]
pub fn is_collapsed_ascii(haystack: &[u8]) -> bool {
    let len = haystack.len();
    if len == 0 {
        return true;
    }
    if haystack[0] == b' ' || haystack[len - 1] == b' ' {
        return false;
    }
    if len < 8 {
        let mut prev_space = false;
        for &b in haystack {
            if b >= 0x80 || (0x09..=0x0d).contains(&b) {
                return false;
            }
            let space = b == b' ';
            if space && prev_space {
                return false;
            }
            prev_space = space;
        }
        return true;
    }
    let mut prev_space = false;
    let mut i = 0;
    while i + 8 <= len {
        let w = load(&haystack[i..]);
        let sp = match collapsed_word_spaces(w) {
            Some(sp) => sp,
            None => return false,
        };
        // A space run continuing from the previous word.
        if prev_space && sp & 0x80 != 0 {
            return false;
        }
        prev_space = sp & (0x80 << 56) != 0;
        i += 8;
    }
    if i < len {
        // Overlapping tail word at `len - 8`. Its start sits at most at
        // `i - 1`, so every adjacent pair not fully inside the scanned
        // prefix — including the one straddling `i` — lies within this
        // word, and re-testing already-clean lanes is harmless.
        match collapsed_word_spaces(load(&haystack[len - 8..])) {
            Some(_) => {}
            None => return false,
        }
    }
    true
}

/// Per-word body of [`is_collapsed_ascii`]: `None` if the word contains a
/// non-ASCII byte, control whitespace (0x09–0x0d) or two adjacent spaces;
/// otherwise the word's space mask for cross-word run tracking.
#[inline(always)]
fn collapsed_word_spaces(w: u64) -> Option<u64> {
    if w & HI != 0 {
        return None; // non-ASCII: defer to the exact char loop
    }
    // Control whitespace 0x09..=0x0d.
    let low = w & LOW7;
    let ge_tab = low.wrapping_add(broadcast(0x80 - 0x09)) & HI;
    let gt_cr = low.wrapping_add(broadcast(0x80 - 0x0e)) & HI;
    if ge_tab & !gt_cr != 0 {
        return None;
    }
    let sp = eq_mask(w, b' ');
    if sp & (sp >> 8) != 0 {
        return None;
    }
    Some(sp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_find(h: &[u8], n: u8) -> Option<usize> {
        h.iter().position(|&b| b == n)
    }

    #[test]
    fn broadcast_fills_lanes() {
        assert_eq!(broadcast(0xab), 0xabab_abab_abab_abab);
        assert_eq!(broadcast(0), 0);
    }

    #[test]
    fn eq_mask_is_exact_per_lane() {
        // Bytes chosen so the folklore haszero form would smear into higher
        // lanes: a zero lane followed by 0x01 lanes.
        let w = u64::from_le_bytes([b'x', 0x01, 0x01, b'x', 0x01, b'x', 0x01, 0x01]);
        let m = eq_mask(w, b'x');
        assert_eq!(m, 0x0000_8000_8000_0080);
        let m1 = eq_mask(w, 0x01);
        assert_eq!(m1, 0x8080_0080_0080_8000);
        assert_eq!(m & m1, 0);
    }

    #[test]
    fn eq_mask_handles_high_bytes() {
        let w = u64::from_le_bytes([0xff, 0x80, 0x7f, 0x00, 0xfe, 0x80, 0x00, 0xff]);
        assert_eq!(eq_mask(w, 0x80), 0x0000_8000_0000_8000);
        assert_eq!(eq_mask(w, 0x00), 0x0080_0000_8000_0000);
        assert_eq!(eq_mask(w, 0xff), 0x8000_0000_0000_0080);
    }

    #[test]
    fn find_byte_matches_naive_on_edges() {
        let cases: &[&[u8]] = &[
            b"",
            b"<",
            b"abcdefg<",
            b"abcdefgh<",
            b"<abcdefgh",
            b"aaaaaaaaaaaaaaaaaaaaaaa",
            b"aaaaaaaa<aaaaaaa<",
            "héllo<wörld".as_bytes(),
        ];
        for h in cases {
            assert_eq!(find_byte(h, b'<'), naive_find(h, b'<'), "{h:?}");
        }
    }

    #[test]
    fn find_byte_needle_in_every_lane() {
        for lane in 0..24 {
            let mut v = vec![b'a'; 24];
            v[lane] = b'>';
            assert_eq!(find_byte(&v, b'>'), Some(lane));
        }
    }

    #[test]
    fn uppercase_detection() {
        assert!(!has_ascii_uppercase(b""));
        assert!(!has_ascii_uppercase(b"lower case only, with digits 123"));
        assert!(has_ascii_uppercase(b"lower case And one"));
        assert!(has_ascii_uppercase(b"Z"));
        assert!(has_ascii_uppercase(b"aaaaaaaaaaaaaaaaZ"));
        // High bytes around the A–Z range must not trip the range test:
        // 0xc1 = 'A' + 0x80, 0xda = 'Z' + 0x80.
        assert!(!has_ascii_uppercase(&[
            0xc1, 0xda, 0xc1, 0xda, 0xc1, 0xda, 0xc1, 0xda
        ]));
        // '@' (0x40) and '[' (0x5b) bracket the range.
        assert!(!has_ascii_uppercase(b"@@@@@@@@[[[[[[[["));
    }

    #[test]
    fn movemask_compresses_lane_flags() {
        for bits in 0u32..256 {
            let mut lanes = [0u8; 8];
            for (i, lane) in lanes.iter_mut().enumerate() {
                if bits & (1 << i) != 0 {
                    *lane = 0x80;
                }
            }
            assert_eq!(movemask(u64::from_le_bytes(lanes)), bits);
        }
    }

    #[test]
    fn boundary_mask_matches_byte_classes() {
        let text = b"ab,cd ef-gh__12 3456zzzz";
        let mut i = 0;
        while let Some(mask) = boundary_mask8(text, i) {
            for k in 0..8 {
                let expected = !text[i + k].is_ascii_alphanumeric();
                assert_eq!(mask & (1 << k) != 0, expected, "byte {}", i + k);
            }
            i += 8;
        }
        assert!(boundary_mask8(text, text.len() - 7).is_none());
        // Non-ASCII bytes are boundaries.
        let hi = [0xc3u8, 0xa9, b'a', b'b', 0xff, b'1', b'2', 0x80];
        assert_eq!(boundary_mask8(&hi, 0), Some(0b1001_0011));
    }

    #[test]
    fn collapsed_probe_accepts_clean_ascii() {
        assert!(is_collapsed_ascii(b""));
        assert!(is_collapsed_ascii(b"hello"));
        assert!(is_collapsed_ascii(b"hello world and more words here"));
        assert!(is_collapsed_ascii(b"a b c d e f g h i j k l m n o p"));
    }

    #[test]
    fn collapsed_probe_rejects_dirty_runs() {
        assert!(!is_collapsed_ascii(b" leading"));
        assert!(!is_collapsed_ascii(b"trailing "));
        assert!(!is_collapsed_ascii(b"double  space"));
        assert!(!is_collapsed_ascii(b"tab\there"));
        assert!(!is_collapsed_ascii(b"new\nline"));
        assert!(!is_collapsed_ascii(b"a\rb"));
        // Double space straddling an 8-byte word boundary.
        assert!(!is_collapsed_ascii(b"aaaaaaa  b"));
        assert!(!is_collapsed_ascii(b"aaaaaaaa  b"));
        // Conservative: non-ASCII defers to the exact check.
        assert!(!is_collapsed_ascii("héllo".as_bytes()));
    }
}
