//! LZ77 machinery shared by the ZIP-like and RAR-like byte compressors.
//!
//! The paper compares PRESS against off-the-shelf ZIP and RAR (§6.1: ZIP
//! ratio 2.09, RAR 3.78 on its dataset) to argue that generic lossless
//! compressors (a) compress trajectories worse than PRESS and (b) destroy
//! all queryability. We implement the same *class* of algorithm from
//! scratch: a sliding-window match finder producing literal/match tokens,
//! consumed by entropy coders in [`crate::zipx`] and [`crate::rarx`].

/// One LZ77 token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes starting `dist` bytes back.
    Match { len: u16, dist: u32 },
}

/// Minimum back-reference length worth emitting.
pub const MIN_MATCH: usize = 4;
/// Maximum back-reference length (fits the token serialization).
pub const MAX_MATCH: usize = 258;

/// Greedy LZ77 with a hash-chain match finder over a sliding window.
pub fn lz77_tokens(data: &[u8], window: usize, max_chain: usize) -> Vec<Token> {
    assert!(window >= MIN_MATCH, "window too small");
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 2 + 1);
    if n == 0 {
        return tokens;
    }
    // Hash chains over 4-byte prefixes.
    const HASH_BITS: u32 = 15;
    let hash = |i: usize, data: &[u8]| -> usize {
        let b = [
            data[i],
            data.get(i + 1).copied().unwrap_or(0),
            data.get(i + 2).copied().unwrap_or(0),
            data.get(i + 3).copied().unwrap_or(0),
        ];
        let v = u32::from_le_bytes(b);
        (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
    };
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; n];
    let mut i = 0usize;
    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash(i, data);
            let mut cand = head[h];
            let mut chain = 0usize;
            while cand != usize::MAX && chain < max_chain {
                let dist = i - cand;
                if dist > window {
                    break;
                }
                // Extend the match.
                let limit = (n - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < limit && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l >= limit {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                len: best_len as u16,
                dist: best_dist as u32,
            });
            // Insert hash entries for every covered position.
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            let mut j = i;
            while j < end {
                let h = hash(j, data);
                prev[j] = head[h];
                head[h] = j;
                j += 1;
            }
            i += best_len;
        } else {
            tokens.push(Token::Literal(data[i]));
            if i + MIN_MATCH <= n {
                let h = hash(i, data);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
    tokens
}

/// Reconstructs the original bytes from a token stream.
pub fn lz77_expand(tokens: &[Token]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let len = len as usize;
                if dist == 0 || dist > out.len() {
                    return Err(format!(
                        "invalid back-reference: dist {dist} at output length {}",
                        out.len()
                    ));
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

/// Serializes tokens to a flat byte stream: a control byte per 8 tokens
/// (bit set = match), literals as 1 byte, matches as 5 bytes
/// (len-MIN_MATCH as 1 byte, dist as 4 bytes LE). This is the raw stream
/// the entropy coders work on.
pub fn tokens_to_bytes(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::with_capacity(tokens.len() * 2 + 8);
    out.extend_from_slice(&(tokens.len() as u64).to_le_bytes());
    for group in tokens.chunks(8) {
        let mut control = 0u8;
        for (k, t) in group.iter().enumerate() {
            if matches!(t, Token::Match { .. }) {
                control |= 1 << k;
            }
        }
        out.push(control);
        for t in group {
            match *t {
                Token::Literal(b) => out.push(b),
                Token::Match { len, dist } => {
                    out.push((len as usize - MIN_MATCH) as u8);
                    out.extend_from_slice(&dist.to_le_bytes());
                }
            }
        }
    }
    out
}

/// Parses a serialized token stream back.
pub fn bytes_to_tokens(bytes: &[u8]) -> Result<Vec<Token>, String> {
    if bytes.len() < 8 {
        return Err("token stream too short".into());
    }
    let count = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
    let mut tokens = Vec::with_capacity(count);
    let mut pos = 8usize;
    while tokens.len() < count {
        let control = *bytes.get(pos).ok_or("missing control byte")?;
        pos += 1;
        for k in 0..8 {
            if tokens.len() == count {
                break;
            }
            if control & (1 << k) != 0 {
                let len = *bytes.get(pos).ok_or("missing match length")? as usize + MIN_MATCH;
                let dist_bytes: [u8; 4] = bytes
                    .get(pos + 1..pos + 5)
                    .ok_or("missing match distance")?
                    .try_into()
                    .unwrap();
                tokens.push(Token::Match {
                    len: len as u16,
                    dist: u32::from_le_bytes(dist_bytes),
                });
                pos += 5;
            } else {
                tokens.push(Token::Literal(*bytes.get(pos).ok_or("missing literal")?));
                pos += 1;
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], window: usize) {
        let tokens = lz77_tokens(data, window, 64);
        assert_eq!(lz77_expand(&tokens).unwrap(), data, "token roundtrip");
        let bytes = tokens_to_bytes(&tokens);
        let parsed = bytes_to_tokens(&bytes).unwrap();
        assert_eq!(parsed, tokens, "serialization roundtrip");
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"", 1024);
        roundtrip(b"a", 1024);
        roundtrip(b"abc", 1024);
    }

    #[test]
    fn repetitive_data_compresses() {
        let data: Vec<u8> = b"trajectory".repeat(100);
        let tokens = lz77_tokens(&data, 32 * 1024, 64);
        assert!(
            tokens.len() < data.len() / 4,
            "repetition should yield matches: {} tokens for {} bytes",
            tokens.len(),
            data.len()
        );
        roundtrip(&data, 32 * 1024);
    }

    #[test]
    fn random_data_roundtrips() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<u8> = (0..5000).map(|_| rng.gen()).collect();
        roundtrip(&data, 4096);
    }

    #[test]
    fn window_limits_match_distance() {
        // Two copies of a block separated by more than the window: no match
        // may reach across.
        let mut data = b"0123456789abcdef".to_vec();
        data.extend(std::iter::repeat_n(b'x', 600));
        data.extend_from_slice(b"0123456789abcdef");
        let tokens = lz77_tokens(&data, 256, 64);
        for t in &tokens {
            if let Token::Match { dist, .. } = t {
                assert!(*dist <= 256, "match crossed the window: {dist}");
            }
        }
        assert_eq!(lz77_expand(&tokens).unwrap(), data);
    }

    #[test]
    fn overlapping_match_semantics() {
        // "aaaaaaaa": RLE via overlapping back-reference (dist 1).
        let data = vec![b'a'; 64];
        let tokens = lz77_tokens(&data, 1024, 64);
        assert!(tokens.len() <= 3, "RLE should collapse: {tokens:?}");
        assert_eq!(lz77_expand(&tokens).unwrap(), data);
    }

    #[test]
    fn expand_rejects_corrupt_references() {
        assert!(lz77_expand(&[Token::Match { len: 4, dist: 9 }]).is_err());
        assert!(lz77_expand(&[Token::Match { len: 4, dist: 0 }]).is_err());
    }
}
