//! Order-insensitive per-frame result fingerprints.
//!
//! Two components that compute the same answers may list a frame's matches
//! in different orders (the MFS and SSG maintainers enumerate their result
//! states differently), so each frame's matches are sorted before they are
//! hashed. The fingerprint is FNV-1a over every field of every match.

use tvq_query::QueryMatch;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running fingerprint of a result stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transcript {
    /// FNV-1a hash over everything pushed so far.
    pub hash: u64,
    /// Entries (frames, commands) pushed.
    pub entries: u64,
    /// Matches seen across all entries.
    pub matches: u64,
}

impl Default for Transcript {
    fn default() -> Self {
        Transcript {
            hash: FNV_OFFSET,
            entries: 0,
            matches: 0,
        }
    }
}

impl Transcript {
    /// Mixes one word into the hash.
    pub fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    /// Records one frame's matches (any order) for feed `feed`.
    pub fn frame(&mut self, feed: u32, frame: u64, matches: &[QueryMatch]) {
        let mut keys: Vec<(u32, Vec<u32>, Vec<u64>)> = matches
            .iter()
            .map(|m| {
                (
                    m.query.0,
                    m.objects.iter().map(|o| o.0).collect(),
                    m.frames.iter().map(|f| f.0).collect(),
                )
            })
            .collect();
        keys.sort_unstable();
        self.entries += 1;
        self.matches += keys.len() as u64;
        self.word(u64::from(feed));
        self.word(frame);
        self.word(keys.len() as u64);
        for (query, objects, frames) in keys {
            self.word(u64::from(query));
            self.word(objects.len() as u64);
            objects.into_iter().for_each(|o| self.word(u64::from(o)));
            self.word(frames.len() as u64);
            frames.into_iter().for_each(|f| self.word(f));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tvq_common::{FrameId, ObjectSet, QueryId};

    fn m(query: u32, objects: &[u32]) -> QueryMatch {
        QueryMatch {
            query: QueryId(query),
            objects: ObjectSet::from_raw(objects.iter().copied()),
            frames: Arc::from(vec![FrameId(1), FrameId(2)]),
        }
    }

    #[test]
    fn match_order_does_not_matter_but_content_does() {
        let (mut a, mut b, mut c) = Default::default();
        Transcript::frame(&mut a, 0, 5, &[m(0, &[1, 2]), m(1, &[3])]);
        Transcript::frame(&mut b, 0, 5, &[m(1, &[3]), m(0, &[1, 2])]);
        Transcript::frame(&mut c, 0, 5, &[m(1, &[3]), m(0, &[1, 4])]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
