//! Seeded inputs and the input manifest.
//!
//! Every workload draws its inputs from the in-tree models and its
//! operation order from [`SplitMix64`] seeded with `--seed`. A seed only
//! renames programs (a new name is a new text, a new FNV-1a hash and, on
//! the server, a new arena key) and permutes the fixed list of
//! operations; it never changes which operations run or how many, so runs
//! with different seeds do the same work.

use std::fmt::Write as _;

/// The SplitMix64 generator: tiny, seedable, and identical on every
/// platform, so a seed names one input set everywhere.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` in the stream `stream` (one stream per
    /// connection or pass, so adding one does not shift the others).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// 64-bit FNV-1a, the hash the manifest records for every input.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Append `_<suffix>` to the name on the source's `program` line.
///
/// # Panics
/// Panics if the source has no `program` line (every in-tree model has).
pub fn rename_program(source: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(source.len() + suffix.len() + 1);
    let mut renamed = false;
    for line in source.split_inclusive('\n') {
        if !renamed && line.starts_with("program ") {
            let name = line.trim_end();
            let _ = write!(out, "{name}_{suffix}");
            out.push_str(&line[name.len()..]);
            renamed = true;
        } else {
            out.push_str(line);
        }
    }
    assert!(renamed, "source has no `program` line");
    out
}

/// The program name a source declares.
pub fn program_name(source: &str) -> &str {
    source
        .lines()
        .find_map(|l| l.strip_prefix("program "))
        .map_or("", str::trim)
}

/// The seed's tag in renamed program names.
pub fn seed_tag(seed: u64) -> String {
    format!("s{seed}")
}

/// The `.kpt` models the benchmark draws from, by benchmark name.
pub fn kpt_source(model: &str) -> String {
    match model {
        "dining" => kpt_core::dining_cryptographers_kpt().to_owned(),
        "generals" => kpt_core::attacking_generals_kpt().to_owned(),
        "cache" => kpt_core::cache_coherence_kpt().to_owned(),
        "russian" => kpt_core::russian_cards_kpt().to_owned(),
        m => {
            let n = m
                .strip_prefix("muddy")
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("unknown model `{m}`"));
            kpt_core::muddy_children_kpt(n)
        }
    }
}

/// One input as the manifest records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputRecord {
    /// Benchmark name of the input.
    pub name: String,
    /// Length of its text in bytes.
    pub bytes: usize,
    /// FNV-1a of its text.
    pub fnv1a: u64,
}

impl InputRecord {
    /// Record `text` under `name`.
    pub fn of(name: &str, text: &str) -> Self {
        InputRecord {
            name: name.to_owned(),
            bytes: text.len(),
            fnv1a: fnv1a(text.as_bytes()),
        }
    }
}

/// What one run fed the program: its inputs and its operation sequence.
/// Parent and change runs with the same seed must print the same digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Workload name.
    pub workload: String,
    /// The `--seed` argument.
    pub seed: u64,
    /// Every input text, in load order.
    pub inputs: Vec<InputRecord>,
    /// The operations of the first timed passes, in order (later passes
    /// follow from the same seed).
    pub sequence: Vec<String>,
}

impl Manifest {
    /// The manifest as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{}\",\"seed\":{},\"inputs\":[",
            self.workload, self.seed
        );
        for (i, r) in self.inputs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"bytes\":{},\"fnv1a\":\"{:016x}\"}}",
                r.name, r.bytes, r.fnv1a
            );
        }
        out.push_str("],\"sequence\":[");
        for (i, s) in self.sequence.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            kpt_obs::json_escape_into(s, &mut out);
            out.push('"');
        }
        out.push_str("]}");
        out
    }

    /// FNV-1a of the JSON form: one number to compare across runs.
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn renaming_touches_only_the_program_line() {
        let src = kpt_source("cache");
        let renamed = rename_program(&src, "s7");
        assert_eq!(program_name(&renamed), "cache_coherence_s7");
        assert_eq!(renamed.len(), src.len() + 3);
        let (_, original) = kpt_unity::parse_program(&src).unwrap();
        let (_, copy) = kpt_unity::parse_program(&renamed).unwrap();
        assert_eq!(copy.name(), "cache_coherence_s7");
        assert_eq!(copy.statements().len(), original.statements().len());
    }

    #[test]
    fn shuffles_repeat_per_seed() {
        let deal = |seed| {
            let mut v: Vec<u32> = (0..20).collect();
            SplitMix64::new(seed, 1).shuffle(&mut v);
            v
        };
        assert_eq!(deal(3), deal(3));
        assert_ne!(deal(3), deal(4));
    }
}
