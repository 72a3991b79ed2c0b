//! Statistics and the result lines the benchmark prints.

use std::fmt::Write as _;

/// Nearest-rank percentile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn percentile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Values a `Reservoir` keeps at most.
const RESERVOIR: usize = 4096;

/// A uniform sample of at most `RESERVOIR` values (Algorithm R) with the
/// count and sum of all of them. The loops log into these, so what they
/// hold does not grow with how much work a run gets through.
#[derive(Debug, Default)]
pub struct Reservoir {
    pub count: u64,
    pub sum: u64,
    kept: Vec<u64>,
}

impl Reservoir {
    pub fn push(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        if self.kept.len() < RESERVOIR {
            self.kept.push(value);
            return;
        }
        // splitmix64 of the count: a fixed, well-mixed replacement choice.
        let mut z = self.count.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let slot = (z ^ (z >> 31)) % self.count;
        if let Ok(slot) = usize::try_from(slot) {
            if slot < RESERVOIR {
                self.kept[slot] = value;
            }
        }
    }

    /// Nearest-rank percentile of the kept sample (0 when empty).
    pub fn percentile(&self, q: f64) -> f64 {
        percentile(&self.kept, q)
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, &'static str, f64)>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push((name, unit, value));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit, value)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            );
        }
        out.push('}');
        out
    }

    /// One aligned line per metric, for people reading the log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, unit, value) in &self.0 {
            let _ = writeln!(out, "  {name:<38} {value:>16.6} {unit}");
        }
        out
    }
}

/// A JSON number; non-finite values (which no metric should produce)
/// print as 0 so the line stays parseable.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal.
pub fn string(value: &str) -> String {
    let mut out = String::from("\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process in MB, from `VmHWM` (0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out commit, read from `.git` when the benchmark runs in a
/// git checkout; "unknown" otherwise.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the path and bytes of every file under `crates/`, in path
/// order: identifies the code under test where no commit is available.
pub fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    if files.is_empty() {
        return "unknown".to_string();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::default();
        for v in 1..=100_000u64 {
            r.push(v);
        }
        assert_eq!(r.count, 100_000);
        assert_eq!(r.sum, 100_000 * 100_001 / 2);
        assert_eq!(r.kept.len(), RESERVOIR);
        let p50 = r.percentile(0.5);
        assert!((45_000.0..55_000.0).contains(&p50), "{p50}");
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.add("a.b", "ms", 1.0 / 3.0);
        assert_eq!(
            m.to_json(),
            "{\"a.b\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}"
        );
        assert_eq!(string("x\"y"), "\"x\\\"y\"");
    }
}
