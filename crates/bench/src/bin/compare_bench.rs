//! Gate benchmark results against a checked-in baseline.
//!
//! The bench binaries write flat JSON digests (`{"group/name": mean_ns}`)
//! via the criterion shim's `--metrics-out`. This tool compares such a
//! digest against a baseline in two modes:
//!
//! ```text
//! compare_bench BASELINE.json CURRENT.json [--tolerance 0.10] [--absolute]
//! compare_bench CURRENT.json --ratio NUM_KEY DEN_KEY --min 5.0
//! compare_bench CURRENT.json --ratio NUM_KEY DEN_KEY --max 1.03
//! compare_bench --baseline-dir . [--current-dir .] [--require-all]
//! ```
//!
//! The first mode fails (exit 1) when any benchmark regressed by more than
//! the tolerance. Because CI runners and the machine that produced the
//! baseline differ in raw speed, the default comparison is **normalized**:
//! every `current/baseline` ratio is divided by a machine-speed scale, so
//! a uniformly slower machine cancels out and only *relative* regressions
//! trip the gate. The scale is the ratio of the calibration bench
//! (`calibration/fixed_work`, a fixed workload the criterion shim adds to
//! every digest) when both digests carry it. A change that speeds up one
//! key then leaves the others at 1.0. Without the key, the scale is the
//! median ratio across all shared keys, which a large speedup drags down
//! (in a two-key digest, halving one key reads the other as 1.33×).
//! `--absolute` skips the normalization (for same-machine comparisons).
//!
//! The ratio mode asserts a ratio between two keys of one digest — e.g.
//! that a full rebuild costs at least 5× an incremental recompute
//! (`--min`), or that tracing overhead stays within 3% (`--max 1.03`) —
//! which is machine-independent by construction. `--min` and `--max`
//! compose: give both to bound the ratio from both sides.
//!
//! The directory mode discovers baselines instead of taking an explicit
//! file list: every `BENCH_<name>.json` in `--baseline-dir` is compared
//! against `bench-<name>.json` in `--current-dir` (default `.`), so a new
//! checked-in baseline is gated the moment it lands — no CI edit needed.
//! Baselines without a current digest are listed as skipped (their bench
//! simply didn't run in this lane); `--require-all` turns a skip into a
//! failure.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The calibration bench's digest key (the criterion shim's
/// `CALIBRATION_KEY`): the machine-speed scale, never gated itself.
const CALIBRATION_KEY: &str = "calibration/fixed_work";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("compare_bench: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let (files, opts) = parse_args(args)?;
    if let Some(dir) = &opts.baseline_dir {
        if opts.ratio.is_some() {
            return Err("--baseline-dir and --ratio are mutually exclusive".into());
        }
        if !files.is_empty() {
            return Err("--baseline-dir mode takes no positional files".into());
        }
        let current_dir = opts.current_dir.as_deref().unwrap_or(".");
        return check_directory(dir, current_dir, &opts);
    }
    match opts.ratio {
        Some((num, den)) => {
            let [current] = files.as_slice() else {
                return Err("--ratio mode takes exactly one digest file".into());
            };
            let digest = load_digest(current)?;
            let min = match (opts.min, opts.max) {
                (None, Some(_)) => None,
                (min, _) => Some(min.unwrap_or(1.0)),
            };
            check_ratio(&digest, &num, &den, min, opts.max)
        }
        None => {
            let [baseline, current] = files.as_slice() else {
                return Err("usage: compare_bench BASELINE.json CURRENT.json".into());
            };
            let base = load_digest(baseline)?;
            let cur = load_digest(current)?;
            check_regressions(&base, &cur, opts.tolerance, opts.absolute)
        }
    }
}

struct Options {
    tolerance: f64,
    absolute: bool,
    ratio: Option<(String, String)>,
    min: Option<f64>,
    max: Option<f64>,
    baseline_dir: Option<String>,
    current_dir: Option<String>,
    require_all: bool,
}

fn parse_args(args: &[String]) -> Result<(Vec<String>, Options), String> {
    let mut files = Vec::new();
    let mut opts = Options {
        tolerance: 0.10,
        absolute: false,
        ratio: None,
        min: None,
        max: None,
        baseline_dir: None,
        current_dir: None,
        require_all: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => {
                let v = it.next().ok_or("--tolerance needs a value")?;
                opts.tolerance = v.parse().map_err(|_| format!("bad tolerance: {v}"))?;
            }
            "--absolute" => opts.absolute = true,
            "--baseline-dir" => {
                let v = it.next().ok_or("--baseline-dir needs a directory")?;
                opts.baseline_dir = Some(v.clone());
            }
            "--current-dir" => {
                let v = it.next().ok_or("--current-dir needs a directory")?;
                opts.current_dir = Some(v.clone());
            }
            "--require-all" => opts.require_all = true,
            "--ratio" => {
                let num = it.next().ok_or("--ratio needs NUM_KEY DEN_KEY")?;
                let den = it.next().ok_or("--ratio needs NUM_KEY DEN_KEY")?;
                opts.ratio = Some((num.clone(), den.clone()));
            }
            "--min" => {
                let v = it.next().ok_or("--min needs a value")?;
                opts.min = Some(v.parse().map_err(|_| format!("bad min: {v}"))?);
            }
            "--max" => {
                let v = it.next().ok_or("--max needs a value")?;
                opts.max = Some(v.parse().map_err(|_| format!("bad max: {v}"))?);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag: {other}"));
            }
            file => files.push(file.to_string()),
        }
    }
    Ok((files, opts))
}

fn load_digest(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let digest = parse_flat_json(&body).map_err(|e| format!("{path}: {e}"))?;
    if digest.is_empty() {
        return Err(format!("{path}: no benchmark entries"));
    }
    Ok(digest)
}

/// Parses the flat `{"key": number, ...}` JSON the criterion shim and the
/// obs registry emit. Any other shape — an array, a nested object, a
/// string value — is rejected, which is exactly right for a gate that
/// should fail loudly on unexpected input.
fn parse_flat_json(body: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = mdrep_obs::json::parse(body).map_err(|e| e.to_string())?;
    let object = doc.as_object().ok_or("not a JSON object")?;
    object
        .iter()
        .map(|(key, value)| {
            let number = value
                .as_f64()
                .ok_or_else(|| format!("non-numeric value for {key}"))?;
            Ok((key.clone(), number))
        })
        .collect()
}

fn check_ratio(
    digest: &BTreeMap<String, f64>,
    num: &str,
    den: &str,
    min: Option<f64>,
    max: Option<f64>,
) -> Result<String, String> {
    let numerator = *digest
        .get(num)
        .ok_or_else(|| format!("missing key: {num}"))?;
    let denominator = *digest
        .get(den)
        .ok_or_else(|| format!("missing key: {den}"))?;
    if denominator <= 0.0 {
        return Err(format!("non-positive denominator for {den}: {denominator}"));
    }
    let ratio = numerator / denominator;
    if let Some(min) = min {
        if ratio < min {
            return Err(format!(
                "ratio {num} / {den} = {ratio:.2}, below required minimum {min:.2}"
            ));
        }
    }
    if let Some(max) = max {
        if ratio > max {
            return Err(format!(
                "ratio {num} / {den} = {ratio:.3}, above allowed maximum {max:.3}"
            ));
        }
    }
    let bounds = match (min, max) {
        (Some(lo), Some(hi)) => format!(">= {lo:.2}, <= {hi:.3}"),
        (Some(lo), None) => format!(">= {lo:.2}"),
        (None, Some(hi)) => format!("<= {hi:.3}"),
        (None, None) => "unbounded".into(),
    };
    Ok(format!("ratio {num} / {den} = {ratio:.3} ({bounds}) — ok"))
}

/// Maps a baseline filename (`BENCH_<name>.json`) to its current-digest
/// counterpart (`bench-<name>.json`); `None` for files outside the
/// convention.
fn current_name_for(baseline_file: &str) -> Option<String> {
    let name = baseline_file
        .strip_prefix("BENCH_")?
        .strip_suffix(".json")?;
    Some(format!("bench-{name}.json"))
}

/// Directory mode: gate every discovered `BENCH_*.json` baseline against
/// its `bench-*.json` current digest. One aggregated report; any
/// regression (or, with `--require-all`, any missing digest) fails.
fn check_directory(
    baseline_dir: &str,
    current_dir: &str,
    opts: &Options,
) -> Result<String, String> {
    let mut baselines: Vec<String> = std::fs::read_dir(baseline_dir)
        .map_err(|e| format!("cannot read {baseline_dir}: {e}"))?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| current_name_for(name).is_some())
        .collect();
    baselines.sort();
    if baselines.is_empty() {
        return Err(format!("no BENCH_*.json baselines in {baseline_dir}"));
    }

    let mut sections = Vec::new();
    let mut skipped = Vec::new();
    let mut failures = Vec::new();
    for baseline_file in &baselines {
        let current_file = current_name_for(baseline_file).expect("pre-filtered");
        let baseline_path = format!("{baseline_dir}/{baseline_file}");
        let current_path = format!("{current_dir}/{current_file}");
        if !std::path::Path::new(&current_path).exists() {
            skipped.push(format!("{baseline_file} (no {current_file})"));
            continue;
        }
        let base = load_digest(&baseline_path)?;
        let cur = load_digest(&current_path)?;
        match check_regressions(&base, &cur, opts.tolerance, opts.absolute) {
            Ok(report) => sections.push(format!("== {baseline_file} ==\n{report}")),
            Err(report) => {
                failures.push(baseline_file.clone());
                sections.push(format!("== {baseline_file} ==\n{report}"));
            }
        }
    }
    if !skipped.is_empty() {
        sections.push(format!("skipped: {}", skipped.join(", ")));
    }
    let report = sections.join("\n");
    if !failures.is_empty() {
        return Err(format!(
            "{report}\nfailed baselines: {}",
            failures.join(", ")
        ));
    }
    if opts.require_all && !skipped.is_empty() {
        return Err(format!(
            "{report}\n--require-all: missing current digests for {}",
            skipped.join(", ")
        ));
    }
    if sections.iter().all(|s| s.starts_with("skipped")) {
        return Err(format!("{report}\nno baseline had a current digest"));
    }
    Ok(report)
}

fn check_regressions(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    tolerance: f64,
    absolute: bool,
) -> Result<String, String> {
    let ratio = |key: &String, base: f64| {
        let cur = *current.get(key)?;
        (base > 0.0).then_some(cur / base)
    };
    let calibration = baseline
        .get_key_value(CALIBRATION_KEY)
        .and_then(|(key, &base)| ratio(key, base));
    let mut ratios: Vec<(String, f64)> = baseline
        .iter()
        .filter(|(key, _)| key.as_str() != CALIBRATION_KEY)
        .filter_map(|(key, &base)| Some((key.clone(), ratio(key, base)?)))
        .collect();
    if ratios.is_empty() {
        return Err("baseline and current share no benchmark keys".into());
    }
    let (scale, source) = match (absolute, calibration) {
        (true, _) => (1.0, "absolute"),
        (false, Some(scale)) => (scale, "calibration bench"),
        (false, None) => (median(&ratios), "median ratio"),
    };
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for (key, ratio) in &mut ratios {
        let normalized = *ratio / scale;
        let verdict = if normalized > 1.0 + tolerance {
            failures.push(key.clone());
            "REGRESSED"
        } else {
            "ok"
        };
        lines.push(format!("{key:<56} {normalized:>6.3}x  {verdict}"));
    }
    let header = format!(
        "{} benchmarks, machine-speed scale {scale:.3} ({source}), tolerance {:.0}%",
        ratios.len(),
        tolerance * 100.0
    );
    let report = format!("{header}\n{}", lines.join("\n"));
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!("{report}\nregressions: {}", failures.join(", ")))
    }
}

/// Median of the ratio values (mean of the middle two for even counts).
fn median(ratios: &[(String, f64)]) -> f64 {
    let mut values: Vec<f64> = ratios.iter().map(|(_, r)| *r).collect();
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn parses_shim_output() {
        let body = "{\n  \"engine/a\": 120.5,\n  \"engine/b\": 90\n}\n";
        let d = parse_flat_json(body).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d["engine/a"], 120.5);
    }

    #[test]
    fn rejects_nested_json() {
        assert!(parse_flat_json("{\"a\": {\"b\": 1}}").is_err());
        assert!(parse_flat_json("[1, 2]").is_err());
    }

    #[test]
    fn ratio_mode_enforces_minimum() {
        let d = digest(&[("full", 1000.0), ("inc", 100.0)]);
        assert!(check_ratio(&d, "full", "inc", Some(5.0), None).is_ok());
        assert!(check_ratio(&d, "full", "inc", Some(20.0), None).is_err());
        assert!(check_ratio(&d, "missing", "inc", Some(1.0), None).is_err());
    }

    #[test]
    fn ratio_mode_enforces_maximum() {
        // The tracing-overhead shape: on/off must stay within a few
        // percent of parity.
        let d = digest(&[("on", 102.0), ("off", 100.0)]);
        assert!(check_ratio(&d, "on", "off", None, Some(1.03)).is_ok());
        assert!(check_ratio(&d, "on", "off", None, Some(1.01)).is_err());
        // Both bounds at once.
        assert!(check_ratio(&d, "on", "off", Some(0.9), Some(1.1)).is_ok());
        assert!(check_ratio(&d, "on", "off", Some(1.05), Some(1.1)).is_err());
    }

    #[test]
    fn median_normalization_cancels_machine_speed() {
        let base = digest(&[("a", 100.0), ("b", 200.0), ("c", 300.0)]);
        // Every benchmark 2x slower — a slower machine, not a regression.
        let cur = digest(&[("a", 200.0), ("b", 400.0), ("c", 600.0)]);
        assert!(check_regressions(&base, &cur, 0.10, false).is_ok());
        // In absolute mode the same digest is a 2x regression.
        assert!(check_regressions(&base, &cur, 0.10, true).is_err());
    }

    #[test]
    fn relative_regression_still_trips() {
        let base = digest(&[("a", 100.0), ("b", 200.0), ("c", 300.0)]);
        // Machine 2x slower AND benchmark c regressed another 50%.
        let cur = digest(&[("a", 200.0), ("b", 400.0), ("c", 900.0)]);
        let err = check_regressions(&base, &cur, 0.10, false).unwrap_err();
        assert!(err.contains("regressions: c"), "{err}");
    }

    #[test]
    fn calibration_scale_keeps_a_speedup_from_reading_as_a_regression() {
        // The incremental file's shape: two keys, and the change halves one.
        let base = digest(&[
            (CALIBRATION_KEY, 50.0),
            ("engine/full_rebuild", 1000.0),
            ("engine/dirty_1pct", 100.0),
        ]);
        let cur = digest(&[
            (CALIBRATION_KEY, 50.0),
            ("engine/full_rebuild", 500.0),
            ("engine/dirty_1pct", 100.0),
        ]);
        let report = check_regressions(&base, &cur, 0.10, false).unwrap();
        assert!(report.contains("calibration bench"), "{report}");
        assert!(report.contains("engine/dirty_1pct"), "{report}");
        assert!(!report.contains(CALIBRATION_KEY), "not gated: {report}");
        // Median normalization flags the untouched key by half the
        // speedup.
        let strip = |d: &BTreeMap<String, f64>| {
            let mut d = d.clone();
            d.remove(CALIBRATION_KEY);
            d
        };
        let err = check_regressions(&strip(&base), &strip(&cur), 0.10, false).unwrap_err();
        assert!(err.contains("regressions: engine/dirty_1pct"), "{err}");
    }

    #[test]
    fn calibration_scale_cancels_machine_speed_and_keeps_regressions() {
        let base = digest(&[(CALIBRATION_KEY, 50.0), ("a", 100.0), ("b", 200.0)]);
        // A 2x slower machine: everything, the calibration bench included.
        let cur = digest(&[(CALIBRATION_KEY, 100.0), ("a", 200.0), ("b", 400.0)]);
        assert!(check_regressions(&base, &cur, 0.10, false).is_ok());
        // ... and b regressed another 50% on it.
        let cur = digest(&[(CALIBRATION_KEY, 100.0), ("a", 200.0), ("b", 600.0)]);
        let err = check_regressions(&base, &cur, 0.10, false).unwrap_err();
        assert!(err.contains("regressions: b"), "{err}");
        // A digest without the key falls back to the median.
        let old = digest(&[("a", 100.0), ("b", 200.0)]);
        let report = check_regressions(&old, &cur, 0.10, false).unwrap_err();
        assert!(report.contains("median ratio"), "{report}");
    }

    #[test]
    fn disjoint_digests_error() {
        let base = digest(&[("a", 100.0)]);
        let cur = digest(&[("b", 100.0)]);
        assert!(check_regressions(&base, &cur, 0.10, false).is_err());
    }

    #[test]
    fn arg_parsing() {
        let (files, opts) = parse_args(&[
            "base.json".into(),
            "cur.json".into(),
            "--tolerance".into(),
            "0.2".into(),
        ])
        .unwrap();
        assert_eq!(files, vec!["base.json", "cur.json"]);
        assert_eq!(opts.tolerance, 0.2);
        assert!(!opts.absolute);

        let (_, opts) = parse_args(&[
            "cur.json".into(),
            "--ratio".into(),
            "full".into(),
            "inc".into(),
            "--min".into(),
            "5".into(),
        ])
        .unwrap();
        assert_eq!(opts.ratio, Some(("full".into(), "inc".into())));
        assert_eq!(opts.min, Some(5.0));

        let (_, opts) = parse_args(&[
            "cur.json".into(),
            "--ratio".into(),
            "on".into(),
            "off".into(),
            "--max".into(),
            "1.03".into(),
        ])
        .unwrap();
        assert_eq!(opts.max, Some(1.03));
        assert_eq!(opts.min, None);

        assert!(parse_args(&["--bogus".into()]).is_err());

        let (files, opts) = parse_args(&[
            "--baseline-dir".into(),
            ".".into(),
            "--current-dir".into(),
            "out".into(),
            "--require-all".into(),
        ])
        .unwrap();
        assert!(files.is_empty());
        assert_eq!(opts.baseline_dir.as_deref(), Some("."));
        assert_eq!(opts.current_dir.as_deref(), Some("out"));
        assert!(opts.require_all);
    }

    #[test]
    fn baseline_name_mapping() {
        assert_eq!(
            current_name_for("BENCH_sharded.json").as_deref(),
            Some("bench-sharded.json")
        );
        assert_eq!(current_name_for("BENCH_x.txt"), None);
        assert_eq!(current_name_for("bench-sharded.json"), None);
        assert_eq!(current_name_for("README.md"), None);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("compare_bench_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn opts_for_dir() -> Options {
        Options {
            tolerance: 0.10,
            absolute: true,
            ratio: None,
            min: None,
            max: None,
            baseline_dir: None,
            current_dir: None,
            require_all: false,
        }
    }

    #[test]
    fn directory_mode_discovers_new_baselines() {
        let dir = scratch_dir("discover");
        let d = dir.to_str().unwrap();
        std::fs::write(dir.join("BENCH_alpha.json"), "{\"a/x\": 100}").unwrap();
        std::fs::write(dir.join("bench-alpha.json"), "{\"a/x\": 101}").unwrap();
        // A newly checked-in baseline is picked up with zero config.
        std::fs::write(dir.join("BENCH_beta.json"), "{\"b/y\": 50}").unwrap();
        std::fs::write(dir.join("bench-beta.json"), "{\"b/y\": 49}").unwrap();
        // Unrelated files are ignored.
        std::fs::write(dir.join("notes.json"), "{\"z\": 1}").unwrap();

        let report = check_directory(d, d, &opts_for_dir()).unwrap();
        assert!(report.contains("BENCH_alpha.json"), "{report}");
        assert!(report.contains("BENCH_beta.json"), "{report}");
        assert!(!report.contains("notes"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_mode_fails_on_regression_and_reports_skips() {
        let dir = scratch_dir("regress");
        let d = dir.to_str().unwrap();
        std::fs::write(dir.join("BENCH_alpha.json"), "{\"a/x\": 100}").unwrap();
        std::fs::write(dir.join("bench-alpha.json"), "{\"a/x\": 200}").unwrap();
        std::fs::write(dir.join("BENCH_orphan.json"), "{\"o/z\": 10}").unwrap();

        let err = check_directory(d, d, &opts_for_dir()).unwrap_err();
        assert!(err.contains("failed baselines: BENCH_alpha.json"), "{err}");
        assert!(err.contains("skipped: BENCH_orphan.json"), "{err}");

        // Fix the regression: skips alone pass by default …
        std::fs::write(dir.join("bench-alpha.json"), "{\"a/x\": 100}").unwrap();
        assert!(check_directory(d, d, &opts_for_dir()).is_ok());
        // … but fail under --require-all.
        let mut strict = opts_for_dir();
        strict.require_all = true;
        let err = check_directory(d, d, &strict).unwrap_err();
        assert!(err.contains("--require-all"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
