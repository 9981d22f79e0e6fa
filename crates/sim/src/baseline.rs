//! The perf-regression gate behind `experiments --check-baselines`.
//!
//! `BASELINES.json` (committed at the repo root) pins headline numbers
//! from the experiment tables — commit-path messages, forces per
//! commit, recovery phase times, trace overhead — each with a
//! tolerance band. The gate re-runs exactly the experiments the file
//! references (by registry short name, see
//! [`crate::experiments::REGISTRY`]), extracts the referenced cells
//! and fails on any value outside its band. The simulator is
//! deterministic, so most bands are zero-width: any drift is a real
//! behavior change and must be acknowledged by re-baselining.
//!
//! File format (parsed with the in-tree [`cblog_common::jsonv`]):
//!
//! ```json
//! {
//!   "baselines": [
//!     {"experiment": "e1b", "metric": "forces/commit, mpl 8 window 500us",
//!      "row": ["8", "500"], "col": "forces/commit", "expect": 0.125}
//!   ]
//! }
//! ```
//!
//! A cell is addressed by name, so a column added to a table cannot
//! silently re-point a gate: `col` is the column's header, and `row`
//! the leading cells of the one data row meant (as many as it takes to
//! tell it from the others; one where the first column is the key). A
//! header or key the table does not have is an error that lists the
//! table's headers. `expect` is compared against the cell parsed as a
//! number. A value passes if `|actual − expect| ≤ max(tol_abs,
//! tol_pct% · |expect|)` (both tolerances default to 0).

use crate::experiments;
use crate::report::Table;
use cblog_common::jsonv;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One pinned table cell with its tolerance band.
#[derive(Clone, Debug)]
pub struct BaselineEntry {
    /// Registry short name of the experiment (`e1`, `e5b`, …).
    pub experiment: String,
    /// Human-readable label for reports.
    pub metric: String,
    /// Leading cells of the data row (matches exactly one row).
    pub row: Vec<String>,
    /// Column header.
    pub col: String,
    /// Expected value.
    pub expect: f64,
    /// Relative tolerance, percent of `|expect|`.
    pub tol_pct: f64,
    /// Absolute tolerance (useful when `expect` is 0).
    pub tol_abs: f64,
}

/// The verdict for one entry after running its experiment.
#[derive(Clone, Debug)]
pub struct BaselineOutcome {
    /// The checked entry.
    pub entry: BaselineEntry,
    /// The value the re-run produced.
    pub actual: f64,
    /// True if `actual` is inside the tolerance band.
    pub ok: bool,
}

/// Parses a baselines document. Errors carry enough context to fix
/// the file by hand.
pub fn parse(json: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc = jsonv::parse(json)?;
    let arr = doc
        .get("baselines")
        .and_then(|v| v.as_arr())
        .ok_or("baselines file has no \"baselines\" array")?;
    let mut out = Vec::with_capacity(arr.len());
    for (i, e) in arr.iter().enumerate() {
        let field_str = |k: &str| -> Result<String, String> {
            e.get(k)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("baselines[{i}]: missing string field {k:?}"))
        };
        let field_num = |k: &str| -> Result<f64, String> {
            e.get(k)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("baselines[{i}]: missing numeric field {k:?}"))
        };
        let opt_num = |k: &str| e.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let experiment = field_str("experiment")?;
        if !experiments::REGISTRY
            .iter()
            .any(|(n, _, _)| *n == experiment)
        {
            return Err(format!(
                "baselines[{i}]: unknown experiment {experiment:?} (see `experiments --list`)"
            ));
        }
        let row = e
            .get("row")
            .and_then(|v| v.as_arr())
            .filter(|cells| !cells.is_empty())
            .and_then(|cells| {
                cells
                    .iter()
                    .map(|c| c.as_str().map(str::to_string))
                    .collect()
            })
            .ok_or_else(|| format!("baselines[{i}]: \"row\" must list leading cells as strings"))?;
        out.push(BaselineEntry {
            experiment,
            metric: field_str("metric")?,
            row,
            col: field_str("col")?,
            expect: field_num("expect")?,
            tol_pct: opt_num("tol_pct"),
            tol_abs: opt_num("tol_abs"),
        });
    }
    if out.is_empty() {
        return Err("baselines file pins no entries".into());
    }
    Ok(out)
}

/// Checks one entry against an already-run table (pure — unit tested
/// with synthetic tables).
pub fn evaluate(entry: &BaselineEntry, table: &Table) -> Result<BaselineOutcome, String> {
    let missing = |what: String| {
        format!(
            "{}: {what} in {:?} (headers: {:?})",
            entry.metric,
            table.title(),
            table.headers()
        )
    };
    let col = table
        .headers()
        .iter()
        .position(|h| *h == entry.col)
        .ok_or_else(|| missing(format!("no column {:?}", entry.col)))?;
    let mut rows = (0..table.len()).filter(|&r| table.cells(r).starts_with(&entry.row));
    let row = match (rows.next(), rows.next()) {
        (Some(r), None) => r,
        (None, _) => return Err(missing(format!("no row starting {:?}", entry.row))),
        (Some(_), Some(_)) => return Err(missing(format!("several rows start {:?}", entry.row))),
    };
    let cell = table.cell(row, col);
    let actual: f64 = cell.parse().map_err(|_| {
        format!(
            "{}: cell ({:?}, {:?}) of {:?} is not numeric: {cell:?}",
            entry.metric,
            entry.row,
            entry.col,
            table.title()
        )
    })?;
    let band = entry
        .tol_abs
        .max(entry.tol_pct / 100.0 * entry.expect.abs());
    let ok = (actual - entry.expect).abs() <= band;
    Ok(BaselineOutcome {
        entry: entry.clone(),
        actual,
        ok,
    })
}

/// Parses `json`, runs every referenced experiment once, and checks
/// all entries. Returns every outcome (passes and failures).
pub fn check(json: &str) -> Result<Vec<BaselineOutcome>, String> {
    let entries = parse(json)?;
    let mut tables: BTreeMap<String, Table> = BTreeMap::new();
    let mut out = Vec::with_capacity(entries.len());
    for e in &entries {
        if !tables.contains_key(&e.experiment) {
            let t = experiments::run_named(&e.experiment)
                .ok_or_else(|| format!("unknown experiment {:?}", e.experiment))?;
            tables.insert(e.experiment.clone(), t);
        }
        out.push(evaluate(e, &tables[&e.experiment])?);
    }
    Ok(out)
}

/// Renders outcomes as the gate's report: one line per entry, `FAIL`
/// lines carry the band.
pub fn render(outcomes: &[BaselineOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        let e = &o.entry;
        let verdict = if o.ok { "ok  " } else { "FAIL" };
        let _ = writeln!(
            out,
            "{verdict} {exp:>4} [{r} · {c}] {metric}: actual {actual} vs expect {expect} (tol {tol_pct}% / ±{tol_abs})",
            exp = e.experiment,
            r = e.row.join(" "),
            c = e.col,
            metric = e.metric,
            actual = o.actual,
            expect = e.expect,
            tol_pct = e.tol_pct,
            tol_abs = e.tol_abs,
        );
    }
    let failed = outcomes.iter().filter(|o| !o.ok).count();
    let _ = writeln!(
        out,
        "{} baseline(s) checked, {} failed",
        outcomes.len(),
        failed
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("demo", &["k", "mode", "v"]);
        t.row(vec!["a".into(), "x".into(), "10.00".into()]);
        t.row(vec!["b".into(), "x".into(), "0".into()]);
        t.row(vec!["b".into(), "y".into(), "7".into()]);
        t
    }

    fn entry(row: &[&str], col: &str, expect: f64, tol_pct: f64, tol_abs: f64) -> BaselineEntry {
        BaselineEntry {
            experiment: "e1".into(),
            metric: "demo metric".into(),
            row: row.iter().map(|c| c.to_string()).collect(),
            col: col.into(),
            expect,
            tol_pct,
            tol_abs,
        }
    }

    #[test]
    fn within_band_passes_and_perturbed_expectation_is_rejected() {
        let t = table();
        assert!(
            evaluate(&entry(&["a"], "v", 10.0, 0.0, 0.0), &t)
                .unwrap()
                .ok
        );
        assert!(
            evaluate(&entry(&["a"], "v", 10.5, 5.0, 0.0), &t)
                .unwrap()
                .ok
        );
        assert!(
            evaluate(&entry(&["a"], "v", 10.5, 0.0, 0.5), &t)
                .unwrap()
                .ok
        );
        // The regression-gate contract: a perturbed baseline fails.
        let bad = evaluate(&entry(&["a"], "v", 12.0, 5.0, 0.0), &t).unwrap();
        assert!(!bad.ok, "12 ±5% does not cover 10");
        assert!(render(&[bad]).contains("FAIL"));
        // Zero expectations demand exact zeros unless tol_abs widens.
        assert!(
            evaluate(&entry(&["b", "x"], "v", 0.0, 50.0, 0.0), &t)
                .unwrap()
                .ok
        );
        let nonzero = evaluate(&entry(&["b", "x"], "v", 1.0, 0.0, 0.0), &t).unwrap();
        assert!(!nonzero.ok);
    }

    #[test]
    fn an_inserted_column_leaves_the_verdict_unchanged() {
        // The same rows with a column put in before the gated one: an
        // index would now read "new"; the header still reads `v`.
        let mut wider = Table::new("demo", &["k", "mode", "new", "v"]);
        for r in 0..table().len() {
            let mut cells = table().cells(r).to_vec();
            cells.insert(2, "99".into());
            wider.row(cells);
        }
        for e in [
            entry(&["a"], "v", 10.0, 0.0, 0.0),
            entry(&["b", "y"], "v", 7.0, 0.0, 0.0),
            entry(&["b", "y"], "v", 8.0, 0.0, 0.0),
        ] {
            let before = evaluate(&e, &table()).unwrap();
            let after = evaluate(&e, &wider).unwrap();
            assert_eq!((before.actual, before.ok), (after.actual, after.ok));
        }
    }

    #[test]
    fn structural_errors_are_reported_not_panicked() {
        let t = table();
        let no_col = evaluate(&entry(&["a"], "w", 1.0, 0.0, 0.0), &t).unwrap_err();
        assert!(no_col.contains("no column \"w\""), "{no_col}");
        assert!(no_col.contains(r#"["k", "mode", "v"]"#), "{no_col}");
        let no_row = evaluate(&entry(&["z"], "v", 1.0, 0.0, 0.0), &t).unwrap_err();
        assert!(no_row.contains("no row starting [\"z\"]"), "{no_row}");
        assert!(no_row.contains(r#"["k", "mode", "v"]"#), "{no_row}");
        assert!(evaluate(&entry(&["b"], "v", 1.0, 0.0, 0.0), &t)
            .unwrap_err()
            .contains("several rows"));
        assert!(evaluate(&entry(&["a", "x", "10.00", "-"], "v", 1.0, 0.0, 0.0), &t).is_err());
        assert!(evaluate(&entry(&["a"], "k", 1.0, 0.0, 0.0), &t)
            .unwrap_err()
            .contains("not numeric"));
    }

    #[test]
    fn parse_validates_names_and_fields() {
        let good = r#"{"baselines":[{"experiment":"e1","metric":"m","row":["1"],"col":"cbl msgs","expect":3,"tol_pct":1}]}"#;
        let es = parse(good).unwrap();
        assert_eq!(es.len(), 1);
        assert_eq!(es[0].experiment, "e1");
        assert_eq!(
            (es[0].row.as_slice(), es[0].col.as_str()),
            (&["1".to_string()][..], "cbl msgs")
        );
        assert_eq!(es[0].tol_abs, 0.0, "tol_abs defaults to 0");
        let bad_name = good.replace("\"e1\"", "\"zz\"");
        assert!(parse(&bad_name).unwrap_err().contains("unknown experiment"));
        let by_index = good.replace("[\"1\"]", "0");
        assert!(parse(&by_index).unwrap_err().contains("\"row\""));
        assert!(parse("{}").unwrap_err().contains("baselines"));
        assert!(parse(r#"{"baselines":[]}"#)
            .unwrap_err()
            .contains("no entries"));
    }

    #[test]
    fn committed_baselines_file_parses_against_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BASELINES.json");
        let json = std::fs::read_to_string(path).expect("BASELINES.json committed at repo root");
        let entries = parse(&json).expect("committed baselines parse");
        assert!(entries.len() >= 6, "gate pins a meaningful set of numbers");
        // The issue's required coverage: commit cost, group commit,
        // recovery phase times, trace overhead.
        for exp in ["e1", "e1b", "e5b", "e8b"] {
            assert!(
                entries.iter().any(|e| e.experiment == exp),
                "baselines must cover {exp}"
            );
        }
    }
}
