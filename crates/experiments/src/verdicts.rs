//! Reproduction verdicts: automated *shape* checks over the CSVs the
//! experiments wrote, asserting the qualitative claims the paper's
//! evaluation makes (who wins where, which trends hold). The output is the
//! verdict table recorded in EXPERIMENTS.md.

use crate::output::Table;
use std::path::Path;

/// Parse a cell like `0.530`, `0.530 ±0.012` or `1242` into a number.
pub fn parse_val(cell: &str) -> Option<f64> {
    cell.split_whitespace().next()?.parse().ok()
}

/// A parsed CSV: headers plus rows of raw cells.
pub struct Csv {
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Csv {
    pub fn load(dir: &Path, id: &str) -> Option<Csv> {
        let text = std::fs::read_to_string(dir.join(format!("{id}.csv"))).ok()?;
        let mut lines = text.lines();
        let split = |l: &str| -> Vec<String> {
            // Our writer only quotes cells containing commas; those cells
            // never carry the numbers the checks need, so a plain split with
            // quote-stripping suffices.
            l.split(',')
                .map(|c| c.trim_matches('"').to_string())
                .collect()
        };
        let headers = split(lines.next()?);
        let rows = lines.filter(|l| !l.is_empty()).map(split).collect();
        Some(Csv { headers, rows })
    }

    /// Cell at (row labelled `row_label` in column 0, column named `col`),
    /// as written.
    pub fn cell(&self, row_label: &str, col: &str) -> Option<&str> {
        let ci = self.headers.iter().position(|h| h == col)?;
        let row = self.rows.iter().find(|r| r[0] == row_label)?;
        row.get(ci).map(String::as_str)
    }
}

/// A cell of a figure's CSV: (row label in column 0, column header).
type Cell = (&'static str, &'static str);

/// One qualitative claim of the paper: (figure, claim, a, b, holds) reads
/// "in `figure`'s CSV (named after the figure), `holds(a, b)`".
type Claim = (&'static str, &'static str, Cell, Cell, fn(f64, f64) -> bool);

const ABOVE: fn(f64, f64) -> bool = |a, b| a > b;
const BELOW: fn(f64, f64) -> bool = |a, b| a < b;

/// The shape checks, in the order the verdict table lists them.
const CLAIMS: [Claim; 19] = [
    (
        "fig5",
        "doubling GBS from epoch 0 hurts vs never",
        ("epoch 0", "Final accuracy"),
        ("never (fixed GBS)", "Final accuracy"),
        BELOW,
    ),
    (
        "fig5",
        "late doubling (epoch 8) is ~harmless (>=90% of never)",
        ("epoch 8", "Final accuracy"),
        ("never (fixed GBS)", "Final accuracy"),
        |a, b| a >= 0.9 * b,
    ),
    (
        "fig7",
        "larger N reaches higher converged accuracy (N=100 vs N=1)",
        ("100", "Best accuracy"),
        ("1", "Best accuracy"),
        ABOVE,
    ),
    (
        "fig9b",
        "DKT_Best2all beats No_DKT",
        ("DKT_Best2all", "Final accuracy"),
        ("No_DKT", "Final accuracy"),
        ABOVE,
    ),
    (
        "fig9b",
        "DKT_Best2all beats DKT_Best2worst",
        ("DKT_Best2all", "Final accuracy"),
        ("DKT_Best2worst", "Final accuracy"),
        |a, b| a >= b,
    ),
    (
        "fig9c",
        "lambda=0.75 beats lambda=0 (no DKT)",
        ("0.75", "Final accuracy"),
        ("0", "Final accuracy"),
        ABOVE,
    ),
    (
        "fig11",
        "DLion beats Baseline in Homo A",
        ("DLion", "Homo A"),
        ("Baseline", "Homo A"),
        ABOVE,
    ),
    (
        "fig11",
        "DLion beats Baseline in Hetero SYS A",
        ("DLion", "Hetero SYS A"),
        ("Baseline", "Hetero SYS A"),
        ABOVE,
    ),
    (
        "fig11",
        "DLion beats Baseline in Hetero SYS B",
        ("DLion", "Hetero SYS B"),
        ("Baseline", "Hetero SYS B"),
        ABOVE,
    ),
    (
        "fig12",
        "DLion best on the GPU cluster (Homo C, vs Hop)",
        ("DLion", "Homo C"),
        ("Hop", "Homo C"),
        ABOVE,
    ),
    (
        "fig12",
        "DLion best on the GPU cluster (Hetero SYS C, vs Ako)",
        ("DLion", "Hetero SYS C"),
        ("Ako", "Hetero SYS C"),
        ABOVE,
    ),
    (
        "fig13",
        "DLion beats Baseline under compute heterogeneity (Hetero CPU A)",
        ("DLion", "Hetero CPU A"),
        ("Baseline", "Hetero CPU A"),
        ABOVE,
    ),
    (
        "fig15",
        "LAN beats WAN for the dense Baseline (Homo A vs Homo B)",
        ("Baseline", "Homo A"),
        ("Baseline", "Homo B"),
        ABOVE,
    ),
    (
        "fig15",
        "DLion best under network heterogeneity (Hetero NET A, vs Baseline)",
        ("DLion", "Hetero NET A"),
        ("Baseline", "Hetero NET A"),
        ABOVE,
    ),
    (
        "fig16",
        "Max10 alone beats Baseline on the WAN (Homo B)",
        ("Max10", "Homo B"),
        ("Baseline", "Homo B"),
        ABOVE,
    ),
    (
        "fig17",
        "DLion's worker deviation below Ako's (Hetero SYS B)",
        ("DLion", "Hetero SYS B"),
        ("Ako", "Hetero SYS B"),
        BELOW,
    ),
    (
        "fig18",
        "DLion beats Baseline under dynamism (Dynamic SYS A)",
        ("DLion", "Dynamic SYS A"),
        ("Baseline", "Dynamic SYS A"),
        ABOVE,
    ),
    (
        "fig18",
        "DLion beats Baseline under dynamism (Dynamic SYS B)",
        ("DLion", "Dynamic SYS B"),
        ("Baseline", "Dynamic SYS B"),
        ABOVE,
    ),
    (
        "fig21",
        "DLion reaches the highest converged accuracy (vs Baseline)",
        ("DLion", "Best accuracy"),
        ("Baseline", "Best accuracy"),
        ABOVE,
    ),
];

/// Evaluate all shape checks against the CSVs in `dir`.
pub fn verdicts(dir: &Path) -> Table {
    let mut t = Table::new(
        "verdicts",
        "Reproduction shape checks against the paper's qualitative claims",
        &["Figure", "Claim", "Verdict", "Measured"],
    );
    for &(figure, claim, a, b, holds) in &CLAIMS {
        let (verdict, measured) = Csv::load(dir, figure)
            .and_then(|csv| {
                let (a, b) = (csv.cell(a.0, a.1)?, csv.cell(b.0, b.1)?);
                let holds = holds(parse_val(a)?, parse_val(b)?);
                Some((
                    if holds { "PASS" } else { "DIVERGES" },
                    format!("{a} vs {b}"),
                ))
            })
            .unwrap_or(("NO DATA", "missing data".to_string()));
        t.row(vec![
            figure.to_string(),
            claim.to_string(),
            verdict.to_string(),
            measured,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    #[test]
    fn parse_val_variants() {
        assert_eq!(parse_val("0.530"), Some(0.530));
        assert_eq!(parse_val("0.530 ±0.012"), Some(0.530));
        assert_eq!(parse_val("1242"), Some(1242.0));
        assert_eq!(parse_val("not reached"), None);
        assert_eq!(parse_val(""), None);
    }

    #[test]
    fn csv_lookup() {
        let dir = ScratchDir::new("verdict-test");
        std::fs::write(
            dir.join("figx.csv"),
            "System,Homo A,Homo B\nDLion,0.570 ±0.01,0.530\nBaseline,0.536,0.316\n",
        )
        .unwrap();
        let csv = Csv::load(&dir, "figx").unwrap();
        assert_eq!(csv.cell("DLion", "Homo A"), Some("0.570 ±0.01"));
        assert_eq!(csv.cell("Baseline", "Homo B"), Some("0.316"));
        assert_eq!(csv.cell("Nobody", "Homo A"), None);
        assert_eq!(csv.cell("DLion", "Nowhere"), None);
    }

    #[test]
    fn committed_verdicts_are_what_the_committed_csvs_imply() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let dir = ScratchDir::new("verdict-committed");
        verdicts(&results).write_csv(&dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("verdicts.csv")).unwrap(),
            std::fs::read_to_string(results.join("verdicts.csv")).unwrap()
        );
    }

    #[test]
    fn measured_shows_the_cells_as_written() {
        let dir = ScratchDir::new("verdict-intervals");
        std::fs::write(
            dir.join("fig17.csv"),
            "System,Hetero SYS B\nDLion,0.036 ±0.004\nAko,0.021 ±0.010\n",
        )
        .unwrap();
        let t = verdicts(&dir);
        let row = t.rows.iter().find(|r| r[0] == "fig17").unwrap();
        assert_eq!(row[2], "DIVERGES");
        assert_eq!(row[3], "0.036 ±0.004 vs 0.021 ±0.010");
    }

    #[test]
    fn verdicts_report_missing_data_gracefully() {
        let dir = ScratchDir::new("verdict-empty");
        let t = verdicts(&dir);
        assert!(!t.rows.is_empty());
        assert!(t.rows.iter().all(|r| r[2] == "NO DATA"));
    }

    #[test]
    fn verdicts_pass_and_diverge() {
        let dir = ScratchDir::new("verdict-mixed");
        std::fs::write(
            dir.join("fig11.csv"),
            "System,Homo A,Hetero SYS A,Hetero SYS B\nBaseline,0.5,0.4,0.3\nDLion,0.6,0.3,0.5\n",
        )
        .unwrap();
        let t = verdicts(&dir);
        let row = |claim: &str| t.rows.iter().find(|r| r[1].contains(claim)).unwrap()[2].clone();
        assert_eq!(row("Homo A"), "PASS");
        assert_eq!(row("Hetero SYS A"), "DIVERGES");
        assert_eq!(row("Hetero SYS B"), "PASS");
    }
}
