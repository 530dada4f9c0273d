//! Console tables, CSV files and the results region of a markdown report.

use std::fs;
use std::path::Path;

/// One paper-style table: headers plus string rows, printed to the console
/// and persisted as CSV.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id, e.g. "fig11" (used as the CSV file name).
    pub id: String,
    /// Human title, e.g. the paper's caption.
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Render as an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.id, self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&line(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Write `<dir>/<id>.csv` (quoting cells that contain commas).
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let quote = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut s = String::new();
        s.push_str(
            &self
                .headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        s.push('\n');
        for r in &self.rows {
            s.push_str(&r.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            s.push('\n');
        }
        fs::write(dir.join(format!("{}.csv", self.id)), s)
    }
}

/// The markers around the generated region of a markdown report.
pub const RESULTS_START: &str = "<!-- RESULTS START -->";
pub const RESULTS_END: &str = "<!-- RESULTS END -->";

/// The generated region of a markdown report: a header naming the run's
/// seeds and mode, then every table as rendered on the console, each in a
/// `text` fence.
pub fn results_region(tables: &[Table], seeds: usize, fast: bool) -> String {
    let (flag, mode) = if fast {
        (" --fast", "fast mode, durations ~10× shorter")
    } else {
        ("", "paper scale")
    };
    let per_cell = if seeds > 1 {
        format!("{seeds} seeds per cell; a cell reads `mean ±95 % CI` over the seeds")
    } else {
        "1 seed per cell".to_string()
    };
    let mut s = format!(
        "<!-- Generated by `experiments --md`; edit outside the markers only. -->\n\n\
         Measured by `experiments --seeds {seeds}{flag}` ({mode}): {per_cell}.\n"
    );
    for t in tables {
        s.push_str(&format!("\n```text\n{}```\n", t.render()));
    }
    s
}

/// `doc` with the text between [`RESULTS_START`] and [`RESULTS_END`]
/// replaced by `region`; `None` if either marker is missing.
pub fn replace_results(doc: &str, region: &str) -> Option<String> {
    let start = doc.find(RESULTS_START)? + RESULTS_START.len();
    let end = start + doc[start..].find(RESULTS_END)?;
    Some(format!("{}\n\n{region}\n{}", &doc[..start], &doc[end..]))
}

/// `mean ±ci` formatting (ci omitted when 0, i.e. a single seed).
pub fn fmt_pm(mean: f64, ci: f64) -> String {
    if ci > 0.0 {
        format!("{mean:.3} ±{ci:.3}")
    } else {
        format!("{mean:.3}")
    }
}

/// Format an optional time-to-target.
pub fn fmt_time(t: Option<f64>) -> String {
    match t {
        Some(v) => format!("{v:.0}"),
        None => "not reached".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("figX", "Demo", &["System", "Accuracy"]);
        t.row(vec!["DLion".into(), "0.712".into()]);
        t.row(vec!["Baseline".into(), "0.401".into()]);
        t
    }

    #[test]
    fn render_contains_everything() {
        let s = table().render();
        assert!(s.contains("figX"));
        assert!(s.contains("System"));
        assert!(s.contains("DLion"));
        assert!(s.contains("0.401"));
    }

    #[test]
    fn render_trims_trailing_padding() {
        assert!(table().render().lines().all(|l| l == l.trim_end()));
    }

    #[test]
    fn results_region_fences_each_table_and_names_the_seeds() {
        let region = results_region(&[table(), table()], 3, false);
        assert!(region.contains("`experiments --seeds 3` (paper scale): 3 seeds per cell;"));
        assert!(region.contains("mean ±95 % CI"));
        assert_eq!(region.matches("```text\n== figX — Demo\n").count(), 2);
        assert!(results_region(&[], 1, true).contains("`experiments --seeds 1 --fast` (fast mode"));
    }

    #[test]
    fn replace_results_keeps_the_text_outside_the_markers() {
        let doc = format!("head\n{RESULTS_START}\nold\n{RESULTS_END}\ntail\n");
        let new = replace_results(&doc, "new\n").unwrap();
        assert_eq!(
            new,
            format!("head\n{RESULTS_START}\n\nnew\n\n{RESULTS_END}\ntail\n")
        );
        // Replacing again is a fixed point.
        assert_eq!(replace_results(&new, "new\n").unwrap(), new);
        assert_eq!(replace_results("head\n", "x"), None);
        assert_eq!(
            replace_results(&format!("{RESULTS_END}{RESULTS_START}"), "x"),
            None
        );
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("dlion-test-csv");
        table().write_csv(&dir).unwrap();
        let s = std::fs::read_to_string(dir.join("figX.csv")).unwrap();
        assert_eq!(s.lines().count(), 3);
        assert!(s.starts_with("System,Accuracy"));
    }

    #[test]
    fn csv_quotes_commas() {
        let mut t = Table::new("q", "t", &["a"]);
        t.row(vec!["x,y".into()]);
        let dir = std::env::temp_dir().join("dlion-test-csv2");
        t.write_csv(&dir).unwrap();
        let s = std::fs::read_to_string(dir.join("q.csv")).unwrap();
        assert!(s.contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = table();
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_pm(0.5, 0.0), "0.500");
        assert_eq!(fmt_pm(0.5, 0.012), "0.500 ±0.012");
        assert_eq!(fmt_time(Some(123.4)), "123");
        assert_eq!(fmt_time(None), "not reached");
    }
}
