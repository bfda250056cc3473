//! Plain-text table rendering and command-line helpers.

/// A printable results table.
#[derive(Debug, Default)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Row>,
}

/// One row of cells.
#[derive(Debug, Default, Clone)]
pub struct Row(pub Vec<String>);

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(Row(cells.to_vec()));
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.0.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(&row.0));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Geometric mean of positive values.
pub fn geo_mean(xs: &[f64]) -> f64 {
    sparse::stats::geometric_mean(xs)
}

/// Parse `--quick` / `--full` style flags from argv.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// The problem grid `--full` / `--quick` select: `"full"`, `"quick"` or
/// `"default"` (`--full` wins when both are given).
pub fn grid_label() -> &'static str {
    if has_flag("--full") {
        "full"
    } else if has_flag("--quick") {
        "quick"
    } else {
        "default"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1.00".into()]);
        t.row(&["longer-name".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("longer-name"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
