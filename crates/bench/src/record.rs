//! One experiment record: a title, notes, ordered top-level fields and
//! tables. Every column is declared once, as data (JSON key, text header,
//! unit, text precision), and every cell is typed, so the text report and
//! the JSON record are two renderings of the same values.

use crate::experiments::ExperimentError;
use locality_json::Json;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One column (or top-level field): where its value goes in the JSON and
/// how it prints in the text report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column {
    /// JSON object key.
    pub key: &'static str,
    /// Text header.
    pub header: &'static str,
    /// Unit, appended to the text header as `header (unit)`; empty for none.
    pub unit: &'static str,
    /// Digits after the decimal point for float cells in the text report
    /// (the JSON writer keeps three).
    pub precision: usize,
}

/// A [`Column`]; [`columns!`] declares them in bulk.
pub const fn col(
    key: &'static str,
    header: &'static str,
    unit: &'static str,
    precision: usize,
) -> Column {
    Column {
        key,
        header,
        unit,
        precision,
    }
}

/// An array of [`Column`]s, each `key`, `key("header")`,
/// `key("header", "unit")` or `key("header", "unit", precision)`. The
/// header defaults to the key, the unit to none, the precision to 0.
#[macro_export]
macro_rules! columns {
    (@one $key:ident) => { $crate::record::col(stringify!($key), stringify!($key), "", 0) };
    (@one $key:ident $header:literal) => { $crate::record::col(stringify!($key), $header, "", 0) };
    (@one $key:ident $header:literal, $unit:literal) => {
        $crate::record::col(stringify!($key), $header, $unit, 0)
    };
    (@one $key:ident $header:literal, $unit:literal, $precision:literal) => {
        $crate::record::col(stringify!($key), $header, $unit, $precision)
    };
    ($($key:ident $(($($spec:tt)*))?),* $(,)?) => {
        [$($crate::columns!(@one $key $($($spec)*)?)),*]
    };
}

impl Column {
    fn title(&self) -> String {
        if self.unit.is_empty() {
            self.header.to_string()
        } else {
            format!("{} ({})", self.header, self.unit)
        }
    }
}

/// One typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Integer.
    Int(i64),
    /// Float, printed at its column's precision.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Nested JSON (printed as `{..}` in the text report).
    Json(Json),
    /// A measurement this row did not take, and why: `-` in the text
    /// report, `{"skipped": "<reason>"}` in the JSON.
    Skipped(String),
}

impl Cell {
    /// `value`, or a [`Cell::Skipped`] marker with `reason`.
    pub fn or_skipped(value: Option<impl Into<Cell>>, reason: &str) -> Cell {
        value.map_or_else(|| Cell::Skipped(reason.to_string()), Into::into)
    }

    fn text(&self, precision: usize) -> String {
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::Float(v) => format!("{v:.precision$}"),
            Cell::Str(s) => s.clone(),
            Cell::Bool(b) => b.to_string(),
            Cell::Json(_) => "{..}".to_string(),
            Cell::Skipped(_) => "-".to_string(),
        }
    }

    fn json(&self) -> Json {
        match self {
            Cell::Int(v) => Json::Int(*v),
            Cell::Float(v) => Json::Float(*v),
            Cell::Str(s) => Json::Str(s.clone()),
            Cell::Bool(b) => Json::Bool(*b),
            Cell::Json(j) => j.clone(),
            Cell::Skipped(reason) => Json::skipped(reason),
        }
    }
}

macro_rules! cell_from {
    ($($t:ty, $v:ident => $cell:expr;)*) => {$(
        impl From<$t> for Cell {
            fn from($v: $t) -> Cell {
                $cell
            }
        }
    )*};
}

cell_from! {
    u32, v => Cell::Int(i64::from(v));
    u64, v => Cell::Int(v as i64);
    usize, v => Cell::Int(v as i64);
    f64, v => Cell::Float(v);
    bool, v => Cell::Bool(v);
    &str, v => Cell::Str(v.to_string());
    String, v => Cell::Str(v);
    Json, v => Cell::Json(v);
}

/// A row of cells, each converted with [`Cell::from`].
#[macro_export]
macro_rules! cells {
    ($($cell:expr),* $(,)?) => {
        vec![$($crate::record::Cell::from($cell)),*]
    };
}

fn check_arity(
    table: &'static str,
    columns: &[Column],
    cells: &[Cell],
) -> Result<(), ExperimentError> {
    if cells.len() == columns.len() {
        return Ok(());
    }
    let (expected, got) = (columns.len(), cells.len());
    Err(ExperimentError::Arity {
        table,
        expected,
        got,
    })
}

/// A JSON object member: the column's key and the cell's value.
fn pair(c: &Column, cell: &Cell) -> (String, Json) {
    (c.key.to_string(), cell.json())
}

/// One table: its JSON key, a caption printed above it, its columns and
/// its rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    key: &'static str,
    caption: String,
    columns: &'static [Column],
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Append a row. A row whose cell count differs from the declared
    /// columns is an error.
    pub fn row(&mut self, cells: Vec<Cell>) -> Result<(), ExperimentError> {
        check_arity(self.key, self.columns, &cells)?;
        self.rows.push(cells);
        Ok(())
    }

    /// Set the text printed above the table.
    pub fn caption(&mut self, caption: &str) -> &mut Self {
        self.caption = format!("{caption}\n");
        self
    }

    /// Left-aligned fixed-width text: header, rule, rows.
    fn render(&self) -> String {
        let header: Vec<String> = self.columns.iter().map(Column::title).collect();
        let body: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(self.columns)
                    .map(|(cell, c)| cell.text(c.precision))
                    .collect()
            })
            .collect();
        let mut width: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
        for row in &body {
            for (w, cell) in width.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let line = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&width)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            padded.join("  ").trim_end().to_string() + "\n"
        };
        let rule = width.iter().sum::<usize>() + 2 * width.len().saturating_sub(1);
        let mut out = line(&header) + &"-".repeat(rule) + "\n";
        for row in &body {
            out.push_str(&line(row));
        }
        out
    }

    fn to_json(&self) -> Json {
        let object = |row: &Vec<Cell>| {
            Json::Object(
                self.columns
                    .iter()
                    .zip(row)
                    .map(|(c, v)| pair(c, v))
                    .collect(),
            )
        };
        Json::Array(self.rows.iter().map(object).collect())
    }
}

/// The provenance header [`Record::stamp`] appends to every record.
pub const PROVENANCE: &[Column] = &columns! {
    unix_seconds("unix seconds"), git_rev("git rev"), nproc, profile, wall_s("wall", "s", 2),
    peak_rss_mb("peak RSS", "MB", 1),
};

/// One experiment's results, rendered as a text report or as JSON.
///
/// The JSON is an object: the top-level fields in order (after
/// [`Record::stamp`], `experiment` first and the provenance header last),
/// then each table as an array of row objects under its key.
/// Title, notes and captions are text only.
#[derive(Debug, Clone, Default)]
pub struct Record {
    title: String,
    notes: Vec<String>,
    fields: Vec<(Column, Cell)>,
    tables: Vec<Table>,
}

impl Record {
    /// An empty record printed under `title`.
    pub fn new(title: &str) -> Record {
        let title = title.to_string();
        Record {
            title,
            ..Record::default()
        }
    }

    /// Add a line of text printed under the title.
    pub fn note(&mut self, line: impl Into<String>) -> &mut Self {
        self.notes.push(line.into());
        self
    }

    /// Add one top-level field per column. A cell count that differs from
    /// the columns is an error.
    pub fn fields(
        &mut self,
        columns: &[Column],
        cells: Vec<Cell>,
    ) -> Result<&mut Self, ExperimentError> {
        check_arity("fields", columns, &cells)?;
        self.fields.extend(columns.iter().copied().zip(cells));
        Ok(self)
    }

    /// Start a table of `columns` under `key`.
    pub fn table(&mut self, key: &'static str, columns: &'static [Column]) -> &mut Table {
        self.tables.push(Table {
            key,
            columns,
            ..Table::default()
        });
        let last = self.tables.len() - 1;
        &mut self.tables[last]
    }

    /// Each table's JSON key and declared columns, in order.
    pub fn schema(&self) -> impl Iterator<Item = (&'static str, &'static [Column])> + '_ {
        self.tables.iter().map(|t| (t.key, t.columns))
    }

    /// Put the `experiment` tag first and append the provenance header:
    /// `unix_seconds`, `git_rev` (`git rev-parse HEAD` in the working
    /// directory, `none` outside git), `nproc`, the build `profile`,
    /// `wall_s` since `started`, and `peak_rss_mb` (this process's VmHWM so
    /// far).
    pub fn stamp(&mut self, experiment: &str, started: Instant) -> &mut Self {
        let wall_s = started.elapsed().as_secs_f64();
        let unix_seconds = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map_or("none".to_string(), |out| {
                String::from_utf8_lossy(&out.stdout).trim().to_string()
            });
        let values = cells![
            unix_seconds,
            git_rev,
            std::thread::available_parallelism().map_or(1, usize::from),
            cfg!(debug_assertions)
                .then_some("debug")
                .unwrap_or("release"),
            wall_s,
            Cell::or_skipped(peak_rss_mb(), "no /proc/self/status on this platform"),
        ];
        let tag = col("experiment", "experiment", "", 0);
        self.fields.insert(0, (tag, experiment.into()));
        self.fields.extend(PROVENANCE.iter().copied().zip(values));
        self
    }

    /// The text report: title, notes, `header: value` lines for the
    /// fields, then each table under its caption.
    pub fn render_text(&self) -> String {
        let mut out = format!("\n== {} ==\n", self.title);
        for line in &self.notes {
            out += &format!("{line}\n");
        }
        out += "\n";
        for (c, cell) in &self.fields {
            out += &format!("{}: {}\n", c.title(), cell.text(c.precision));
        }
        for t in &self.tables {
            out += "\n";
            out += &t.caption;
            out += &t.render();
        }
        out
    }

    /// The JSON record.
    pub fn to_json(&self) -> Json {
        let fields = self.fields.iter().map(|(c, cell)| pair(c, cell));
        let tables = self.tables.iter().map(|t| (t.key.to_string(), t.to_json()));
        Json::Object(fields.chain(tables).collect())
    }
}

/// Peak resident set size (VmHWM) of this process so far, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const AB: &[Column] = &columns! { a, b("bbbb") };
    const TIMED: &[Column] = &columns! { n, ms("time", "ms", 1) };

    #[test]
    fn renders_aligned() {
        let mut r = Record::new("X");
        r.table("rows", AB).row(cells!["xxxxx", "y"]).unwrap();
        let s = r.tables[0].render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines, ["a      bbbb", "-----------", "xxxxx  y"]);
    }

    #[test]
    fn row_arity_is_an_error() {
        let mut r = Record::new("X");
        let err = r.table("rows", AB).row(cells!["x"]).unwrap_err();
        assert_eq!(
            err,
            ExperimentError::Arity {
                table: "rows",
                expected: 2,
                got: 1
            }
        );
        assert!(r.tables[0].rows.is_empty());
        assert!(r.fields(AB, cells![1u32, 2u32, 3u32]).is_err());
    }

    #[test]
    fn skipped_cells_render_as_dash_and_reason() {
        let mut r = Record::new("X");
        let t = r.table("rows", TIMED);
        t.row(cells![4u32, Cell::or_skipped(None::<f64>, "too slow")])
            .unwrap();
        t.row(cells![5u32, Cell::or_skipped(Some(2.34), "too slow")])
            .unwrap();
        let text = r.render_text();
        assert!(
            text.ends_with("n  time (ms)\n------------\n4  -\n5  2.3\n"),
            "{text}"
        );
        let json = r.to_json();
        let rows = json.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows[0].get("ms"), Some(&Json::skipped("too slow")));
        assert_eq!(rows[1].get("ms").and_then(Json::as_f64), Some(2.34));
    }

    #[test]
    fn json_parses_back() {
        let mut r = Record::new("X");
        let cache = Json::object(vec![("hits", Json::Int(3))]);
        r.note("a note")
            .fields(&columns! { family, cache }, cells!["gnp", cache.clone()])
            .unwrap();
        r.table("rows", AB)
            .caption("caption")
            .row(cells![1u64, true])
            .unwrap();
        r.stamp("x-test", Instant::now());
        let parsed = Json::parse(&r.to_json().to_pretty()).unwrap();
        assert_eq!(
            parsed.get("experiment").and_then(Json::as_str),
            Some("x-test")
        );
        assert_eq!(parsed.get("cache"), Some(&cache));
        for c in PROVENANCE {
            assert!(
                parsed.get(c.key).is_some(),
                "missing provenance key {}",
                c.key
            );
        }
        let rows = parsed.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(
            rows[0],
            Json::object(vec![("a", Json::Int(1)), ("b", Json::Bool(true))])
        );
    }
}
