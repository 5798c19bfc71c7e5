//! Paper-style tables: labelled rows of heterogeneous cells with fixed-width
//! text, CSV and JSON rendering.

use crate::json::{Json, JsonError};

/// One value in a [`Table`] row.
///
/// Cells remember their kind so the renderers can format counts, percentages
/// and timings the way the paper's figures do (integral counts, one decimal
/// for percentages, two for seconds and speedups).
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A free-form label (benchmark names, descriptions).
    Text(String),
    /// An integral count (objects created, blocks, GC cycles).
    Count(u64),
    /// A percentage in `0.0..=100.0`.
    Percent(f64),
    /// A time in seconds.
    Seconds(f64),
    /// A unitless ratio such as a speedup.
    Ratio(f64),
    /// A missing / not-applicable entry, rendered as `-`.
    Missing,
}

impl Cell {
    /// Creates a text cell.
    pub fn text(s: impl Into<String>) -> Self {
        Cell::Text(s.into())
    }

    /// Creates an integral count cell.
    pub fn count(n: u64) -> Self {
        Cell::Count(n)
    }

    /// Creates a percentage cell.
    pub fn percent(p: f64) -> Self {
        Cell::Percent(p)
    }

    /// Creates a seconds cell.
    pub fn seconds(s: f64) -> Self {
        Cell::Seconds(s)
    }

    /// Creates a ratio (speedup) cell.
    pub fn ratio(r: f64) -> Self {
        Cell::Ratio(r)
    }

    /// Renders the cell the way the paper formats that kind of value.
    pub fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Count(n) => n.to_string(),
            Cell::Percent(p) => format!("{p:.1}%"),
            Cell::Seconds(s) => format!("{s:.3}"),
            Cell::Ratio(r) => format!("{r:.2}"),
            Cell::Missing => "-".to_string(),
        }
    }

    /// The cell as a tagged JSON object, e.g. `{"kind": "percent", "value": 61.0}`.
    pub fn to_json(&self) -> Json {
        let (kind, value) = match self {
            Cell::Text(s) => ("text", Json::Str(s.clone())),
            Cell::Count(n) => ("count", Json::Num(*n as f64)),
            Cell::Percent(p) => ("percent", Json::Num(*p)),
            Cell::Seconds(s) => ("seconds", Json::Num(*s)),
            Cell::Ratio(r) => ("ratio", Json::Num(*r)),
            Cell::Missing => ("missing", Json::Null),
        };
        Json::obj([("kind", Json::Str(kind.to_string())), ("value", value)])
    }

    /// Parses a cell from the JSON produced by [`Cell::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the value is not a well-formed cell.
    pub fn from_json(json: &Json) -> Result<Cell, JsonError> {
        let kind = json.required_str("kind")?;
        let value = json
            .get("value")
            .ok_or_else(|| JsonError::msg("cell is missing its value"))?;
        let number = |value: &Json| {
            value
                .as_f64()
                .ok_or_else(|| JsonError::msg("cell value must be a number"))
        };
        Ok(match kind.as_str() {
            "text" => Cell::Text(
                value
                    .as_str()
                    .ok_or_else(|| JsonError::msg("text cell value must be a string"))?
                    .to_string(),
            ),
            "count" => Cell::Count(value.as_u64().ok_or_else(|| {
                JsonError::msg("count cell value must be a non-negative integer")
            })?),
            "percent" => Cell::Percent(number(value)?),
            "seconds" => Cell::Seconds(number(value)?),
            "ratio" => Cell::Ratio(number(value)?),
            "missing" => Cell::Missing,
            other => return Err(JsonError::msg(format!("unknown cell kind '{other}'"))),
        })
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::text(s)
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Self {
        Cell::Count(n)
    }
}

/// A titled table of rows, the unit in which experiments report results.
///
/// # Example
///
/// ```
/// use cg_stats::{Table, Cell};
///
/// let mut t = Table::new("Figure 4.7", &["benchmark", "CG", "JDK", "speedup"]);
/// t.push_row(vec![
///     Cell::text("javac"),
///     Cell::seconds(3.335),
///     Cell::seconds(3.7172),
///     Cell::ratio(1.11),
/// ]);
/// let text = t.render_text();
/// assert!(text.contains("Figure 4.7"));
/// assert!(text.contains("1.11"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    ///
    /// # Panics
    ///
    /// Panics if no columns are given.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Self {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows added so far.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row has a different number of cells than there are
    /// columns.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} does not match column count {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Looks up a row by the text in its first column.
    pub fn row_by_label(&self, label: &str) -> Option<&[Cell]> {
        self.rows
            .iter()
            .find(|r| matches!(r.first(), Some(Cell::Text(s)) if s == label))
            .map(|r| r.as_slice())
    }

    /// Renders a fixed-width text table in the style of the paper's figures.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered_rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::render).collect())
            .collect();
        for row in &rendered_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }

        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let total_width: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"=".repeat(total_width.max(self.title.len())));
        out.push('\n');
        for (i, col) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{col:>width$}", width = widths[i]));
        }
        out.push('\n');
        out.push_str(&"-".repeat(total_width.max(self.title.len())));
        out.push('\n');
        for row in &rendered_rows {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    out.push_str(&format!("{cell:<width$}", width = widths[i]));
                } else {
                    out.push_str(&format!("{cell:>width$}", width = widths[i]));
                }
            }
            out.push('\n');
        }
        out
    }

    /// The table as a JSON value (title, columns, tagged cells).
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            ("title", Json::Str(self.title.clone())),
            (
                "columns",
                Json::Arr(self.columns.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(Cell::to_json).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Serializes the table to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render_pretty()
    }

    /// Parses a table from the JSON produced by [`Table::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the text is not a well-formed table.
    pub fn from_json(text: &str) -> Result<Table, JsonError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Parses a table from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the value is not a well-formed table.
    pub fn from_json_value(json: &Json) -> Result<Table, JsonError> {
        let title = json.required_str("title")?;
        let columns: Vec<String> = json
            .get("columns")
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError::msg("table is missing its columns"))?
            .iter()
            .map(|c| {
                c.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| JsonError::msg("column names must be strings"))
            })
            .collect::<Result<_, _>>()?;
        if columns.is_empty() {
            return Err(JsonError::msg("a table needs at least one column"));
        }
        let mut table = Table {
            title,
            columns,
            rows: Vec::new(),
        };
        for row in json
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError::msg("table is missing its rows"))?
        {
            let cells = row
                .as_arr()
                .ok_or_else(|| JsonError::msg("each row must be an array"))?
                .iter()
                .map(Cell::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            if cells.len() != table.columns.len() {
                return Err(JsonError::msg("row width does not match column count"));
            }
            table.rows.push(cells);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new(
            "Figure X",
            &["benchmark", "objects", "collectable", "time", "speedup"],
        );
        t.push_row(vec![
            Cell::text("jess"),
            Cell::count(45867),
            Cell::percent(61.0),
            Cell::seconds(5.7176),
            Cell::ratio(0.89),
        ]);
        t.push_row(vec![
            Cell::text("raytrace"),
            Cell::count(276_960),
            Cell::percent(98.0),
            Cell::seconds(35.217),
            Cell::ratio(0.79),
        ]);
        t
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn table_needs_columns() {
        let _ = Table::new("t", &[]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec![Cell::count(1)]);
    }

    #[test]
    fn cell_rendering_formats() {
        assert_eq!(Cell::count(42).render(), "42");
        assert_eq!(Cell::percent(53.04).render(), "53.0%");
        assert_eq!(Cell::seconds(1.5).render(), "1.500");
        assert_eq!(Cell::ratio(1.114).render(), "1.11");
        assert_eq!(Cell::Missing.render(), "-");
        assert_eq!(Cell::text("db").render(), "db");
    }

    #[test]
    fn cell_from_conversions() {
        assert_eq!(Cell::from("x"), Cell::text("x"));
        assert_eq!(Cell::from(3u64), Cell::count(3));
        assert_eq!(Cell::from(String::from("y")), Cell::text("y"));
    }

    #[test]
    fn text_render_contains_all_data() {
        let t = sample_table();
        let text = t.render_text();
        assert!(text.contains("Figure X"));
        assert!(text.contains("jess"));
        assert!(text.contains("45867"));
        assert!(text.contains("98.0%"));
        assert!(text.contains("0.79"));
    }

    #[test]
    fn row_lookup_by_label() {
        let t = sample_table();
        let row = t.row_by_label("raytrace").unwrap();
        assert_eq!(row[1], Cell::count(276_960));
        assert!(t.row_by_label("nonexistent").is_none());
    }

    #[test]
    fn len_and_is_empty() {
        let t = sample_table();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let empty = Table::new("e", &["a"]);
        assert!(empty.is_empty());
    }

    #[test]
    fn json_round_trip() {
        let mut t = sample_table();
        t.push_row(vec![
            Cell::Missing,
            Cell::count(0),
            Cell::percent(0.0),
            Cell::seconds(0.125),
            Cell::ratio(1.0),
        ]);
        let json = t.to_json();
        let back = Table::from_json(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(Table::from_json("{}").is_err());
        assert!(Table::from_json("{\"title\": \"t\", \"columns\": [], \"rows\": []}").is_err());
        assert!(Table::from_json(
            "{\"title\": \"t\", \"columns\": [\"a\"], \"rows\": [[{\"kind\": \"warp\", \"value\": 1}]]}"
        )
        .is_err());
        assert!(
            Table::from_json("{\"title\": \"t\", \"columns\": [\"a\"], \"rows\": [[]]}").is_err()
        );
    }
}
