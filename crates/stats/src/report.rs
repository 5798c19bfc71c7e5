//! Experiment reports: named collections of tables plus paper-vs-measured
//! records, serializable for `EXPERIMENTS.md` generation.

use crate::json::{Json, JsonError};
use crate::table::Table;

/// A single paper-vs-measured comparison point.
///
/// The reproduction harness emits one record per headline quantity (e.g.
/// "raytrace collectable %" or "javac size-1 speedup") so the agreement with
/// the paper can be audited mechanically.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Which figure/table of the paper this belongs to, e.g. `"Fig 4.1"`.
    pub experiment: String,
    /// The quantity being compared, e.g. `"raytrace collectable %"`.
    pub quantity: String,
    /// The value the paper reports, if it reports one.
    pub paper: Option<f64>,
    /// The value measured by this reproduction.
    pub measured: f64,
    /// Free-form note on how to interpret the comparison.
    pub note: String,
}

impl ExperimentRecord {
    /// Creates a record with a paper-reported reference value.
    pub fn with_paper(
        experiment: impl Into<String>,
        quantity: impl Into<String>,
        paper: f64,
        measured: f64,
    ) -> Self {
        Self {
            experiment: experiment.into(),
            quantity: quantity.into(),
            paper: Some(paper),
            measured,
            note: String::new(),
        }
    }

    /// Creates a record for a quantity the paper does not report numerically.
    pub fn measured_only(
        experiment: impl Into<String>,
        quantity: impl Into<String>,
        measured: f64,
    ) -> Self {
        Self {
            experiment: experiment.into(),
            quantity: quantity.into(),
            paper: None,
            measured,
            note: String::new(),
        }
    }

    /// Attaches an interpretation note, returning `self` for chaining.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// The record as a JSON object.
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            ("experiment", Json::Str(self.experiment.clone())),
            ("quantity", Json::Str(self.quantity.clone())),
            ("paper", self.paper.map(Json::Num).unwrap_or(Json::Null)),
            ("measured", Json::Num(self.measured)),
            ("note", Json::Str(self.note.clone())),
        ])
    }

    /// Parses a record from the JSON produced by
    /// [`ExperimentRecord::to_json_value`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the value is not a well-formed record.
    pub fn from_json_value(json: &Json) -> Result<ExperimentRecord, JsonError> {
        Ok(ExperimentRecord {
            experiment: json.required_str("experiment")?,
            quantity: json.required_str("quantity")?,
            paper: match json.get("paper") {
                Some(Json::Null) | None => None,
                Some(value) => Some(
                    value
                        .as_f64()
                        .ok_or_else(|| JsonError::msg("'paper' must be a number"))?,
                ),
            },
            measured: json
                .get("measured")
                .and_then(Json::as_f64)
                .ok_or_else(|| JsonError::msg("record is missing 'measured'"))?,
            note: json.required_str("note")?,
        })
    }
}

/// A named experiment report: the rendered tables plus comparison records.
///
/// # Example
///
/// ```
/// use cg_stats::{ExperimentReport, ExperimentRecord, Table, Cell};
///
/// let mut report = ExperimentReport::new("Fig 4.1", "Collectable objects");
/// let mut t = Table::new("Figure 4.1", &["benchmark", "collectable"]);
/// t.push_row(vec![Cell::text("raytrace"), Cell::percent(98.0)]);
/// report.add_table(t);
/// report.add_record(ExperimentRecord::with_paper("Fig 4.1", "raytrace collectable %", 98.0, 97.5));
/// assert_eq!(report.tables().len(), 1);
/// assert_eq!(report.records()[0].paper, Some(98.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    id: String,
    description: String,
    tables: Vec<Table>,
    records: Vec<ExperimentRecord>,
}

impl ExperimentReport {
    /// Creates an empty report for the identified experiment.
    pub fn new(id: impl Into<String>, description: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            description: description.into(),
            tables: Vec::new(),
            records: Vec::new(),
        }
    }

    /// The experiment identifier (e.g. `"Fig 4.5"`).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The human-readable description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Adds a rendered table.
    pub fn add_table(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Adds a paper-vs-measured record.
    pub fn add_record(&mut self, record: ExperimentRecord) {
        self.records.push(record);
    }

    /// The tables in this report.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// The comparison records in this report.
    pub fn records(&self) -> &[ExperimentRecord] {
        &self.records
    }

    /// Renders the report (title, tables, then records) as plain text.
    pub fn render_text(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.description);
        for table in &self.tables {
            out.push_str(&table.render_text());
            out.push('\n');
        }
        if !self.records.is_empty() {
            out.push_str("paper vs measured:\n");
            for r in &self.records {
                match r.paper {
                    Some(p) => out.push_str(&format!(
                        "  {:<45} paper {:>10.2}  measured {:>10.2}  {}\n",
                        r.quantity, p, r.measured, r.note
                    )),
                    None => out.push_str(&format!(
                        "  {:<45} paper          -  measured {:>10.2}  {}\n",
                        r.quantity, r.measured, r.note
                    )),
                }
            }
        }
        out
    }

    /// The report as a JSON value.
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("description", Json::Str(self.description.clone())),
            (
                "tables",
                Json::Arr(self.tables.iter().map(Table::to_json_value).collect()),
            ),
            (
                "records",
                Json::Arr(
                    self.records
                        .iter()
                        .map(ExperimentRecord::to_json_value)
                        .collect(),
                ),
            ),
        ])
    }

    /// Serializes the report to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render_pretty()
    }

    /// Parses a report from the JSON produced by [`ExperimentReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the text is not a well-formed report.
    pub fn from_json(text: &str) -> Result<ExperimentReport, JsonError> {
        let json = Json::parse(text)?;
        let mut report =
            ExperimentReport::new(json.required_str("id")?, json.required_str("description")?);
        for table in json
            .get("tables")
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError::msg("report is missing 'tables'"))?
        {
            report.add_table(Table::from_json_value(table)?);
        }
        for record in json
            .get("records")
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError::msg("report is missing 'records'"))?
        {
            report.add_record(ExperimentRecord::from_json_value(record)?);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Cell;

    #[test]
    fn record_note_chaining() {
        let r = ExperimentRecord::measured_only("a", "b", 1.0).note("synthetic workload");
        assert_eq!(r.note, "synthetic workload");
    }

    #[test]
    fn report_renders_tables_and_records() {
        let mut report = ExperimentReport::new("Fig 4.5", "Block sizes");
        let mut t = Table::new("Figure 4.5", &["benchmark", "size 1"]);
        t.push_row(vec![Cell::text("jack"), Cell::count(119_252)]);
        report.add_table(t);
        report.add_record(
            ExperimentRecord::with_paper("Fig 4.5", "jack % exact", 30.0, 28.0).note("close"),
        );
        report.add_record(ExperimentRecord::measured_only("Fig 4.5", "extra", 1.0));
        let text = report.render_text();
        assert!(text.contains("Fig 4.5"));
        assert!(text.contains("jack"));
        assert!(text.contains("paper vs measured"));
        assert!(text.contains("close"));
    }

    #[test]
    fn report_json_round_trip() {
        let mut report = ExperimentReport::new("Fig 4.13", "Recycled objects");
        report.add_record(ExperimentRecord::with_paper(
            "Fig 4.13",
            "jack % recycled",
            56.47,
            50.0,
        ));
        report.add_record(ExperimentRecord::measured_only("Fig 4.13", "extra", 1.25).note("n"));
        let mut t = Table::new("Figure 4.13", &["benchmark", "recycled"]);
        t.push_row(vec![Cell::text("jack"), Cell::percent(50.0)]);
        report.add_table(t);
        let json = report.to_json();
        let back = ExperimentReport::from_json(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn report_accessors() {
        let report = ExperimentReport::new("id", "desc");
        assert_eq!(report.id(), "id");
        assert_eq!(report.description(), "desc");
        assert!(report.tables().is_empty());
        assert!(report.records().is_empty());
    }
}
