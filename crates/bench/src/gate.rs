//! `BENCH_ternary.json` and the regression gate behind
//! `cargo run -p art9-bench --bin gate`.
//!
//! The document (schema [`SCHEMA`], documented in
//! `docs/PERFORMANCE.md`) is one flat list of [`Row`]s. [`render`]
//! writes it, [`parse`] reads back exactly that layout (it is not a
//! general JSON parser), and [`compare`] is one loop over the
//! baseline's gated rows, each judged by its own direction and
//! tolerance.
//!
//! **Cross-host caveat:** the committed baseline carries the numbers
//! of whatever machine regenerated it last, so a comparison on another
//! host (as in CI) is a coarse tripwire — hence the generous
//! tolerances — while same-host comparisons are exact. Changes that
//! intentionally move performance should regenerate and commit
//! `BENCH_ternary.json`.

use std::fmt::Write as _;

/// The schema identifier [`render`] writes and [`parse`] requires.
pub const SCHEMA: &str = "art9-bench-ternary/v2";

/// The measurement layers a row may belong to: ternary kernels,
/// program preparation, simulator execution, measured energy, the
/// service scheduler.
pub const LAYERS: [&str; 5] = ["kernel", "prep", "execution", "energy", "service"];

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates, speedups, efficiency.
    Higher,
    /// Latencies, per-operation costs, energy.
    Lower,
}

impl Better {
    /// The name the document uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One measurement of a bench document.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// One of [`LAYERS`].
    pub layer: &'static str,
    /// `<subject>/<metric>` (e.g. `dhrystone/functional_ips`,
    /// `word9/add/ns_per_op`), unique within its layer.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// For a gated row, how far the value may move the wrong way, as a
    /// fraction of the baseline value; `None` for a reported row.
    pub tolerance: Option<f64>,
}

impl Row {
    fn same_metric(&self, other: &Row) -> bool {
        self.layer == other.layer && self.name == other.name
    }
}

/// Renders `rows` as a complete `BENCH_ternary.json` document. Values
/// are written in Rust's shortest round-trip form, so
/// `parse(&render(rows))` returns `rows` exactly.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \
         \"generated_by\": \"cargo run --release -p art9-bench --bin report\",\n  \
         \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let tolerance = r.tolerance.map_or("null".to_string(), |t| t.to_string());
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"layer\": \"{}\", \"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \
             \"better\": \"{}\", \"tolerance\": {tolerance}}}{comma}",
            r.layer,
            r.name,
            r.value,
            r.unit,
            r.better.name()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `BENCH_ternary.json` document.
///
/// # Errors
///
/// Returns a description when the schema is not [`SCHEMA`], the `rows`
/// array is missing, a row lacks a field or carries an unknown layer or
/// direction, a tolerance lies outside `[0, 1)`, a gated value is not
/// positive, a metric appears twice, or no row is gated (so the gate
/// cannot pass vacuously).
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    if string_field(text, "schema").as_deref() != Some(SCHEMA) {
        return Err(format!("schema is not {SCHEMA:?}"));
    }
    let body = section(text, "\"rows\"").ok_or("no \"rows\" array")?;
    let rows = objects(body)
        .map(parse_row)
        .collect::<Result<Vec<_>, _>>()?;
    for (i, r) in rows.iter().enumerate() {
        if rows[..i].iter().any(|p| p.same_metric(r)) {
            return Err(format!("duplicate row {} {}", r.layer, r.name));
        }
    }
    if rows.iter().all(|r| r.tolerance.is_none()) {
        return Err("no gated rows".into());
    }
    Ok(rows)
}

fn parse_row(obj: &str) -> Result<Row, String> {
    let bad = |what: &str| format!("row {what}: {{{obj}}}");
    let text = |key: &str| string_field(obj, key).ok_or_else(|| bad(&format!("without {key}")));
    let layer = text("layer")?;
    let layer = *LAYERS
        .iter()
        .find(|l| **l == layer)
        .ok_or_else(|| bad("with an unknown layer"))?;
    let better = match text("better")?.as_str() {
        "higher" => Better::Higher,
        "lower" => Better::Lower,
        _ => return Err(bad("with an unknown direction")),
    };
    let value = number_field(obj, "value")
        .filter(|v| v.is_finite())
        .ok_or_else(|| bad("without a numeric value"))?;
    let tolerance = match field_value(obj, "tolerance") {
        None => return Err(bad("without tolerance")),
        Some(v) if v.starts_with("null") => None,
        Some(_) => Some(
            number_field(obj, "tolerance")
                .filter(|t| (0.0..1.0).contains(t))
                .ok_or_else(|| bad("with a tolerance outside [0, 1)"))?,
        ),
    };
    if tolerance.is_some() && value <= 0.0 {
        return Err(bad("gated on a non-positive value"));
    }
    Ok(Row {
        layer,
        name: text("name")?,
        value,
        unit: text("unit")?,
        better,
        tolerance,
    })
}

/// The bracketed `[...]` contents following `key`.
fn section<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let at = text.find(key)?;
    let open = at + text[at..].find('[')?;
    let close = open + text[open..].find(']')?;
    Some(&text[open + 1..close])
}

/// Splits an array body into `{...}` object bodies (rows nest no
/// objects, so plain brace matching suffices).
fn objects(array: &str) -> impl Iterator<Item = &str> {
    array.split('{').skip(1).filter_map(|chunk| {
        let end = chunk.find('}')?;
        Some(&chunk[..end])
    })
}

/// Value of `"key": "string"` within an object body.
fn string_field(obj: &str, key: &str) -> Option<String> {
    let rest = field_value(obj, key)?;
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Value of `"key": number` within an object body.
fn number_field(obj: &str, key: &str) -> Option<f64> {
    let rest = field_value(obj, key)?;
    let end = rest
        .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The text right after `"key":`, trimmed.
fn field_value<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let at = obj.find(&pat)?;
    let rest = &obj[at + pat.len()..];
    let rest = rest.trim_start().strip_prefix(':')?;
    Some(rest.trim_start())
}

/// One gated comparison: the baseline row against the current value.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// The gated baseline row (direction and tolerance come from it).
    pub baseline: Row,
    /// The regenerated value.
    pub current: f64,
}

impl MetricDelta {
    /// Relative change: positive = the value went up.
    pub fn ratio(&self) -> f64 {
        self.current / self.baseline.value - 1.0
    }

    /// `true` when the value moved the wrong way by more than the
    /// tolerance.
    fn regressed(&self) -> bool {
        let wrong_way = match self.baseline.better {
            Better::Higher => -self.ratio(),
            Better::Lower => self.ratio(),
        };
        self.baseline.tolerance.is_some_and(|t| wrong_way > t)
    }
}

/// The gate's verdict.
#[derive(Debug, Clone, Default)]
pub struct GateResult {
    /// Every gated comparison made.
    pub deltas: Vec<MetricDelta>,
    /// Gated baseline rows absent from the current document.
    pub missing: Vec<Row>,
    /// Current rows the baseline does not carry: listed, not gated.
    pub added: Vec<Row>,
}

impl GateResult {
    /// The comparisons that moved the wrong way past their tolerance.
    fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed())
    }

    /// `true` when the gate passes.
    pub fn ok(&self) -> bool {
        self.missing.is_empty() && self.regressions().next().is_none()
    }

    /// Renders the comparison table and the verdict.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<9} {:<40} {:>11} {:>11} {:>8} {:>9}\n",
            "layer", "metric", "baseline", "current", "change", "tolerance"
        );
        for d in &self.deltas {
            let b = &d.baseline;
            let _ = writeln!(
                out,
                "{:<9} {:<40} {:>11.4e} {:>11.4e} {:>+7.1}% {:>8.0}% ({} is better)",
                b.layer,
                b.name,
                b.value,
                d.current,
                d.ratio() * 100.0,
                b.tolerance.unwrap_or(0.0) * 100.0,
                b.better.name()
            );
        }
        for r in &self.added {
            let _ = writeln!(out, "NEW (not gated): {} {}", r.layer, r.name);
        }
        for r in &self.missing {
            let _ = writeln!(out, "MISSING: {} {} dropped", r.layer, r.name);
        }
        for d in self.regressions() {
            let _ = writeln!(
                out,
                "gate: REGRESSION {} moved {:+.1}%",
                d.baseline.name,
                d.ratio() * 100.0
            );
        }
        let (regressed, missing) = (self.regressions().count(), self.missing.len());
        let _ = if self.ok() {
            writeln!(out, "gate: OK ({} gated comparisons)", self.deltas.len())
        } else {
            writeln!(out, "gate: FAIL ({regressed} regressed, {missing} missing)")
        };
        out
    }
}

/// Compares `current` against the gated rows of `baseline`.
pub fn compare(baseline: &[Row], current: &[Row]) -> GateResult {
    let mut result = GateResult::default();
    for base in baseline.iter().filter(|r| r.tolerance.is_some()) {
        match current.iter().find(|r| r.same_metric(base)) {
            Some(cur) => result.deltas.push(MetricDelta {
                baseline: base.clone(),
                current: cur.value,
            }),
            None => result.missing.push(base.clone()),
        }
    }
    result.added = current
        .iter()
        .filter(|r| !baseline.iter().any(|b| b.same_metric(r)))
        .cloned()
        .collect();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../BENCH_ternary.json");

    fn baseline() -> Vec<Row> {
        parse(COMMITTED).expect("the committed baseline parses")
    }

    fn gated() -> Vec<Row> {
        baseline()
            .into_iter()
            .filter(|r| r.tolerance.is_some())
            .collect()
    }

    /// The baseline with `row`'s value scaled by `factor`.
    fn scaled(row: &Row, factor: f64) -> Vec<Row> {
        let mut rows = baseline();
        for r in rows.iter_mut().filter(|r| r.same_metric(row)) {
            r.value *= factor;
        }
        rows
    }

    /// The baseline with every row matching `pick` scaled by `factor`.
    fn scaled_where(pick: impl Fn(&Row) -> bool, factor: f64) -> Vec<Row> {
        let mut rows = baseline();
        for r in rows.iter_mut().filter(|r| pick(r)) {
            r.value *= factor;
        }
        rows
    }

    /// The baseline without the rows matching `pick`.
    fn without(pick: impl Fn(&Row) -> bool) -> Vec<Row> {
        let mut rows = baseline();
        rows.retain(|r| !pick(r));
        rows
    }

    fn regressed_names(r: &GateResult) -> Vec<&str> {
        r.regressions().map(|d| d.baseline.name.as_str()).collect()
    }

    fn missing_names(r: &GateResult) -> Vec<&str> {
        r.missing.iter().map(|r| r.name.as_str()).collect()
    }

    fn is_threaded(r: &Row) -> bool {
        r.name.ends_with("/threaded_ips")
    }

    fn is_energy(r: &Row) -> bool {
        r.layer == "energy"
    }

    fn is_service(r: &Row) -> bool {
        r.layer == "service"
    }

    fn is_nn(r: &Row) -> bool {
        r.name.starts_with("nn/")
    }

    /// The factor moving `row` `step` past (positive) or inside
    /// (negative) its tolerance in the bad direction.
    fn bad_factor(row: &Row, step: f64) -> f64 {
        let t = row.tolerance.expect("gated") + step;
        match row.better {
            Better::Higher => 1.0 - t,
            Better::Lower => 1.0 + t,
        }
    }

    #[test]
    fn parses_the_committed_baseline() {
        // The 34 gated comparisons as (name, direction, tolerance).
        let mut expected = Vec::new();
        for w in ["bubble-sort", "gemm", "sobel", "dhrystone", "nn"] {
            for m in ["instructions", "cycles"] {
                expected.push((format!("{w}/{m}"), Better::Lower, 0.0));
            }
        }
        for w in ["bubble-sort", "gemm", "sobel", "dhrystone"] {
            for m in ["functional_ips", "threaded_ips", "pipelined_cps"] {
                expected.push((format!("{w}/{m}"), Better::Higher, 0.25));
            }
            for m in ["energy_overhead_x", "energy_nj"] {
                expected.push((format!("{w}/{m}"), Better::Lower, 0.25));
            }
        }
        for name in [
            "dhrystone/dmips_per_watt",
            "nn/simd_speedup",
            "nn/functional_ips",
        ] {
            expected.push((name.to_string(), Better::Higher, 0.25));
        }
        expected.push(("service/per_worker_ips".into(), Better::Higher, 0.5));
        let mut gates: Vec<_> = gated()
            .into_iter()
            .map(|r| (r.name, r.better, r.tolerance.unwrap()))
            .collect();
        gates.sort_by(|a, b| a.0.cmp(&b.0));
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(gates.len(), 34);
        assert_eq!(gates, expected);
        // Each paper workload's pipelined-over-functional cost ratio is
        // reported, never gated.
        let ratios: Vec<_> = baseline()
            .into_iter()
            .filter(|r| r.name.ends_with("/pipelined_vs_functional_x"))
            .collect();
        assert_eq!(ratios.len(), 4);
        assert!(ratios
            .iter()
            .all(|r| r.tolerance.is_none() && r.better == Better::Lower));
        // Four preparation passes per paper workload, reported only.
        let prep: Vec<_> = baseline()
            .into_iter()
            .filter(|r| r.layer == "prep")
            .collect();
        let mut names: Vec<&str> = prep.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        let mut expected_prep = Vec::new();
        for w in ["bubble-sort", "dhrystone", "gemm", "sobel"] {
            for pass in ["parse", "predecode", "threaded_compile", "translate"] {
                expected_prep.push(format!("prep/{w}/{pass}_us"));
            }
        }
        assert_eq!(names, expected_prep);
        assert!(prep
            .iter()
            .all(|r| r.tolerance.is_none() && r.better == Better::Lower && r.unit == "us"));
        // The file is exactly the writer's output.
        assert_eq!(render(&baseline()), COMMITTED);
        let r = compare(&baseline(), &baseline());
        assert!(r.ok() && r.added.is_empty(), "{}", r.render());
        assert!(r.render().contains("gate: OK (34 gated comparisons)"));
    }

    #[test]
    fn parses_the_emitted_schema() {
        let row = |layer, name: &str, value, better, tolerance| Row {
            layer,
            name: name.into(),
            value,
            unit: "ns".into(),
            better,
            tolerance,
        };
        let rows = vec![
            row(
                "kernel",
                "word9/a/ns_per_op",
                1.0 / 3.0,
                Better::Lower,
                Some(0.5),
            ),
            row("energy", "gemm/energy_nj", 5.228072e-1, Better::Lower, None),
            row("service", "service/x", 4.5013e6, Better::Higher, Some(0.25)),
        ];
        assert_eq!(parse(&render(&rows)).unwrap(), rows);
    }

    #[test]
    fn big_regression_fails() {
        // Just past its tolerance in the bad direction, every gated row
        // fails the gate on its own.
        for row in gated() {
            let r = compare(&baseline(), &scaled(&row, bad_factor(&row, 0.01)));
            let regressed: Vec<_> = r.regressions().map(|d| &d.baseline).collect();
            assert_eq!(regressed, [&row]);
            assert!(r.render().contains("gate: FAIL (1 regressed, 0 missing)"));
        }
    }

    #[test]
    fn threaded_regression_fails() {
        // Halving every threaded rate trips exactly the four gated
        // threaded rows; the reported nn threaded rate is not gated.
        let r = compare(&baseline(), &scaled_where(is_threaded, 0.5));
        assert!(!r.ok());
        assert_eq!(r.deltas.len(), 34);
        let regressed = regressed_names(&r);
        assert_eq!(regressed.len(), 4);
        assert!(regressed.iter().all(|n| n.ends_with("/threaded_ips")));
        assert!(!regressed.contains(&"nn/threaded_ips"));
    }

    #[test]
    fn dropping_the_threaded_metric_fails() {
        // Regenerated without any threaded rate.
        let r = compare(&baseline(), &without(is_threaded));
        assert!(!r.ok());
        assert_eq!(r.missing.len(), 4);
        assert!(missing_names(&r).contains(&"bubble-sort/threaded_ips"));
        assert!(r.render().contains("MISSING"));
    }

    #[test]
    fn parses_an_energy_section() {
        let text = format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"rows\": [\n    \
             {{\"layer\": \"energy\", \"name\": \"gemm/energy_nj\", \"value\": 1.25e2, \
             \"unit\": \"nJ\", \"better\": \"lower\", \"tolerance\": 0.25}},\n    \
             {{\"layer\": \"energy\", \"name\": \"gemm/epi_pj\", \"value\": 1.4, \
             \"unit\": \"pJ\", \"better\": \"lower\", \"tolerance\": null}},\n    \
             {{\"layer\": \"energy\", \"name\": \"dhrystone/dmips_per_watt\", \"value\": 7.5e6, \
             \"unit\": \"DMIPS/W\", \"better\": \"higher\", \"tolerance\": 0.25}}\n  ]\n}}\n"
        );
        let rows = parse(&text).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(is_energy));
        assert!((rows[0].value - 125.0).abs() < 1e-9);
        assert_eq!(rows[0].better, Better::Lower);
        assert_eq!(rows[1].tolerance, None);
        assert!((rows[2].value - 7.5e6).abs() < 1.0);
        assert_eq!(rows[2].better, Better::Higher);
        // A malformed energy row is rejected, not ignored.
        let bad = text.replace("\"value\": 1.25e2, ", "");
        assert!(parse(&bad).is_err());
        // The committed baseline gates energy for each paper workload
        // plus Dhrystone's DMIPS/W.
        let gated_energy: Vec<_> = gated().into_iter().filter(is_energy).collect();
        assert_eq!(gated_energy.len(), 5);
        assert!(gated_energy
            .iter()
            .any(|r| r.name == "dhrystone/dmips_per_watt"));
    }

    #[test]
    fn dropping_the_energy_section_fails_once_pinned() {
        // Regenerated without any energy row.
        let r = compare(&baseline(), &without(is_energy));
        assert!(!r.ok());
        let missing = missing_names(&r);
        assert_eq!(missing.len(), 5);
        assert!(missing.contains(&"bubble-sort/energy_nj"));
        assert!(missing.contains(&"dhrystone/dmips_per_watt"));
        // Dropping just the DMIPS/W pin fails too.
        let r = compare(
            &baseline(),
            &without(|r| r.name == "dhrystone/dmips_per_watt"),
        );
        assert_eq!(missing_names(&r), ["dhrystone/dmips_per_watt"]);
        // A baseline without energy rows gates nothing against an
        // energy-bearing current document.
        let r = compare(&without(is_energy), &baseline());
        assert!(r.ok(), "{}", r.render());
        assert!(r.added.iter().all(is_energy));
        assert!(!r.added.is_empty());
    }

    #[test]
    fn service_section_parses_and_gates_at_a_doubled_threshold() {
        let service: Vec<_> = gated().into_iter().filter(is_service).collect();
        assert_eq!(service.len(), 1);
        assert_eq!(service[0].name, "service/per_worker_ips");
        assert_eq!(service[0].tolerance, Some(0.5));
        // A 40% drop stays inside the doubled 2 * 25% band.
        let r = compare(&baseline(), &scaled_where(is_service, 0.6));
        assert!(r.ok(), "{}", r.render());
        assert!(r
            .deltas
            .iter()
            .any(|d| d.baseline.name == "service/per_worker_ips"));
        // A 60% drop trips it.
        let r = compare(&baseline(), &scaled_where(is_service, 0.4));
        assert_eq!(regressed_names(&r), ["service/per_worker_ips"]);
    }

    #[test]
    fn dropping_the_service_section_fails_once_pinned() {
        let r = compare(&baseline(), &without(is_service));
        assert!(!r.ok());
        assert_eq!(missing_names(&r), ["service/per_worker_ips"]);
        // A baseline without service rows gates nothing against a
        // service-bearing current document.
        let r = compare(&without(is_service), &baseline());
        assert!(r.ok(), "{}", r.render());
        assert_eq!(r.added.len(), 7);
    }

    #[test]
    fn nn_section_parses_and_gates() {
        let nn: Vec<_> = gated().into_iter().filter(is_nn).collect();
        let names: Vec<_> = nn.iter().map(|r| r.name.as_str()).collect();
        let all = [
            "nn/simd_speedup",
            "nn/instructions",
            "nn/cycles",
            "nn/functional_ips",
        ];
        assert_eq!(names, all);
        // The two rates are better higher, the two exact counts lower.
        assert!(nn
            .iter()
            .all(|r| (r.better == Better::Higher) == (r.unit != "count")));
        // 10% noise passes; halved nn rates trip the gate (the halved
        // counts are improvements).
        let r = compare(&baseline(), &scaled_where(is_nn, 0.9));
        assert!(r.ok(), "{}", r.render());
        assert!(r
            .deltas
            .iter()
            .any(|d| d.baseline.name == "nn/simd_speedup"));
        let r = compare(&baseline(), &scaled_where(is_nn, 0.5));
        assert_eq!(
            regressed_names(&r),
            ["nn/simd_speedup", "nn/functional_ips"]
        );
    }

    #[test]
    fn dropping_the_nn_section_fails_once_pinned() {
        let r = compare(&baseline(), &without(is_nn));
        assert!(!r.ok());
        assert_eq!(
            missing_names(&r),
            [
                "nn/simd_speedup",
                "nn/instructions",
                "nn/cycles",
                "nn/functional_ips"
            ]
        );
        // A baseline without nn rows gates nothing against an
        // nn-bearing current document.
        let r = compare(&without(is_nn), &baseline());
        assert!(r.ok(), "{}", r.render());
        assert!(r.added.iter().all(is_nn));
    }

    #[test]
    fn one_more_instruction_or_cycle_fails() {
        // The exact counts have no slack: one more fails, one fewer
        // passes.
        let exact: Vec<_> = gated()
            .into_iter()
            .filter(|r| r.tolerance == Some(0.0))
            .collect();
        assert_eq!(exact.len(), 10);
        for row in exact {
            let more = |delta: f64| {
                let mut rows = baseline();
                for r in rows.iter_mut().filter(|r| r.same_metric(&row)) {
                    r.value += delta;
                }
                rows
            };
            let r = compare(&baseline(), &more(1.0));
            assert_eq!(regressed_names(&r), [row.name.as_str()]);
            assert!(compare(&baseline(), &more(-1.0)).ok());
        }
    }

    #[test]
    fn small_noise_passes() {
        // Just inside its tolerance in the bad direction, every gated
        // row passes.
        for row in gated() {
            let r = compare(&baseline(), &scaled(&row, bad_factor(&row, -0.01)));
            assert!(r.ok(), "{}:\n{}", row.name, r.render());
        }
    }

    #[test]
    fn improvements_pass() {
        for row in gated() {
            for factor in [1.01, 10.0, 0.99, 0.1] {
                let improves = (factor > 1.0) == (row.better == Better::Higher);
                let r = compare(&baseline(), &scaled(&row, factor));
                assert!(!improves || r.ok(), "{}:\n{}", row.name, r.render());
            }
        }
    }

    #[test]
    fn dropped_workload_fails() {
        // Each gated row dropped on its own fails the gate.
        for row in gated() {
            let mut current = baseline();
            current.retain(|r| !r.same_metric(&row));
            let r = compare(&baseline(), &current);
            assert_eq!(r.missing, [row]);
            assert!(r.render().contains("gate: FAIL (0 regressed, 1 missing)"));
        }
        // Dropping a whole workload lists each of its gated rows.
        let mut current = baseline();
        current.retain(|r| !r.name.starts_with("gemm/"));
        let r = compare(&baseline(), &current);
        let missing: Vec<_> = r.missing.iter().map(|r| r.name.as_str()).collect();
        let rates = [
            "instructions",
            "cycles",
            "functional_ips",
            "threaded_ips",
            "pipelined_cps",
            "energy_overhead_x",
            "energy_nj",
        ];
        assert_eq!(missing, rates.map(|m| format!("gemm/{m}")));
        // A reported row is not pinned: dropping it passes.
        let mut current = baseline();
        current.retain(|r| r.name != "gemm/threaded_speedup_vs_functional");
        assert!(compare(&baseline(), &current).ok());
    }

    #[test]
    fn new_rows_are_listed_not_gated() {
        // A baseline without the threaded rows gates only what it
        // carries; the current threaded rows are new, and not gated
        // even when far worse.
        let threaded = |r: &Row| r.name.ends_with("/threaded_ips");
        let mut base = baseline();
        base.retain(|r| !threaded(r));
        let mut current = baseline();
        for r in current.iter_mut().filter(|r| threaded(r)) {
            r.value *= 0.1;
        }
        let r = compare(&base, &current);
        assert!(r.ok(), "{}", r.render());
        assert_eq!(r.deltas.len(), 30);
        // The four paper workloads' rows plus the reported nn row.
        assert_eq!(r.added.len(), 5);
        assert!(r
            .render()
            .contains("NEW (not gated): execution gemm/threaded_ips"));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let doc = |rows: &str| format!("{{\"schema\": \"{SCHEMA}\", \"rows\": [{rows}]}}");
        let good = "{\"layer\": \"execution\", \"name\": \"gemm/functional_ips\", \
                    \"value\": 6.5e7, \"unit\": \"instr/s\", \"better\": \"higher\", \
                    \"tolerance\": 0.25}";
        assert_eq!(parse(&doc(good)).unwrap().len(), 1);
        for (from, to) in [
            ("\"layer\": \"execution\", ", ""),
            ("\"name\": \"gemm/functional_ips\", ", ""),
            ("\"value\": 6.5e7, ", ""),
            ("\"unit\": \"instr/s\", ", ""),
            ("\"better\": \"higher\", ", ""),
            (", \"tolerance\": 0.25", ""),
            ("\"execution\"", "\"firmware\""),
            ("\"higher\"", "\"sideways\""),
            ("6.5e7", "fast"),
            ("6.5e7", "0"),
            ("0.25", "1.5"),
            ("0.25", "-0.1"),
            // A document with no gated rows would pass vacuously.
            ("0.25", "null"),
        ] {
            assert!(
                parse(&doc(&good.replace(from, to))).is_err(),
                "{from} -> {to}"
            );
        }
        let twice = parse(&doc(&format!("{good}, {good}")));
        assert!(twice.unwrap_err().contains("duplicate"));
        assert!(parse("{}").is_err());
        assert!(parse(&doc("")).is_err());
        // No v1 reader: the old sectioned layout is refused outright.
        let v1 = doc(good).replace(SCHEMA, "art9-bench-ternary/v1");
        assert!(parse(&v1).unwrap_err().contains("schema"));
    }
}
