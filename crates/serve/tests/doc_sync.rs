//! Keeps the DESIGN.md §17 schema tables and the code-side field-order
//! constants in lockstep: the dump header, journal record, flight event
//! and `stats` key orders are wire schemas — drift between the docs and
//! the rendered JSON fails the build in both directions.

/// The cells of each row of the DESIGN.md table whose header's first
/// cell is `marker`, backticks stripped, in document order. The table
/// ends at the first row whose first cell is not backticked.
fn documented_rows(marker: &str) -> Vec<Vec<String>> {
    let design = include_str!("../../../DESIGN.md");
    let mut rows = Vec::new();
    let mut in_table = false;
    for line in design.lines() {
        let mut cells = line.split('|').map(str::trim);
        let Some("") = cells.next() else {
            in_table = false;
            continue;
        };
        let Some(first) = cells.next() else {
            in_table = false;
            continue;
        };
        if first == marker {
            in_table = true;
            continue;
        }
        if !in_table || first.starts_with("---") {
            continue;
        }
        match first.strip_prefix('`').and_then(|f| f.strip_suffix('`')) {
            Some(name) => rows.push(
                std::iter::once(name)
                    .chain(cells.map(|c| c.trim_matches('`')))
                    .map(str::to_string)
                    .collect(),
            ),
            None => in_table = false,
        }
    }
    rows
}

/// The backticked first-column field names of a DESIGN.md table.
fn documented_fields(marker: &str) -> Vec<String> {
    documented_rows(marker)
        .into_iter()
        .map(|row| row[0].clone())
        .collect()
}

#[test]
fn dump_header_fields_match_design_md() {
    assert_eq!(
        documented_fields("dump header field"),
        quva_serve::DUMP_HEADER_FIELDS,
        "DESIGN.md §17.2 dump-header table drifted from DUMP_HEADER_FIELDS"
    );
}

#[test]
fn journal_fields_match_design_md() {
    assert_eq!(
        documented_fields("journal field"),
        quva_serve::JOURNAL_FIELDS,
        "DESIGN.md §17.4 journal table drifted from JOURNAL_FIELDS"
    );
}

#[test]
fn flight_event_fields_match_design_md() {
    assert_eq!(
        documented_fields("flight event field"),
        quva_obs::flight::EVENT_FIELDS,
        "DESIGN.md §17.1 flight-event table drifted from EVENT_FIELDS"
    );
}

#[test]
fn stats_fields_match_design_md() {
    use quva_obs::JsonValue;
    use quva_serve::{render_exposition, ExpoInputs, LatencyRecorder, Stats, COUNTERS};

    let rows = documented_rows("stats field");
    let column = |i: usize| rows.iter().map(|row| row[i].as_str()).collect::<Vec<_>>();
    // distinct values, so each documented exposition line is tied to
    // its own stats field
    let stats = Stats {
        counts: std::array::from_fn(|row| row as u64 + 1),
        dropped_events: 101,
        journal_bytes: 102,
    };
    let Ok(JsonValue::Obj(members)) = quva_obs::parse_json(&stats.render_json()) else {
        panic!("stats JSON is not an object");
    };
    let keys: Vec<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(
        column(0),
        keys,
        "DESIGN.md §17.3 stats table drifted from the rendered stats keys"
    );

    let twins: Vec<&str> = COUNTERS
        .iter()
        .map(|(_, twin)| twin.unwrap_or("—"))
        .chain(["—", "—"])
        .collect();
    assert_eq!(
        column(2),
        twins,
        "DESIGN.md §17.3 trace counters drifted from COUNTERS"
    );

    let exposition = render_exposition(&ExpoInputs {
        stats: stats.clone(),
        latency: &LatencyRecorder::default(),
        queue_depth: 0,
        workers_alive: 0,
        dumps: Vec::new(),
        uptime_us: 0,
    });
    // every unlabelled counter line is a stats field; the per-trigger
    // dump counts are not
    let counter_lines: Vec<&str> = exposition
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.strip_suffix(" counter"))
        .filter(|name| *name != "quvad_dumps_total")
        .collect();
    assert_eq!(
        column(1),
        counter_lines,
        "DESIGN.md §17.3 exposition lines drifted from the rendered exposition"
    );
    for ((key, value), line) in members.iter().zip(&counter_lines) {
        let value = value.as_f64().unwrap_or_else(|| panic!("{key} is not a number"));
        assert!(
            exposition.contains(&format!("\n{line} {value}\n")),
            "{line} does not render the value of {key}:\n{exposition}"
        );
    }
}
