//! Smoke tests over the figure-regeneration path: every artifact runs at
//! test scale, writes parseable CSV, and reports the anchors its figure is
//! responsible for.

use qcp_bench::{Artifact, Repro, Scale};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qcp-repro-artifacts-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_csv(dir: &std::path::Path, name: &str) -> Vec<Vec<String>> {
    let text =
        std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("missing {name}: {e}"));
    text.lines()
        .map(|l| l.split(',').map(|c| c.to_string()).collect())
        .collect()
}

#[test]
fn figures_1_to_7_write_csvs_with_consistent_shapes() {
    let dir = temp_dir("figs");
    let session = Repro::new(&dir, Scale::Test);
    for artifact in ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"] {
        let report = session.run(artifact);
        assert!(!report.is_empty(), "{artifact} produced no report");
    }
    // Rank CSVs: header + rows, ranks ascending, counts descending.
    for name in ["fig1.csv", "fig2.csv", "fig3.csv", "fig4a_songs.csv"] {
        let rows = read_csv(&dir, name);
        assert_eq!(rows[0][0], "rank", "{name} header");
        assert!(rows.len() > 10, "{name} too small");
        let mut last_rank = 0u64;
        let mut last_count = u64::MAX;
        for row in &rows[1..] {
            let rank: u64 = row[0].parse().unwrap();
            let count: u64 = row[1].parse().unwrap();
            assert!(rank > last_rank, "{name}: ranks must ascend");
            assert!(count <= last_count, "{name}: counts must descend");
            last_rank = rank;
            last_count = count;
        }
    }
    // Similarity CSVs: jaccard values within [0, 1].
    for (name, col) in [("fig6.csv", 1usize), ("fig7.csv", 2)] {
        let rows = read_csv(&dir, name);
        for row in &rows[1..] {
            let j: f64 = row[col].parse().unwrap();
            assert!((0.0..=1.0).contains(&j), "{name}: jaccard {j}");
        }
    }
}

#[test]
fn figure_descriptions_name_what_their_csvs_hold() {
    // Each Figure 1-7 entry of `repro list`, tied to a CSV it writes:
    // that CSV's header and the phrase its description must carry.
    let expected = [
        (
            "fig1",
            "fig1.csv",
            "rank,clients_with_object",
            "raw object names",
        ),
        (
            "fig2",
            "fig2.csv",
            "rank,clients_with_object",
            "sanitized object names",
        ),
        ("fig3", "fig3.csv", "rank,clients_with_term", "name terms"),
        ("fig4", "fig4a_songs.csv", "rank,clients_with_value", "song"),
        (
            "fig4",
            "fig4b_genres.csv",
            "rank,clients_with_value",
            "genre",
        ),
        (
            "fig4",
            "fig4c_albums.csv",
            "rank,clients_with_value",
            "album",
        ),
        (
            "fig4",
            "fig4d_artists.csv",
            "rank,clients_with_value",
            "artist",
        ),
        (
            "fig5",
            "fig5.csv",
            "interval_secs,interval_index,transient_terms",
            "transiently popular query terms",
        ),
        (
            "fig6",
            "fig6.csv",
            "interval_index,jaccard",
            "stability of the popular query-term set",
        ),
        (
            "fig7",
            "fig7.csv",
            "interval_index,all_terms_vs_popular_files,popular_vs_popular_files",
            "query/file term mismatch",
        ),
    ];
    let dir = temp_dir("registry");
    let session = Repro::new(&dir, Scale::Test);
    for (name, csv, header, phrase) in expected {
        let artifact = Artifact::find(name).unwrap_or_else(|| panic!("{name} is not registered"));
        assert!(
            artifact.description.contains(phrase),
            "{name}: description {:?} must mention {phrase:?}",
            artifact.description
        );
        session.run(name);
        let rows = read_csv(&dir, csv);
        assert_eq!(rows[0].join(","), header, "{name}: {csv} header");
    }
}

#[test]
fn fig8_csv_covers_all_series_and_ttls() {
    let dir = temp_dir("fig8");
    let mut session = Repro::new(&dir, Scale::Test);
    session.trials = 150;
    let report = session.run("fig8");
    assert!(report.contains("zipf"));
    let rows = read_csv(&dir, "fig8.csv");
    let series: std::collections::HashSet<&str> = rows[1..].iter().map(|r| r[0].as_str()).collect();
    for expected in [
        "uniform-1",
        "uniform-4",
        "uniform-9",
        "uniform-19",
        "uniform-39",
        "zipf",
    ] {
        assert!(series.contains(expected), "missing series {expected}");
    }
    // 6 series x 5 TTLs.
    assert_eq!(rows.len() - 1, 30);
    for row in &rows[1..] {
        let success: f64 = row[2].parse().unwrap();
        assert!((0.0..=1.0).contains(&success));
    }
}

#[test]
fn tables_and_ablations_produce_reports() {
    let dir = temp_dir("tables");
    let mut session = Repro::new(&dir, Scale::Test);
    session.trials = 100;
    for artifact in ["table1", "table2", "ablation-structured"] {
        let report = session.run(artifact);
        assert!(
            report.contains("paper") || report.contains("chord"),
            "{artifact}: {report}"
        );
    }
    assert!(dir.join("table1.csv").exists());
    assert!(dir.join("table2.csv").exists());
    assert!(dir.join("ablation_structured.csv").exists());
}

#[test]
fn artifact_list_is_exhaustive_and_dispatch_works() {
    // Every listed artifact must dispatch (this catches list/match drift).
    // Running all of them at full test scale is covered elsewhere; here we
    // only check the registry names are unique.
    let names = Repro::all_artifacts();
    let set: std::collections::HashSet<&&str> = names.iter().collect();
    assert_eq!(set.len(), names.len());
    assert!(names.contains(&"fig1") && names.contains(&"ablation-adaptation"));
}
