//! Integration tests through the `disc` facade crate: the public API a
//! downstream user sees, exercised across crates.

use disc::prelude::*;

#[test]
fn prelude_covers_a_full_pipeline() {
    let records = datasets::gaussian_blobs::<2>(3_000, 3, 0.5, 7);
    let mut window = SlidingWindow::new(records, 1_000, 100);
    let mut disc = Disc::new(DiscConfig::new(1.0, 5));
    disc.apply(&window.fill());
    while let Some(batch) = window.advance() {
        disc.apply(&batch);
    }
    assert!(disc.num_clusters() >= 3);

    let truth: Vec<i64> = window
        .current_truth()
        .map(|(_, t)| t.map(|v| v as i64).unwrap_or(-1))
        .collect();
    let pred: Vec<i64> = disc.assignments().into_iter().map(|(_, l)| l).collect();
    assert!(ari(&truth, &pred) > 0.95, "blobs must be near-perfect");
    assert!(nmi(&truth, &pred) > 0.9);
    assert!(purity(&truth, &pred) > 0.95);
}

#[test]
fn prelude_covers_the_hostile_ingestion_pipeline() {
    // The admission layer through the facade: chaos in, clean stream out.
    let clean = disc::window::disorder::stamp_unit(datasets::split_merge(800, 3));
    let hostile = disc::window::disorder(
        &clean,
        &DisorderConfig {
            seed: 5,
            skew: 8.0,
            dup_prob: 0.1,
            corrupt_prob: 0.05,
        },
    );
    let mut ingest = Ingest::new(AdmissionConfig {
        lateness: 8.0,
        dedup: 64,
        late: LatePolicy::Drop,
        ..AdmissionConfig::default()
    });
    let mut admitted = Vec::new();
    for h in &hostile {
        let d: Decision = match h {
            HostileRecord::Ok(r) => ingest.push(*r),
            HostileRecord::Malformed(_) => ingest.push_malformed(),
        };
        assert_eq!(d.admitted(), d.code() <= 1 || d.code() == 4);
        while let Some(r) = ingest.pop() {
            admitted.push(r);
        }
    }
    ingest.finish();
    while let Some(r) = ingest.pop() {
        admitted.push(r);
    }
    let stats: &IngestStats = ingest.stats();
    assert_eq!(stats.late_dropped + stats.shed, 0);
    assert_eq!(admitted, clean, "admission recovers the clean stream");

    // The recovered stream drives the time-based window like any other.
    let mut w = TimeWindow::try_new(admitted, 300.0, 100.0).unwrap();
    let mut disc = Disc::new(DiscConfig::new(0.6, 4));
    disc.apply(&w.fill());
    while let Some(b) = w.advance() {
        disc.apply(&b);
    }
    assert!(disc.num_clusters() >= 1);

    // And the telemetry surface round-trips.
    let ev = IngestEvent {
        slide: 1,
        records: stats.pushed,
        admitted: stats.admitted,
        ..IngestEvent::default()
    };
    IngestEvent::validate_jsonl(&ev.to_jsonl()).unwrap();
}

#[test]
fn every_method_runs_through_the_common_trait() {
    let records = datasets::covid_like(1_500, 3);
    let window = 500;
    let stride = 100;
    let methods: Vec<Box<dyn WindowClusterer<2>>> = vec![
        Box::new(Disc::new(DiscConfig::new(1.2, 5))),
        Box::new(Dbscan::new(1.2, 5)),
        Box::new(IncDbscan::new(1.2, 5)),
        Box::new(ExtraN::new(1.2, 5, window, stride)),
        Box::new(RhoDbscan::new(1.2, 5, 0.01)),
        Box::new(DbStream::new(DbStreamConfig::default())),
        Box::new(EdmStream::new(EdmStreamConfig::default())),
    ];
    for mut m in methods {
        let mut w = SlidingWindow::new(records.clone(), window, stride);
        m.apply(&w.fill());
        while let Some(b) = w.advance() {
            m.apply(&b);
        }
        let a = m.assignments();
        assert_eq!(a.len(), window, "{} lost points", m.name());
        assert!(
            a.windows(2).all(|w| w[0].0 < w[1].0),
            "{} assignments not sorted",
            m.name()
        );
    }
}

#[test]
fn exact_methods_agree_on_cluster_structure() {
    let records = datasets::maze(2_000, 10, 19);
    let window = 600;
    let stride = 150;
    let eps = 0.6;
    let tau = 5;

    let run = |mut m: Box<dyn WindowClusterer<2>>| -> Vec<(PointId, i64)> {
        let mut w = SlidingWindow::new(records.clone(), window, stride);
        m.apply(&w.fill());
        while let Some(b) = w.advance() {
            m.apply(&b);
        }
        m.assignments()
    };
    let disc = run(Box::new(Disc::new(DiscConfig::new(eps, tau))));
    let dbscan = run(Box::new(Dbscan::new(eps, tau)));
    let inc = run(Box::new(IncDbscan::new(eps, tau)));
    let extran = run(Box::new(ExtraN::new(eps, tau, window, stride)));

    // All four must produce ARI 1.0 against each other (ARI is insensitive
    // to cluster renaming; borders are unambiguous in this workload's
    // well-separated trajectories).
    let labels = |a: &[(PointId, i64)]| a.iter().map(|(_, l)| *l).collect::<Vec<_>>();
    let d = labels(&disc);
    assert_eq!(ari(&d, &labels(&dbscan)), 1.0, "DISC vs DBSCAN");
    assert_eq!(ari(&d, &labels(&inc)), 1.0, "DISC vs IncDBSCAN");
    assert_eq!(ari(&d, &labels(&extran)), 1.0, "DISC vs EXTRA-N");
}

#[test]
fn equivalence_oracle_accepts_disc_against_dbscan() {
    use disc::metrics::{assert_dbscan_equivalent, Labeling};
    let records = datasets::iris_like(800, 3);
    let (eps, tau) = (2.0, 4);
    let mut w = SlidingWindow::new(records, 300, 60);
    let mut d = Disc::new(DiscConfig::new(eps, tau));
    let mut db = Dbscan::new(eps, tau);
    let fill = w.fill();
    d.apply(&fill);
    WindowClusterer::apply(&mut db, &fill);
    loop {
        let pts: Vec<(PointId, Point<4>)> = w.current().collect();
        let da = disc::core::engine::Disc::assignments(&d);
        let ba = WindowClusterer::assignments(&db);
        assert_dbscan_equivalent(
            &Labeling {
                points: &pts,
                assignment: &da,
            },
            &Labeling {
                points: &pts,
                assignment: &ba,
            },
            eps,
            tau,
        );
        match w.advance() {
            Some(b) => {
                d.apply(&b);
                WindowClusterer::apply(&mut db, &b);
            }
            None => break,
        }
    }
}

#[test]
fn kdistance_estimate_feeds_disc() {
    use disc::core::kdistance;
    let records = datasets::geolife_like(4_000, 9);
    let est = kdistance::estimate(&records, 1_000);
    let mut w = SlidingWindow::new(records, 1_000, 250);
    let mut disc = Disc::new(DiscConfig::new(est.eps, est.tau));
    disc.apply(&w.fill());
    while let Some(b) = w.advance() {
        disc.apply(&b);
    }
    // The estimate must produce a non-degenerate clustering: some clusters,
    // and not everything in one blob or all noise.
    let (cores, _, noise) = disc.census();
    assert!(disc.num_clusters() >= 1, "no clusters at estimated params");
    assert!(cores > 0);
    assert!(noise < 1_000);
}

#[test]
fn csv_roundtrip_preserves_clustering_inputs() {
    let records = datasets::covid_like(500, 21);
    let dir = std::env::temp_dir().join("disc_facade_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.csv");
    disc::window::csv::write_records(&path, &records).unwrap();
    let back: Vec<Record<2>> = disc::window::csv::read_records(&path).unwrap();
    assert_eq!(back.len(), records.len());
    for (a, b) in records.iter().zip(back.iter()) {
        assert!(a.point.dist(&b.point) < 1e-9);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn index_is_usable_standalone() {
    use disc::index::{RTree, SpatialBackend};
    let mut tree: RTree<3> = RTree::new();
    for i in 0..500u64 {
        let f = i as f64;
        tree.insert(
            PointId(i),
            Point::new([f.sin() * 10.0, f.cos() * 10.0, f / 100.0]),
        );
    }
    let hits = tree.ball_count(&Point::new([0.0, 10.0, 2.5]), 3.0);
    assert!(hits > 0);
    let nn = tree.nearest(&Point::new([0.0, 0.0, 0.0]), 5);
    assert_eq!(nn.len(), 5);
    assert!(nn.windows(2).all(|w| w[0].1 <= w[1].1));
}

#[test]
fn runs_are_deterministic() {
    // Hidden nondeterminism (e.g. randomised hash iteration affecting
    // border adoption or class processing order) would break replayability;
    // two identical runs must agree exactly, including cluster ids.
    let run = || {
        let records = datasets::covid_like(2_000, 99);
        let mut w = SlidingWindow::new(records, 600, 120);
        let mut disc = Disc::new(DiscConfig::new(1.2, 5));
        disc.apply(&w.fill());
        let mut trace: Vec<Vec<(PointId, i64)>> = vec![disc.assignments()];
        while let Some(b) = w.advance() {
            disc.apply(&b);
            trace.push(disc.assignments());
        }
        trace
    };
    assert_eq!(run(), run());
}

#[test]
fn time_window_drives_every_method() {
    // The time-based model must be consumable by the whole method family.
    let records = datasets::gaussian_blobs::<2>(1_500, 3, 0.5, 77);
    let stamped = disc::window::timewindow::stamp_with_gaps(records, &[1.0, 1.0, 0.2, 4.0]);
    let mut methods: Vec<Box<dyn WindowClusterer<2>>> = vec![
        Box::new(Disc::new(DiscConfig::new(1.0, 4))),
        Box::new(Dbscan::new(1.0, 4)),
        Box::new(IncDbscan::new(1.0, 4)),
    ];
    for m in &mut methods {
        let mut w = TimeWindow::new(stamped.clone(), 300.0, 40.0);
        m.apply(&w.fill());
        while let Some(b) = w.advance() {
            m.apply(&b);
        }
        assert_eq!(m.assignments().len(), w.current_len(), "{}", m.name());
    }
}
