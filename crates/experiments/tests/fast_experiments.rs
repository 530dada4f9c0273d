//! Smoke tests for the experiment harness: the cheap experiments run
//! end-to-end in fast mode and produce sane, well-formed tables.

mod scratch;

use dlion_experiments::{run_experiment, ExpOpts};
use scratch::ScratchDir;

fn fast() -> ExpOpts {
    ExpOpts::fast()
}

#[test]
fn fig6_lbs_trace_rows_are_consistent() {
    let t = &run_experiment("fig6", &fast())[0];
    assert!(!t.rows.is_empty(), "no LBS trace rows");
    for row in &t.rows {
        // time, GBS, then 6 per-worker LBS columns.
        assert_eq!(row.len(), 8);
        let gbs: usize = row[1].parse().unwrap();
        let sum: usize = row[2..8].iter().map(|c| c.parse::<usize>().unwrap()).sum();
        assert_eq!(sum, gbs, "ΣLBS must equal GBS in {row:?}");
        // Heterogeneous cores 24/24/12/12/4/4: w0 >= w2 >= w4.
        let w0: usize = row[2].parse().unwrap();
        let w2: usize = row[4].parse().unwrap();
        let w4: usize = row[6].parse().unwrap();
        assert!(w0 >= w2 && w2 >= w4, "LBS must track capacity: {row:?}");
    }
}

#[test]
fn fig8_thin_link_carries_fewer_entries() {
    let t = &run_experiment("fig8", &fast())[0];
    let mut fast_total = 0.0;
    let mut slow_total = 0.0;
    let mut n = 0.0;
    for row in &t.rows {
        if let (Ok(f), Ok(s)) = (row[1].parse::<f64>(), row[2].parse::<f64>()) {
            fast_total += f;
            slow_total += s;
            n += 1.0;
        }
    }
    assert!(n > 0.0, "no numeric windows in fig8");
    assert!(
        fast_total / n > 1.5 * (slow_total / n),
        "100 Mbps link should carry much more than 25 Mbps link: {} vs {}",
        fast_total / n,
        slow_total / n
    );
}

#[test]
fn fig20_entries_track_bandwidth_steps() {
    let t = &run_experiment("fig20", &fast())[0];
    // Average entries in 30 Mbps windows vs 100 Mbps windows.
    let (mut lo, mut hi, mut nlo, mut nhi) = (0.0, 0.0, 0.0, 0.0);
    for row in &t.rows {
        let bw: f64 = row[1].parse().unwrap();
        if let Ok(e) = row[2].parse::<f64>() {
            if bw < 50.0 {
                lo += e;
                nlo += 1.0;
            } else {
                hi += e;
                nhi += 1.0;
            }
        }
    }
    assert!(nlo > 0.0 && nhi > 0.0, "need windows at both bandwidths");
    assert!(
        hi / nhi > 1.3 * (lo / nlo),
        "entries must grow with bandwidth: {} @100 vs {} @30",
        hi / nhi,
        lo / nlo
    );
}

#[test]
fn fig19_lbs_adapts_to_core_changes() {
    let t = &run_experiment("fig19", &fast())[0];
    assert!(t.rows.len() >= 4);
    // GBS pinned: every row sums to the same total.
    let sums: Vec<usize> = t.rows.iter().map(|r| r[7].parse().unwrap()).collect();
    assert!(
        sums.windows(2).all(|w| w[0] == w[1]),
        "GBS must stay pinned: {sums:?}"
    );
    // In the last phase workers 4/5 have 24 cores and workers 0/1 have 4:
    // the shares must skew toward the now-fast workers.
    let last = t.rows.last().unwrap();
    let w0: usize = last[1].parse().unwrap();
    let w4: usize = last[5].parse().unwrap();
    assert!(w4 > 2 * w0, "final phase 24-core vs 4-core share: {last:?}");
}

#[test]
fn tables_render_and_write_csv() {
    let dir = ScratchDir::new("tables");
    let mut opts = fast();
    opts.results_dir = dir.to_path_buf();
    for id in ["table1", "table2", "table3"] {
        let tables = run_experiment(id, &opts);
        for t in &tables {
            let rendered = t.render();
            assert!(rendered.contains(&t.id));
            t.write_csv(&opts.results_dir).unwrap();
            let path = opts.results_dir.join(format!("{}.csv", t.id));
            assert!(path.exists());
        }
    }
}
