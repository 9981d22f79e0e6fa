//! Resource-time telemetry collection and the `obsreport` renderer.
//!
//! Each scenario re-runs one experiment shape with
//! [`ClusterConfig::telemetry`] enabled, so every counter, gauge and
//! histogram of the run becomes a per-interval time series, and
//! exports one self-contained JSON document combining:
//!
//! * the per-node **resource-time profile** — simulated time split
//!   into the [`Bucket`] categories (disk force, CPU, network
//!   handling, lock wait, recovery replay) the sim-clock attributes as
//!   it charges,
//! * a **folded-stack** breakdown (`flamegraph.pl` compatible: one
//!   `frame;frame value` line per node × bucket) whose per-node sum is
//!   exactly the node's total simulated time (busy + lock wait),
//! * the sampled **time series** rings ([`cblog_common::Sampler`]).
//!
//! The `obsreport` bin renders the JSON as inline-SVG HTML —
//! [`render_html`] works from the parsed [`JsonValue`], not the live
//! cluster, so it renders any previously saved export equally well.
//!
//! Telemetry draws no randomness and never charges the sim-clock, so
//! the export is deterministic: same scenario ⇒ byte-identical JSON
//! (tested below).
//!
//! [`ClusterConfig::telemetry`]: cblog_core::ClusterConfig

use crate::driver::run_workload;
use crate::experiments::{cbl_builder, e5_single_crash};
use crate::workload::{generate, WorkloadConfig};
use cblog_common::jsonv::JsonValue;
use cblog_common::obs::json_escape;
use cblog_common::{Bucket, Error, NodeId, PageId, Result, SimTime};
use cblog_core::Cluster;
use std::fmt::Write as _;

/// Scenario names [`run_scenario`] accepts.
pub const SCENARIOS: &[&str] = &["e1", "e2", "e5"];

/// Sampling interval, sim-µs.
const INTERVAL_US: SimTime = 5_000;
/// Ring capacity per series.
const RING_CAP: usize = 512;

/// Runs the named telemetry scenario and returns its JSON export.
pub fn run_scenario(name: &str) -> Result<String> {
    let c = match name {
        // E1: steady-state single-client commit stream — the paper's
        // headline workload. Disk time (the one local force per
        // commit) should dominate the client's profile.
        "e1" => {
            let mut c = Cluster::new(
                cbl_builder(1, 8, 16)
                    .telemetry(INTERVAL_US, RING_CAP)
                    .build(),
            )?;
            let cfg = WorkloadConfig {
                txns_per_client: 100,
                ops_per_txn: 4,
                write_ratio: 1.0,
                seed: 42,
                slots_per_page: 8,
                ..WorkloadConfig::default()
            };
            let pages: Vec<PageId> = (0..8).map(|i| PageId::new(NodeId(0), i)).collect();
            let specs = generate(&cfg, &[NodeId(1)], &pages, None);
            run_workload(&mut c, specs)?;
            c
        }
        // E2: eight clients on private partitions — per-node
        // utilization timelines show the commit work staying local.
        "e2" => {
            let clients = 8usize;
            let per = 4u32;
            let pages = clients as u32 * per;
            let mut c = Cluster::new(
                cbl_builder(clients, pages, per as usize * 2)
                    .telemetry(INTERVAL_US, RING_CAP)
                    .build(),
            )?;
            let cfg = WorkloadConfig {
                txns_per_client: 30,
                ops_per_txn: 4,
                write_ratio: 1.0,
                seed: 1234,
                slots_per_page: 8,
                ..WorkloadConfig::default()
            };
            let client_ids: Vec<NodeId> = (1..=clients as u32).map(NodeId).collect();
            let all: Vec<PageId> = (0..pages).map(|i| PageId::new(NodeId(0), i)).collect();
            let private = move |cl: NodeId| -> Vec<PageId> {
                let base = (cl.0 - 1) * per;
                (base..base + per)
                    .map(|i| PageId::new(NodeId(0), i))
                    .collect()
            };
            let specs = generate(&cfg, &client_ids, &all, Some(&private));
            run_workload(&mut c, specs)?;
            c
        }
        // E5: owner crash + NodePSNList recovery — the one scenario
        // where the Replay bucket is populated (every sim-µs recovery
        // charges is attributed to it).
        "e5" => {
            let d = 4;
            let (clients, pages, frames) = e5_single_crash::shape(d);
            let mut c = Cluster::new(
                cbl_builder(clients, pages, frames)
                    .telemetry(INTERVAL_US, RING_CAP)
                    .build(),
            )?;
            e5_single_crash::run_on(&mut c, d);
            c
        }
        other => {
            return Err(Error::Protocol(format!(
                "unknown telemetry scenario {other:?} (expected one of {SCENARIOS:?})"
            )))
        }
    };
    Ok(export_json(name, &c))
}

/// Folded-stack lines (`flamegraph.pl` input format): one
/// `<label>;n<id>;<bucket> <µs>` line per node × nonzero bucket. The
/// per-node sum equals the node's total simulated time — busy time
/// (disk + cpu + net + replay partition it exactly) plus lock wait.
pub fn folded_lines(label: &str, c: &Cluster) -> Vec<String> {
    let clock = c.network().clock();
    let mut out = Vec::new();
    for i in 0..c.node_count() {
        let id = NodeId(i as u32);
        for b in Bucket::ALL {
            let us = clock.bucket_us(id, b);
            if us > 0 {
                out.push(format!("{label};n{i};{} {us}", b.label()));
            }
        }
    }
    out
}

/// Serializes the full telemetry export for a finished run:
/// per-node profiles, folded stack, and the sampler's series rings.
pub fn export_json(label: &str, c: &Cluster) -> String {
    let clock = c.network().clock();
    let now = clock.now();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"experiment\":\"{}\",\"now_us\":{now},\"nodes\":[",
        json_escape(label)
    );
    for i in 0..c.node_count() {
        let id = NodeId(i as u32);
        if i > 0 {
            out.push(',');
        }
        let busy = clock.busy(id);
        let wait = clock.bucket_us(id, Bucket::LockWait);
        let total = busy + wait;
        // Integer percent keeps the export byte-stable (busy can
        // exceed wall-clock `now` — overlapped charges — so >100 is
        // legitimate for a node that worked while others idled).
        let util = (busy * 100).checked_div(now).unwrap_or(0);
        let _ = write!(
            out,
            "{{\"node\":{i},\"busy_us\":{busy},\"total_us\":{total},\"utilization_pct\":{util},\"buckets\":{{"
        );
        for (bi, b) in Bucket::ALL.into_iter().enumerate() {
            if bi > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", b.label(), clock.bucket_us(id, b));
        }
        out.push_str("}}");
    }
    out.push_str("],\"folded\":[");
    for (i, line) in folded_lines(label, c).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(line));
    }
    out.push_str("],\"telemetry\":");
    match c.sampler() {
        Some(s) => out.push_str(&s.to_json()),
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

// ----------------------------------------------------------------------
// HTML rendering (consumed by the `obsreport` bin)
// ----------------------------------------------------------------------

const BUCKET_COLORS: &[(&str, &str)] = &[
    ("disk", "#d62728"),
    ("cpu", "#1f77b4"),
    ("net", "#2ca02c"),
    ("lock_wait", "#ff7f0e"),
    ("replay", "#9467bd"),
];

fn color_of(bucket: &str) -> &'static str {
    BUCKET_COLORS
        .iter()
        .find(|(b, _)| *b == bucket)
        .map(|(_, c)| *c)
        .unwrap_or("#7f7f7f")
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders a parsed telemetry export ([`export_json`] output) as a
/// self-contained HTML page: per-node stacked resource-time bars, one
/// inline-SVG sparkline per sampled series, and the folded stack.
/// Works from the JSON alone so saved exports render identically.
pub fn render_html(doc: &JsonValue) -> std::result::Result<String, String> {
    let label = doc
        .get("experiment")
        .and_then(|v| v.as_str())
        .ok_or("export has no \"experiment\" field")?;
    let now = doc.get("now_us").and_then(|v| v.as_i64()).unwrap_or(0);
    let nodes = doc
        .get("nodes")
        .and_then(|v| v.as_arr())
        .ok_or("export has no \"nodes\" array")?;
    let mut out = String::new();
    let _ = write!(
        out,
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>obsreport: {t}</title>\
         <style>body{{font-family:monospace;max-width:980px;margin:2em auto}}\
         h2{{border-bottom:1px solid #ccc}}\
         .legend span{{display:inline-block;margin-right:1em}}\
         .chip{{display:inline-block;width:0.8em;height:0.8em;margin-right:0.3em}}\
         table{{border-collapse:collapse}}td,th{{padding:2px 10px;text-align:right}}</style>\
         </head><body>\n<h1>obsreport — {t}</h1>\n\
         <p>simulated wall-clock: {now} µs</p>\n",
        t = html_escape(label),
    );
    // Legend.
    out.push_str("<p class=\"legend\">");
    for (b, c) in BUCKET_COLORS {
        let _ = write!(
            out,
            "<span><span class=\"chip\" style=\"background:{c}\"></span>{b}</span>"
        );
    }
    out.push_str("</p>\n");

    render_profile_bars(&mut out, nodes)?;
    render_series(&mut out, doc);
    render_folded(&mut out, doc);
    out.push_str("</body></html>\n");
    Ok(out)
}

/// Renders two telemetry exports of the *same seeded workload* — one
/// from the deterministic simulator, one from the threaded runtime —
/// side by side: each engine's per-node profile bars, then a combined
/// table giving every node × bucket in both engines' µs *and* shares.
/// Simulated µs and wall-clock µs tick different clocks, so the
/// shares (bucket / node total) are the comparable columns; matching
/// shapes with diverging absolutes is the expected signature of a
/// faithful model.
///
/// Works from the parsed JSON alone, like [`render_html`], so any two
/// saved exports (e.g. the two halves of `obsreport --compare --json`)
/// can be compared after the fact.
pub fn render_compare_html(sim: &JsonValue, rt: &JsonValue) -> std::result::Result<String, String> {
    let label_of = |doc: &JsonValue| -> String {
        doc.get("experiment")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let (sim_label, rt_label) = (label_of(sim), label_of(rt));
    let mut out = String::new();
    let _ = write!(
        out,
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>obsreport: {s} vs {r}</title>\
         <style>body{{font-family:monospace;max-width:980px;margin:2em auto}}\
         h2{{border-bottom:1px solid #ccc}}\
         .legend span{{display:inline-block;margin-right:1em}}\
         .chip{{display:inline-block;width:0.8em;height:0.8em;margin-right:0.3em}}\
         table{{border-collapse:collapse}}td,th{{padding:2px 10px;text-align:right}}</style>\
         </head><body>\n<h1>obsreport — sim vs rt</h1>\n",
        s = html_escape(&sim_label),
        r = html_escape(&rt_label),
    );
    out.push_str("<p class=\"legend\">");
    for (b, c) in BUCKET_COLORS {
        let _ = write!(
            out,
            "<span><span class=\"chip\" style=\"background:{c}\"></span>{b}</span>"
        );
    }
    out.push_str("</p>\n");

    for (title, doc) in [
        ("Simulated time", sim),
        ("Threaded runtime (wall clock)", rt),
    ] {
        let label = label_of(doc);
        let now = doc.get("now_us").and_then(|v| v.as_i64()).unwrap_or(0);
        let _ = writeln!(out, "<h2>{title} — {} ({now} µs)</h2>", html_escape(&label));
        let nodes = doc
            .get("nodes")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| format!("{label}: export has no \"nodes\" array"))?;
        render_profile_bars(&mut out, nodes)?;
    }

    render_compare_table(&mut out, sim, rt)?;
    out.push_str("</body></html>\n");
    Ok(out)
}

/// Per node × bucket: `(µs, share-of-node-total)` from both exports in
/// one table, nodes matched by id.
fn render_compare_table(
    out: &mut String,
    sim: &JsonValue,
    rt: &JsonValue,
) -> std::result::Result<(), String> {
    // node id → (total_us, bucket → µs), per engine.
    type Profile = std::collections::BTreeMap<i64, (i64, std::collections::BTreeMap<String, i64>)>;
    let profile_of = |doc: &JsonValue| -> std::result::Result<Profile, String> {
        let nodes = doc
            .get("nodes")
            .and_then(|v| v.as_arr())
            .ok_or("export has no \"nodes\" array")?;
        let mut map = Profile::new();
        for (i, n) in nodes.iter().enumerate() {
            let id = n.get("node").and_then(|v| v.as_i64()).unwrap_or(i as i64);
            let total = n.get("total_us").and_then(|v| v.as_i64()).unwrap_or(0);
            let buckets = n
                .get("buckets")
                .and_then(|v| v.as_obj())
                .ok_or("node entry has no \"buckets\" object")?;
            let bs = buckets
                .iter()
                .map(|(k, v)| (k.clone(), v.as_i64().unwrap_or(0)))
                .collect();
            map.insert(id, (total, bs));
        }
        Ok(map)
    };
    let sim_p = profile_of(sim)?;
    let rt_p = profile_of(rt)?;

    out.push_str(
        "<h2>Bucket shares, sim vs rt</h2>\n\
         <p>Different clocks — compare the share columns, not the µs.</p>\n\
         <table><tr><th>node</th><th>bucket</th>\
         <th>sim µs</th><th>sim share</th><th>rt µs</th><th>rt share</th></tr>\n",
    );
    let ids: std::collections::BTreeSet<i64> = sim_p.keys().chain(rt_p.keys()).copied().collect();
    let share = |us: i64, total: i64| -> String {
        if total > 0 {
            format!("{:.1}%", us as f64 * 100.0 / total as f64)
        } else {
            "—".to_string()
        }
    };
    for id in ids {
        for (bucket, _) in BUCKET_COLORS {
            let (sim_us, sim_total) = sim_p
                .get(&id)
                .map(|(t, bs)| (bs.get(*bucket).copied().unwrap_or(0), *t))
                .unwrap_or((0, 0));
            let (rt_us, rt_total) = rt_p
                .get(&id)
                .map(|(t, bs)| (bs.get(*bucket).copied().unwrap_or(0), *t))
                .unwrap_or((0, 0));
            if sim_us == 0 && rt_us == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "<tr><td>n{id}</td>\
                 <td><span class=\"chip\" style=\"background:{c}\"></span>{bucket}</td>\
                 <td>{sim_us}</td><td>{}</td><td>{rt_us}</td><td>{}</td></tr>",
                share(sim_us, sim_total),
                share(rt_us, rt_total),
                c = color_of(bucket),
            );
        }
    }
    out.push_str("</table>\n");
    Ok(())
}

/// Per-node stacked horizontal bars: each node's total simulated time
/// split by bucket, all bars on a shared scale.
fn render_profile_bars(out: &mut String, nodes: &[JsonValue]) -> std::result::Result<(), String> {
    out.push_str("<h2>Resource-time profile (per node)</h2>\n");
    let max_total = nodes
        .iter()
        .filter_map(|n| n.get("total_us").and_then(|v| v.as_i64()))
        .max()
        .unwrap_or(1)
        .max(1);
    let bar_w = 700.0;
    let row_h = 24;
    let h = nodes.len() * row_h + 8;
    let _ = writeln!(
        out,
        "<svg width=\"860\" height=\"{h}\" xmlns=\"http://www.w3.org/2000/svg\">"
    );
    for (i, n) in nodes.iter().enumerate() {
        let id = n.get("node").and_then(|v| v.as_i64()).unwrap_or(i as i64);
        let total = n.get("total_us").and_then(|v| v.as_i64()).unwrap_or(0);
        let util = n
            .get("utilization_pct")
            .and_then(|v| v.as_i64())
            .unwrap_or(0);
        let y = i * row_h + 4;
        let _ = write!(
            out,
            "<text x=\"0\" y=\"{ty}\" font-size=\"12\">n{id}</text>",
            ty = y + 14
        );
        let mut x = 60.0;
        let buckets = n
            .get("buckets")
            .and_then(|v| v.as_obj())
            .ok_or("node entry has no \"buckets\" object")?;
        for (name, v) in buckets {
            let us = v.as_i64().unwrap_or(0);
            if us <= 0 {
                continue;
            }
            let w = bar_w * us as f64 / max_total as f64;
            let _ = write!(
                out,
                "<rect x=\"{x:.1}\" y=\"{y}\" width=\"{w:.1}\" height=\"18\" fill=\"{c}\">\
                 <title>n{id} {name}: {us} µs</title></rect>",
                c = color_of(name),
            );
            x += w;
        }
        let _ = write!(
            out,
            "<text x=\"{tx:.1}\" y=\"{ty}\" font-size=\"11\" fill=\"#555\">{total} µs · {util}%</text>",
            tx = x + 6.0,
            ty = y + 14
        );
    }
    out.push_str("</svg>\n");
    Ok(())
}

/// One sparkline per sampled series (bounded to keep the page small;
/// a note reports anything elided).
fn render_series(out: &mut String, doc: &JsonValue) {
    let Some(tele) = doc.get("telemetry") else {
        return;
    };
    let Some(series) = tele.get("series").and_then(|v| v.as_obj()) else {
        return;
    };
    let interval = tele
        .get("interval_us")
        .and_then(|v| v.as_i64())
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "<h2>Time series ({} sampled every {interval} µs)</h2>",
        series.len()
    );
    const MAX_CHARTS: usize = 80;
    for (name, s) in series.iter().take(MAX_CHARTS) {
        let samples: Vec<(f64, f64)> = s
            .get("samples")
            .and_then(|v| v.as_arr())
            .map(|arr| {
                arr.iter()
                    .filter_map(|p| Some((p.idx(0)?.as_f64()?, p.idx(1)?.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default();
        if samples.is_empty() {
            continue;
        }
        let (w, h) = (700.0, 42.0);
        let tmin = samples.first().map(|p| p.0).unwrap_or(0.0);
        let tmax = samples.last().map(|p| p.0).unwrap_or(1.0).max(tmin + 1.0);
        let vmin = samples.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let vmax = samples
            .iter()
            .map(|p| p.1)
            .fold(f64::NEG_INFINITY, f64::max);
        let vspan = (vmax - vmin).max(1.0);
        let mut pts = String::new();
        for (t, v) in &samples {
            let x = (t - tmin) / (tmax - tmin) * w;
            let y = h - 4.0 - (v - vmin) / vspan * (h - 8.0);
            let _ = write!(pts, "{x:.1},{y:.1} ");
        }
        let last = samples.last().map(|p| p.1).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "<div><b>{n}</b> <span style=\"color:#555\">min {vmin} · max {vmax} · last {last}</span><br>\
             <svg width=\"{w}\" height=\"{h}\" xmlns=\"http://www.w3.org/2000/svg\">\
             <polyline points=\"{pts}\" fill=\"none\" stroke=\"#1f77b4\" stroke-width=\"1.2\"/>\
             </svg></div>",
            n = html_escape(name),
        );
    }
    if series.len() > MAX_CHARTS {
        let _ = writeln!(
            out,
            "<p>({} more series elided — see the JSON export)</p>",
            series.len() - MAX_CHARTS
        );
    }
}

fn render_folded(out: &mut String, doc: &JsonValue) {
    let Some(folded) = doc.get("folded").and_then(|v| v.as_arr()) else {
        return;
    };
    out.push_str("<h2>Folded stack (flamegraph.pl compatible)</h2>\n<pre>");
    for line in folded {
        if let Some(s) = line.as_str() {
            let _ = writeln!(out, "{}", html_escape(s));
        }
    }
    out.push_str("</pre>\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use cblog_common::jsonv;
    use std::collections::BTreeMap;

    #[test]
    fn folded_stack_sums_to_total_simulated_time_per_node() {
        for name in SCENARIOS {
            let json = run_scenario(name).unwrap();
            let doc = jsonv::parse(&json).unwrap();
            // Re-aggregate the folded lines and compare against the
            // per-node totals the export claims.
            let mut per_node: BTreeMap<String, i64> = BTreeMap::new();
            for line in doc.get("folded").unwrap().as_arr().unwrap() {
                let line = line.as_str().unwrap();
                let (frames, us) = line.rsplit_once(' ').unwrap();
                let node = frames.split(';').nth(1).unwrap().to_string();
                *per_node.entry(node).or_default() += us.parse::<i64>().unwrap();
            }
            for n in doc.get("nodes").unwrap().as_arr().unwrap() {
                let id = n.get("node").and_then(|v| v.as_i64()).unwrap();
                let total = n.get("total_us").and_then(|v| v.as_i64()).unwrap();
                let folded = per_node.get(&format!("n{id}")).copied().unwrap_or(0);
                assert_eq!(
                    folded, total,
                    "{name}: folded stack for n{id} must sum to busy+lock_wait"
                );
            }
        }
    }

    #[test]
    fn e5_export_attributes_recovery_to_the_replay_bucket() {
        let json = run_scenario("e5").unwrap();
        let doc = jsonv::parse(&json).unwrap();
        let replay: i64 = doc
            .get("nodes")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|n| {
                n.get("buckets")
                    .and_then(|b| b.get("replay"))
                    .and_then(|v| v.as_i64())
                    .unwrap_or(0)
            })
            .sum();
        assert!(replay > 0, "recovery must charge the replay bucket");
    }

    #[test]
    fn exports_are_byte_identical_across_runs() {
        for name in SCENARIOS {
            let a = run_scenario(name).unwrap();
            let b = run_scenario(name).unwrap();
            assert_eq!(a, b, "{name} telemetry export must be deterministic");
        }
    }

    #[test]
    fn html_renders_svg_profile_and_series_from_the_json_alone() {
        let json = run_scenario("e1").unwrap();
        let doc = jsonv::parse(&json).unwrap();
        let html = render_html(&doc).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"), "inline SVG profile bars");
        assert!(html.contains("polyline"), "series sparklines");
        assert!(html.contains("disk"), "bucket legend");
        assert!(html.contains("flamegraph.pl"), "folded stack section");
        assert!(
            !html.contains("src=") && !html.contains("href="),
            "self-contained: no external references"
        );
    }

    #[test]
    fn compare_html_renders_both_profiles_side_by_side() {
        let sim = run_scenario("e1").unwrap();
        let sim_doc = jsonv::parse(&sim).unwrap();
        let rt = r#"{"experiment":"rt_threads","now_us":5000,
            "nodes":[{"node":0,"busy_us":80,"total_us":100,"utilization_pct":80,
                      "buckets":{"disk":50,"cpu":20,"net":10,"lock_wait":20,"replay":0}}],
            "folded":["rt_threads;n0;disk 50"],"telemetry":null}"#;
        let rt_doc = jsonv::parse(rt).unwrap();
        let html = render_compare_html(&sim_doc, &rt_doc).unwrap();
        assert!(html.contains("Simulated time"), "sim profile section");
        assert!(html.contains("Threaded runtime"), "rt profile section");
        assert!(html.contains("Bucket shares"), "comparison table");
        assert!(html.contains("50.0%"), "rt disk share of 100 µs total");
        assert!(
            !html.contains("src=") && !html.contains("href="),
            "self-contained: no external references"
        );
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        let err = run_scenario("e99").unwrap_err();
        assert!(err.to_string().contains("unknown telemetry scenario"));
    }
}
