//! Figure 1 walk-through: the paper's distributed system architecture
//! under concurrent load, an owner crash, and the §2.3 recovery
//! protocol — with a message breakdown per protocol step.
//!
//! Topology (paper Figure 1): nodes 0 and 2 are *owner* nodes with
//! databases and logs; nodes 1 and 3 are processing nodes with local
//! logs but no databases.
//!
//! Run with: `cargo run -p cblog-bench --example cluster_recovery`
//!
//! Causal tracing is enabled (`ClusterConfig::tracing`): every span is
//! checked online by the invariant watchdog, and the run ends by
//! printing the cross-node PSN lineage of one recovered page.

use cblog_common::{span, NodeId, PageId};
use cblog_core::{recovery, Cluster, ClusterConfig, RecoveryOptions};
use cblog_net::MsgKind;
use cblog_sim::{run_workload, workload, Oracle, WorkloadConfig};

fn main() {
    // Owners: nodes 0 and 2.
    let mut cluster = Cluster::new(
        ClusterConfig::builder()
            .owned_pages(vec![8, 0, 8, 0])
            .tracing(true)
            .build(),
    )
    .expect("cluster");

    // Every node (owners included) runs transactions against pages of
    // both owners.
    let mut pages: Vec<PageId> = (0..8).map(|i| PageId::new(NodeId(0), i)).collect();
    pages.extend((0..8).map(|i| PageId::new(NodeId(2), i)));
    let clients: Vec<NodeId> = (0..4).map(NodeId).collect();
    let cfg = WorkloadConfig {
        txns_per_client: 25,
        ops_per_txn: 6,
        write_ratio: 0.6,
        hot_access: 0.3,
        hot_fraction: 0.2,
        seed: 2026,
        ..WorkloadConfig::default()
    };
    let specs = workload::generate(&cfg, &clients, &pages, None);
    let stats = run_workload(&mut cluster, specs).expect("workload");
    println!(
        "workload: {} committed, {} deadlock retries, {} messages, sim {} ms",
        stats.committed,
        stats.deadlock_aborts,
        stats.net.total_messages(),
        stats.sim_time / 1000
    );
    let oracle: Oracle = stats.oracle;

    // Independent fuzzy checkpoints — zero messages (contribution 4).
    let before = cluster.network().stats().total_messages();
    for n in &clients {
        cluster.checkpoint(*n).unwrap();
    }
    assert_eq!(cluster.network().stats().total_messages(), before);
    println!("4 independent fuzzy checkpoints taken (0 messages)");

    // Push the current images of node 0's pages out of every client
    // cache, so some survive only in node 0's buffer and must be
    // replayed from the clients' logs (the NodePSNList path).
    for n in 1..4u32 {
        for i in 0..8u32 {
            let _ = cluster.evict_page(NodeId(n), PageId::new(NodeId(0), i));
        }
    }

    // Crash owner node 0 mid-flight.
    let snap = cluster.network().stats();
    cluster.crash(NodeId(0));
    println!("\nnode 0 (owner) crashed — lock/data requests for its pages stall;");
    println!("other nodes keep working on node 2's pages meanwhile");
    let t = cluster.begin(NodeId(3)).unwrap();
    cluster
        .write_u64(t, PageId::new(NodeId(2), 0), 0, 4242)
        .unwrap();
    cluster.commit(t).unwrap();

    let report =
        recovery::recover(&mut cluster, &RecoveryOptions::single(NodeId(0))).expect("recovery");
    println!("\nrecovery report:");
    println!(
        "  pages replayed (NodePSNList):  {}",
        report.pages_recovered
    );
    println!(
        "  pages current in other caches: {}",
        report.pages_skipped_cached
    );
    println!(
        "  pages pulled to owner:         {}",
        report.pages_pulled_to_owner
    );
    println!(
        "  records replayed:              {}",
        report.records_replayed
    );
    println!("  loser transactions undone:     {}", report.losers_undone);
    println!(
        "  log bytes scanned:             {}",
        report.log_bytes_scanned
    );
    println!("  page shuttle hops:             {}", report.page_hops);

    let d = cluster.network().stats().since(&snap);
    println!("\nrecovery message breakdown:");
    for kind in MsgKind::ALL {
        let n = d.count(kind);
        if n > 0 {
            println!("  {:>16}: {}", kind.label(), n);
        }
    }

    // The oracle read back through a different node must match.
    let verified = oracle.verify(&mut cluster, NodeId(1)).expect("verify");
    println!(
        "\nverified {verified} committed slots after crash + recovery — no log was ever merged"
    );

    // The causal trace saw the whole run. The watchdog re-checks the
    // paper's invariants span by span (PSN total order, WAL rule, no
    // log records on the wire, replay in global PSN order)...
    cluster.trace_check().expect("watchdog clean");
    let trace = cluster.tracer().snapshot();
    println!(
        "\ntrace: {} spans, watchdog clean — lineage of the busiest page:",
        trace.len()
    );
    // ...and can reconstruct any page's cross-node update history.
    let pid = span::busiest_page(trace.spans()).expect("traced pages");
    print!("{}", span::render_lineage(trace.spans(), pid));
}
