//! Conservation-invariant tests: bank transfers move money between
//! account slots; the total balance is invariant under any
//! interleaving, any mix of commits and aborts, deadlock-victim
//! restarts, and any crash/recovery sequence. A violated sum would
//! expose lost updates, partial transactions, double-applied redo, or
//! missed undo — failure modes that point-value oracles can miss.

use cblog_common::{CostModel, Error, NodeId, PageId, Rng, TxnId};
use cblog_core::{recovery, Cluster, ClusterConfig, RecoveryOptions};
use cblog_locks::WaitsForGraph;
use std::collections::VecDeque;

const PAGES: u32 = 4;
const SLOTS: usize = 4;
const INITIAL: u64 = 1_000;

/// A bank-transfer workload (TPC-B flavoured): every transaction moves
/// an amount between two account slots, preserving the total balance.
/// The conserved sum is a strong serializability + atomicity oracle —
/// it holds under any interleaving, any aborts, and any crash/recovery
/// sequence, which point-value oracles cannot check.
#[derive(Clone, Debug)]
struct TransferSpec {
    /// Node the transfer runs on.
    client: NodeId,
    /// Source account (page, slot).
    from: (PageId, usize),
    /// Destination account (page, slot).
    to: (PageId, usize),
    /// Amount moved.
    amount: u64,
    /// Roll back instead of committing.
    user_abort: bool,
}

/// Generates `txns_per_client` transfers per client over `accounts`
/// (each account = (page, slot)). Amounts stay small relative to the
/// initial balance so accounts never go negative.
fn generate_transfers(
    seed: u64,
    clients: &[NodeId],
    accounts: &[(PageId, usize)],
    txns_per_client: usize,
    abort_prob: f64,
) -> Vec<TransferSpec> {
    assert!(accounts.len() >= 2, "transfers need two accounts");
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(clients.len() * txns_per_client);
    for &client in clients {
        for _ in 0..txns_per_client {
            let a = rng.gen_range_usize(0..accounts.len());
            let mut b = rng.gen_range_usize(0..accounts.len() - 1);
            if b >= a {
                b += 1;
            }
            out.push(TransferSpec {
                client,
                from: accounts[a],
                to: accounts[b],
                amount: rng.gen_range(1..5),
                user_abort: abort_prob > 0.0 && rng.gen_bool(abort_prob),
            });
        }
    }
    out
}

fn cluster(clients: usize) -> Cluster {
    let mut owned = vec![PAGES];
    owned.extend(std::iter::repeat(0).take(clients));
    Cluster::new(
        ClusterConfig::builder()
            .owned_pages(owned)
            .page_size(1024)
            .buffer_frames(8)
            .cost(CostModel::unit())
            .build(),
    )
    .unwrap()
}

fn accounts() -> Vec<(PageId, usize)> {
    (0..PAGES)
        .flat_map(|p| (0..SLOTS).map(move |s| (PageId::new(NodeId(0), p), s)))
        .collect()
}

/// Seeds every account with the initial balance.
fn fund(c: &mut Cluster) {
    let t = c.begin(NodeId(0)).unwrap();
    for (pid, slot) in accounts() {
        c.write_u64(t, pid, slot, INITIAL).unwrap();
    }
    c.commit(t).unwrap();
}

/// Reads the total balance through one transaction.
fn total(c: &mut Cluster, reader: NodeId) -> u64 {
    let t = c.begin(reader).unwrap();
    let mut sum = 0;
    for (pid, slot) in accounts() {
        sum += c.read_u64(t, pid, slot).unwrap();
    }
    c.commit(t).unwrap();
    sum
}

/// Executes one transfer; returns Err(WouldBlock) style transiency to
/// the scheduler.
fn try_transfer(c: &mut Cluster, txn: TxnId, spec: &TransferSpec) -> Result<(), Error> {
    let from_bal = c.read_u64(txn, spec.from.0, spec.from.1)?;
    let to_bal = c.read_u64(txn, spec.to.0, spec.to.1)?;
    let amount = spec.amount.min(from_bal);
    c.write_u64(txn, spec.from.0, spec.from.1, from_bal - amount)?;
    c.write_u64(txn, spec.to.0, spec.to.1, to_bal + amount)?;
    Ok(())
}

/// Minimal scheduler for transfer specs with deadlock handling.
fn run_transfers(c: &mut Cluster, specs: Vec<TransferSpec>) -> (u64, u64, u64) {
    let mut queues: Vec<(NodeId, VecDeque<TransferSpec>)> = Vec::new();
    for s in specs {
        match queues.iter_mut().find(|(n, _)| *n == s.client) {
            Some((_, q)) => q.push_back(s),
            None => {
                let client = s.client;
                let mut q = VecDeque::new();
                q.push_back(s);
                queues.push((client, q));
            }
        }
    }
    let mut active: Vec<Option<(TxnId, TransferSpec)>> = (0..queues.len()).map(|_| None).collect();
    let mut wfg = WaitsForGraph::new();
    let (mut committed, mut aborted, mut victims) = (0u64, 0u64, 0u64);
    loop {
        let mut any = false;
        for ci in 0..queues.len() {
            if active[ci].is_none() {
                if let Some(spec) = queues[ci].1.pop_front() {
                    let t = c.begin(queues[ci].0).unwrap();
                    active[ci] = Some((t, spec));
                } else {
                    continue;
                }
            }
            any = true;
            let (txn, spec) = active[ci].clone().unwrap();
            match try_transfer(c, txn, &spec) {
                Ok(()) => {
                    wfg.remove(txn);
                    active[ci] = None;
                    if spec.user_abort {
                        c.abort(txn).unwrap();
                        aborted += 1;
                    } else {
                        c.commit(txn).unwrap();
                        committed += 1;
                    }
                }
                Err(Error::WouldBlock { holders, .. }) => {
                    wfg.set_waits(txn, &holders);
                    if let Some(v) = wfg.find_victim() {
                        let slot = active
                            .iter()
                            .position(|a| a.as_ref().is_some_and(|(t, _)| *t == v))
                            .expect("victim active");
                        let (vt, vs) = active[slot].take().unwrap();
                        c.abort(vt).unwrap();
                        wfg.remove(vt);
                        victims += 1;
                        let qi = queues.iter().position(|(n, _)| *n == vs.client).unwrap();
                        queues[qi].1.push_back(vs);
                    }
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        if !any {
            break;
        }
    }
    (committed, aborted, victims)
}

#[test]
fn total_balance_is_conserved_under_contention() {
    let mut c = cluster(3);
    fund(&mut c);
    let clients: Vec<NodeId> = (1..=3).map(NodeId).collect();
    let specs = generate_transfers(11, &clients, &accounts(), 60, 0.15);
    let (committed, aborted, victims) = run_transfers(&mut c, specs);
    assert_eq!(committed + aborted, 180);
    assert!(victims > 0 || committed > 0);
    let expect = INITIAL * (PAGES as u64) * (SLOTS as u64);
    assert_eq!(total(&mut c, NodeId(2)), expect, "money is conserved");
}

#[test]
fn total_balance_survives_owner_crash_and_recovery() {
    let mut c = cluster(2);
    fund(&mut c);
    let clients: Vec<NodeId> = (1..=2).map(NodeId).collect();
    let specs = generate_transfers(12, &clients, &accounts(), 40, 0.1);
    run_transfers(&mut c, specs);
    // Push the only current images into the owner's buffer, crash it,
    // recover from the clients' logs.
    for (pid, _) in accounts() {
        let _ = c.evict_page(NodeId(1), pid);
        let _ = c.evict_page(NodeId(2), pid);
    }
    c.crash(NodeId(0));
    recovery::recover(&mut c, &RecoveryOptions::single(NodeId(0))).unwrap();
    let expect = INITIAL * (PAGES as u64) * (SLOTS as u64);
    assert_eq!(total(&mut c, NodeId(1)), expect);
}

#[test]
fn total_balance_survives_repeated_mixed_crashes() {
    let mut c = cluster(2);
    fund(&mut c);
    let clients: Vec<NodeId> = (1..=2).map(NodeId).collect();
    let expect = INITIAL * (PAGES as u64) * (SLOTS as u64);
    for round in 0..3u64 {
        let specs = generate_transfers(100 + round, &clients, &accounts(), 25, 0.2);
        run_transfers(&mut c, specs);
        let victim = if round % 2 == 0 { NodeId(0) } else { NodeId(1) };
        if victim == NodeId(0) {
            for (pid, _) in accounts() {
                let _ = c.evict_page(NodeId(1), pid);
                let _ = c.evict_page(NodeId(2), pid);
            }
        }
        c.crash(victim);
        recovery::recover(&mut c, &RecoveryOptions::single(victim)).unwrap();
        assert_eq!(
            total(&mut c, NodeId(2)),
            expect,
            "conservation after round {round}"
        );
    }
}

#[test]
fn in_flight_transfers_at_crash_time_vanish_atomically() {
    let mut c = cluster(2);
    fund(&mut c);
    // A transfer that debited but has not yet credited, with its
    // records forced: the classic torn-transfer window.
    let spec = TransferSpec {
        client: NodeId(1),
        from: (PageId::new(NodeId(0), 0), 0),
        to: (PageId::new(NodeId(0), 1), 0),
        amount: 500,
        user_abort: false,
    };
    let t = c.begin(NodeId(1)).unwrap();
    let bal = c.read_u64(t, spec.from.0, spec.from.1).unwrap();
    c.write_u64(t, spec.from.0, spec.from.1, bal - spec.amount)
        .unwrap();
    // Crash before the credit, with the debit durable in the log.
    c.node_mut(NodeId(1)).force_log().unwrap();
    c.crash(NodeId(1));
    recovery::recover(&mut c, &RecoveryOptions::single(NodeId(1))).unwrap();
    let expect = INITIAL * (PAGES as u64) * (SLOTS as u64);
    assert_eq!(
        total(&mut c, NodeId(2)),
        expect,
        "half-done transfer rolled back entirely"
    );
}

#[test]
fn transfers_pick_distinct_accounts() {
    let accounts = accounts();
    let specs = generate_transfers(9, &[NodeId(1), NodeId(2)], &accounts, 50, 0.2);
    assert_eq!(specs.len(), 100);
    for t in &specs {
        assert_ne!(t.from, t.to);
        assert!(t.amount >= 1 && t.amount < 5);
    }
    assert!(specs.iter().any(|t| t.user_abort));
    // Deterministic.
    let again = generate_transfers(9, &[NodeId(1), NodeId(2)], &accounts, 50, 0.2);
    assert_eq!(specs.len(), again.len());
    assert_eq!(specs[7].from, again[7].from);
    assert_eq!(specs[7].amount, again[7].amount);
}
