//! End-to-end smoke of the multi-process transport backend: the
//! coordinator-mode `exp_worker` binary spawns one worker **process** per
//! shard, runs a full simulation with wire-encoded cross-shard frames on a
//! TCP mesh between the workers, and `--verify` asserts the outcome bit
//! for bit against the in-process sequential executor.

use std::process::Command;

fn run_exp_worker(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exp_worker"))
        .args(args)
        .output()
        .expect("spawn exp_worker")
}

#[test]
fn coordinator_and_worker_processes_agree_with_sequential() {
    let out = run_exp_worker(&[
        "--n",
        "2000",
        "--shards",
        "2",
        "--graph",
        "circulant4",
        "--tail",
        "7",
        "--verify",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exp_worker failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("verify: OK"),
        "missing verification line in: {stdout}"
    );
    assert!(
        stdout.contains("wire_bytes="),
        "missing counters in: {stdout}"
    );
    // A 2-shard circulant must have pushed real bytes across the processes.
    assert!(
        !stdout.contains("wire_bytes=0 "),
        "no wire bytes crossed: {stdout}"
    );
}

#[test]
fn single_shard_multiprocess_run_works() {
    // Degenerate but legal: one worker process, no cross-shard traffic.
    let out = run_exp_worker(&[
        "--n", "300", "--shards", "1", "--graph", "ring", "--tail", "5", "--verify",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verify: OK"));
}

#[test]
fn mesh_mode_agrees_with_sequential_and_relays_nothing() {
    // `--mesh` is accepted for older command lines and changes nothing.
    let out = run_exp_worker(&[
        "--n",
        "2000",
        "--shards",
        "3",
        "--graph",
        "circulant4",
        "--tail",
        "7",
        "--mesh",
        "--verify",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exp_worker --mesh failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("verify: OK"),
        "missing verification line in: {stdout}"
    );
    // Data frames travel worker↔worker: the coordinator forwards none.
    assert!(
        stdout.contains("relayed_bytes=0 "),
        "the coordinator relayed data: {stdout}"
    );
    assert!(
        !stdout.contains("wire_bytes=0 "),
        "no wire bytes crossed the mesh: {stdout}"
    );
    // Each worker process reports its own high-water RSS via its Output frame.
    assert!(
        !stdout.contains("peak_rss_bytes=0 "),
        "missing peak RSS in: {stdout}"
    );
}

#[test]
fn host_list_shard_count_mismatch_is_a_clean_error_not_a_hang() {
    // Two hosts listed, three shards requested: the coordinator must fail
    // up front with the transport's typed validation error instead of
    // binding a listener and waiting forever for a third worker.
    let dir = std::env::temp_dir().join(format!("dcme_hosts_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let hosts = dir.join("hosts.txt");
    std::fs::write(&hosts, "# shard order\n127.0.0.1:9001\n127.0.0.1:9002\n").unwrap();
    let out = run_exp_worker(&[
        "--n",
        "300",
        "--shards",
        "3",
        "--graph",
        "ring",
        "--hosts",
        hosts.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        stderr.contains("names 2 workers but the run has 3 shards"),
        "expected the peer-list validation error, got: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_index_outside_the_shard_count_is_a_usage_error() {
    // Rejected while parsing, before the worker dials: nothing listens at
    // the address, so a worker that got that far would fail differently.
    let out = run_exp_worker(&[
        "--worker",
        "5",
        "--shards",
        "2",
        "--n",
        "1000",
        "--graph",
        "ring",
        "--connect",
        "127.0.0.1:9",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected a usage error exit, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("--worker 5 is out of range for --shards 2"),
        "expected the worker-index error, got: {stderr}"
    );
}

#[test]
fn unknown_graph_family_is_a_clean_error() {
    let out = run_exp_worker(&["--n", "100", "--shards", "2", "--graph", "torus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown graph family"));
}
