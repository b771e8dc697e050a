//! Non-vacuity self-tests of the benchmark: every metric is emitted,
//! the checker catches a corrupted payload, a mutated event stream and
//! broken event accounting, the digest covers virtual outputs only,
//! and the timing wrapper leaves virtual time and the event stream
//! untouched.

use scc_obs::{mutate, MutationClass};
use scc_perfbench::check::{digest, observe, unpopped, verdict, Reference};
use scc_perfbench::run::{hash_bytes, payload, run_scenario, Outcome};
use scc_perfbench::workload::{Scenario, Workload};
use std::process::Command;

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let end = section.find(']').expect("section is a list");
    section[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| s.trim().trim_start_matches('"').split('"').next().unwrap_or("").to_string())
        .collect()
}

fn run_bench(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace])
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn a_short_run_of_every_workload_emits_every_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()) && per_layer.len() > 30);
    for w in Workload::ALL {
        for (trace, names) in [("0", &end_to_end), ("1", &per_layer)] {
            let stdout = run_bench(w.name(), trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{}: {last}",
                w.name()
            );
            assert!(last.contains("\"failed\": 0,"), "{}: {last}", w.name());
            for name in names {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{} --trace {trace} lacks {name}: {last}",
                    w.name()
                );
            }
            let emitted = last.matches("\"value\"").count();
            assert_eq!(
                emitted,
                names.len(),
                "{} --trace {trace} emits undeclared metrics",
                w.name()
            );
        }
    }
}

#[test]
fn malformed_arguments_are_refused() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "bulk_bcast", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "bulk_bcast", "--seed", "1", "--seconds", "0", "--trace", "0"],
        &["--workload", "bulk_bcast", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("run");
        assert!(!out.status.success(), "{args:?} accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn a_corrupted_payload_is_counted_as_failed() {
    let sc = Workload::SmallBcast.pass(5).remove(0);
    let mut out: Result<Outcome, String> = run_scenario(&sc, false, false);
    assert_eq!(verdict(&sc, &out, None, None).failed, 0);
    let o = out.as_mut().expect("clean run");
    let mut bytes = vec![0u8; sc.lines * 32];
    payload(sc.payload_seed, 2, &mut bytes);
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    let victim = sc.cores - 1;
    o.cores[victim].received[2] = hash_bytes(&bytes);
    let v = verdict(&sc, &out, None, None);
    assert_eq!((v.attempted, v.failed), (sc.epochs as u64, 1), "{v:?}");
    assert!(v.reasons[0].contains(&format!("epoch 2: payload differs at core {victim}")), "{v:?}");
}

#[test]
fn a_mutated_event_stream_is_counted_as_failed() {
    let sc = Workload::AuditedSoak.pass(5).into_iter().find(Scenario::faulted).expect("drop phase");
    let clean = run_scenario(&sc, false, true);
    let judge = |run: &Result<Outcome, String>| {
        let obs = observe(&sc, run.as_ref().expect("run completes"));
        verdict(&sc, run, Some(&obs), None)
    };
    assert_eq!(judge(&clean).failed, 0);
    let mut caught = 0;
    for (i, class) in MutationClass::ALL.into_iter().enumerate() {
        let mut bad = clean.clone();
        let events = bad.as_mut().ok().and_then(|o| o.events.as_mut()).expect("recorded");
        if mutate(events, class, i as u64).is_none() {
            continue;
        }
        let v = judge(&bad);
        assert_eq!(v.failed, sc.epochs as u64, "{} not caught: {v:?}", class.name());
        caught += 1;
    }
    assert!(caught >= 4, "only {caught} mutation classes had a site");
}

#[test]
fn the_digest_covers_virtual_outputs_only() {
    let sc = Workload::SmallBcast.pass(5).remove(0);
    let o = run_scenario(&sc, false, false).expect("clean run");
    let d = digest(&o);
    let mut host = o.clone();
    host.stats.events += 7;
    host.stats.heap_pushes += 5;
    host.stats.coalesced_steps += 2;
    host.stats.handoffs += 11;
    assert_eq!(digest(&host), d, "engine bookkeeping moved the digest");
    for bump in [
        |o: &mut Outcome| o.stats.ops += 1,
        |o: &mut Outcome| o.stats.parks += 1,
        |o: &mut Outcome| o.stats.link_wait[3] += o.makespan,
        |o: &mut Outcome| o.end_times[1] = o.makespan,
        |o: &mut Outcome| o.cores[1].t1[0] = o.makespan,
    ] {
        let mut virt = o.clone();
        bump(&mut virt);
        assert_ne!(digest(&virt), d, "a virtual output left the digest unchanged");
    }
}

#[test]
fn broken_event_accounting_is_counted_as_failed() {
    // Plain protocols leave nothing queued: one lost event fails.
    let sc = Workload::SmallBcast.pass(5).remove(0);
    let mut run = run_scenario(&sc, false, false);
    assert_eq!(verdict(&sc, &run, None, None).failed, 0);
    run.as_mut().expect("clean run").stats.events -= 1;
    assert_eq!(verdict(&sc, &run, None, None).failed, sc.epochs as u64);

    // A reliable run leaves its last deadline timers queued. On a
    // healthy run only a few more unpopped pushes than that pass. On a
    // faulted one retried waits widen the bound, but it stays below
    // the run's parks.
    let pass = Workload::AuditedSoak.pass(5);
    for faulted in [false, true] {
        let sc = pass.iter().find(|s| s.faulted() == faulted).expect("both phases");
        let clean = run_scenario(sc, false, true);
        let o = clean.as_ref().expect("clean run");
        let obs = observe(sc, o);
        let gap = unpopped(&o.stats).expect("no more events than pushes");
        assert!(faulted || gap > 0, "a healthy reliable run left no timer queued");
        assert_eq!(verdict(sc, &clean, Some(&obs), None).failed, 0);
        let slack = (0..)
            .find(|extra| {
                let mut bad = clean.clone();
                bad.as_mut().expect("clean run").stats.heap_pushes += extra + 1;
                verdict(sc, &bad, Some(&obs), None).failed == sc.epochs as u64
            })
            .expect("some surplus fails");
        eprintln!("{}: {gap} timers queued, {slack} more allowed", sc.describe());
        let tight = if faulted { o.stats.parks } else { gap / 20 + 16 };
        assert!(slack < tight, "{}: {slack} surplus pushes pass", sc.describe());
    }

    // Unrecorded, the count must match a reference exactly.
    let sc = &pass[0];
    let r = Reference::of(&run_scenario(sc, false, true).expect("clean run"));
    let quiet = run_scenario(sc, false, false);
    assert_eq!(verdict(sc, &quiet, None, Some(&r)).failed, 0);
    assert_eq!(verdict(sc, &quiet, None, None).failed, sc.epochs as u64);
    let off = Reference { unpopped: r.unpopped + 1, ..r };
    assert_eq!(verdict(sc, &quiet, None, Some(&off)).failed, sc.epochs as u64);
    let moved = Reference { digest: r.digest ^ 1, ..r };
    assert_eq!(verdict(sc, &quiet, None, Some(&moved)).failed, sc.epochs as u64);
}

#[test]
fn wrapped_and_unwrapped_runs_are_virtually_identical() {
    for w in Workload::ALL {
        for sc in w.pass(11) {
            // Recording the largest bulk scenarios would take hundreds
            // of MB; their digests are compared by every traced run.
            let record = sc.record || sc.cores * sc.lines * sc.epochs <= 48 * 600;
            let plain = run_scenario(&sc, false, record).expect("unwrapped run");
            let timed = run_scenario(&sc, true, record).expect("wrapped run");
            let what = format!("{}: {}", w.name(), sc.describe());
            assert_eq!(plain.makespan, timed.makespan, "{what}");
            assert_eq!(plain.end_times, timed.end_times, "{what}");
            assert_eq!(plain.stats, timed.stats, "{what}");
            assert!(plain.events == timed.events, "{what}: recorded events differ");
            for (a, b) in plain.cores.iter().zip(&timed.cores) {
                assert_eq!(
                    (&a.t0, &a.t1, &a.received, &a.rel),
                    (&b.t0, &b.t1, &b.received, &b.rel),
                    "{what}"
                );
            }
            let calls = timed.proto();
            assert!(calls.rma_calls() > 0 && calls.flag_wait > 0, "{what}: wrapper saw no calls");
            assert_eq!(plain.proto().rma_calls(), 0, "{what}: unwrapped run was counted");
        }
    }
}
