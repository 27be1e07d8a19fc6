//! Regenerates every experiment of EXPERIMENTS.md.
//!
//! The paper (pure theory) has no numbered tables or figures; the
//! experiment suite operationalizes its worked examples (X1–X3) and
//! complexity claims (E1–E6).  Run all or one:
//!
//! ```text
//! cargo run --release -p ids-bench --bin experiments            # all
//! cargo run --release -p ids-bench --bin experiments -- e1 e3   # subset
//! cargo run --release -p ids-bench --bin experiments -- --smoke # tiny sizes
//! cargo run --release -p ids-bench --bin experiments -- --json  # + BENCH_*.json
//! ```
//!
//! `--smoke` shrinks every workload to its smallest size so the whole
//! suite finishes in well under a second — CI uses it to prove the
//! experiment code paths run end to end without paying for the full
//! parameter sweeps.
//!
//! `--json` additionally mirrors every section's tables and notes into a
//! machine-readable `BENCH_<section>.json` in the current directory
//! (`BENCH_E10.json`, ..), the perf-trajectory file set tooling tracks
//! across commits.

use std::time::Instant;

use ids_bench::json::Reporter;
use ids_bench::{fmt_duration, time_median};
use ids_chase::{fd_implied_explicit, ChaseConfig};
use ids_core::{
    analyze, theorem1_reduction, tuple_in_projected_join, verify_witness, ChaseMaintainer,
    CoverEmbedding, FdOnlyMaintainer, InsertOutcome, JoinMembershipInstance, LocalMaintainer,
    Verdict,
};
use ids_deps::{closure_with_jd, Fd, FdSet, JoinDependency};
use ids_relational::{AttrId, AttrSet, DatabaseSchema, DatabaseState, Relation, Universe, Value};
use ids_workloads::examples::{
    all_examples, example1, example1_state, example2, example2_extended, example3, registrar,
};
use ids_workloads::families::{double_path, key_chain, key_star, tableau_conflict};
use ids_workloads::generators::{random_embedded_fds, random_schema, SchemaParams};
use ids_workloads::states::{insert_stream, random_satisfying_state};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args.iter().any(|a| a == "--json");
    let keys: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let want = |k: &str| keys.is_empty() || keys.iter().any(|a| a.eq_ignore_ascii_case(k));
    let mut rep = Reporter::new(json);

    println!("# Independent Database Schemas — experiment suite");
    println!("# (Graham & Yannakakis, PODS 1982 / JCSS 1984)");
    if smoke {
        println!("# [--smoke: minimum workload sizes]");
    }

    if want("x1") {
        x1_example1(&mut rep);
        rep.flush("X1");
    }
    if want("x2") {
        x2_example2(&mut rep);
        rep.flush("X2");
    }
    if want("x3") {
        x3_example3(&mut rep);
        rep.flush("X3");
    }
    if want("e1") {
        e1_independence_scaling(smoke, &mut rep);
        rep.flush("E1");
    }
    if want("e2") {
        e2_maintenance(smoke, &mut rep);
        rep.flush("E2");
    }
    if want("e3") {
        e3_np_gadget(smoke, &mut rep);
        rep.flush("E3");
    }
    if want("e4") {
        e4_cover_size(smoke, &mut rep);
        rep.flush("E4");
    }
    if want("e5") {
        e5_acyclic_vs_cyclic(smoke, &mut rep);
        rep.flush("E5");
    }
    if want("e6") {
        e6_ablations(smoke, &mut rep);
        rep.flush("E6");
    }
    if want("e7") {
        e7_store_throughput(smoke, &mut rep);
        rep.flush("E7");
    }
    if want("e8") {
        e8_read_vs_snapshot(smoke, &mut rep);
        rep.flush("E8");
    }
    if want("e9") {
        e9_durability(smoke, &mut rep);
        rep.flush("E9");
    }
    if want("e10") {
        e10_query_pushdown(smoke, &mut rep);
        rep.flush("E10");
    }
    if want("e11") {
        e11_network_front_end(smoke, &mut rep);
        rep.flush("E11");
    }
    if want("e12") {
        e12_observability_overhead(smoke, &mut rep);
        rep.flush("E12");
    }
    if want("e13") {
        e13_read_replica_scaling(smoke, &mut rep);
        rep.flush("E13");
    }
    if want("e14") {
        e14_planned_joins(smoke, &mut rep);
        rep.flush("E14");
    }
    if want("e15") {
        e15_online_evolution(smoke, &mut rep);
        rep.flush("E15");
    }
}

/// Truncates a size sweep to its first element in `--smoke` mode.
fn sweep(full: &[usize], smoke: bool) -> Vec<usize> {
    if smoke {
        full[..1].to_vec()
    } else {
        full.to_vec()
    }
}

/// X1 — Example 1: the CD/CT/TD state is locally fine, globally broken.
fn x1_example1(rep: &mut Reporter) {
    let inst = example1();
    let mut pool = ids_relational::ValuePool::new();
    let p = example1_state(&inst, &mut pool);
    let cfg = ChaseConfig::default();
    let lsat = ids_chase::locally_satisfies(&inst.schema, &inst.fds, &p, &cfg).unwrap();
    let wsat = ids_chase::satisfies(&inst.schema, &inst.fds, &p, &cfg)
        .unwrap()
        .is_satisfying();
    let verdict = analyze(&inst.schema, &inst.fds);
    rep.table(
        "X1 — Example 1 (CD, CT, TD with C→D, C→T, T→D)",
        &["check", "paper", "measured"],
        &[
            vec!["state locally satisfying".into(), "yes".into(), yn(lsat)],
            vec!["state globally satisfying".into(), "no".into(), yn(wsat)],
            vec![
                "schema independent".into(),
                "no".into(),
                yn(verdict.is_independent()),
            ],
        ],
    );
}

/// X2 — Example 2 and its SH→R extension.
fn x2_example2(rep: &mut Reporter) {
    let base = example2();
    let ext = example2_extended();
    let a1 = analyze(&base.schema, &base.fds);
    let a2 = analyze(&ext.schema, &ext.fds);
    let reason2 = match &a2.verdict {
        Verdict::NotIndependent { reason, .. } => format!("{reason:?}")
            .split_whitespace()
            .next()
            .unwrap_or("?")
            .trim_start_matches("CoverNotEmbedded")
            .to_string(),
        Verdict::Independent { .. } => "—".into(),
    };
    let _ = reason2;
    let cond1_fails = matches!(
        a2.verdict,
        Verdict::NotIndependent {
            reason: ids_core::NotIndependentReason::CoverNotEmbedded { .. },
            ..
        }
    );
    rep.table(
        "X2 — Example 2 ({CT, CS, CHR}; C→T, CH→R [+ SH→R])",
        &["instance", "paper", "measured"],
        &[
            vec![
                "C→T, CH→R independent".into(),
                "yes".into(),
                yn(a1.is_independent()),
            ],
            vec![
                "+ SH→R independent".into(),
                "no".into(),
                yn(a2.is_independent()),
            ],
            vec![
                "+ SH→R fails condition (1)".into(),
                "yes".into(),
                yn(cond1_fails),
            ],
        ],
    );
}

/// X3 — Example 3: rejection at line 4 or line 5 depending on the pick.
fn x3_example3(rep: &mut Reporter) {
    use ids_core::algorithm::{run_loop_with_picker, RejectLine};
    use ids_deps::partition_embedded;
    let inst = example3();
    let u = inst.schema.universe();
    let partition =
        partition_embedded(&inst.fds, &inst.schema.join_dependency_components()).unwrap();
    let r1 = inst.schema.scheme_by_name("R1").unwrap();
    let a2b2 = u.parse_set("A2 B2").unwrap();
    let a1b1 = u.parse_set("A1 B1").unwrap();

    let run = |prefer: AttrSet| {
        let mut picker = |min: &[usize], lr: &ids_core::algorithm::LoopRun<'_>| {
            min.iter()
                .copied()
                .find(|&i| lr.lhs_info(i).attrs == prefer)
                .unwrap_or(min[0])
        };
        let (outcome, _) = run_loop_with_picker(&inst.schema, &partition, r1, &mut picker);
        outcome.err()
    };

    let rej_a2b2 = run(a2b2).expect("rejects");
    let rej_a1b1 = run(a1b1).expect("rejects");
    let line = |r: &ids_core::RejectInfo| match r.line {
        RejectLine::Line4 => "line 4",
        RejectLine::Line5 { .. } => "line 5",
    };
    rep.table(
        "X3 — Example 3 (reconstructed; run for R1)",
        &["pick at 3rd iteration", "paper", "measured"],
        &[
            vec![
                "A2B2 → rejection at".into(),
                "line 4".into(),
                line(&rej_a2b2).into(),
            ],
            vec![
                "A1B1 → rejection at".into(),
                "line 5".into(),
                line(&rej_a1b1).into(),
            ],
            vec!["(A2B2)*old".into(), "A2B2".into(), u.render(rej_a2b2.x_old)],
            vec![
                "(A2B2)*new".into(),
                "A1B1C".into(),
                u.render(rej_a2b2.x_new),
            ],
        ],
    );
}

/// E1 — polynomial scaling of the full decision procedure.
fn e1_independence_scaling(smoke: bool, rep: &mut Reporter) {
    let mut rows = Vec::new();
    let mut times = Vec::new();
    let chain_sizes = if smoke {
        vec![4usize, 8]
    } else {
        vec![4, 8, 16, 32, 64, 128]
    };
    for n in chain_sizes {
        let inst = key_chain(n);
        let d = time_median(5, || {
            std::hint::black_box(analyze(&inst.schema, &inst.fds));
        });
        times.push(d.as_secs_f64());
        rows.push(vec![
            inst.name.clone(),
            format!("{}", inst.schema.universe().len()),
            format!("{}", inst.schema.len()),
            format!("{}", inst.fds.len()),
            "independent".into(),
            fmt_duration(d),
        ]);
    }
    for n in sweep(&[4, 8, 16, 32, 64], smoke) {
        let inst = key_star(n);
        let d = time_median(5, || {
            std::hint::black_box(analyze(&inst.schema, &inst.fds));
        });
        rows.push(vec![
            inst.name.clone(),
            format!("{}", inst.schema.universe().len()),
            format!("{}", inst.schema.len()),
            format!("{}", inst.fds.len()),
            "independent".into(),
            fmt_duration(d),
        ]);
    }
    for m in sweep(&[2, 4, 8, 16, 32], smoke) {
        let inst = tableau_conflict(m);
        let d = time_median(5, || {
            std::hint::black_box(analyze(&inst.schema, &inst.fds));
        });
        rows.push(vec![
            inst.name.clone(),
            format!("{}", inst.schema.universe().len()),
            format!("{}", inst.schema.len()),
            format!("{}", inst.fds.len()),
            "NOT independent".into(),
            fmt_duration(d),
        ]);
    }
    for n in sweep(&[4, 8, 16, 32, 64], smoke) {
        let inst = double_path(n);
        let d = time_median(5, || {
            std::hint::black_box(analyze(&inst.schema, &inst.fds));
        });
        rows.push(vec![
            inst.name.clone(),
            format!("{}", inst.schema.universe().len()),
            format!("{}", inst.schema.len()),
            format!("{}", inst.fds.len()),
            "NOT independent".into(),
            fmt_duration(d),
        ]);
    }
    rep.table(
        "E1 — independence decision scaling (claim: polynomial; Corollary §4)",
        &["family", "|U|", "|D|", "|F|", "verdict", "analyze time"],
        &rows,
    );
    let ratios: Vec<String> = ids_bench::growth_ratios(&times)
        .iter()
        .map(|r| format!("{r:.1}x"))
        .collect();
    rep.note(format!(
        "key-chain time growth per size doubling: {} (polynomial: bounded ratios)",
        ratios.join(", ")
    ));
}

/// E2 — maintenance throughput: local Fi checks vs whole-state re-chase.
fn e2_maintenance(smoke: bool, rep: &mut Reporter) {
    let inst = registrar();
    let analysis = analyze(&inst.schema, &inst.fds);
    let mut rows = Vec::new();
    let n_ops = if smoke { 40 } else { 400 };
    for preload in sweep(&[100, 300, 1_000, 3_000], smoke) {
        // Preload a satisfying state.
        let base = random_satisfying_state(&inst.schema, &inst.fds, preload, 64, 1);
        let ops = insert_stream(&inst.schema, n_ops, 64, 2);

        let mut local =
            LocalMaintainer::from_analysis(&inst.schema, &analysis, base.clone()).unwrap();
        let t0 = Instant::now();
        let mut accepted = 0usize;
        for op in &ops {
            if local.insert(op.scheme, op.tuple.clone()).unwrap() == InsertOutcome::Accepted {
                accepted += 1;
            }
        }
        let local_t = t0.elapsed();

        let mut fd_only = FdOnlyMaintainer::new(&inst.schema, &inst.fds, base.clone());
        let fd_ops = &ops[..100.min(ops.len())];
        let t2 = Instant::now();
        for op in fd_ops {
            let _ = fd_only.insert(op.scheme, op.tuple.clone()).unwrap();
        }
        let fd_t = t2.elapsed();

        let mut chaser = ChaseMaintainer::new(
            &inst.schema,
            &inst.fds,
            base,
            ChaseConfig {
                max_rows: 2_000_000,
                max_passes: 10_000,
            },
        );
        let chase_ops = &ops[..100.min(ops.len())];
        let t1 = Instant::now();
        for op in chase_ops {
            let _ = chaser.insert(op.scheme, op.tuple.clone()).unwrap();
        }
        let chase_t = t1.elapsed();

        let local_per = local_t.as_secs_f64() / ops.len() as f64;
        let fd_per = fd_t.as_secs_f64() / fd_ops.len() as f64;
        let chase_per = chase_t.as_secs_f64() / chase_ops.len() as f64;
        rows.push(vec![
            format!("{preload}"),
            format!("{accepted}/{}", ops.len()),
            fmt_duration(std::time::Duration::from_secs_f64(local_per)),
            fmt_duration(std::time::Duration::from_secs_f64(fd_per)),
            fmt_duration(std::time::Duration::from_secs_f64(chase_per)),
            format!("{:.0}x", chase_per / local_per),
        ]);
    }
    rep.table(
        "E2 — maintenance per insert, registrar schema (claim: independent ⇒ local check suffices, §1/§3)",
        &["preloaded tuples", "accepted", "local/insert", "fd-only chase/insert", "full chase/insert", "full/local speedup"],
        &rows,
    );
}

/// E3 — Theorem 1: the general maintenance wall.
fn e3_np_gadget(smoke: bool, rep: &mut Reporter) {
    // Hub family: D0 = {H·A1, .., H·Ak}, r = m universal tuples sharing H.
    // The projected join has m^k tuples; the brute-force solver and the
    // chase both hit exponential work, while the independent control
    // schema answers each insert in O(1).
    let mut rows = Vec::new();
    for k in sweep(&[3, 4, 5, 6], smoke) {
        let m = 2u64;
        let mut names = vec!["H".to_string()];
        for i in 1..=k {
            names.push(format!("A{i}"));
        }
        let u0 = Universe::from_names(names.iter().map(String::as_str)).unwrap();
        let mut r = Relation::new(u0.all());
        for row_idx in 0..m {
            let mut row = vec![Value::int(0)]; // shared hub value
            for i in 0..k {
                row.push(Value::int(10 + row_idx * k as u64 + i as u64));
            }
            r.insert(row).unwrap();
        }
        let components: Vec<AttrSet> = (1..=k)
            .map(|i| {
                let mut c = AttrSet::singleton(AttrId::from_index(0));
                c.insert(AttrId::from_index(i));
                c
            })
            .collect();
        // Ask for a combination mixing both rows at every position — in
        // the join (all combinations share H=0), so the gadget's insert
        // must be rejected, which requires exploring the join.
        let x: AttrSet = (1..=k).map(AttrId::from_index).collect();
        let t: Vec<Value> = (0..k)
            .map(|i| Value::int(10 + (i as u64 % m) * k as u64 + i as u64))
            .collect();
        let inst = JoinMembershipInstance {
            r,
            components,
            x,
            t,
        };

        let t0 = Instant::now();
        let in_join = tuple_in_projected_join(&inst);
        let solve_t = t0.elapsed();

        let g = theorem1_reduction(&u0, &inst);
        let mut p_prime = g.base.clone();
        p_prime
            .insert(g.insert_scheme, g.insert_tuple.clone())
            .unwrap();
        let cfg = ChaseConfig {
            max_rows: 300_000,
            max_passes: 10_000,
        };
        let t1 = Instant::now();
        let verdict = ids_chase::satisfies(&g.schema, &g.fds, &p_prime, &cfg);
        let chase_t = t1.elapsed();
        let chase_outcome = match verdict {
            Ok(s) => yn(s.is_satisfying()),
            Err(_) => "budget!".into(),
        };

        // Independent control: key-chain of the same universe size.
        let control = key_chain(k);
        let c_analysis = analyze(&control.schema, &control.fds);
        let mut local = LocalMaintainer::from_analysis(
            &control.schema,
            &c_analysis,
            DatabaseState::empty(&control.schema),
        )
        .unwrap();
        let ops = insert_stream(&control.schema, if smoke { 20 } else { 200 }, 8, 3);
        let t2 = Instant::now();
        for op in &ops {
            let _ = local.insert(op.scheme, op.tuple.clone()).unwrap();
        }
        let local_per = t2.elapsed() / ops.len() as u32;

        rows.push(vec![
            format!("{k}"),
            format!("{}", 1u64 << k),
            yn(in_join),
            fmt_duration(solve_t),
            chase_outcome,
            fmt_duration(chase_t),
            fmt_duration(local_per),
        ]);
    }
    rep.table(
        "E3 — Theorem 1 gadget: general maintenance explodes with the join (m=2 rows, k hub components)",
        &[
            "k",
            "join size 2^k",
            "t in join",
            "brute-force",
            "p' satisfies",
            "chase check",
            "indep. control/insert",
        ],
        &rows,
    );
}

/// E4 — the embedded cover H: existence, extraction cost, |H| ≤ |F|·|U|.
fn e4_cover_size(smoke: bool, rep: &mut Reporter) {
    let mut rows = Vec::new();
    let mut checked = 0usize;
    for seed in 0..if smoke { 20u64 } else { 200 } {
        let params = SchemaParams {
            attrs: 12,
            schemes: 5,
            max_scheme_size: 5,
        };
        let schema = random_schema(params, seed);
        let fds = random_embedded_fds(&schema, 8, 2, seed * 3 + 1);
        if fds.is_empty() {
            continue;
        }
        let t0 = Instant::now();
        let result = ids_core::test_cover_embedding(&schema, &fds);
        let t = t0.elapsed();
        if let CoverEmbedding::Embedded { cover } = &result {
            checked += 1;
            if checked <= 8 {
                let bound = fds.len() * schema.universe().len();
                rows.push(vec![
                    format!("seed {seed}"),
                    format!("{}", fds.len()),
                    format!("{}", schema.universe().len()),
                    format!("{}", cover.len()),
                    format!("{bound}"),
                    yn(cover.len() <= bound),
                    fmt_duration(t),
                ]);
            }
            assert!(cover.len() <= fds.len() * schema.universe().len());
        }
    }
    rep.table(
        "E4 — embedded cover extraction (claim: |H| ≤ |F|·|U|, §3)",
        &[
            "instance",
            "|F|",
            "|U|",
            "|H|",
            "|F|·|U|",
            "bound holds",
            "time",
        ],
        &rows,
    );
    rep.note(format!(
        "bound verified on {checked} random cover-embedding instances"
    ));
}

/// E5 — chase cost: acyclic vs cyclic schemas of the same size.
fn e5_acyclic_vs_cyclic(smoke: bool, rep: &mut Reporter) {
    let mut rows = Vec::new();
    for k in sweep(&[3, 4, 5], smoke) {
        for tuples in sweep(&[10, 30], smoke) {
            // Acyclic chain A0..Ak and cyclic ring on the same attributes.
            let names: Vec<String> = (0..=k).map(|i| format!("A{i}")).collect();
            let u = Universe::from_names(names.iter().map(String::as_str)).unwrap();
            let chain_specs: Vec<(String, String)> = (0..k)
                .map(|i| (format!("R{i}"), format!("A{i} A{}", i + 1)))
                .collect();
            let chain_refs: Vec<(&str, &str)> = chain_specs
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            let chain = DatabaseSchema::parse(u.clone(), &chain_refs).unwrap();
            let mut ring_specs = chain_specs.clone();
            ring_specs.push((format!("R{k}"), format!("A{k} A0")));
            let ring_refs: Vec<(&str, &str)> = ring_specs
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            let ring = DatabaseSchema::parse(u, &ring_refs).unwrap();

            let fds = FdSet::new();
            let cfg = ChaseConfig {
                max_rows: 200_000,
                max_passes: 1_000,
            };
            // Same random (locally plausible) data in both: small domain to
            // force mixing.
            let mk_state = |schema: &DatabaseSchema| {
                ids_workloads::states::random_locally_satisfying_state(schema, &fds, tuples, 4, 7)
            };
            let p_chain = mk_state(&chain);
            let p_ring = mk_state(&ring);

            let t_chain = time_median(3, || {
                let _ = std::hint::black_box(ids_chase::satisfies(&chain, &fds, &p_chain, &cfg));
            });
            let t_ring = time_median(3, || {
                let _ = std::hint::black_box(ids_chase::satisfies(&ring, &fds, &p_ring, &cfg));
            });
            let acyclic_fast = {
                use ids_acyclic::{full_reduce, is_pairwise_consistent, join_tree};
                let tree = join_tree(&chain.join_dependency_components()).unwrap();
                time_median(3, || {
                    let mut q = p_chain.clone();
                    full_reduce(&mut q, &tree);
                    std::hint::black_box(is_pairwise_consistent(&q));
                })
            };
            rows.push(vec![
                format!("{k}"),
                format!("{tuples}"),
                yn(ids_acyclic::is_acyclic(&chain.join_dependency_components())),
                fmt_duration(t_chain),
                fmt_duration(acyclic_fast),
                yn(ids_acyclic::is_acyclic(&ring.join_dependency_components())),
                fmt_duration(t_ring),
            ]);
        }
    }
    rep.table(
        "E5 — chase vs acyclic fast path (claim: acyclic schemes are polynomial, remark after Thm 1)",
        &[
            "k",
            "tuples/rel",
            "chain acyclic",
            "chain chase",
            "chain reducer+pairwise",
            "ring acyclic",
            "ring chase",
        ],
        &rows,
    );
}

/// E6 — ablations: block closure vs explicit chase; indexed vs scan
/// maintenance.
fn e6_ablations(smoke: bool, rep: &mut Reporter) {
    // (i) [MSY] block closure vs the explicit two-row FD+JD chase.
    let mut rows = Vec::new();
    for n in sweep(&[4, 6, 8, 10, 12], smoke) {
        let names: Vec<String> = (0..n).map(|i| format!("A{i}")).collect();
        let _u = Universe::from_names(names.iter().map(String::as_str)).unwrap();
        // Ring JD (worst case for the explicit chase's mixes).
        let comps: Vec<AttrSet> = (0..n)
            .map(|i| {
                let mut c = AttrSet::singleton(AttrId::from_index(i));
                c.insert(AttrId::from_index((i + 1) % n));
                c
            })
            .collect();
        let jd = JoinDependency::new(comps);
        let mut fds = FdSet::new();
        for i in 0..n / 2 {
            fds.insert(Fd::new(
                AttrSet::singleton(AttrId::from_index(i)),
                AttrSet::singleton(AttrId::from_index(n - 1 - i)),
            ));
        }
        let x = AttrSet::singleton(AttrId::from_index(0));
        let t_block = time_median(9, || {
            std::hint::black_box(closure_with_jd(fds.as_slice(), &jd, x));
        });
        let cfg = ChaseConfig {
            max_rows: 2_000_000,
            max_passes: 1_000,
        };
        let target = Fd::new(x, AttrSet::singleton(AttrId::from_index(n - 1)));
        let t0 = Instant::now();
        let explicit =
            fd_implied_explicit(fds.as_slice(), std::slice::from_ref(&jd), target, n, &cfg);
        let t_chase = t0.elapsed();
        let agree = match explicit {
            Ok(b) => yn(
                b == closure_with_jd(fds.as_slice(), &jd, x).contains(AttrId::from_index(n - 1))
            ),
            Err(_) => "budget!".into(),
        };
        rows.push(vec![
            format!("{n}"),
            fmt_duration(t_block),
            fmt_duration(t_chase),
            agree,
        ]);
    }
    rep.table(
        "E6a — FD+JD inference: polynomial block closure vs explicit chase (ring JD)",
        &["|U|", "block closure", "explicit chase", "agree"],
        &rows,
    );

    // (ii) maintenance: hash-indexed Fi checks vs re-scanning the relation.
    let inst = registrar();
    let analysis = analyze(&inst.schema, &inst.fds);
    let Verdict::Independent { enforcement } = &analysis.verdict else {
        unreachable!("registrar is independent");
    };
    let mut rows = Vec::new();
    for preload in sweep(&[100, 1_000, 10_000], smoke) {
        let base = random_satisfying_state(&inst.schema, &inst.fds, preload, 128, 11);
        let ops = insert_stream(&inst.schema, if smoke { 50 } else { 500 }, 128, 12);

        let mut indexed =
            LocalMaintainer::from_analysis(&inst.schema, &analysis, base.clone()).unwrap();
        let t0 = Instant::now();
        for op in &ops {
            let _ = indexed.insert(op.scheme, op.tuple.clone()).unwrap();
        }
        let t_indexed = t0.elapsed() / ops.len() as u32;

        // Scan variant: tentative insert + full satisfies_fd scan.
        let mut state = base;
        let t1 = Instant::now();
        for op in &ops {
            state.insert(op.scheme, op.tuple.clone()).unwrap();
            let fi = &enforcement[op.scheme.index()];
            let rel = state.relation(op.scheme);
            let ok = fi.iter().all(|fd| rel.satisfies_fd(fd.lhs, fd.rhs));
            if !ok {
                state.relation_mut(op.scheme).remove(&op.tuple);
            }
        }
        let t_scan = t1.elapsed() / ops.len() as u32;
        rows.push(vec![
            format!("{preload}"),
            fmt_duration(t_indexed),
            fmt_duration(t_scan),
            format!(
                "{:.1}x",
                t_scan.as_secs_f64() / t_indexed.as_secs_f64().max(1e-12)
            ),
        ]);
    }
    rep.table(
        "E6b — local maintenance: hash index vs per-insert relation scan",
        &[
            "preloaded tuples",
            "indexed/insert",
            "scan/insert",
            "speedup",
        ],
        &rows,
    );

    // (iii) sanity: every verdict in the example set matches the paper.
    let mut ok = 0;
    let mut total = 0;
    for e in all_examples() {
        total += 1;
        let a = analyze(&e.schema, &e.fds);
        if a.is_independent() == e.expect_independent {
            ok += 1;
        }
        if let Some(w) = a.witness() {
            assert!(verify_witness(&e.schema, &e.fds, &w.state, &ChaseConfig::default()).unwrap());
        }
    }
    rep.note(format!(
        "\nverdict agreement across the example corpus: {ok}/{total}"
    ));
}

/// E7 — concurrent store throughput: N caller threads on N disjoint
/// sets of relations never meet (sound by Theorem 3), vs the
/// single-threaded local engine.
fn e7_store_throughput(smoke: bool, rep: &mut Reporter) {
    use ids_bench::throughput::{available_cpus, sweep, workload_sizes};
    let (relations, preload, _) = workload_sizes(smoke);
    let sweep = sweep(smoke);
    let one_caller = sweep[1].speedup;
    let rows: Vec<Vec<String>> = sweep
        .into_iter()
        .map(|r| {
            vec![
                r.engine.to_string(),
                format!("{}", r.callers),
                format!("{}", r.ops),
                fmt_duration(r.elapsed),
                format!("{:.2} Mops/s", r.ops_per_sec / 1e6),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    rep.table(
        &format!(
            "E7 — store throughput, key-chain({relations}), preload {preload} \
             (claim: independence ⇒ callers on disjoint relations never meet, Thm 3)"
        ),
        &["engine", "callers", "ops", "time", "throughput", "speedup"],
        &rows,
    );
    rep.note(format!(
        "1-caller store vs local: {one_caller:.2}x (the store's whole per-op overhead: \
         batch grouping, lock scopes, outcome vectors); host CPUs: {} (caller overlap is \
         capped by this — on 1 CPU the multi-caller rows can only match the 1-caller row)",
        available_cpus()
    ));
}

/// E8 — per-relation barrier-free read vs full snapshot: the API payoff
/// of independence (a read touches one shard, a snapshot all of them).
fn e8_read_vs_snapshot(smoke: bool, rep: &mut Reporter) {
    use ids_bench::reads::sweep;
    use ids_bench::throughput::available_cpus;
    let rows: Vec<Vec<String>> = sweep(smoke)
        .into_iter()
        .map(|r| {
            vec![
                format!("{}", r.relations),
                format!("{}", r.preloaded),
                fmt_duration(r.read),
                fmt_duration(r.snapshot),
                format!("{:.1}x", r.snapshot_over_read),
            ]
        })
        .collect();
    rep.table(
        "E8 — one-relation read(R) vs whole-store snapshot(), key-chain stores \
         (claim: independence ⇒ sound shard-local reads)",
        &[
            "relations",
            "preloaded tuples",
            "read(R)",
            "snapshot()",
            "snapshot/read",
        ],
        &rows,
    );
    rep.note(format!(
        "host CPUs: {} (the read advantage comes from touching 1/n of the \
         data and 1 shard, so it holds even at 1 CPU)",
        available_cpus()
    ));
}

/// E9 — durability: write-ahead-logged throughput vs in-memory, and
/// recovery time.  The per-relation log (sound by Theorem 3: every
/// accepted op is a local decision) is the paper's locality claim as a
/// durability subsystem.
fn e9_durability(smoke: bool, rep: &mut Reporter) {
    use ids_bench::durability::sweep;
    use ids_bench::throughput::{available_cpus, workload_sizes};
    let (relations, preload, _) = workload_sizes(smoke);
    let (rows, recovery) = sweep(smoke);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                format!("{}", r.ops),
                fmt_duration(r.elapsed),
                format!("{:.2} Mops/s", r.ops_per_sec / 1e6),
                format!("{:.2}x", r.overhead),
            ]
        })
        .collect();
    rep.table(
        &format!(
            "E9 — durable store overhead, key-chain({relations}), preload {preload} \
             (claim: per-relation WAL ⇒ group-committed logging stays ~2x of memory)"
        ),
        &["mode", "ops", "time", "throughput", "overhead vs memory"],
        &table,
    );
    rep.note(format!(
        "recovery: {} records replayed through probe/commit in {} \
         ({:.2} Mrec/s, {} tuples recovered)",
        recovery.records,
        fmt_duration(recovery.elapsed),
        recovery.records_per_sec / 1e6,
        recovery.tuples
    ));
    rep.note(format!(
        "host CPUs: {} (logging cost is per relation, paid inside its lock \
         scope; fsync cadence is the lever, see SyncPolicy)",
        available_cpus()
    ));
}

/// E10 — query pushdown: indexed point lookup on the owning shard vs
/// `read`+client-side filter vs full snapshot.  The read-side payoff of
/// independence *plus* pushdown: the shard answers key lookups in O(1)
/// from its enforcement hash index and ships only the matching tuples.
fn e10_query_pushdown(smoke: bool, rep: &mut Reporter) {
    use ids_bench::queries::sweep;
    use ids_bench::throughput::available_cpus;
    let rows: Vec<Vec<String>> = sweep(smoke)
        .into_iter()
        .map(|r| {
            vec![
                format!("{}", r.relations),
                format!("{}", r.per_relation),
                fmt_duration(r.pushed),
                fmt_duration(r.read_filter),
                fmt_duration(r.snapshot_filter),
                format!("{:.0}x", r.speedup),
                format!("{:.2}", r.shipped_pushed),
                format!("{}", r.shipped_read as usize),
            ]
        })
        .collect();
    rep.table(
        "E10 — pushed-down point query vs read+filter vs snapshot, key-chain stores \
         (claim: enforcement indexes double as O(1) read indexes; only matches ship)",
        &[
            "relations",
            "tuples/relation",
            "pushed query",
            "read+filter",
            "snapshot+filter",
            "pushed speedup",
            "tuples shipped/query",
            "tuples shipped/read",
        ],
        &rows,
    );
    rep.note(format!(
        "host CPUs: {} (the pushdown advantage is index-vs-scan plus \
         shipped-bytes, so it holds even at 1 CPU)",
        available_cpus()
    ));
}

/// E11 — the TCP front-end: pipelined loopback fleets, then deliberate
/// overload against a bounded per-connection backlog.  The structural
/// claims (every request answered exactly once, sheds typed, sessions
/// alive afterwards) are asserted inside the kernel itself.
fn e11_network_front_end(smoke: bool, rep: &mut Reporter) {
    use ids_bench::net::{overload_sweep, sweep};
    use ids_bench::throughput::available_cpus;
    let rows: Vec<Vec<String>> = sweep(smoke)
        .into_iter()
        .map(|r| {
            vec![
                format!("{}", r.clients),
                format!("{}", r.per_client),
                format!("{}", r.window),
                fmt_duration(r.elapsed),
                format!("{:.0}", r.ops_per_sec),
            ]
        })
        .collect();
    rep.table(
        "E11a — pipelined insert throughput over TCP loopback, one session per client, \
         key-chain relations (claim: the network layer adds plumbing, not coordination — \
         shards never synchronize across connections)",
        &[
            "clients",
            "inserts/client",
            "window",
            "elapsed",
            "ops/s (fleet)",
        ],
        &rows,
    );
    let rows: Vec<Vec<String>> = overload_sweep(smoke)
        .into_iter()
        .map(|r| {
            vec![
                format!("{}", r.clients),
                format!("{}", r.queue_depth),
                format!("{}", r.clients * r.burst),
                format!("{}", r.served),
                format!("{}", r.shed),
                fmt_duration(r.elapsed),
            ]
        })
        .collect();
    rep.table(
        "E11b — deliberate overload: full-scan bursts against a bounded per-connection backlog \
         (claim: graceful degradation — excess requests shed with typed Overloaded replies, \
         accepted work completes, every session answers a ping afterwards)",
        &[
            "clients",
            "backlog bound",
            "requests",
            "served",
            "shed (typed)",
            "elapsed",
        ],
        &rows,
    );
    rep.note(format!(
        "host CPUs: {} (absolute ops/s measures the protocol stack at 1 CPU; the \
         conservation and typed-shed invariants are asserted in the kernel and hold anywhere)",
        available_cpus()
    ));
}

/// E12 — observability overhead + conservation: the E7 insert kernel
/// with recording on vs off (claim: per-shard relaxed atomics flushed
/// once per batch cost nothing measurable), plus the conservation
/// invariants — store counter totals == acknowledged outcomes, server
/// served+shed == burst — asserted inside the kernels.
fn e12_observability_overhead(smoke: bool, rep: &mut Reporter) {
    use ids_bench::net::overload_burst;
    use ids_bench::obs::{conservation_check, overhead_sweep};
    use ids_bench::throughput::available_cpus;

    let reps = if smoke { 2 } else { 5 };
    let (on, off, ratio) = overhead_sweep(smoke, reps, 3, 1.05);
    let rows: Vec<Vec<String>> = [&on, &off]
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                format!("{}", r.ops),
                fmt_duration(r.elapsed),
                format!("{:.2} Mops/s", r.ops_per_sec / 1e6),
            ]
        })
        .collect();
    rep.table(
        "E12a — insert-kernel cost of recording, store with 1 caller, best of N \
         (claim: metrics are zero-cost — per-shard relaxed atomics, one flush per batch)",
        &["mode", "ops", "time", "throughput"],
        &rows,
    );
    rep.note(format!(
        "on/off ratio: {ratio:.3} (target ≤ 1.05; within scheduler noise)"
    ));
    if !smoke {
        assert!(
            ratio <= 1.05,
            "instrumentation overhead {ratio:.3} exceeds the 5% budget"
        );
    }

    let c = conservation_check(smoke);
    let burst = if smoke {
        overload_burst(2, 48, 256, 1)
    } else {
        overload_burst(4, 200, 4000, 1)
    };
    rep.table(
        "E12b — conservation: counters are the acknowledged events, not parallel bookkeeping \
         (store totals == outcome tallies; server served+shed == burst; asserted in-kernel)",
        &["check", "measured"],
        &[
            vec![
                format!("store: {} ops over {} relations", c.ops, c.relations),
                format!(
                    "accepted {} + duplicate {} + rejected {} (+ removed {}) == acks",
                    c.accepted, c.duplicate, c.rejected, c.removed
                ),
            ],
            vec![
                format!(
                    "server: {} queries burst at backlog bound {}",
                    burst.clients * burst.burst,
                    burst.queue_depth
                ),
                format!(
                    "served {} + shed {} == {} (server counters agree)",
                    burst.counter_served,
                    burst.counter_shed,
                    burst.clients * burst.burst
                ),
            ],
        ],
    );
    rep.note(format!(
        "host CPUs: {} (the overhead claim is per-batch arithmetic, so it \
         holds at any CPU count; the ratio is best-of-{reps} to cut scheduler noise)",
        available_cpus()
    ));
}

/// E13 — read-replica scaling: N embedded followers serving a
/// read-mostly shape vs the primary's wire front door, under a
/// sustained write stream (claim: log shipping turns a point read into
/// a local function call at the price of bounded, recoverable lag).
/// Conservation and exact-hit invariants are asserted in the kernel.
fn e13_read_replica_scaling(smoke: bool, rep: &mut Reporter) {
    use ids_bench::replica::sweep;
    use ids_bench::throughput::available_cpus;
    let results = sweep(smoke);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                if r.replicas == 0 {
                    "primary (wire)".into()
                } else {
                    format!("{} replica(s)", r.replicas)
                },
                format!("{}", r.readers),
                format!("{}", r.reads),
                format!("{}", r.writes),
                fmt_duration(r.elapsed),
                format!("{:.0}", r.reads_per_sec),
                format!("{}", r.backlog),
                format!("{}", r.final_lag),
                yn(r.caught_up),
            ]
        })
        .collect();
    rep.table(
        "E13 — read scaling: point reads served by N embedded followers vs the primary's \
         TCP front door, read-mostly shape, sustained write stream on the primary \
         (claim: per-relation log shipping makes follower reads local and contention-free; \
         lag stays finite and drains to zero once writes stop)",
        &[
            "configuration",
            "readers",
            "reads",
            "writes streamed",
            "elapsed",
            "reads/s (aggregate)",
            "backlog at stop (records)",
            "final lag",
            "caught up",
        ],
        &rows,
    );
    for r in &results {
        if r.replicas == 0 {
            continue;
        }
        // Downsample the absorption trace to a dozen points.
        let step = (r.absorbed_series.len() / 12).max(1);
        let trace: Vec<String> = r
            .absorbed_series
            .iter()
            .step_by(step)
            .map(|l| l.to_string())
            .collect();
        rep.note(format!(
            "lag over time ({} replica(s), follower 0): [{}] records absorbed per 64-op \
             poll; backlog when reads stopped: {}; after the write stream stopped: {} \
             (caught-up events: {})",
            r.replicas,
            trace.join(", "),
            r.backlog,
            r.final_lag,
            r.caught_up_events,
        ));
    }
    for r in &results {
        assert!(
            r.caught_up,
            "every follower must catch up after writes stop"
        );
        assert_eq!(r.final_lag, 0, "drained lag must be zero");
    }
    if !smoke {
        let baseline = results
            .iter()
            .find(|r| r.replicas == 0)
            .expect("baseline row");
        let two = results
            .iter()
            .find(|r| r.replicas == 2)
            .expect("2-replica row");
        assert!(
            two.reads_per_sec > baseline.reads_per_sec,
            "2-replica aggregate ({:.0}/s) must beat the wire baseline ({:.0}/s)",
            two.reads_per_sec,
            baseline.reads_per_sec
        );
    }
    rep.note(format!(
        "host CPUs: {} (the follower advantage is read-path length — in-process query vs \
         TCP round trip — plus zero write contention, so it holds even at 1 CPU; lag \
         recoverability is asserted for every row)",
        available_cpus()
    ));
}

/// E14 — planned acyclic joins: the Yannakakis-style planner in
/// `ids-api` (semijoin reducers from a filter on one relation) vs the
/// pre-planner strategy of reading every joined relation whole and
/// folding client-side (claim: on an acyclic relation set the engine
/// ships O(answer) tuples instead of O(database)).
fn e14_planned_joins(smoke: bool, rep: &mut Reporter) {
    use ids_bench::joins::sweep;
    use ids_bench::throughput::available_cpus;
    let results = sweep(smoke);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.n),
                format!("{}", r.k),
                yn(r.planner_ran),
                fmt_duration(r.planned),
                fmt_duration(r.naive),
                format!("{:.1}x", r.speedup),
                format!("{}", r.shipped_planned),
                format!("{}", r.keys_planned),
                format!("{}", r.shipped_naive),
                format!(
                    "{:.0}x",
                    r.shipped_naive as f64 / (r.shipped_planned as f64).max(1.0)
                ),
            ]
        })
        .collect();
    rep.table(
        "E14 — planned acyclic join (R1⋈R2⋈R3 chain, range filter on R1.a, ordered index) \
         vs whole-relation reads + client-side fold \
         (claim: semijoin reducers ship O(answer), the fold ships O(database))",
        &[
            "tuples/relation",
            "answer rows",
            "planner ran",
            "planned",
            "read+fold",
            "speedup",
            "tuples shipped (planned)",
            "reducer keys shipped",
            "tuples shipped (fold)",
            "shipping ratio",
        ],
        &rows,
    );
    for r in &results {
        assert!(r.planner_ran, "the chain is acyclic: the planner must run");
    }
    if !smoke {
        for r in &results {
            assert!(
                r.shipped_naive >= 10 * r.shipped_planned,
                "planned shipping must beat the fold ≥10x (got {} vs {})",
                r.shipped_planned,
                r.shipped_naive
            );
        }
    }
    rep.note(format!(
        "host CPUs: {} (the gap is shipped-tuples and index-vs-scan, not parallelism, \
         so it holds even at 1 CPU; the ≥10x shipping ratio is asserted per row)",
        available_cpus()
    ));
}

/// E15 — online schema evolution: write throughput on an untouched
/// relation with and without continuous `ALTER` churn (add-FD with a
/// real backfill, drop-FD, add-relation, drop-relation) on the rest of
/// the schema (claim: transitions re-analyze, backfill, and swap
/// without stalling shards they do not touch).
fn e15_online_evolution(smoke: bool, rep: &mut Reporter) {
    use ids_bench::evolve::sweep;
    use ids_bench::throughput::available_cpus;
    let report = sweep(smoke);
    let rows: Vec<Vec<String>> = [&report.baseline, &report.churn]
        .iter()
        .map(|r| {
            vec![
                r.phase.to_string(),
                format!("{}", r.writes),
                fmt_duration(r.elapsed),
                format!("{:.0}", r.writes_per_sec),
                format!("{}", r.alters),
                format!("{}", r.backfills),
                format!("{}", r.backfill_tuples),
                format!("{}", r.final_generation),
            ]
        })
        .collect();
    rep.table(
        "E15 — online schema evolution: hot-relation write stream, no alters vs \
         continuous alter churn on the other relations \
         (claim: the untouched shard keeps ≥0.8x of its baseline throughput)",
        &[
            "phase",
            "hot writes",
            "elapsed",
            "writes/s",
            "alters accepted",
            "backfills",
            "tuples re-validated",
            "final generation",
        ],
        &rows,
    );
    rep.note(format!(
        "untouched-shard throughput ratio: {:.2}x of baseline across {} accepted \
         transitions (every add-FD paid a full backfill scan of the warm relation)",
        report.ratio, report.churn.alters
    ));
    assert!(
        report.churn.alters >= 4,
        "churn must complete at least one full transition cycle"
    );
    if !smoke {
        assert!(
            report.ratio >= 0.8,
            "untouched-shard throughput fell below 0.8x of baseline ({:.2}x)",
            report.ratio
        );
    }
    rep.note(format!(
        "host CPUs: {} (the churn thread competes for the same cores, so the ratio is \
         conservative on small hosts; the structural claim — every hot write landed while \
         the schema changed generations — is asserted inside the kernel)",
        available_cpus()
    ));
}

fn yn(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}
