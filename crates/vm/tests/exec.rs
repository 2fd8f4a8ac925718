//! End-to-end VM tests: baseline/instrumented semantic equivalence and
//! the spatial-safety detections the paper's design promises.

use ifp_compiler::{Operand, Program, ProgramBuilder};
use ifp_vm::{run, AllocatorKind, Mode, StepOutcome, VmConfig, VmError};

fn all_modes() -> Vec<Mode> {
    vec![
        Mode::Baseline,
        Mode::instrumented(AllocatorKind::Wrapped),
        Mode::instrumented(AllocatorKind::Subheap),
        Mode::Instrumented {
            allocator: AllocatorKind::Wrapped,
            no_promote: true,
        },
        Mode::Instrumented {
            allocator: AllocatorKind::Subheap,
            no_promote: true,
        },
    ]
}

fn run_mode(p: &Program, mode: Mode) -> Result<ifp_vm::RunResult, VmError> {
    run(p, &VmConfig::with_mode(mode))
}

/// Builds a linked-list workout: push `n` nodes, sum them, free them.
fn list_program_n(n: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let i64t = pb.types.int64();
    let vp = pb.types.void_ptr();
    let node = pb.types.struct_type("Node", &[("val", i64t), ("next", vp)]);

    let mut f = pb.func("main", 0);
    let head = f.mov(0i64);
    let i = f.mov(0i64);
    let (build_hdr, build_body, sum_init) = (f.new_block(), f.new_block(), f.new_block());
    let (sum_hdr, sum_body, free_init) = (f.new_block(), f.new_block(), f.new_block());
    let (free_hdr, free_body, done) = (f.new_block(), f.new_block(), f.new_block());
    f.jmp(build_hdr);

    f.switch_to(build_hdr);
    let c = f.lt(i, n);
    f.br(c, build_body, sum_init);

    f.switch_to(build_body);
    let n = f.malloc(node);
    f.store_field(n, node, 0, i, i64t);
    f.store_field(n, node, 1, head, vp);
    f.assign(head, n);
    let i2 = f.add(i, 1i64);
    f.assign(i, i2);
    f.jmp(build_hdr);

    f.switch_to(sum_init);
    let sum = f.mov(0i64);
    let cur = f.mov(head);
    f.jmp(sum_hdr);

    f.switch_to(sum_hdr);
    let alive = f.ne(cur, 0i64);
    f.br(alive, sum_body, free_init);

    f.switch_to(sum_body);
    let v = f.load_field(cur, node, 0, i64t);
    let s2 = f.add(sum, v);
    f.assign(sum, s2);
    let nx = f.load_field(cur, node, 1, vp);
    f.assign(cur, nx);
    f.jmp(sum_hdr);

    f.switch_to(free_init);
    let cur2 = f.mov(head);
    f.jmp(free_hdr);

    f.switch_to(free_hdr);
    let alive2 = f.ne(cur2, 0i64);
    f.br(alive2, free_body, done);

    f.switch_to(free_body);
    let nx2 = f.load_field(cur2, node, 1, vp);
    f.free(cur2);
    f.assign(cur2, nx2);
    f.jmp(free_hdr);

    f.switch_to(done);
    f.print_int(sum);
    f.ret(Some(Operand::Imm(0)));
    pb.finish_func(f);
    pb.build()
}

#[test]
fn all_modes_agree_on_list_program() {
    let p = list_program();
    let expected: i64 = (0..50).sum();
    for mode in all_modes() {
        let r = run_mode(&p, mode).unwrap_or_else(|e| panic!("{mode}: {e}"));
        assert_eq!(r.output, vec![expected], "mode {mode}");
    }
}

#[test]
fn instrumented_runs_cost_more_instructions() {
    let p = list_program();
    let base = run_mode(&p, Mode::Baseline).unwrap();
    // The wrapped configuration strictly adds instructions; the subheap
    // configuration adds IFP instructions but its faster allocator can win
    // back base instructions (the paper's treeadd/perimeter effect).
    let wrapped = run_mode(&p, Mode::instrumented(AllocatorKind::Wrapped)).unwrap();
    assert!(wrapped.stats.total_instrs() > base.stats.total_instrs());
    for mode in [
        Mode::instrumented(AllocatorKind::Wrapped),
        Mode::instrumented(AllocatorKind::Subheap),
    ] {
        let r = run_mode(&p, mode).unwrap();
        assert!(r.stats.ifp_instrs() > 0, "{mode}");
        assert!(r.stats.promotes.total > 0);
        assert_eq!(r.stats.heap_objects.objects, 50);
    }
}

#[test]
fn list_traversal_promotes_count_null_bypasses() {
    // The final `next` of the list is NULL: promoted once per traversal.
    let p = list_program();
    let r = run_mode(&p, Mode::instrumented(AllocatorKind::Subheap)).unwrap();
    assert!(r.stats.promotes.null_bypass >= 2, "sum + free traversals");
    assert!(
        r.stats.promotes.valid >= 98,
        "49 non-null nexts per traversal"
    );
}

/// malloc(10 * int); write a[i] with runtime i = 10.
fn heap_overflow_program(idx: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let i32t = pb.types.int32();
    let mut f = pb.func("main", 0);
    let a = f.malloc_n(i32t, 10i64);
    let i = f.mov(idx); // runtime value, defeats static checking
    let p = f.index_addr(a, i32t, i);
    f.store(p, 7i64, i32t);
    let q = f.index_addr(a, i32t, 3i64);
    let v = f.load(q, i32t);
    f.print_int(v);
    f.free(a);
    f.ret(Some(Operand::Imm(0)));
    pb.finish_func(f);
    pb.build()
}

#[test]
fn heap_overflow_detected_by_both_allocators() {
    let p = heap_overflow_program(10);
    assert!(run_mode(&p, Mode::Baseline).is_ok(), "baseline misses it");
    for alloc in [AllocatorKind::Wrapped, AllocatorKind::Subheap] {
        let err = run_mode(&p, Mode::instrumented(alloc)).unwrap_err();
        assert!(err.is_safety_trap(), "{alloc}: {err}");
    }
}

#[test]
fn heap_underwrite_detected() {
    let p = heap_overflow_program(-1);
    for alloc in [AllocatorKind::Wrapped, AllocatorKind::Subheap] {
        let err = run_mode(&p, Mode::instrumented(alloc)).unwrap_err();
        assert!(err.is_safety_trap(), "{alloc}: {err}");
    }
}

#[test]
fn in_bounds_dynamic_index_passes() {
    let p = heap_overflow_program(9);
    for mode in all_modes() {
        let r = run_mode(&p, mode).unwrap_or_else(|e| panic!("{mode}: {e}"));
        assert_eq!(r.output, vec![0], "a[3] untouched");
    }
}

#[test]
fn no_promote_misses_loaded_pointer_overflow() {
    // Overflow through a pointer that must be promoted after a load: the
    // no-promote ablation cannot see it, the real config can.
    let mut pb = ProgramBuilder::new();
    let i32t = pb.types.int32();
    let vp = pb.types.void_ptr();
    let g = pb.global("gp", vp);

    let mut evil = pb.func("evil", 0);
    let gp = evil.addr_of_global(g);
    let p = evil.load(gp, vp); // promote happens here
    let i = evil.mov(12i64);
    let oob = evil.index_addr(p, i32t, i);
    evil.store(oob, 1i64, i32t);
    evil.ret(None);
    pb.finish_func(evil);

    let mut main = pb.func("main", 0);
    let a = main.malloc_n(i32t, 10i64);
    let gp2 = main.addr_of_global(g);
    main.store(gp2, a, vp);
    main.call_void("evil", vec![]);
    main.ret(Some(Operand::Imm(0)));
    pb.finish_func(main);
    let p = pb.build();

    let err = run_mode(&p, Mode::instrumented(AllocatorKind::Wrapped)).unwrap_err();
    assert!(err.is_safety_trap());
    let ok = run_mode(
        &p,
        Mode::Instrumented {
            allocator: AllocatorKind::Wrapped,
            no_promote: true,
        },
    );
    assert!(ok.is_ok(), "no-promote trades detection for speed");
}

/// The paper's Listing 1 + Listing 2 scenario: struct S { char
/// vulnerable[12]; char sensitive[12]; }; a pointer to `vulnerable`
/// escapes through a global and is overflowed in another function.
fn intra_object_program(idx: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let i8t = pb.types.int8();
    let arr12 = pb.types.array(i8t, 12);
    let s = pb
        .types
        .struct_type("S", &[("vulnerable", arr12), ("sensitive", arr12)]);
    let vp = pb.types.void_ptr();
    let g = pb.global("gv_ptr", vp);

    let mut victim = pb.func("victim", 1);
    let gp = victim.addr_of_global(g);
    let p = victim.load(gp, vp); // promote narrows to `vulnerable`
    let i = victim.mov(idx);
    let oob = victim.index_addr(p, arr12, i);
    victim.store(oob, 0x41i64, i8t);
    victim.ret(None);
    pb.finish_func(victim);

    let mut main = pb.func("main", 0);
    let obj = main.alloca(s);
    // Fill sensitive with a known value.
    let sens = main.field_addr(obj, s, 1);
    main.memset(sens, 0x5ai64, 12i64);
    // gv_ptr = &obj->vulnerable;
    let vuln = main.field_addr(obj, s, 0);
    let gp2 = main.addr_of_global(g);
    main.store(gp2, vuln, vp);
    main.call_void("victim", vec![Operand::Imm(0)]);
    // Print first byte of sensitive.
    let sv = main.load(sens, i8t);
    main.print_int(sv);
    main.ret(Some(Operand::Imm(0)));
    pb.finish_func(main);
    pb.build()
}

#[test]
fn intra_object_overflow_detected_at_subobject_granularity() {
    // Write at vulnerable[12] = first byte of sensitive: inside the
    // object, outside the subobject.
    let p = intra_object_program(12);
    let base = run_mode(&p, Mode::Baseline).unwrap();
    assert_eq!(
        base.output,
        vec![0x41],
        "baseline silently corrupts sensitive"
    );
    for alloc in [AllocatorKind::Wrapped, AllocatorKind::Subheap] {
        let err = run_mode(&p, Mode::instrumented(alloc)).unwrap_err();
        assert!(
            err.is_safety_trap(),
            "intra-object overflow must trap ({alloc}): {err}"
        );
    }
}

#[test]
fn intra_object_in_bounds_write_passes() {
    let p = intra_object_program(11);
    for mode in all_modes() {
        let r = run_mode(&p, mode).unwrap_or_else(|e| panic!("{mode}: {e}"));
        assert_eq!(r.output, vec![0x5a], "sensitive untouched");
    }
}

#[test]
fn intra_object_narrowing_statistics() {
    let p = intra_object_program(5);
    let r = run_mode(&p, Mode::instrumented(AllocatorKind::Subheap)).unwrap();
    assert!(r.stats.promotes.narrow_succeeded > 0, "narrowing exercised");
    assert!(r.stats.stack_objects.objects >= 1);
    assert_eq!(
        r.stats.stack_objects.with_layout_table,
        r.stats.stack_objects.objects
    );
}

#[test]
fn off_by_one_pointer_is_recoverable() {
    // &a[10] may be formed and moved back before dereferencing.
    let mut pb = ProgramBuilder::new();
    let i32t = pb.types.int32();
    let mut f = pb.func("main", 0);
    let a = f.malloc_n(i32t, 10i64);
    let ten = f.mov(10i64);
    let end = f.index_addr(a, i32t, ten);
    let m1 = f.mov(-1i64);
    let last = f.index_addr(end, i32t, m1);
    f.store(last, 99i64, i32t);
    let v = f.load(last, i32t);
    f.print_int(v);
    f.ret(Some(Operand::Imm(0)));
    pb.finish_func(f);
    let p = pb.build();
    for mode in all_modes() {
        let r = run_mode(&p, mode).unwrap_or_else(|e| panic!("{mode}: {e}"));
        assert_eq!(r.output, vec![99]);
    }
}

#[test]
fn poisoned_pointer_traps_even_in_legacy_memcpy() {
    // Form an out-of-bounds pointer, then hand it to (uninstrumented)
    // memcpy: the poison bits still trap — partial legacy protection.
    let mut pb = ProgramBuilder::new();
    let i8t = pb.types.int8();
    let mut f = pb.func("main", 0);
    let a = f.malloc_n(i8t, 16i64);
    let b = f.malloc_n(i8t, 16i64);
    let i = f.mov(32i64);
    let oob = f.index_addr(a, i8t, i);
    f.memcpy(oob, b, 4i64);
    f.ret(Some(Operand::Imm(0)));
    pb.finish_func(f);
    let p = pb.build();
    let err = run_mode(&p, Mode::instrumented(AllocatorKind::Subheap)).unwrap_err();
    assert!(err.is_safety_trap());
}

#[test]
fn escaping_global_array_is_protected() {
    let mut pb = ProgramBuilder::new();
    let i64t = pb.types.int64();
    let arr = pb.types.array(i64t, 8);
    let g = pb.global("table", arr);

    let mut use_fn = pb.func("use_table", 2);
    let p = use_fn.param(0);
    let i = use_fn.param(1);
    let slot = use_fn.index_addr(p, arr, i);
    use_fn.store(slot, 1i64, i64t);
    use_fn.ret(None);
    pb.finish_func(use_fn);

    let mut main = pb.func("main", 1);
    let gp = main.addr_of_global(g);
    main.call_void("use_table", vec![Operand::Reg(gp), Operand::Imm(9)]);
    main.ret(Some(Operand::Imm(0)));
    pb.finish_func(main);
    let p = pb.build();

    assert!(run_mode(&p, Mode::Baseline).is_ok());
    let err = run_mode(&p, Mode::instrumented(AllocatorKind::Wrapped)).unwrap_err();
    assert!(err.is_safety_trap(), "bounds passed via call arguments");
}

#[test]
fn wrapped_allocator_costs_more_memory_than_subheap() {
    // Enough nodes that per-object metadata overhead dominates block
    // granularity.
    let p = list_program_n(600);
    let wrapped = run_mode(&p, Mode::instrumented(AllocatorKind::Wrapped)).unwrap();
    let subheap = run_mode(&p, Mode::instrumented(AllocatorKind::Subheap)).unwrap();
    assert!(
        wrapped.stats.heap_footprint_peak > subheap.stats.heap_footprint_peak,
        "wrapped {} vs subheap {}",
        wrapped.stats.heap_footprint_peak,
        subheap.stats.heap_footprint_peak
    );
}

#[test]
fn no_promote_has_same_instruction_stream() {
    let p = list_program();
    let norm = run_mode(&p, Mode::instrumented(AllocatorKind::Subheap)).unwrap();
    let nop = run_mode(
        &p,
        Mode::Instrumented {
            allocator: AllocatorKind::Subheap,
            no_promote: true,
        },
    )
    .unwrap();
    assert_eq!(norm.stats.total_instrs(), nop.stats.total_instrs());
    assert!(
        nop.stats.cycles < norm.stats.cycles,
        "promote cost isolated"
    );
}

#[test]
fn free_of_wrong_pointer_is_reported() {
    let mut pb = ProgramBuilder::new();
    let i32t = pb.types.int32();
    let mut f = pb.func("main", 0);
    let a = f.malloc_n(i32t, 4i64);
    let two = f.mov(2i64);
    let mid = f.index_addr(a, i32t, two);
    f.free(mid); // not the allocation base
    f.ret(Some(Operand::Imm(0)));
    pb.finish_func(f);
    let p = pb.build();
    for alloc in [AllocatorKind::Wrapped, AllocatorKind::Subheap] {
        let err = run_mode(&p, Mode::instrumented(alloc)).unwrap_err();
        assert!(matches!(err, VmError::Alloc(_)), "{alloc}");
    }
}

#[test]
fn deep_recursion_with_stack_objects() {
    // Recursively allocates a tracked object per frame and links them.
    let mut pb = ProgramBuilder::new();
    let i64t = pb.types.int64();
    let vp = pb.types.void_ptr();
    let pair = pb
        .types
        .struct_type("Pair", &[("depth", i64t), ("link", vp)]);

    let mut rec = pb.func("rec", 2); // (depth, parent)
    let d = rec.param(0);
    let parent = rec.param(1);
    let obj = rec.alloca(pair);
    rec.store_field(obj, pair, 0, d, i64t);
    rec.store_field(obj, pair, 1, parent, vp);
    let zero = rec.eq(d, 0i64);
    let (base_bb, rec_bb) = (rec.new_block(), rec.new_block());
    rec.br(zero, base_bb, rec_bb);
    rec.switch_to(base_bb);
    let v = rec.load_field(obj, pair, 0, i64t);
    rec.ret(Some(Operand::Reg(v)));
    rec.switch_to(rec_bb);
    let d1 = rec.sub(d, 1i64);
    let r = rec.call("rec", vec![Operand::Reg(d1), Operand::Reg(obj)]);
    rec.ret(Some(Operand::Reg(r)));
    pb.finish_func(rec);

    let mut main = pb.func("main", 0);
    let r = main.call("rec", vec![Operand::Imm(64), Operand::Imm(0)]);
    main.print_int(r);
    main.ret(Some(Operand::Imm(0)));
    pb.finish_func(main);
    let p = pb.build();
    for mode in all_modes() {
        let res = run_mode(&p, mode).unwrap_or_else(|e| panic!("{mode}: {e}"));
        assert_eq!(res.output, vec![0], "mode {mode}");
    }
}

#[test]
fn fuel_limit_catches_infinite_loops() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 0);
    let hdr = f.new_block();
    f.jmp(hdr);
    f.switch_to(hdr);
    f.jmp(hdr);
    pb.finish_func(f);
    let p = pb.build();
    let cfg = VmConfig {
        fuel: 10_000,
        ..VmConfig::default()
    };
    assert!(matches!(run(&p, &cfg), Err(VmError::OutOfFuel)));
}

fn list_program() -> Program {
    list_program_n(50)
}

#[test]
fn fuel_boundary_is_exact() {
    // The smallest fuel with which `list_program` completes, per mode.
    // Fuel is checked before each step against the instructions retired
    // so far, so the boundary is the total before `main`'s final return.
    let p = list_program();
    for (mode, min_fuel) in [
        (Mode::Baseline, 10_519),
        (Mode::instrumented(AllocatorKind::Wrapped), 12_419),
        (Mode::instrumented(AllocatorKind::Subheap), 5_062),
    ] {
        let unlimited = run_mode(&p, mode).unwrap();
        let with_fuel = |fuel| VmConfig {
            fuel,
            ..VmConfig::with_mode(mode)
        };
        assert!(
            matches!(run(&p, &with_fuel(min_fuel - 1)), Err(VmError::OutOfFuel)),
            "{mode}: fuel {} must run out",
            min_fuel - 1
        );
        let r = run(&p, &with_fuel(min_fuel)).unwrap_or_else(|e| panic!("{mode}: {e}"));
        assert_eq!(r.stats, unlimited.stats, "{mode}");
        assert_eq!(r.output, unlimited.output, "{mode}");
    }
}

#[test]
fn step_after_finish_does_nothing() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 0);
    f.print_int(5i64);
    f.ret(Some(Operand::Imm(7)));
    pb.finish_func(f);
    let p = pb.build();
    let cfg = VmConfig::default();

    let mut vm = ifp_vm::Vm::new(&p, &cfg).unwrap();
    let code = loop {
        match vm.step().unwrap() {
            StepOutcome::Running => {}
            StepOutcome::Finished(code) => break code,
        }
    };
    assert_eq!(code, 7);
    for _ in 0..3 {
        assert_eq!(vm.step().unwrap(), StepOutcome::Finished(7));
    }
    // Neither the extra steps nor `run` re-entered `main`.
    let r = vm.run().unwrap();
    assert_eq!(r.exit_code, 7);
    assert_eq!(r.output, vec![5]);
    assert_eq!(r.stats, run(&p, &cfg).unwrap().stats);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "artifact compiled from a different program")]
fn artifact_guard_rejects_a_program_of_another_shape() {
    // A `main` that returns 0, plus `extra` unused helper functions.
    let program_with_helpers = |extra: usize| {
        let mut pb = ProgramBuilder::new();
        for i in 0..extra {
            let mut h = pb.func(&format!("helper{i}"), 0);
            h.ret(Some(Operand::Imm(0)));
            pb.finish_func(h);
        }
        let mut f = pb.func("main", 0);
        f.ret(Some(Operand::Imm(0)));
        pb.finish_func(f);
        pb.build()
    };
    let cfg = VmConfig::default();
    let artifact =
        std::sync::Arc::new(ifp_vm::compile_artifact(&program_with_helpers(0), &cfg).unwrap());
    let other = program_with_helpers(1);
    let _ = ifp_vm::Vm::with_artifact(&other, &cfg, &artifact, ifp_vm::VmHost::new());
}

#[test]
fn odd_function_names_round_trip_through_trace_jsonl() {
    // Builder function names are arbitrary strings. The JSONL writer
    // must escape them so the summarizer reads every line back,
    // including the trap event raised inside the oddly named function.
    use ifp_trace::{Summary, TraceConfig};
    let name = "a\"b\\c\nd\u{1}e";
    let mut pb = ProgramBuilder::new();
    let i32t = pb.types.int32();
    let mut f = pb.func(name, 0);
    let a = f.malloc_n(i32t, 4i64);
    let i = f.mov(9i64);
    let oob = f.index_addr(a, i32t, i);
    f.store(oob, 1i64, i32t);
    f.ret(None);
    pb.finish_func(f);
    let mut main = pb.func("main", 0);
    main.call_void(name, vec![]);
    main.ret(Some(Operand::Imm(0)));
    pb.finish_func(main);
    let p = pb.build();

    let mut cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));
    cfg.trace = TraceConfig::all();
    let (r, host) = ifp_vm::run_pooled(&p, &cfg, ifp_vm::VmHost::new());
    match r {
        Err(VmError::Trap { func, trap, .. }) => {
            assert!(trap.is_safety_violation(), "{trap}");
            assert_eq!(func, name);
        }
        other => panic!("expected a trap, got {other:?}"),
    }
    let funcs: Vec<String> = p.funcs.iter().map(|f| f.name.clone()).collect();
    let log = host.expect("host survives").trace_snapshot(&funcs);
    let parsed = Summary::from_jsonl(&log.to_jsonl());
    assert_eq!(parsed.malformed_lines, 0);
    let mut direct = Summary::default();
    direct.add_log(&log);
    assert_eq!(parsed, direct);
    assert_eq!(
        parsed
            .by_func_kind
            .get(&(name.to_string(), "trap".to_string())),
        Some(&1)
    );
}
