//! Integration tests: one test per rule in Table 1 ("Rules for
//! Grafting"), each exercised end-to-end through the public kernel API
//! — compile with the real MiSFIT tool, load through the real loader,
//! run through the real transactional wrapper.

use vino::core::engine::{AbortedWhy, InvokeOutcome};
use vino::core::kernel::point_names;
use vino::core::{InstallError, InstallOpts, Kernel};
use vino::misfit::VerifyError;
use vino::rm::{Limits, ResourceKind};
use vino::txn::LockClass;

fn boot() -> std::rc::Rc<Kernel> {
    Kernel::boot()
}

fn app(k: &Kernel) -> vino::rm::PrincipalId {
    k.create_app(Limits::of(&[
        (ResourceKind::KernelHeap, 1 << 20),
        (ResourceKind::Memory, 1 << 24),
    ]))
}

fn with_file(k: &Kernel) -> vino::fs::Fd {
    k.fs.borrow_mut().create("t", 32 * 4096).unwrap();
    k.fs.borrow_mut().open("t").unwrap()
}

#[test]
fn rule1_grafts_must_be_preemptible() {
    // An infinite loop gets timeslices, is preempted at each boundary,
    // and is eventually aborted — it cannot monopolise the CPU.
    let k = boot();
    let a = app(&k);
    let t = k.spawn_thread("app");
    let fd = with_file(&k);
    let image = k.compile_graft("spinner", "spin: jmp spin").unwrap();
    let g = k.install_ra_graft(fd, &image, a, t, &InstallOpts::default()).unwrap();
    g.borrow_mut().max_slices = 3;
    k.fs.borrow_mut().read(fd, 0, 4096).unwrap();
    let stats = g.borrow().stats();
    assert_eq!(stats.preemptions, 3, "preempted at every timeslice boundary");
    assert!(g.borrow().is_dead());
}

#[test]
fn rule2_no_lock_hoarding() {
    // lock(resourceA); while(1); — the holder's transaction is aborted
    // when the contention time-out fires, and the waiter proceeds.
    let k = boot();
    let (_, lock_id) = k.engine.register_lock(LockClass::Buffer);
    let hoarder = k.spawn_thread("hoarder");
    let victim = k.spawn_thread("victim");
    k.engine.txn.borrow_mut().begin(hoarder);
    k.engine.txn.borrow_mut().lock(lock_id, hoarder);
    let (ok, events) = k.engine.txn.borrow_mut().lock_blocking(lock_id, victim, 3);
    assert!(ok, "the victim acquired the lock");
    assert!(!events.is_empty(), "a time-out fired");
    assert!(!k.engine.txn.borrow().in_txn(hoarder), "hoarder's txn aborted");
}

#[test]
fn rule2_no_resource_hoarding() {
    // A zero-limit graft cannot allocate; a budgeted graft is denied
    // exactly at its budget.
    let k = boot();
    let a = app(&k);
    let t = k.spawn_thread("app");
    let fd = with_file(&k);
    let image = k.compile_graft("hog", "const r1, 999999999\ncall $kalloc\nhalt r0").unwrap();
    let g = k.install_ra_graft(fd, &image, a, t, &InstallOpts::default()).unwrap();
    k.fs.borrow_mut().read(fd, 0, 4096).unwrap();
    assert!(g.borrow().is_dead(), "allocation denial aborted the graft");
    assert_eq!(k.engine.rm.borrow().used(g.borrow().principal, ResourceKind::KernelHeap), 0);
}

#[test]
fn rule3_no_illegal_memory_access() {
    let k = boot();
    let a = app(&k);
    let t = k.spawn_thread("app");
    let fd = with_file(&k);
    // Store to a kernel address and read it back from a graft: the
    // clamp confines both accesses to the graft's own segment.
    let image = k
        .compile_graft(
            "prober",
            "
            const r1, 0xC0000040
            const r2, 0xEV1L     ; (invalid hex caught at compile time)
            halt r0
            ",
        )
        .unwrap_err();
    assert!(image.contains("bad immediate"), "assembler rejects garbage: {image}");
    let image = k
        .compile_graft(
            "prober",
            "
            const r1, 0xC0000040
            const r2, 1162167621
            storew r2, [r1+0]
            loadw r0, [r1+0]
            halt r0
            ",
        )
        .unwrap();
    let g = k.install_ra_graft(fd, &image, a, t, &InstallOpts::default()).unwrap();
    k.fs.borrow_mut().read(fd, 0, 4096).unwrap();
    assert!(!g.borrow().is_dead(), "clamped accesses succeed inside the segment");
    assert_eq!(g.borrow().mem_ref().kernel_write_count(), 0, "kernel untouched");
}

#[test]
fn rule4_and_7_no_forbidden_functions() {
    let k = boot();
    let a = app(&k);
    let t = k.spawn_thread("app");
    let fd = with_file(&k);
    // Direct call to a data-returning function: rejected at link time.
    let direct = k.compile_graft("snoop", "call $read_user_data\nhalt r0").unwrap();
    assert!(matches!(
        k.install_ra_graft(fd, &direct, a, t, &InstallOpts::default()),
        Err(InstallError::Link(_))
    ));
    // Indirect call: trapped at run time by the CheckCall probe.
    let indirect = k.compile_graft("snoop2", "const r5, 101\ncalli r5\nhalt r0").unwrap();
    let g = k.install_ra_graft(fd, &indirect, a, t, &InstallOpts::default()).unwrap();
    k.fs.borrow_mut().read(fd, 0, 4096).unwrap();
    assert!(g.borrow().is_dead(), "indirect forbidden call aborted the graft");
}

#[test]
fn rule5_no_replacing_restricted_functions() {
    let k = boot();
    let a = app(&k);
    let t = k.spawn_thread("app");
    let image = k.compile_graft("takeover", "halt r1").unwrap();
    for point in [point_names::GLOBAL_SCHEDULER, point_names::SECURITY_POLICY] {
        let err =
            k.install_function_graft(point, &image, a, t, &InstallOpts::default()).unwrap_err();
        assert!(matches!(err, InstallError::Restricted { .. }), "{point}");
    }
    // A privileged user (who could build a new kernel anyway) may.
    let opts = InstallOpts { privileged: true, ..InstallOpts::default() };
    assert!(k.install_function_graft(point_names::GLOBAL_SCHEDULER, &image, a, t, &opts).is_ok());
}

#[test]
fn rule6_only_known_safe_code_runs() {
    let k = boot();
    let a = app(&k);
    let t = k.spawn_thread("app");
    let fd = with_file(&k);
    // Any tampering breaks the signature.
    let mut image = k.compile_graft("g", "halt r0").unwrap();
    image.bytes[8] ^= 1;
    assert!(matches!(
        k.install_ra_graft(fd, &image, a, t, &InstallOpts::default()),
        Err(InstallError::Verify(VerifyError::BadSignature))
    ));
    // Code signed by an untrusted tool does not load either.
    let rogue_tool = vino::misfit::MisfitTool::new(
        vino::misfit::SigningKey::from_passphrase("rogue"),
        k.observer().clone(),
    );
    let prog = vino::vm::assemble("g", "halt r0", &vino::core::hostfn::symbols()).unwrap();
    let (rogue_image, _) = rogue_tool.process(&prog).unwrap();
    assert!(matches!(
        k.install_ra_graft(fd, &rogue_image, a, t, &InstallOpts::default()),
        Err(InstallError::Verify(VerifyError::BadSignature))
    ));
}

#[test]
fn rule8_malice_confined_to_consenting_applications() {
    // A hostile read-ahead graft on file A must not affect reads of
    // file B by an application that never opted in.
    let k = boot();
    let a = app(&k);
    let t = k.spawn_thread("app");
    k.fs.borrow_mut().create("opted-in", 16 * 4096).unwrap();
    k.fs.borrow_mut().create("bystander", 16 * 4096).unwrap();
    let fd_in = k.fs.borrow_mut().open("opted-in").unwrap();
    let fd_by = k.fs.borrow_mut().open("bystander").unwrap();
    let image =
        k.compile_graft("hostile-ra", "const r1, 0\nconst r2, 0\ndiv r0, r1, r2\nhalt r0").unwrap();
    k.install_ra_graft(fd_in, &image, a, t, &InstallOpts::default()).unwrap();
    // The bystander's reads are completely unaffected.
    k.fs.borrow_mut().write(fd_by, 0, b"untouched").unwrap();
    let before = k.engine.txn.borrow().stats().aborts;
    let data = k.fs.borrow_mut().read(fd_by, 0, 9).unwrap();
    assert_eq!(data, b"untouched");
    assert_eq!(k.engine.txn.borrow().stats().aborts, before, "no graft ran for fd_by");
    // The opted-in file's read triggers (and survives) the abort.
    k.fs.borrow_mut().read(fd_in, 0, 4096).unwrap();
    assert_eq!(k.engine.txn.borrow().stats().aborts, before + 1);
}

#[test]
fn rule9_kernel_makes_progress_with_faulty_grafts_in_path() {
    // Every delegate position occupied by a faulty graft; the kernel
    // still reads files, evicts pages and schedules threads.
    let k = boot();
    let a = app(&k);
    let t = k.spawn_thread("app");
    let fd = with_file(&k);
    let crash = "const r1, 0\nconst r2, 0\ndiv r0, r1, r2\nhalt r0";
    let ra = k.compile_graft("bad-ra", crash).unwrap();
    k.install_ra_graft(fd, &ra, a, t, &InstallOpts::default()).unwrap();
    let vas = k.mem.borrow_mut().create_vas();
    let ev = k.compile_graft("bad-evict", crash).unwrap();
    k.install_evict_graft(vas, &ev, a, t, &InstallOpts::default()).unwrap();
    let sd = k.compile_graft("bad-sched", crash).unwrap();
    k.install_sched_graft(t, &sd, a, &InstallOpts::default()).unwrap();

    // File reads proceed (fall back to default read-ahead).
    assert!(k.fs.borrow_mut().read(fd, 0, 4096).is_ok());
    // Paging proceeds (fall back to the global victim).
    k.mem.borrow_mut().touch(vas, 0);
    k.mem.borrow_mut().touch(vas, 1);
    assert!(k.mem.borrow_mut().evict_one().is_some());
    // Scheduling proceeds (fall back to the default choice).
    assert!(k.sched.borrow_mut().pick_and_switch().is_some());
}

#[test]
fn aborted_graft_falls_back_to_default_function() {
    // §3.1: "returns a transaction abort error to the graft stub, which
    // then calls the default function". Verify the *default read-ahead
    // policy* actually operates after the graft dies.
    let k = boot();
    let a = app(&k);
    let t = k.spawn_thread("app");
    let fd = with_file(&k);
    let image = k.compile_graft("dies", "spin: jmp spin").unwrap();
    let g = k.install_ra_graft(fd, &image, a, t, &InstallOpts::default()).unwrap();
    g.borrow_mut().max_slices = 1;
    // First read: graft aborts, falls back.
    k.fs.borrow_mut().read(fd, 0, 4096).unwrap();
    assert!(g.borrow().is_dead());
    // Sequential reads now trigger the DEFAULT sequential prefetch.
    k.fs.borrow_mut().read(fd, 4096, 4096).unwrap();
    k.fs.borrow_mut().read(fd, 8192, 4096).unwrap();
    assert!(k.fs.borrow().stats().prefetches_issued >= 1, "default policy active");
}

#[test]
fn cpu_hog_abort_reports_cpuhog() {
    let k = boot();
    let a = app(&k);
    let t = k.spawn_thread("app");
    let image = k.compile_graft("hog", "spin: jmp spin").unwrap();
    let fd = with_file(&k);
    let g = k.install_ra_graft(fd, &image, a, t, &InstallOpts::default()).unwrap();
    g.borrow_mut().max_slices = 2;
    let out = g.borrow_mut().invoke([0; 4]);
    assert!(matches!(out, InvokeOutcome::Aborted { why: AbortedWhy::CpuHog, .. }));
}
