//! The dynamic graft loader.
//!
//! The §3.3/§3.6 load sequence, in order:
//!
//! 1. **Signature check** — recompute the image checksum and compare;
//!    mismatch ⇒ not loaded (Rule 6: "The kernel must not execute
//!    grafts that are not known to be safe").
//! 2. **Decode** the program from the verified bytes.
//! 3. **Link-time audit** of direct calls against the graft-callable
//!    list (Rules 4/7).
//! 4. **Restricted-point policy** — global graft points require a
//!    privileged installer (Rule 5, §2.3).
//! 5. **Principal creation** — a zero-limit resource principal, with
//!    the installer's transfers or billing applied (§3.2).

use std::fmt;
use std::rc::Rc;

use vino_misfit::{LinkError, MisfitTool, SignedImage, VerifyError};
use vino_rm::{PrincipalId, ResourceError, ResourceKind};
use vino_sim::{Cycles, ThreadId};
use vino_vm::mem::{AddressSpace, Protection};

use crate::engine::{GraftEngine, GraftInstance};

/// How the graft's resource consumption is accounted (§3.2).
#[derive(Debug, Clone)]
pub enum BillingMode {
    /// Transfer the listed amounts from the installer's limits to the
    /// graft's own (initially zero) limits.
    Transfer(Vec<(ResourceKind, u64)>),
    /// Bill every graft allocation against the installer's limits.
    BillInstaller,
}

/// Install-time options.
#[derive(Debug, Clone)]
pub struct InstallOpts {
    /// Whether the installer holds privilege (required for restricted /
    /// global graft points, §2.3).
    pub privileged: bool,
    /// Resource accounting mode.
    pub billing: BillingMode,
    /// Graft heap/stack segment size in bytes.
    pub seg_size: usize,
    /// Simulated kernel-region size visible to *unprotected* code (used
    /// by the benchmark "unsafe path"; irrelevant under SFI).
    pub kernel_region: usize,
    /// Memory protection for the graft's address space. `Sfi` for real
    /// installs; benchmarks use `Unprotected` to measure the unsafe
    /// path.
    pub protection: Protection,
}

impl Default for InstallOpts {
    fn default() -> InstallOpts {
        InstallOpts {
            privileged: false,
            billing: BillingMode::Transfer(Vec::new()),
            seg_size: 16 * 1024,
            kernel_region: 4096,
            protection: Protection::Sfi,
        }
    }
}

/// Why an install was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// Signature verification failed (Rule 6).
    Verify(VerifyError),
    /// A direct call named a non-graft-callable function (Rules 4/7).
    Link(LinkError),
    /// The target graft point is restricted and the installer is not
    /// privileged (Rule 5).
    Restricted {
        /// The graft point's name.
        point: String,
    },
    /// Resource transfer at install failed.
    Resources(ResourceError),
    /// The named graft point does not exist.
    NoSuchPoint(String),
    /// The graft is quarantined: it aborted too many times recently and
    /// may not be reinstalled until its backoff deadline passes.
    Quarantined {
        /// The quarantined graft's name.
        graft: String,
        /// Virtual-clock time at which reinstall becomes permitted.
        until: Cycles,
    },
    /// The installer's blame account (cycles of abort cleanup billed to
    /// it) exceeded its ceiling; it may not install further grafts.
    BlameExceeded {
        /// The over-budget installing principal.
        principal: PrincipalId,
    },
    /// The admission controller refused the installer: a watch-plane
    /// alert blames the principal (or its deny backoff is still
    /// pending) and new installs are refused until the deadline.
    AdmissionDenied {
        /// The refused installing principal.
        principal: PrincipalId,
        /// Virtual-clock time at which installs become admissible
        /// again (provided the blaming alert has resolved by then).
        until: Cycles,
    },
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Verify(e) => write!(f, "verification failed: {e}"),
            InstallError::Link(e) => write!(f, "link audit failed: {e}"),
            InstallError::Restricted { point } => {
                write!(f, "graft point `{point}` is restricted to privileged users")
            }
            InstallError::Resources(e) => write!(f, "resource setup failed: {e}"),
            InstallError::NoSuchPoint(p) => write!(f, "no graft point named `{p}`"),
            InstallError::Quarantined { graft, until } => {
                write!(f, "graft `{graft}` is quarantined until cycle {}", until.get())
            }
            InstallError::BlameExceeded { principal } => {
                write!(f, "principal {principal:?} exceeded its abort-blame ceiling")
            }
            InstallError::AdmissionDenied { principal, until } => {
                write!(
                    f,
                    "principal {principal:?} refused by admission control until cycle {}",
                    until.get()
                )
            }
        }
    }
}

impl std::error::Error for InstallError {}

/// Runs the full load pipeline, producing an installed (but not yet
/// attached) graft instance.
pub fn load_graft(
    engine: &Rc<GraftEngine>,
    tool: &MisfitTool,
    image: &SignedImage,
    installer: PrincipalId,
    thread: ThreadId,
    opts: &InstallOpts,
) -> Result<GraftInstance, InstallError> {
    // 0. Reliability gates (§3.6 aftermath): an installer whose grafts
    // have billed it past its blame ceiling may not install, and a
    // graft name in quarantine is refused until its backoff expires.
    if engine.rm.borrow().blame_exceeded(installer) {
        return Err(InstallError::BlameExceeded { principal: installer });
    }
    // 1-2. Signature + decode.
    let program = tool.verify_and_decode(image).map_err(InstallError::Verify)?;
    if let Err(until) = engine.reliability.borrow().check_install(&program.name, engine.clock.now())
    {
        return Err(InstallError::Quarantined { graft: program.name.clone(), until });
    }
    // 3. Link-time direct-call audit.
    vino_misfit::verify_direct_calls(&program, &engine.callable).map_err(InstallError::Link)?;
    // 5. Principal: zero limits, then transfers/billing. Abort-blame
    // always lands on the installer, whatever the billing mode.
    let principal = engine.rm.borrow_mut().create_graft_principal();
    engine.rm.borrow_mut().blame_to(principal, installer);
    match &opts.billing {
        BillingMode::Transfer(amounts) => {
            for (kind, amount) in amounts {
                engine
                    .rm
                    .borrow_mut()
                    .transfer(installer, principal, *kind, *amount)
                    .map_err(InstallError::Resources)?;
            }
        }
        BillingMode::BillInstaller => {
            engine
                .rm
                .borrow_mut()
                .bill_to(principal, installer)
                .map_err(InstallError::Resources)?;
        }
    }
    let mem = AddressSpace::new(opts.seg_size, opts.kernel_region, opts.protection);
    // The image decoder already refused bad registers and branch targets.
    Ok(GraftInstance::new(Rc::clone(engine), program, mem, thread, principal)
        .expect("decoded images pre-decode"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vino_misfit::SigningKey;
    use vino_rm::Limits;
    use vino_sim::VirtualClock;
    use vino_vm::asm::assemble;

    use crate::hostfn;

    fn setup() -> (Rc<GraftEngine>, MisfitTool, PrincipalId) {
        let engine = GraftEngine::new(vino_sim::Observer::new(VirtualClock::new()));
        let tool = MisfitTool::new(
            SigningKey::from_passphrase("loader-tests"),
            vino_sim::Observer::new(vino_sim::VirtualClock::new()),
        );
        let installer = engine
            .rm
            .borrow_mut()
            .create_principal(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
        (engine, tool, installer)
    }

    #[test]
    fn good_graft_loads() {
        let (engine, tool, installer) = setup();
        let prog = assemble("ok", "call $kv_get\nhalt r0", &hostfn::symbols()).unwrap();
        let (image, _) = tool.process(&prog).unwrap();
        let mut g =
            load_graft(&engine, &tool, &image, installer, ThreadId(1), &InstallOpts::default())
                .unwrap();
        assert_eq!(g.name, "ok");
        assert!(matches!(g.invoke([0; 4]), crate::engine::InvokeOutcome::Ok { .. }));
    }

    #[test]
    fn forged_signature_rejected() {
        let (engine, tool, installer) = setup();
        let prog = assemble("evil", "halt r0", &hostfn::symbols()).unwrap();
        let (mut image, _) = tool.process(&prog).unwrap();
        image.signature[3] ^= 0x40;
        let err =
            load_graft(&engine, &tool, &image, installer, ThreadId(1), &InstallOpts::default())
                .unwrap_err();
        assert!(matches!(err, InstallError::Verify(VerifyError::BadSignature)));
    }

    #[test]
    fn wrong_tool_key_rejected() {
        // Code signed by a different (untrusted) tool does not load:
        // "the kernel does not execute any grafts that are not known to
        // be safe" (Rule 6).
        let (engine, tool, installer) = setup();
        let rogue = MisfitTool::new(
            SigningKey::from_passphrase("rogue"),
            vino_sim::Observer::new(vino_sim::VirtualClock::new()),
        );
        let prog = assemble("evil", "halt r0", &hostfn::symbols()).unwrap();
        let (image, _) = rogue.process(&prog).unwrap();
        let err =
            load_graft(&engine, &tool, &image, installer, ThreadId(1), &InstallOpts::default())
                .unwrap_err();
        assert!(matches!(err, InstallError::Verify(VerifyError::BadSignature)));
    }

    #[test]
    fn shutdown_call_rejected_at_link_time() {
        // §2.3: "a graft should not be able to call shutdown()".
        let (engine, tool, installer) = setup();
        let prog = assemble("evil", "call $shutdown\nhalt r0", &hostfn::symbols()).unwrap();
        let (image, _) = tool.process(&prog).unwrap();
        let err =
            load_graft(&engine, &tool, &image, installer, ThreadId(1), &InstallOpts::default())
                .unwrap_err();
        assert!(matches!(err, InstallError::Link(LinkError::ForbiddenDirectCall { .. })));
    }

    #[test]
    fn private_data_function_rejected() {
        // Rule 4: functions returning data the graft is not entitled to
        // are not graft-callable.
        let (engine, tool, installer) = setup();
        let prog = assemble("snoop", "call $read_user_data\nhalt r0", &hostfn::symbols()).unwrap();
        let (image, _) = tool.process(&prog).unwrap();
        assert!(load_graft(
            &engine,
            &tool,
            &image,
            installer,
            ThreadId(1),
            &InstallOpts::default()
        )
        .is_err());
    }

    #[test]
    fn transfer_billing_applies() {
        let (engine, tool, installer) = setup();
        let prog =
            assemble("alloc", "const r1, 100\ncall $kalloc\nhalt r0", &hostfn::symbols()).unwrap();
        let (image, _) = tool.process(&prog).unwrap();
        let opts = InstallOpts {
            billing: BillingMode::Transfer(vec![(ResourceKind::KernelHeap, 512)]),
            ..InstallOpts::default()
        };
        let mut g = load_graft(&engine, &tool, &image, installer, ThreadId(1), &opts).unwrap();
        assert_eq!(engine.rm.borrow().limit(g.principal, ResourceKind::KernelHeap), 512);
        assert!(matches!(g.invoke([0; 4]), crate::engine::InvokeOutcome::Ok { .. }));
    }

    #[test]
    fn transfer_exceeding_installer_fails() {
        let (engine, tool, installer) = setup();
        let prog = assemble("g", "halt r0", &hostfn::symbols()).unwrap();
        let (image, _) = tool.process(&prog).unwrap();
        let opts = InstallOpts {
            billing: BillingMode::Transfer(vec![(ResourceKind::KernelHeap, 1 << 30)]),
            ..InstallOpts::default()
        };
        let err = load_graft(&engine, &tool, &image, installer, ThreadId(1), &opts).unwrap_err();
        assert!(matches!(err, InstallError::Resources(_)));
    }

    #[test]
    fn bill_installer_mode() {
        let (engine, tool, installer) = setup();
        let prog =
            assemble("alloc", "const r1, 4096\ncall $kalloc\nhalt r0", &hostfn::symbols()).unwrap();
        let (image, _) = tool.process(&prog).unwrap();
        let opts = InstallOpts { billing: BillingMode::BillInstaller, ..InstallOpts::default() };
        let mut g = load_graft(&engine, &tool, &image, installer, ThreadId(1), &opts).unwrap();
        assert!(matches!(g.invoke([0; 4]), crate::engine::InvokeOutcome::Ok { .. }));
        assert_eq!(
            engine.rm.borrow().used(installer, ResourceKind::KernelHeap),
            4096,
            "charge landed on the installer"
        );
    }

    #[test]
    fn loaded_wild_graft_is_confined() {
        // End-to-end Rule 3: a hostile graft aimed at kernel memory,
        // processed by the real tool and loaded through the real
        // pipeline, cannot corrupt the kernel region.
        let (engine, tool, installer) = setup();
        let prog = assemble(
            "wild",
            "
            const r1, 0xC0000000
            const r2, 0x41414141
            storew r2, [r1+0]
            halt r0
            ",
            &hostfn::symbols(),
        )
        .unwrap();
        let (image, _) = tool.process(&prog).unwrap();
        let mut g =
            load_graft(&engine, &tool, &image, installer, ThreadId(1), &InstallOpts::default())
                .unwrap();
        match g.invoke([0; 4]) {
            crate::engine::InvokeOutcome::Ok { .. } => {}
            other => panic!("instrumented graft should run to completion: {other:?}"),
        }
        assert_eq!(g.mem_ref().kernel_write_count(), 0, "kernel region untouched");
    }
}
