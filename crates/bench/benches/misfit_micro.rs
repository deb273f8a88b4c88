//! Criterion bench for the §3.3 MiSFIT micro-overheads (E2), plus raw
//! simulator throughput of the instrumentation pass and the verifier.

use criterion::{criterion_group, criterion_main, Criterion};
use vino_misfit::{instrument, MisfitTool, SigningKey};
use vino_vm::isa::{AluOp, Instr, Program, Reg};

fn big_program(n: usize) -> Program {
    let instrs: Vec<Instr> = (0..n)
        .map(|i| match i % 4 {
            0 => Instr::LoadW { d: Reg(1), addr: Reg(2), off: 0 },
            1 => Instr::Alu { op: AluOp::Xor, d: Reg(1), a: Reg(1), b: Reg(3) },
            2 => Instr::StoreW { s: Reg(1), addr: Reg(2), off: 4 },
            _ => Instr::AluI { op: AluOp::Add, d: Reg(2), a: Reg(2), imm: 8 },
        })
        .chain(std::iter::once(Instr::Halt { result: Reg(0) }))
        .collect();
    Program::new("big", instrs)
}

fn bench(c: &mut Criterion) {
    println!("{}", vino_bench::misfit_micro::run().render());
    let prog = big_program(4096);
    c.bench_function("misfit/instrument_4k_instrs", |b| {
        b.iter(|| std::hint::black_box(instrument(&prog).unwrap()))
    });
    let tool = MisfitTool::new(
        SigningKey::from_passphrase("bench"),
        vino_sim::Observer::new(vino_sim::VirtualClock::new()),
    );
    let (image, _) = tool.process(&prog).unwrap();
    c.bench_function("misfit/verify_and_decode", |b| {
        b.iter(|| std::hint::black_box(tool.verify_and_decode(&image).unwrap()))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
