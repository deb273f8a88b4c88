//! Model-based consistency tests for the file system, driven by a
//! seeded deterministic generator (formerly proptest).
//!
//! Runs arbitrary operation sequences against both the real extent FS
//! (on the simulated disk, through the buffer cache and prefetch
//! machinery) and a trivial in-memory model, asserting observational
//! equivalence — including across an unmount/remount cycle.

use std::collections::HashMap;
use std::rc::Rc;

use vino_dev::disk::{Disk, DiskGeometry};
use vino_fs::{Fd, FileSystem};
use vino_sim::{SplitMix64, VirtualClock};

#[derive(Debug, Clone)]
enum Op {
    Create { name: u8, blocks: u8 },
    Remove { name: u8 },
    Write { name: u8, offset: u16, data: Vec<u8> },
    Read { name: u8, offset: u16, len: u8 },
    Remount,
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    match rng.below(5) {
        0 => Op::Create { name: rng.below(5) as u8, blocks: rng.range(1, 5) as u8 },
        1 => Op::Remove { name: rng.below(5) as u8 },
        2 => {
            let len = rng.range(1, 63) as usize;
            Op::Write {
                name: rng.below(5) as u8,
                offset: rng.below(2048) as u16,
                data: (0..len).map(|_| rng.next_u64() as u8).collect(),
            }
        }
        3 => Op::Read {
            name: rng.below(5) as u8,
            offset: rng.below(2048) as u16,
            len: rng.range(1, 63) as u8,
        },
        _ => Op::Remount,
    }
}

#[derive(Default)]
struct Model {
    files: HashMap<String, Vec<u8>>,
}

struct Real {
    fs: FileSystem,
    clock: Rc<VirtualClock>,
    fds: HashMap<String, Fd>,
}

impl Real {
    fn new() -> Real {
        let clock = VirtualClock::new();
        let disk = Disk::with_geometry(
            vino_sim::Observer::new(Rc::clone(&clock)),
            DiskGeometry { blocks: 512, ..DiskGeometry::default() },
        );
        Real { fs: FileSystem::format(disk, 8, 16), clock, fds: HashMap::new() }
    }

    fn fd(&mut self, name: &str) -> Option<Fd> {
        if let Some(fd) = self.fds.get(name) {
            return Some(*fd);
        }
        let fd = self.fs.open(name).ok()?;
        self.fds.insert(name.to_string(), fd);
        Some(fd)
    }
}

fn name_of(n: u8) -> String {
    format!("file-{n}")
}

#[test]
fn real_fs_matches_model() {
    let mut rng = SplitMix64::new(0xF5_C0817);
    for _case in 0..64 {
        let n_ops = rng.range(1, 39) as usize;
        let mut model = Model::default();
        let mut real = Real::new();
        for _ in 0..n_ops {
            match gen_op(&mut rng) {
                Op::Create { name, blocks } => {
                    let name = name_of(name);
                    let size = blocks as u64 * 4096;
                    let model_has = model.files.contains_key(&name);
                    let res = real.fs.create(&name, size);
                    if model_has {
                        assert!(res.is_err(), "duplicate create must fail");
                    } else if res.is_ok() {
                        model.files.insert(name, vec![0; size as usize]);
                    }
                    // (A real failure without a model duplicate is
                    // legitimate exhaustion: volume/inode pressure.)
                }
                Op::Remove { name } => {
                    let name = name_of(name);
                    let model_has = model.files.remove(&name).is_some();
                    let res = real.fs.remove(&name);
                    assert_eq!(res.is_ok(), model_has, "remove({name}) divergence");
                    real.fds.remove(&name);
                }
                Op::Write { name, offset, data } => {
                    let name = name_of(name);
                    let Some(content_len) = model.files.get(&name).map(Vec::len) else {
                        continue;
                    };
                    let Some(fd) = real.fd(&name) else {
                        panic!("model has {name} but fs cannot open it");
                    };
                    let fits = offset as usize + data.len() <= content_len;
                    let res = real.fs.write(fd, offset as u64, &data);
                    assert_eq!(res.is_ok(), fits, "write fit divergence");
                    if fits {
                        let file = model.files.get_mut(&name).expect("checked");
                        file[offset as usize..offset as usize + data.len()].copy_from_slice(&data);
                    }
                }
                Op::Read { name, offset, len } => {
                    let name = name_of(name);
                    let Some(content) = model.files.get(&name) else { continue };
                    let Some(fd) = real.fd(&name) else {
                        panic!("model has {name} but fs cannot open it");
                    };
                    let fits = offset as usize + len as usize <= content.len();
                    let res = real.fs.read(fd, offset as u64, len as u64);
                    assert_eq!(res.is_ok(), fits, "read fit divergence");
                    if let Ok(bytes) = res {
                        let expect = &content[offset as usize..offset as usize + len as usize];
                        assert_eq!(&bytes[..], expect, "content divergence on {name}");
                    }
                }
                Op::Remount => {
                    // Tear down and remount from the same disk: all
                    // metadata and data must survive.
                    let clock = Rc::clone(&real.clock);
                    let old = std::mem::replace(&mut real, Real::new());
                    let FileSystem { .. } = &old.fs;
                    let disk = old.fs.into_disk();
                    real = Real {
                        fs: FileSystem::mount(disk, 8).expect("formatted volume must remount"),
                        clock,
                        fds: HashMap::new(),
                    };
                }
            }
        }
        // Final sweep: every model file is fully readable and correct.
        let names: Vec<String> = model.files.keys().cloned().collect();
        for name in names {
            let content = model.files[&name].clone();
            let fd = real.fd(&name).expect("model file must open");
            let bytes = real.fs.read(fd, 0, content.len() as u64).expect("full read");
            assert_eq!(bytes, content, "final content of {name}");
        }
    }
}
