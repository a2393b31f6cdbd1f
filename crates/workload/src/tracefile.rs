//! Trace serialization: save generated traces to a compact binary format
//! and replay them later, so experiments can pin an exact instruction
//! stream independent of generator evolution (and external tools can
//! produce traces for this simulator).
//!
//! # Format
//!
//! Little-endian binary. Header: magic `RFCT`, version `u16`, reserved
//! `u16`, instruction count `u64`. Each record:
//!
//! ```text
//! u8  op            (OpClass discriminant)
//! u8  dst           (0xff = none; else class << 5 | index)
//! u8  src0, src1    (same encoding)
//! u64 pc
//! u64 mem_addr      (loads/stores only)
//! u8  taken, u64 target (branches only)
//! ```

use rfcache_isa::{ArchReg, BranchInfo, OpClass, RegClass, TraceInst};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"RFCT";
const VERSION: u16 = 1;
const NO_REG: u8 = 0xff;
/// The shortest record: the op and register bytes, and the pc.
const MIN_RECORD_BYTES: usize = 12;

fn encode_reg(reg: Option<ArchReg>) -> u8 {
    match reg {
        None => NO_REG,
        Some(r) => ((r.class().index() as u8) << 5) | r.index() as u8,
    }
}

fn decode_reg(byte: u8) -> io::Result<Option<ArchReg>> {
    if byte == NO_REG {
        return Ok(None);
    }
    let class = match byte >> 5 {
        0 => RegClass::Int,
        1 => RegClass::Fp,
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad register class")),
    };
    Ok(Some(ArchReg::new(class, byte & 0x1f)))
}

fn encode_op(op: OpClass) -> u8 {
    OpClass::ALL.iter().position(|&o| o == op).expect("op in ALL") as u8
}

fn decode_op(byte: u8) -> io::Result<OpClass> {
    OpClass::ALL
        .get(byte as usize)
        .copied()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad op class"))
}

/// Writes `trace` to `writer` in the RFCT format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use rfcache_workload::{read_trace, write_trace, BenchProfile, TraceGenerator};
///
/// let insts: Vec<_> =
///     TraceGenerator::new(BenchProfile::by_name("li").unwrap(), 1).take(100).collect();
/// let mut buf = Vec::new();
/// write_trace(&mut buf, &insts)?;
/// assert_eq!(read_trace(&mut buf.as_slice())?, insts);
/// # std::io::Result::Ok(())
/// ```
pub fn write_trace<W: Write>(mut writer: W, trace: &[TraceInst]) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&0u16.to_le_bytes())?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    for inst in trace {
        writer.write_all(&[
            encode_op(inst.op),
            encode_reg(inst.dst),
            encode_reg(inst.srcs[0]),
            encode_reg(inst.srcs[1]),
        ])?;
        writer.write_all(&inst.pc.to_le_bytes())?;
        if inst.op.is_mem() {
            let addr = inst.mem_addr.ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "mem op without address")
            })?;
            writer.write_all(&addr.to_le_bytes())?;
        }
        if inst.op.is_branch() {
            let b = inst.branch.ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "branch without outcome")
            })?;
            writer.write_all(&[u8::from(b.taken)])?;
            writer.write_all(&b.target.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a trace written by [`write_trace`]: reads its input to the end,
/// then decodes it with [`decode_trace`].
///
/// # Errors
///
/// Returns `InvalidData` on magic/version mismatch or malformed records,
/// and propagates I/O errors from the reader.
pub fn read_trace<R: Read>(mut reader: R) -> io::Result<Vec<TraceInst>> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    decode_trace(&bytes)
}

/// Decodes a whole trace written by [`write_trace`] from memory. It
/// reserves room for no more records than `bytes` can hold, whatever
/// count the header claims.
///
/// # Errors
///
/// Returns `InvalidData` on magic/version mismatch or malformed records,
/// and `UnexpectedEof` when `bytes` ends inside the header or a record.
pub fn decode_trace(mut bytes: &[u8]) -> io::Result<Vec<TraceInst>> {
    let mut magic = [0u8; 4];
    bytes.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not an RFCT trace"));
    }
    let mut u16buf = [0u8; 2];
    bytes.read_exact(&mut u16buf)?;
    if u16::from_le_bytes(u16buf) != VERSION {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "unsupported trace version"));
    }
    bytes.read_exact(&mut u16buf)?; // reserved
    let mut u64buf = [0u8; 8];
    bytes.read_exact(&mut u64buf)?;
    let count = u64::from_le_bytes(u64buf);

    let mut trace = Vec::with_capacity(count.min((bytes.len() / MIN_RECORD_BYTES) as u64) as usize);
    for _ in 0..count {
        let mut head = [0u8; 4];
        bytes.read_exact(&mut head)?;
        let op = decode_op(head[0])?;
        let dst = decode_reg(head[1])?;
        let srcs = [decode_reg(head[2])?, decode_reg(head[3])?];
        bytes.read_exact(&mut u64buf)?;
        let pc = u64::from_le_bytes(u64buf);
        let mem_addr = if op.is_mem() {
            bytes.read_exact(&mut u64buf)?;
            Some(u64::from_le_bytes(u64buf))
        } else {
            None
        };
        let branch = if op.is_branch() {
            let mut taken = [0u8; 1];
            bytes.read_exact(&mut taken)?;
            bytes.read_exact(&mut u64buf)?;
            Some(BranchInfo { taken: taken[0] != 0, target: u64::from_le_bytes(u64buf) })
        } else {
            None
        };
        trace.push(TraceInst { pc, op, dst, srcs, mem_addr, branch });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchProfile, TraceGenerator};

    #[test]
    fn roundtrip_every_benchmark() {
        for p in crate::suite_all().into_iter().take(4) {
            let insts: Vec<_> = TraceGenerator::new(p, 5).take(2_000).collect();
            let mut buf = Vec::new();
            write_trace(&mut buf, &insts).unwrap();
            let back = read_trace(&mut buf.as_slice()).unwrap();
            assert_eq!(back, insts, "{}", p.name);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&mut &b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"RFCT");
        buf.extend_from_slice(&9u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated_record() {
        let insts: Vec<_> =
            TraceGenerator::new(BenchProfile::by_name("li").unwrap(), 1).take(10).collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &insts).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_trace(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn register_encoding_covers_both_classes() {
        assert_eq!(decode_reg(encode_reg(Some(ArchReg::int(31)))).unwrap(), Some(ArchReg::int(31)));
        assert_eq!(decode_reg(encode_reg(Some(ArchReg::fp(0)))).unwrap(), Some(ArchReg::fp(0)));
        assert_eq!(decode_reg(encode_reg(None)).unwrap(), None);
        assert!(decode_reg(0b0100_0000).is_err()); // class 2 invalid
    }

    #[test]
    fn replayed_trace_simulates_identically() {
        use rfcache_isa::InstSeq;
        let p = BenchProfile::by_name("go").unwrap();
        let insts: Vec<_> = TraceGenerator::new(p, 3).take(5_000).collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &insts).unwrap();
        let replay = read_trace(&mut buf.as_slice()).unwrap();
        let _seq: InstSeq = 0;
        assert_eq!(insts, replay);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Any register slot: none, or either class at any 5-bit index
        /// (the encoding's full range).
        fn arb_reg() -> impl Strategy<Value = Option<ArchReg>> {
            prop_oneof![
                proptest::strategy::Just(None),
                (0u8..2, 0u8..32).prop_map(|(class, index)| {
                    let class = if class == 0 { RegClass::Int } else { RegClass::Fp };
                    Some(ArchReg::new(class, index))
                }),
            ]
        }

        /// Arbitrary well-formed instructions: the op picks whether the
        /// memory-address and branch-outcome fields must be present,
        /// exactly as the writer requires.
        fn arb_inst() -> impl Strategy<Value = TraceInst> {
            (
                (0usize..OpClass::ALL.len(), arb_reg(), arb_reg(), arb_reg()),
                (0u64..=u64::MAX, 0u64..=u64::MAX, 0u8..2, 0u64..=u64::MAX),
            )
                .prop_map(|((op, dst, src0, src1), (pc, addr, taken, target))| {
                    let op = OpClass::ALL[op];
                    TraceInst {
                        pc,
                        op,
                        dst,
                        srcs: [src0, src1],
                        mem_addr: op.is_mem().then_some(addr),
                        branch: op.is_branch().then_some(BranchInfo { taken: taken != 0, target }),
                    }
                })
        }

        proptest! {
            #[test]
            fn roundtrip_preserves_arbitrary_streams(
                insts in proptest::collection::vec(arb_inst(), 0..64),
            ) {
                let mut buf = Vec::new();
                write_trace(&mut buf, &insts).expect("writing to a Vec cannot fail");
                let back = read_trace(&mut buf.as_slice()).expect("own output must parse");
                prop_assert_eq!(back, insts);
            }

            #[test]
            fn any_truncation_errors_instead_of_mis_parsing(
                insts in proptest::collection::vec(arb_inst(), 1..16),
                cut in 0usize..1024,
            ) {
                let mut buf = Vec::new();
                write_trace(&mut buf, &insts).expect("writing to a Vec cannot fail");
                // Cut strictly inside the stream: every prefix must be
                // rejected, never silently decoded as a shorter trace.
                let keep = cut % buf.len();
                prop_assert!(read_trace(&mut &buf[..keep]).is_err());
            }

            #[test]
            fn corrupt_header_bytes_never_panic(
                insts in proptest::collection::vec(arb_inst(), 1..8),
                at in 0usize..8,
                flip in 1u8..=u8::MAX,
            ) {
                let mut buf = Vec::new();
                write_trace(&mut buf, &insts).expect("writing to a Vec cannot fail");
                buf[at] ^= flip;
                // Magic or version corruption must error; flipping a
                // reserved byte may still parse — it just must not panic.
                let outcome = read_trace(&mut buf.as_slice());
                if at < 6 {
                    prop_assert!(outcome.is_err());
                }
            }
        }
    }
}
