//! Sidecar persistence for [`DecodedImage`]: the decoded-image half of the
//! checkpoint story.
//!
//! Campaign snapshots store FIR, so historically every resume paid a full
//! re-lower (the eager warm-up in PR 5 only moved the cost ahead of
//! replay). This module serializes the *decoded* image to a sidecar file
//! next to the snapshots — `decoded-{key:016x}.img`, keyed by the full
//! decode-cache key ([`DecodedImage::cache_key`]: module fingerprint ⊕ a
//! function of [`super::OPT_VERSION`]) — so a resume, or a service
//! restoring a thousand campaigns of one target, deserializes the op
//! streams instead of re-running the lowering and optimizer stack. Every
//! image carries both the plain and the optimized stream.
//!
//! The sidecar is strictly a **cache**: a missing, truncated, bit-flipped,
//! or wrong-version file makes [`load`] return `None` and the caller
//! re-lowers from the module. It can therefore never affect campaign
//! observables — only how much decode work a warm-up pays. For the same
//! reason sidecar I/O deliberately stays *outside* the `aflrs::storage`
//! fault plane: it must not consume deterministic fault-plan op numbers.
//!
//! Framing: `b"CXDI"` magic, format version, cache key, then a
//! length-prefixed payload sealed with FNV-1a — same corruption posture as
//! the checkpoint files (decode errors, never panics; trailing garbage is
//! rejected).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fir::{BinOp, CmpPred, FunctionId, GlobalId, Operand};

use super::{ChainComp, ChainOp, ChainTail, DFunc, DOp, DecodedImage, OptStats};
use crate::hostcalls::{HostFn, HostId};
use crate::wire::{fnv1a, Reader, WireError, Writer};

/// Magic prefix of a sidecar file.
const MAGIC: &[u8; 4] = b"CXDI";

/// Bump on any layout change; readers reject other versions (and fall
/// back to lowering — the sidecar is append-only in spirit but cheap to
/// regenerate, so no migration machinery). The cache key does not carry
/// this version, so a file from another version can sit at the very path
/// [`load`] reads; this field alone rejects it.
pub const SIDECAR_VERSION: u32 = 2;

/// `decoded-{key:016x}.img` inside `dir`.
pub fn sidecar_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("decoded-{key:016x}.img"))
}

/// Serialize `img` into `dir` under its current cache key, crash-safely
/// (tmp → fsync → rename). Returns `Ok(false)` when the file already
/// existed (another campaign of the same target won the race), `Ok(true)`
/// when this call wrote it.
///
/// # Errors
/// Propagates I/O failures; callers treat them as "no sidecar", never as
/// fatal.
pub fn save(dir: &Path, img: &DecodedImage) -> io::Result<bool> {
    let key = DecodedImage::cache_key(img.fingerprint);
    let path = sidecar_path(dir, key);
    if path.exists() {
        return Ok(false);
    }
    let bytes = seal(img, key);
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("decoded-{key:016x}.img.tmp"));
    fs::write(&tmp, &bytes)?;
    let f = fs::File::open(&tmp)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, &path)?;
    super::note(|c| c.sidecar_saves += 1);
    Ok(true)
}

/// Load the sidecar image for `key` from `dir`, or `None` when there is no
/// usable one (absent, unreadable, corrupt, version or key mismatch).
/// Callers still validate the decoded fingerprint against their module.
pub fn load(dir: &Path, key: u64) -> Option<Arc<DecodedImage>> {
    let bytes = fs::read(sidecar_path(dir, key)).ok()?;
    open(&bytes, key).ok().map(Arc::new)
}

fn seal(img: &DecodedImage, key: u64) -> Vec<u8> {
    let mut payload = Writer::new();
    encode_image(img, &mut payload);
    let payload = payload.into_bytes();
    let mut w = Writer::new();
    w.put_bytes(&MAGIC[..]);
    w.put_u32(SIDECAR_VERSION);
    w.put_u64(key);
    w.put_u64(fnv1a(&payload));
    w.put_bytes(&payload);
    w.into_bytes()
}

fn open(bytes: &[u8], want_key: u64) -> Result<DecodedImage, WireError> {
    let mut r = Reader::new(bytes);
    if r.get_bytes()? != MAGIC {
        return Err(WireError::Malformed("sidecar magic"));
    }
    if r.get_u32()? != SIDECAR_VERSION {
        return Err(WireError::Malformed("sidecar version"));
    }
    if r.get_u64()? != want_key {
        return Err(WireError::Malformed("sidecar cache key"));
    }
    let digest = r.get_u64()?;
    let payload = r.get_bytes()?;
    if !r.is_empty() {
        return Err(WireError::Malformed("sidecar trailing bytes"));
    }
    if fnv1a(&payload) != digest {
        return Err(WireError::Malformed("sidecar checksum"));
    }
    let mut r = Reader::new(&payload);
    let img = decode_image(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::Malformed("sidecar payload trailing bytes"));
    }
    Ok(img)
}

// ---------------------------------------------------------------------------
// Image / function / stats codecs
// ---------------------------------------------------------------------------

fn encode_image(img: &DecodedImage, w: &mut Writer) {
    w.put_u64(img.fingerprint);
    encode_stats(&img.stats, w);
    for fs in [&img.funcs, &img.opt_funcs] {
        w.put_usize(fs.len());
        for f in fs {
            encode_func(f, w);
        }
    }
}

fn decode_image(r: &mut Reader<'_>) -> Result<DecodedImage, WireError> {
    let fingerprint = r.get_u64()?;
    let stats = decode_stats(r)?;
    let funcs = decode_funcs(r)?;
    let opt_funcs = decode_funcs(r)?;
    Ok(DecodedImage {
        funcs,
        opt_funcs,
        fingerprint,
        stats,
    })
}

fn decode_funcs(r: &mut Reader<'_>) -> Result<Vec<DFunc>, WireError> {
    let n = bounded_count(r)?;
    let mut fs = Vec::with_capacity(n);
    for _ in 0..n {
        fs.push(decode_func(r)?);
    }
    Ok(fs)
}

fn encode_stats(s: &OptStats, w: &mut Writer) {
    w.put_u32(s.version);
    for v in [
        s.fused_cov_cmp_br,
        s.fused_cmp_br,
        s.fused_bin_br,
        s.fused_mov_br,
        s.fused_store_br,
        s.fused_bin_load,
        s.fused_load_bin,
        s.chains,
        s.chain_comps,
        s.switch_tables,
        s.br_chains_folded,
        s.blocks_merged,
        s.insts_eliminated,
        s.movs_coalesced,
        s.operands_resolved,
        s.cov_edges_resolved,
        s.inline_sites,
        s.inlined_callees,
        s.decode_micros,
    ] {
        w.put_u64(v);
    }
}

fn decode_stats(r: &mut Reader<'_>) -> Result<OptStats, WireError> {
    Ok(OptStats {
        version: r.get_u32()?,
        fused_cov_cmp_br: r.get_u64()?,
        fused_cmp_br: r.get_u64()?,
        fused_bin_br: r.get_u64()?,
        fused_mov_br: r.get_u64()?,
        fused_store_br: r.get_u64()?,
        fused_bin_load: r.get_u64()?,
        fused_load_bin: r.get_u64()?,
        chains: r.get_u64()?,
        chain_comps: r.get_u64()?,
        switch_tables: r.get_u64()?,
        br_chains_folded: r.get_u64()?,
        blocks_merged: r.get_u64()?,
        insts_eliminated: r.get_u64()?,
        movs_coalesced: r.get_u64()?,
        operands_resolved: r.get_u64()?,
        cov_edges_resolved: r.get_u64()?,
        inline_sites: r.get_u64()?,
        inlined_callees: r.get_u64()?,
        decode_micros: r.get_u64()?,
    })
}

fn encode_func(f: &DFunc, w: &mut Writer) {
    w.put_str(&f.name);
    w.put_u32(f.num_params);
    w.put_u32(f.num_regs);
    w.put_usize(f.ops.len());
    for op in &f.ops {
        encode_op(op, w);
    }
    put_u16s(w, &f.pre);
    put_u32s(w, &f.block_of);
    put_u32s(w, &f.fname_of);
    put_u32s(w, &f.block_start);
    put_u32s(w, &f.orig_start);
    put_u32s(w, &f.pc_of_src);
}

fn decode_func(r: &mut Reader<'_>) -> Result<DFunc, WireError> {
    let name = r.get_str()?;
    let num_params = r.get_u32()?;
    let num_regs = r.get_u32()?;
    let n = bounded_count(r)?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(decode_op(r)?);
    }
    Ok(DFunc {
        name,
        num_params,
        num_regs,
        ops,
        pre: get_u16s(r)?,
        block_of: get_u32s(r)?,
        fname_of: get_u32s(r)?,
        block_start: get_u32s(r)?,
        orig_start: get_u32s(r)?,
        pc_of_src: get_u32s(r)?,
    })
}

// ---------------------------------------------------------------------------
// Small-value helpers
// ---------------------------------------------------------------------------

/// Read a count of variable-size records, bounded by the bytes that remain
/// (every record is at least one byte) so a corrupt prefix cannot trigger
/// a huge allocation.
fn bounded_count(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let n = r.get_count()?;
    if n > r.remaining() {
        return Err(WireError::Truncated);
    }
    Ok(n)
}

fn put_u16s(w: &mut Writer, v: &[u16]) {
    w.put_usize(v.len());
    for &x in v {
        w.put_u16(x);
    }
}

fn get_u16s(r: &mut Reader<'_>) -> Result<Vec<u16>, WireError> {
    let n = r.get_count()?;
    if n > r.remaining() / 2 {
        return Err(WireError::Truncated);
    }
    (0..n).map(|_| r.get_u16()).collect()
}

fn put_u32s(w: &mut Writer, v: &[u32]) {
    w.put_usize(v.len());
    for &x in v {
        w.put_u32(x);
    }
}

fn get_u32s(r: &mut Reader<'_>) -> Result<Vec<u32>, WireError> {
    let n = r.get_count()?;
    if n > r.remaining() / 4 {
        return Err(WireError::Truncated);
    }
    (0..n).map(|_| r.get_u32()).collect()
}

fn put_operand(w: &mut Writer, o: &Operand) {
    match o {
        Operand::Reg(r) => {
            w.put_u8(0);
            w.put_u32(r.0);
        }
        Operand::Imm(v) => {
            w.put_u8(1);
            w.put_i64(*v);
        }
    }
}

fn get_operand(r: &mut Reader<'_>) -> Result<Operand, WireError> {
    Ok(match r.get_u8()? {
        0 => Operand::Reg(fir::Reg(r.get_u32()?)),
        1 => Operand::Imm(r.get_i64()?),
        _ => return Err(WireError::Malformed("operand tag")),
    })
}

fn put_operands(w: &mut Writer, os: &[Operand]) {
    w.put_usize(os.len());
    for o in os {
        put_operand(w, o);
    }
}

fn get_operands(r: &mut Reader<'_>) -> Result<Box<[Operand]>, WireError> {
    let n = bounded_count(r)?;
    (0..n).map(|_| get_operand(r)).collect()
}

fn put_opt_reg(w: &mut Writer, v: Option<fir::Reg>) {
    match v {
        None => w.put_bool(false),
        Some(reg) => {
            w.put_bool(true);
            w.put_u32(reg.0);
        }
    }
}

fn get_opt_reg(r: &mut Reader<'_>) -> Result<Option<fir::Reg>, WireError> {
    Ok(if r.get_bool()? {
        Some(fir::Reg(r.get_u32()?))
    } else {
        None
    })
}

fn bin_op_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::UDiv => 3,
        BinOp::SDiv => 4,
        BinOp::URem => 5,
        BinOp::SRem => 6,
        BinOp::And => 7,
        BinOp::Or => 8,
        BinOp::Xor => 9,
        BinOp::Shl => 10,
        BinOp::LShr => 11,
        BinOp::AShr => 12,
    }
}

fn bin_op_from(tag: u8) -> Result<BinOp, WireError> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::UDiv,
        4 => BinOp::SDiv,
        5 => BinOp::URem,
        6 => BinOp::SRem,
        7 => BinOp::And,
        8 => BinOp::Or,
        9 => BinOp::Xor,
        10 => BinOp::Shl,
        11 => BinOp::LShr,
        12 => BinOp::AShr,
        _ => return Err(WireError::Malformed("binop tag")),
    })
}

fn cmp_pred_tag(p: CmpPred) -> u8 {
    match p {
        CmpPred::Eq => 0,
        CmpPred::Ne => 1,
        CmpPred::ULt => 2,
        CmpPred::ULe => 3,
        CmpPred::UGt => 4,
        CmpPred::UGe => 5,
        CmpPred::SLt => 6,
        CmpPred::SLe => 7,
        CmpPred::SGt => 8,
        CmpPred::SGe => 9,
    }
}

fn cmp_pred_from(tag: u8) -> Result<CmpPred, WireError> {
    Ok(match tag {
        0 => CmpPred::Eq,
        1 => CmpPred::Ne,
        2 => CmpPred::ULt,
        3 => CmpPred::ULe,
        4 => CmpPred::UGt,
        5 => CmpPred::UGe,
        6 => CmpPred::SLt,
        7 => CmpPred::SLe,
        8 => CmpPred::SGt,
        9 => CmpPred::SGe,
        _ => return Err(WireError::Malformed("cmp pred tag")),
    })
}

fn host_fn_tag(f: HostFn) -> u8 {
    match f {
        HostFn::Malloc => 0,
        HostFn::Calloc => 1,
        HostFn::Realloc => 2,
        HostFn::Free => 3,
        HostFn::Memcpy => 4,
        HostFn::Memset => 5,
        HostFn::Memcmp => 6,
        HostFn::Strlen => 7,
        HostFn::Strcmp => 8,
        HostFn::Fopen => 9,
        HostFn::Fclose => 10,
        HostFn::Fread => 11,
        HostFn::Fgetc => 12,
        HostFn::Fseek => 13,
        HostFn::Ftell => 14,
        HostFn::Feof => 15,
        HostFn::Fsize => 16,
        HostFn::Exit => 17,
        HostFn::ExitHook => 18,
        HostFn::Abort => 19,
        HostFn::Getpid => 20,
        HostFn::Rand => 21,
        HostFn::Puts => 22,
        HostFn::Putchar => 23,
        HostFn::PrintInt => 24,
    }
}

fn host_fn_from(tag: u8) -> Result<HostFn, WireError> {
    Ok(match tag {
        0 => HostFn::Malloc,
        1 => HostFn::Calloc,
        2 => HostFn::Realloc,
        3 => HostFn::Free,
        4 => HostFn::Memcpy,
        5 => HostFn::Memset,
        6 => HostFn::Memcmp,
        7 => HostFn::Strlen,
        8 => HostFn::Strcmp,
        9 => HostFn::Fopen,
        10 => HostFn::Fclose,
        11 => HostFn::Fread,
        12 => HostFn::Fgetc,
        13 => HostFn::Fseek,
        14 => HostFn::Ftell,
        15 => HostFn::Feof,
        16 => HostFn::Fsize,
        17 => HostFn::Exit,
        18 => HostFn::ExitHook,
        19 => HostFn::Abort,
        20 => HostFn::Getpid,
        21 => HostFn::Rand,
        22 => HostFn::Puts,
        23 => HostFn::Putchar,
        24 => HostFn::PrintInt,
        _ => return Err(WireError::Malformed("host fn tag")),
    })
}

// ---------------------------------------------------------------------------
// DOp codec
// ---------------------------------------------------------------------------

fn encode_op(op: &DOp, w: &mut Writer) {
    match op {
        DOp::Const { dst, value } => {
            w.put_u8(0);
            w.put_u32(*dst);
            w.put_i64(*value);
        }
        DOp::Mov { dst, src } => {
            w.put_u8(1);
            w.put_u32(*dst);
            put_operand(w, src);
        }
        DOp::Bin { op, dst, lhs, rhs } => {
            w.put_u8(2);
            w.put_u8(bin_op_tag(*op));
            w.put_u32(*dst);
            put_operand(w, lhs);
            put_operand(w, rhs);
        }
        DOp::Cmp {
            pred,
            dst,
            lhs,
            rhs,
        } => {
            w.put_u8(3);
            w.put_u8(cmp_pred_tag(*pred));
            w.put_u32(*dst);
            put_operand(w, lhs);
            put_operand(w, rhs);
        }
        DOp::Select {
            dst,
            cond,
            if_true,
            if_false,
        } => {
            w.put_u8(4);
            w.put_u32(*dst);
            put_operand(w, cond);
            put_operand(w, if_true);
            put_operand(w, if_false);
        }
        DOp::Load { dst, addr, bytes } => {
            w.put_u8(5);
            w.put_u32(*dst);
            put_operand(w, addr);
            w.put_u64(*bytes);
        }
        DOp::Store { addr, value, bytes } => {
            w.put_u8(6);
            put_operand(w, addr);
            put_operand(w, value);
            w.put_u64(*bytes);
        }
        DOp::AddrOf { dst, global } => {
            w.put_u8(7);
            w.put_u32(*dst);
            w.put_u32(global.0);
        }
        DOp::Alloca { dst, size, rounded } => {
            w.put_u8(8);
            w.put_u32(*dst);
            w.put_u32(*size);
            w.put_u64(*rounded);
        }
        DOp::CovEdge { id } => {
            w.put_u8(9);
            put_operand(w, id);
        }
        DOp::Setjmp {
            dst,
            buf,
            ret_block,
            ret_ip,
        } => {
            w.put_u8(10);
            put_opt_reg(w, *dst);
            put_operand(w, buf);
            w.put_u32(*ret_block);
            w.put_u32(*ret_ip);
        }
        DOp::Longjmp { buf, val } => {
            w.put_u8(11);
            put_operand(w, buf);
            put_operand(w, val);
        }
        DOp::CallFn {
            dst,
            callee,
            args,
            ret_block,
            ret_ip,
        } => {
            w.put_u8(12);
            put_opt_reg(w, *dst);
            w.put_u32(callee.0);
            put_operands(w, args);
            w.put_u32(*ret_block);
            w.put_u32(*ret_ip);
        }
        DOp::CallHost { dst, host, args } => {
            w.put_u8(13);
            put_opt_reg(w, *dst);
            w.put_u8(host_fn_tag(host.fun));
            w.put_bool(host.hooked);
            put_operands(w, args);
        }
        DOp::CallUnknown { name } => {
            w.put_u8(14);
            w.put_str(name);
        }
        DOp::Ret(v) => {
            w.put_u8(15);
            match v {
                None => w.put_bool(false),
                Some(o) => {
                    w.put_bool(true);
                    put_operand(w, o);
                }
            }
        }
        DOp::Br(t) => {
            w.put_u8(16);
            w.put_u32(*t);
        }
        DOp::CondBr {
            cond,
            if_true,
            if_false,
        } => {
            w.put_u8(17);
            put_operand(w, cond);
            w.put_u32(*if_true);
            w.put_u32(*if_false);
        }
        DOp::Switch {
            value,
            cases,
            default,
        } => {
            w.put_u8(18);
            put_operand(w, value);
            w.put_usize(cases.len());
            for (v, t) in cases.iter() {
                w.put_i64(*v);
                w.put_u32(*t);
            }
            w.put_u32(*default);
        }
        DOp::Unreachable => w.put_u8(19),
        DOp::CovEdgeK { id } => {
            w.put_u8(20);
            w.put_u16(*id);
        }
        DOp::CovCmpBr {
            id,
            pred,
            dst,
            lhs,
            rhs,
            if_true,
            if_false,
        } => {
            w.put_u8(21);
            w.put_u16(*id);
            w.put_u8(cmp_pred_tag(*pred));
            w.put_u32(*dst);
            put_operand(w, lhs);
            put_operand(w, rhs);
            w.put_u32(*if_true);
            w.put_u32(*if_false);
        }
        DOp::CmpBr {
            pred,
            dst,
            lhs,
            rhs,
            if_true,
            if_false,
        } => {
            w.put_u8(22);
            w.put_u8(cmp_pred_tag(*pred));
            w.put_u32(*dst);
            put_operand(w, lhs);
            put_operand(w, rhs);
            w.put_u32(*if_true);
            w.put_u32(*if_false);
        }
        DOp::BinBr {
            op,
            dst,
            lhs,
            rhs,
            target,
        } => {
            w.put_u8(23);
            w.put_u8(bin_op_tag(*op));
            w.put_u32(*dst);
            put_operand(w, lhs);
            put_operand(w, rhs);
            w.put_u32(*target);
        }
        DOp::MovBr { dst, src, target } => {
            w.put_u8(24);
            w.put_u32(*dst);
            put_operand(w, src);
            w.put_u32(*target);
        }
        DOp::StoreBr {
            addr,
            value,
            bytes,
            target,
        } => {
            w.put_u8(25);
            put_operand(w, addr);
            put_operand(w, value);
            w.put_u64(*bytes);
            w.put_u32(*target);
        }
        DOp::BinLoad {
            op,
            bdst,
            lhs,
            rhs,
            ldst,
            addr,
            bytes,
        } => {
            w.put_u8(26);
            w.put_u8(bin_op_tag(*op));
            w.put_u32(*bdst);
            put_operand(w, lhs);
            put_operand(w, rhs);
            w.put_u32(*ldst);
            put_operand(w, addr);
            w.put_u64(*bytes);
        }
        DOp::LoadBin {
            ldst,
            addr,
            bytes,
            op,
            bdst,
            lhs,
            rhs,
        } => {
            w.put_u8(27);
            w.put_u32(*ldst);
            put_operand(w, addr);
            w.put_u64(*bytes);
            w.put_u8(bin_op_tag(*op));
            w.put_u32(*bdst);
            put_operand(w, lhs);
            put_operand(w, rhs);
        }
        DOp::BrChain { target, skipped } => {
            w.put_u8(28);
            w.put_u32(*target);
            w.put_u16(*skipped);
        }
        DOp::SwitchTable {
            value,
            base,
            table,
            default,
        } => {
            w.put_u8(29);
            put_operand(w, value);
            w.put_i64(*base);
            put_u32s(w, table);
            w.put_u32(*default);
        }
        DOp::InlineEnter {
            callee,
            args,
            base,
            nregs,
            sp_slot,
            entry,
        } => {
            w.put_u8(30);
            w.put_u32(callee.0);
            put_operands(w, args);
            w.put_u32(*base);
            w.put_u32(*nregs);
            w.put_u32(*sp_slot);
            w.put_u32(*entry);
        }
        DOp::InlineRet {
            val,
            dst,
            sp_slot,
            resume,
        } => {
            w.put_u8(31);
            match val {
                None => w.put_bool(false),
                Some(o) => {
                    w.put_bool(true);
                    put_operand(w, o);
                }
            }
            match dst {
                None => w.put_bool(false),
                Some(d) => {
                    w.put_bool(true);
                    w.put_u32(*d);
                }
            }
            w.put_u32(*sp_slot);
            w.put_u32(*resume);
        }
        DOp::Chain { comps, tail, .. } => {
            w.put_u8(32);
            w.put_usize(comps.len());
            for c in comps.iter() {
                w.put_u16(c.pre);
                encode_chain_op(&c.op, w);
            }
            match tail {
                ChainTail::Next => w.put_u8(0),
                ChainTail::Br { pre, target } => {
                    w.put_u8(1);
                    w.put_u16(*pre);
                    w.put_u32(*target);
                }
                ChainTail::CondBr {
                    pre,
                    cond,
                    if_true,
                    if_false,
                } => {
                    w.put_u8(2);
                    w.put_u16(*pre);
                    put_operand(w, cond);
                    w.put_u32(*if_true);
                    w.put_u32(*if_false);
                }
            }
        }
    }
}

fn decode_op(r: &mut Reader<'_>) -> Result<DOp, WireError> {
    Ok(match r.get_u8()? {
        0 => DOp::Const {
            dst: r.get_u32()?,
            value: r.get_i64()?,
        },
        1 => DOp::Mov {
            dst: r.get_u32()?,
            src: get_operand(r)?,
        },
        2 => DOp::Bin {
            op: bin_op_from(r.get_u8()?)?,
            dst: r.get_u32()?,
            lhs: get_operand(r)?,
            rhs: get_operand(r)?,
        },
        3 => DOp::Cmp {
            pred: cmp_pred_from(r.get_u8()?)?,
            dst: r.get_u32()?,
            lhs: get_operand(r)?,
            rhs: get_operand(r)?,
        },
        4 => DOp::Select {
            dst: r.get_u32()?,
            cond: get_operand(r)?,
            if_true: get_operand(r)?,
            if_false: get_operand(r)?,
        },
        5 => DOp::Load {
            dst: r.get_u32()?,
            addr: get_operand(r)?,
            bytes: r.get_u64()?,
        },
        6 => DOp::Store {
            addr: get_operand(r)?,
            value: get_operand(r)?,
            bytes: r.get_u64()?,
        },
        7 => DOp::AddrOf {
            dst: r.get_u32()?,
            global: GlobalId(r.get_u32()?),
        },
        8 => DOp::Alloca {
            dst: r.get_u32()?,
            size: r.get_u32()?,
            rounded: r.get_u64()?,
        },
        9 => DOp::CovEdge {
            id: get_operand(r)?,
        },
        10 => DOp::Setjmp {
            dst: get_opt_reg(r)?,
            buf: get_operand(r)?,
            ret_block: r.get_u32()?,
            ret_ip: r.get_u32()?,
        },
        11 => DOp::Longjmp {
            buf: get_operand(r)?,
            val: get_operand(r)?,
        },
        12 => DOp::CallFn {
            dst: get_opt_reg(r)?,
            callee: FunctionId(r.get_u32()?),
            args: get_operands(r)?,
            ret_block: r.get_u32()?,
            ret_ip: r.get_u32()?,
        },
        13 => DOp::CallHost {
            dst: get_opt_reg(r)?,
            host: HostId {
                fun: host_fn_from(r.get_u8()?)?,
                hooked: r.get_bool()?,
            },
            args: get_operands(r)?,
        },
        14 => DOp::CallUnknown {
            name: r.get_str()?.into_boxed_str(),
        },
        15 => DOp::Ret(if r.get_bool()? {
            Some(get_operand(r)?)
        } else {
            None
        }),
        16 => DOp::Br(r.get_u32()?),
        17 => DOp::CondBr {
            cond: get_operand(r)?,
            if_true: r.get_u32()?,
            if_false: r.get_u32()?,
        },
        18 => {
            let value = get_operand(r)?;
            let n = bounded_count(r)?;
            let mut cases = Vec::with_capacity(n);
            for _ in 0..n {
                cases.push((r.get_i64()?, r.get_u32()?));
            }
            DOp::Switch {
                value,
                cases: cases.into_boxed_slice(),
                default: r.get_u32()?,
            }
        }
        19 => DOp::Unreachable,
        20 => DOp::CovEdgeK { id: r.get_u16()? },
        21 => DOp::CovCmpBr {
            id: r.get_u16()?,
            pred: cmp_pred_from(r.get_u8()?)?,
            dst: r.get_u32()?,
            lhs: get_operand(r)?,
            rhs: get_operand(r)?,
            if_true: r.get_u32()?,
            if_false: r.get_u32()?,
        },
        22 => DOp::CmpBr {
            pred: cmp_pred_from(r.get_u8()?)?,
            dst: r.get_u32()?,
            lhs: get_operand(r)?,
            rhs: get_operand(r)?,
            if_true: r.get_u32()?,
            if_false: r.get_u32()?,
        },
        23 => DOp::BinBr {
            op: bin_op_from(r.get_u8()?)?,
            dst: r.get_u32()?,
            lhs: get_operand(r)?,
            rhs: get_operand(r)?,
            target: r.get_u32()?,
        },
        24 => DOp::MovBr {
            dst: r.get_u32()?,
            src: get_operand(r)?,
            target: r.get_u32()?,
        },
        25 => DOp::StoreBr {
            addr: get_operand(r)?,
            value: get_operand(r)?,
            bytes: r.get_u64()?,
            target: r.get_u32()?,
        },
        26 => DOp::BinLoad {
            op: bin_op_from(r.get_u8()?)?,
            bdst: r.get_u32()?,
            lhs: get_operand(r)?,
            rhs: get_operand(r)?,
            ldst: r.get_u32()?,
            addr: get_operand(r)?,
            bytes: r.get_u64()?,
        },
        27 => DOp::LoadBin {
            ldst: r.get_u32()?,
            addr: get_operand(r)?,
            bytes: r.get_u64()?,
            op: bin_op_from(r.get_u8()?)?,
            bdst: r.get_u32()?,
            lhs: get_operand(r)?,
            rhs: get_operand(r)?,
        },
        28 => DOp::BrChain {
            target: r.get_u32()?,
            skipped: r.get_u16()?,
        },
        29 => DOp::SwitchTable {
            value: get_operand(r)?,
            base: r.get_i64()?,
            table: get_u32s(r)?.into_boxed_slice(),
            default: r.get_u32()?,
        },
        30 => DOp::InlineEnter {
            callee: FunctionId(r.get_u32()?),
            args: get_operands(r)?,
            base: r.get_u32()?,
            nregs: r.get_u32()?,
            sp_slot: r.get_u32()?,
            entry: r.get_u32()?,
        },
        31 => DOp::InlineRet {
            val: if r.get_bool()? {
                Some(get_operand(r)?)
            } else {
                None
            },
            dst: if r.get_bool()? {
                Some(r.get_u32()?)
            } else {
                None
            },
            sp_slot: r.get_u32()?,
            resume: r.get_u32()?,
        },
        32 => {
            let n = bounded_count(r)?;
            let mut comps = Vec::with_capacity(n);
            for _ in 0..n {
                comps.push(ChainComp {
                    pre: r.get_u16()?,
                    op: decode_chain_op(r)?,
                });
            }
            let tail = match r.get_u8()? {
                0 => ChainTail::Next,
                1 => ChainTail::Br {
                    pre: r.get_u16()?,
                    target: r.get_u32()?,
                },
                2 => ChainTail::CondBr {
                    pre: r.get_u16()?,
                    cond: get_operand(r)?,
                    if_true: r.get_u32()?,
                    if_false: r.get_u32()?,
                },
                _ => return Err(WireError::Malformed("chain tail tag")),
            };
            DOp::chain(comps.into_boxed_slice(), tail)
        }
        _ => return Err(WireError::Malformed("dop tag")),
    })
}

fn encode_chain_op(op: &ChainOp, w: &mut Writer) {
    match op {
        ChainOp::Const { dst, value } => {
            w.put_u8(0);
            w.put_u32(*dst);
            w.put_i64(*value);
        }
        ChainOp::Mov { dst, src } => {
            w.put_u8(1);
            w.put_u32(*dst);
            put_operand(w, src);
        }
        ChainOp::Bin { op, dst, lhs, rhs } => {
            w.put_u8(2);
            w.put_u8(bin_op_tag(*op));
            w.put_u32(*dst);
            put_operand(w, lhs);
            put_operand(w, rhs);
        }
        ChainOp::Cmp {
            pred,
            dst,
            lhs,
            rhs,
        } => {
            w.put_u8(3);
            w.put_u8(cmp_pred_tag(*pred));
            w.put_u32(*dst);
            put_operand(w, lhs);
            put_operand(w, rhs);
        }
        ChainOp::Select {
            dst,
            cond,
            if_true,
            if_false,
        } => {
            w.put_u8(4);
            w.put_u32(*dst);
            put_operand(w, cond);
            put_operand(w, if_true);
            put_operand(w, if_false);
        }
        ChainOp::Cov { id } => {
            w.put_u8(5);
            w.put_u16(*id);
        }
        ChainOp::Load { dst, addr, bytes } => {
            w.put_u8(6);
            w.put_u32(*dst);
            put_operand(w, addr);
            w.put_u64(*bytes);
        }
        ChainOp::Store { addr, value, bytes } => {
            w.put_u8(7);
            put_operand(w, addr);
            put_operand(w, value);
            w.put_u64(*bytes);
        }
        ChainOp::AddrOf { dst, global } => {
            w.put_u8(8);
            w.put_u32(*dst);
            w.put_u32(global.0);
        }
    }
}

fn decode_chain_op(r: &mut Reader<'_>) -> Result<ChainOp, WireError> {
    Ok(match r.get_u8()? {
        0 => ChainOp::Const {
            dst: r.get_u32()?,
            value: r.get_i64()?,
        },
        1 => ChainOp::Mov {
            dst: r.get_u32()?,
            src: get_operand(r)?,
        },
        2 => ChainOp::Bin {
            op: bin_op_from(r.get_u8()?)?,
            dst: r.get_u32()?,
            lhs: get_operand(r)?,
            rhs: get_operand(r)?,
        },
        3 => ChainOp::Cmp {
            pred: cmp_pred_from(r.get_u8()?)?,
            dst: r.get_u32()?,
            lhs: get_operand(r)?,
            rhs: get_operand(r)?,
        },
        4 => ChainOp::Select {
            dst: r.get_u32()?,
            cond: get_operand(r)?,
            if_true: get_operand(r)?,
            if_false: get_operand(r)?,
        },
        5 => ChainOp::Cov { id: r.get_u16()? },
        6 => ChainOp::Load {
            dst: r.get_u32()?,
            addr: get_operand(r)?,
            bytes: r.get_u64()?,
        },
        7 => ChainOp::Store {
            addr: get_operand(r)?,
            value: get_operand(r)?,
            bytes: r.get_u64()?,
        },
        8 => ChainOp::AddrOf {
            dst: r.get_u32()?,
            global: GlobalId(r.get_u32()?),
        },
        _ => return Err(WireError::Malformed("chain op tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoded::{decode_counters, WarmSource};
    use fir::builder::ModuleBuilder;
    use fir::Module;

    fn sample_module() -> Module {
        let mut mb = ModuleBuilder::new("sidecar-sample");
        let mut f = mb.function_with_params("sum", 1);
        let n = f.param(0);
        let acc = f.const_i64(0);
        let i = f.const_i64(0);
        let hdr = f.new_block();
        let body = f.new_block();
        let done = f.new_block();
        f.br(hdr);
        f.switch_to(hdr);
        f.call_void("__cov_edge", vec![Operand::Imm(7)]);
        let c = f.cmp(CmpPred::SLt, Operand::Reg(i), Operand::Reg(n));
        f.cond_br(Operand::Reg(c), body, done);
        f.switch_to(body);
        let acc2 = f.add(Operand::Reg(acc), Operand::Reg(i));
        f.mov_to(acc, Operand::Reg(acc2));
        let i2 = f.add(Operand::Reg(i), Operand::Imm(1));
        f.mov_to(i, Operand::Reg(i2));
        f.br(hdr);
        f.switch_to(done);
        f.call_void("puts", vec![Operand::Imm(0)]);
        f.ret(Some(Operand::Reg(acc)));
        f.finish();
        mb.finish()
    }

    #[test]
    fn roundtrip_is_exact() {
        let m = sample_module();
        let img = DecodedImage::new(&m);
        let key = DecodedImage::cache_key(img.fingerprint);
        let bytes = seal(&img, key);
        let back = open(&bytes, key).expect("roundtrip");
        assert_eq!(img, back);
    }

    #[test]
    fn save_and_load_through_files() {
        let dir = std::env::temp_dir().join(format!("cx-sidecar-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let m = sample_module();
        let img = DecodedImage::new(&m);
        let key = DecodedImage::cache_key(img.fingerprint);
        assert!(save(&dir, &img).expect("save"));
        // Second save is a no-op: the file already exists.
        assert!(!save(&dir, &img).expect("save again"));
        let back = load(&dir, key).expect("load");
        assert_eq!(img, *back);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_rejected_not_panicked() {
        let m = sample_module();
        let img = DecodedImage::new(&m);
        let key = DecodedImage::cache_key(img.fingerprint);
        let good = seal(&img, key);
        // Wrong key.
        assert!(open(&good, key ^ 1).is_err());
        // Truncations at every prefix length must error, never panic.
        for cut in 0..good.len().min(64) {
            assert!(open(&good[..cut], key).is_err());
        }
        // Single-bit flips anywhere must error (checksum or structure).
        for i in (0..good.len()).step_by(97) {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(open(&bad, key).is_err() || bad == good);
        }
    }

    /// [`seal`] with the version field forced to `version`.
    fn seal_as(img: &DecodedImage, key: u64, version: u32) -> Vec<u8> {
        let mut payload = Writer::new();
        encode_image(img, &mut payload);
        let payload = payload.into_bytes();
        let mut w = Writer::new();
        w.put_bytes(&MAGIC[..]);
        w.put_u32(version);
        w.put_u64(key);
        w.put_u64(fnv1a(&payload));
        w.put_bytes(&payload);
        w.into_bytes()
    }

    #[test]
    fn other_versions_are_rejected_and_fall_through_to_lowering() {
        // The cache key does not depend on SIDECAR_VERSION, so a sidecar
        // from another version sits at the very path this build reads.
        // Only the version field stands between it and the decoder.
        let mut m = sample_module();
        m.name = "sidecar-version-probe".into();
        let img = DecodedImage::new(&m);
        let key = DecodedImage::cache_key(img.fingerprint);
        assert_eq!(seal_as(&img, key, SIDECAR_VERSION), seal(&img, key));
        for version in [1, SIDECAR_VERSION + 1] {
            let stale = seal_as(&img, key, version);
            assert!(matches!(
                open(&stale, key),
                Err(WireError::Malformed("sidecar version"))
            ));
        }

        let dir = std::env::temp_dir().join(format!("cx-sidecar-v-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(sidecar_path(&dir, key), seal_as(&img, key, 1)).expect("write");
        assert!(load(&dir, key).is_none());
        assert!(!DecodedImage::cache_contains(img.fingerprint));
        let loads = decode_counters().sidecar_loads;
        assert_eq!(
            DecodedImage::warm_with_sidecar(&m, Some(&dir)),
            WarmSource::Lowered
        );
        assert_eq!(decode_counters().sidecar_loads, loads);
        let _ = fs::remove_dir_all(&dir);
    }
}
