//! The simulated libc: host calls resolved by name when a FIR `call` does
//! not match any module function.
//!
//! This is where the ClosureX wrappers live too (`closurex_malloc`,
//! `closurex_fopen`, `closurex_exit_hook`, …): the compiler passes rewrite
//! the target's call sites to these names, and the wrappers update the
//! [`crate::process::ClosureRt`] side-state that the harness sweeps between
//! test cases.

use crate::cost::CostModel;
use crate::crash::{Crash, CrashKind};
use crate::fault::FaultKind;
use crate::heap::HeapError;
use crate::os::Os;
use crate::process::Process;

/// Effect of a host call on control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostRet {
    /// Produced a value (written to the call's destination register).
    Val(i64),
    /// No value.
    Void,
    /// `exit(code)` — terminate the process.
    Exit(i32),
    /// `closurex_exit_hook(code)` — unwind to the persistent-loop harness
    /// instead of terminating (the paper's `longjmp`-based exit intercept).
    ExitHook(i32),
}

/// Upper bound on bulk sizes before we call it a negative-size operation
/// (matches ASan's "negative-size-param" heuristic).
const BULK_LIMIT: i64 = 1 << 31;

fn crash(kind: CrashKind, site: (&str, u32), detail: String) -> Crash {
    Crash {
        kind,
        function: site.0.to_string(),
        block: site.1,
        detail,
    }
}

fn heap_err_to_crash(e: HeapError, site: (&str, u32), what: &str) -> Crash {
    match e {
        HeapError::DoubleFree => crash(CrashKind::DoubleFree, site, what.to_string()),
        HeapError::InvalidFree => crash(CrashKind::InvalidFree, site, what.to_string()),
        HeapError::OutOfMemory => crash(CrashKind::OutOfMemory, site, what.to_string()),
    }
}

fn arg(args: &[i64], i: usize) -> i64 {
    args.get(i).copied().unwrap_or(0)
}

/// The host functions the simulated libc implements, with the ClosureX
/// wrapper aliases folded into the [`HostId::hooked`] flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostFn {
    /// `malloc` / `closurex_malloc`.
    Malloc,
    /// `calloc` / `closurex_calloc`.
    Calloc,
    /// `realloc` / `closurex_realloc`.
    Realloc,
    /// `free` / `closurex_free`.
    Free,
    /// `memcpy` and `memmove` (identical in this machine).
    Memcpy,
    /// `memset`.
    Memset,
    /// `memcmp`.
    Memcmp,
    /// `strlen`.
    Strlen,
    /// `strcmp`.
    Strcmp,
    /// `fopen` / `closurex_fopen`.
    Fopen,
    /// `fclose` / `closurex_fclose`.
    Fclose,
    /// `fread`.
    Fread,
    /// `fgetc`.
    Fgetc,
    /// `fseek`.
    Fseek,
    /// `ftell`.
    Ftell,
    /// `feof`.
    Feof,
    /// `fsize` (stat analog).
    Fsize,
    /// `exit` and `_exit`.
    Exit,
    /// `closurex_exit_hook`.
    ExitHook,
    /// `abort`.
    Abort,
    /// `getpid`.
    Getpid,
    /// `rand`.
    Rand,
    /// `puts`.
    Puts,
    /// `putchar`.
    Putchar,
    /// `print_int`.
    PrintInt,
}

/// A pre-bound host call: which function, and whether it was reached
/// through its `closurex_*` wrapper alias (which charges the wrapper cost
/// and updates [`crate::process::ClosureRt`] side-state).
///
/// The decoded engine resolves names to `HostId`s once at lowering time;
/// the reference interpreter resolves per call via [`resolve`]. Both then
/// run the same [`dispatch_id`], so semantics cannot diverge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostId {
    /// Which host function.
    pub fun: HostFn,
    /// Reached via the `closurex_*` wrapper alias?
    pub hooked: bool,
}

/// Resolve a call-site name to a host function id. `None` means unknown
/// (the interpreter then reports an unresolved-symbol crash).
pub fn resolve(name: &str) -> Option<HostId> {
    use HostFn::*;
    let plain = |fun| Some(HostId { fun, hooked: false });
    let hooked = |fun| Some(HostId { fun, hooked: true });
    match name {
        "malloc" => plain(Malloc),
        "closurex_malloc" => hooked(Malloc),
        "calloc" => plain(Calloc),
        "closurex_calloc" => hooked(Calloc),
        "realloc" => plain(Realloc),
        "closurex_realloc" => hooked(Realloc),
        "free" => plain(Free),
        "closurex_free" => hooked(Free),
        "memcpy" | "memmove" => plain(Memcpy),
        "memset" => plain(Memset),
        "memcmp" => plain(Memcmp),
        "strlen" => plain(Strlen),
        "strcmp" => plain(Strcmp),
        "fopen" => plain(Fopen),
        "closurex_fopen" => hooked(Fopen),
        "fclose" => plain(Fclose),
        "closurex_fclose" => hooked(Fclose),
        "fread" => plain(Fread),
        "fgetc" => plain(Fgetc),
        "fseek" => plain(Fseek),
        "ftell" => plain(Ftell),
        "feof" => plain(Feof),
        "fsize" => plain(Fsize),
        "exit" | "_exit" => plain(Exit),
        "closurex_exit_hook" => plain(ExitHook),
        "abort" => plain(Abort),
        "getpid" => plain(Getpid),
        "rand" => plain(Rand),
        "puts" => plain(Puts),
        "putchar" => plain(Putchar),
        "print_int" => plain(PrintInt),
        _ => None,
    }
}

/// Dispatch a host call by name. Returns `Ok(None)` when the name is
/// unknown (the interpreter then reports an unresolved-symbol crash).
///
/// # Errors
/// A [`Crash`] for detected memory/resource errors.
pub fn dispatch(
    name: &str,
    args: &[i64],
    p: &mut Process,
    os: &mut Os,
    cost: &CostModel,
    site: (&str, u32),
    cycles: &mut u64,
) -> Result<Option<HostRet>, Crash> {
    match resolve(name) {
        Some(id) => dispatch_id(id, args, p, os, cost, site, cycles),
        None => Ok(None),
    }
}

/// Dispatch a pre-bound host call (see [`resolve`]).
///
/// # Errors
/// A [`Crash`] for detected memory/resource errors.
#[allow(clippy::too_many_lines)]
pub fn dispatch_id(
    id: HostId,
    args: &[i64],
    p: &mut Process,
    os: &mut Os,
    cost: &CostModel,
    site: (&str, u32),
    cycles: &mut u64,
) -> Result<Option<HostRet>, Crash> {
    let ret = match id.fun {
        // ---- malloc family -------------------------------------------
        HostFn::Malloc => {
            *cycles += cost.host_malloc;
            if os.fault.roll(FaultKind::MallocNull) {
                return Ok(Some(HostRet::Val(0))); // injected ENOMEM
            }
            let size = arg(args, 0).max(0) as u64;
            let ptr = p
                .heap
                .alloc(size)
                .map_err(|e| heap_err_to_crash(e, site, "malloc"))?;
            if id.hooked {
                *cycles += cost.closurex_wrapper;
                if p.rt.enabled && !p.rt.in_init_phase {
                    p.rt.chunk_map.insert(ptr, size);
                }
            }
            HostRet::Val(ptr as i64)
        }
        HostFn::Calloc => {
            *cycles += cost.host_malloc;
            if os.fault.roll(FaultKind::MallocNull) {
                return Ok(Some(HostRet::Val(0))); // injected ENOMEM
            }
            let n = arg(args, 0).max(0) as u64;
            let sz = arg(args, 1).max(0) as u64;
            let total = n.saturating_mul(sz);
            let ptr = p
                .heap
                .alloc(total)
                .map_err(|e| heap_err_to_crash(e, site, "calloc"))?;
            p.mem.fill(ptr, 0, total);
            *cycles += cost.bulk(0, total);
            if id.hooked {
                *cycles += cost.closurex_wrapper;
                if p.rt.enabled && !p.rt.in_init_phase {
                    p.rt.chunk_map.insert(ptr, total);
                }
            }
            HostRet::Val(ptr as i64)
        }
        HostFn::Realloc => {
            *cycles += cost.host_malloc + cost.host_free;
            if os.fault.roll(FaultKind::MallocNull) {
                // Injected ENOMEM: NULL return, original block left intact.
                return Ok(Some(HostRet::Val(0)));
            }
            let old = arg(args, 0) as u64;
            let size = arg(args, 1).max(0) as u64;
            let hooked = id.hooked;
            let new_ptr = if old == 0 {
                p.heap
                    .alloc(size)
                    .map_err(|e| heap_err_to_crash(e, site, "realloc"))?
            } else {
                let old_size = p.heap.chunk_size(old).ok_or_else(|| {
                    crash(
                        CrashKind::InvalidFree,
                        site,
                        format!("realloc of non-chunk {old:#x}"),
                    )
                })?;
                let np = p
                    .heap
                    .alloc(size)
                    .map_err(|e| heap_err_to_crash(e, site, "realloc"))?;
                let ncopy = old_size.min(size);
                p.mem.copy(np, old, ncopy);
                *cycles += cost.bulk(0, ncopy);
                p.heap
                    .free(old)
                    .map_err(|e| heap_err_to_crash(e, site, "realloc-free"))?;
                if hooked {
                    p.rt.chunk_map.remove(&old);
                }
                np
            };
            if hooked {
                *cycles += cost.closurex_wrapper;
                if p.rt.enabled && !p.rt.in_init_phase {
                    p.rt.chunk_map.insert(new_ptr, size);
                }
            }
            HostRet::Val(new_ptr as i64)
        }
        HostFn::Free => {
            *cycles += cost.host_free;
            let ptr = arg(args, 0) as u64;
            if ptr == 0 {
                return Ok(Some(HostRet::Void)); // free(NULL) is a no-op
            }
            p.heap
                .free(ptr)
                .map_err(|e| heap_err_to_crash(e, site, "free"))?;
            if id.hooked {
                *cycles += cost.closurex_wrapper;
                p.rt.chunk_map.remove(&ptr);
            }
            HostRet::Void
        }

        // ---- bulk memory ---------------------------------------------
        HostFn::Memcpy => {
            let (dst, src, n) = (arg(args, 0) as u64, arg(args, 1) as u64, arg(args, 2));
            if !(0..BULK_LIMIT).contains(&n) {
                return Err(crash(
                    CrashKind::NegativeSizeMemcpy,
                    site,
                    format!("memcpy size {n}"),
                ));
            }
            let n = n as u64;
            if n > 0 {
                p.check_access(src, n, false, site.0, site.1)?;
                p.check_access(dst, n, true, site.0, site.1)?;
                p.mem.copy(dst, src, n);
            }
            *cycles += cost.bulk(2, n);
            HostRet::Val(dst as i64)
        }
        HostFn::Memset => {
            let (dst, c, n) = (arg(args, 0) as u64, arg(args, 1), arg(args, 2));
            if !(0..BULK_LIMIT).contains(&n) {
                return Err(crash(
                    CrashKind::NegativeSizeMemcpy,
                    site,
                    format!("memset size {n}"),
                ));
            }
            let n = n as u64;
            if n > 0 {
                p.check_access(dst, n, true, site.0, site.1)?;
                p.mem.fill(dst, c as u8, n);
            }
            *cycles += cost.bulk(2, n);
            HostRet::Val(dst as i64)
        }
        HostFn::Memcmp => {
            let (a, b, n) = (arg(args, 0) as u64, arg(args, 1) as u64, arg(args, 2));
            if !(0..BULK_LIMIT).contains(&n) {
                return Err(crash(
                    CrashKind::NegativeSizeMemcpy,
                    site,
                    format!("memcmp size {n}"),
                ));
            }
            let n = n as u64;
            let mut r = 0i64;
            if n > 0 {
                p.check_access(a, n, false, site.0, site.1)?;
                p.check_access(b, n, false, site.0, site.1)?;
                let va = p.read_bytes(a, n as usize);
                let vb = p.read_bytes(b, n as usize);
                r = match va.cmp(&vb) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                };
            }
            *cycles += cost.bulk(2, n);
            HostRet::Val(r)
        }
        HostFn::Strlen => {
            let a = arg(args, 0) as u64;
            p.check_access(a, 1, false, site.0, site.1)?;
            let s = p.mem.read_cstr(a, 1 << 16);
            *cycles += cost.bulk(2, s.len() as u64);
            HostRet::Val(s.len() as i64)
        }
        HostFn::Strcmp => {
            let a = arg(args, 0) as u64;
            let b = arg(args, 1) as u64;
            p.check_access(a, 1, false, site.0, site.1)?;
            p.check_access(b, 1, false, site.0, site.1)?;
            let sa = p.mem.read_cstr(a, 1 << 16);
            let sb = p.mem.read_cstr(b, 1 << 16);
            *cycles += cost.bulk(2, (sa.len() + sb.len()) as u64);
            HostRet::Val(match sa.cmp(&sb) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            })
        }

        // ---- stdio ----------------------------------------------------
        HostFn::Fopen => {
            *cycles += cost.host_fopen;
            let path_ptr = arg(args, 0) as u64;
            p.check_access(path_ptr, 1, false, site.0, site.1)?;
            let path = String::from_utf8_lossy(&p.mem.read_cstr(path_ptr, 4096)).into_owned();
            if !os.fs.exists(&path) {
                return Ok(Some(HostRet::Val(0))); // ENOENT → NULL
            }
            if os.fault.roll(FaultKind::FopenFail) {
                return Ok(Some(HostRet::Val(0))); // injected EIO → NULL
            }
            // EMFILE crashes with the dedicated false-crash kind (like the
            // heap's OutOfMemory): exhaustion is caused by handles leaked
            // across *previous* test cases, and triage needs to see that,
            // not a NullPtrDeref downstream of an unchecked NULL.
            let handle = match p.fds.open(path) {
                Ok(h) => h,
                Err(_) => {
                    return Err(crash(
                        CrashKind::FdExhaustion,
                        site,
                        format!("fopen: descriptor limit {} reached", p.fds.limit()),
                    ))
                }
            };
            if id.hooked {
                *cycles += cost.closurex_wrapper;
                if p.rt.enabled {
                    if p.rt.in_init_phase {
                        p.rt.init_files.push(handle);
                    } else {
                        p.rt.open_files.push(handle);
                    }
                }
            }
            HostRet::Val(handle as i64)
        }
        HostFn::Fclose => {
            *cycles += cost.host_fclose;
            let h = arg(args, 0) as u64;
            if h == 0 {
                return Err(crash(CrashKind::NullPtrDeref, site, "fclose(NULL)".into()));
            }
            if os.fault.roll(FaultKind::FdLeak) {
                // Injected leak: the program sees success but the
                // descriptor-table slot is never released, creeping toward
                // the RLIMIT_NOFILE analog. Only the fd census run by the
                // restore-integrity check can notice.
                if p.fds.get(h).is_none() {
                    return Err(crash(
                        CrashKind::UnaddressableAccess,
                        site,
                        format!("fclose of bad handle {h:#x}"),
                    ));
                }
            } else if p.fds.close(h).is_err() {
                return Err(crash(
                    CrashKind::UnaddressableAccess,
                    site,
                    format!("fclose of bad handle {h:#x}"),
                ));
            }
            if id.hooked {
                *cycles += cost.closurex_wrapper;
                p.rt.open_files.retain(|&x| x != h);
                p.rt.init_files.retain(|&x| x != h);
            }
            HostRet::Val(0)
        }
        HostFn::Fread => {
            let (buf, size, nmemb, h) = (
                arg(args, 0) as u64,
                arg(args, 1).max(0) as u64,
                arg(args, 2).max(0) as u64,
                arg(args, 3) as u64,
            );
            if h == 0 {
                return Err(crash(
                    CrashKind::NullPtrDeref,
                    site,
                    "fread(NULL file)".into(),
                ));
            }
            let Some(file) = p.fds.get(h) else {
                return Err(crash(
                    CrashKind::UnaddressableAccess,
                    site,
                    format!("fread from bad handle {h:#x}"),
                ));
            };
            let total = size.saturating_mul(nmemb);
            let pos = file.pos;
            let data = os.fs.read_file(&file.path).unwrap_or_default();
            let avail = data.len() as u64 - pos.min(data.len() as u64);
            let n = total.min(avail);
            if n > 0 {
                p.check_access(buf, n, true, site.0, site.1)?;
                p.mem.write(buf, &data[pos as usize..(pos + n) as usize]);
                p.fds.get_mut(h).expect("checked").pos += n;
            }
            *cycles += cost.bulk(4, n);
            HostRet::Val(n.checked_div(size).unwrap_or(0) as i64)
        }
        HostFn::Fgetc => {
            let h = arg(args, 0) as u64;
            if h == 0 {
                return Err(crash(CrashKind::NullPtrDeref, site, "fgetc(NULL)".into()));
            }
            let Some(file) = p.fds.get(h) else {
                return Err(crash(
                    CrashKind::UnaddressableAccess,
                    site,
                    format!("fgetc from bad handle {h:#x}"),
                ));
            };
            let pos = file.pos;
            let data = os.fs.read_file(&file.path).unwrap_or_default();
            *cycles += 2;
            if (pos as usize) < data.len() {
                let b = data[pos as usize];
                p.fds.get_mut(h).expect("checked").pos += 1;
                HostRet::Val(i64::from(b))
            } else {
                HostRet::Val(-1)
            }
        }
        HostFn::Fseek => {
            let (h, off, whence) = (arg(args, 0) as u64, arg(args, 1), arg(args, 2));
            if h == 0 {
                return Err(crash(CrashKind::NullPtrDeref, site, "fseek(NULL)".into()));
            }
            let len = {
                let Some(file) = p.fds.get(h) else {
                    return Ok(Some(HostRet::Val(-1)));
                };
                os.fs.read_file(&file.path).map_or(0, |d| d.len() as i64)
            };
            let Some(file) = p.fds.get_mut(h) else {
                return Ok(Some(HostRet::Val(-1)));
            };
            let base = match whence {
                0 => 0,
                1 => file.pos as i64,
                2 => len,
                _ => return Ok(Some(HostRet::Val(-1))),
            };
            let target = base + off;
            *cycles += 3;
            if target < 0 {
                HostRet::Val(-1)
            } else {
                file.pos = target as u64;
                HostRet::Val(0)
            }
        }
        HostFn::Ftell => {
            let h = arg(args, 0) as u64;
            *cycles += 2;
            match p.fds.get(h) {
                Some(f) => HostRet::Val(f.pos as i64),
                None => HostRet::Val(-1),
            }
        }
        HostFn::Feof => {
            let h = arg(args, 0) as u64;
            *cycles += 2;
            match p.fds.get(h) {
                Some(f) => {
                    let len = os.fs.read_file(&f.path).map_or(0, |d| d.len() as u64);
                    HostRet::Val(i64::from(f.pos >= len))
                }
                None => HostRet::Val(1),
            }
        }
        HostFn::Fsize => {
            // Convenience (stat analog) used by targets to size buffers.
            let h = arg(args, 0) as u64;
            *cycles += 2;
            match p.fds.get(h) {
                Some(f) => HostRet::Val(os.fs.read_file(&f.path).map_or(0, |d| d.len() as i64)),
                None => HostRet::Val(-1),
            }
        }

        // ---- process control -------------------------------------------
        HostFn::Exit => HostRet::Exit(arg(args, 0) as i32),
        HostFn::ExitHook => HostRet::ExitHook(arg(args, 0) as i32),
        HostFn::Abort => {
            return Err(crash(CrashKind::Abort, site, "abort() called".into()));
        }
        HostFn::Getpid => HostRet::Val(i64::from(p.pid)),
        HostFn::Rand => HostRet::Val((p.next_rand() & 0x7fff_ffff) as i64),

        // ---- output -----------------------------------------------------
        HostFn::Puts => {
            let a = arg(args, 0) as u64;
            p.check_access(a, 1, false, site.0, site.1)?;
            let s = p.mem.read_cstr(a, 4096);
            p.stdout.extend_from_slice(&s);
            p.stdout.push(b'\n');
            *cycles += cost.bulk(2, s.len() as u64);
            HostRet::Val(0)
        }
        HostFn::Putchar => {
            p.stdout.push(arg(args, 0) as u8);
            *cycles += 2;
            HostRet::Val(arg(args, 0))
        }
        HostFn::PrintInt => {
            let s = arg(args, 0).to_string();
            p.stdout.extend_from_slice(s.as_bytes());
            *cycles += 2;
            HostRet::Val(0)
        }
    };
    Ok(Some(ret))
}

#[cfg(test)]
mod tests {
    // Host calls are exercised end-to-end through the interpreter tests in
    // `interp.rs`; unit-level checks of crash mapping live here.
    use super::*;

    #[test]
    fn heap_error_mapping() {
        let site = ("f", 0);
        assert_eq!(
            heap_err_to_crash(HeapError::DoubleFree, site, "x").kind,
            CrashKind::DoubleFree
        );
        assert_eq!(
            heap_err_to_crash(HeapError::OutOfMemory, site, "x").kind,
            CrashKind::OutOfMemory
        );
        assert_eq!(
            heap_err_to_crash(HeapError::InvalidFree, site, "x").kind,
            CrashKind::InvalidFree
        );
    }

    #[test]
    fn arg_defaults_to_zero() {
        assert_eq!(arg(&[1, 2], 0), 1);
        assert_eq!(arg(&[1, 2], 5), 0);
    }
}
