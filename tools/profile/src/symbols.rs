//! From sampled instruction pointers to frames.
//!
//! `/proc/self/maps` says which object each address lies in. An address in
//! the executable is handed to `addr2line -a -f -i -C`, which names the
//! function it lies in and every function inlined there — innermost first —
//! from the line tables the release profile keeps (`debug = true`). An
//! address in another object (libc, the vDSO) is named by that object and,
//! when its ELF symbol tables have a function whose extent covers it, that
//! function: exported `malloc` or `free` are found this way, a stripped
//! `memcpy` variant is not and stays `libc.so.6 (no symbol)`.
//!
//! Those objects are not handed to `addr2line` too, because it names an
//! address by the nearest symbol below it whatever that symbol's size: GNU
//! addr2line 2.40 names the `memcpy`, `memset`, `strlen` and `memcmp`
//! implementations that glibc 2.36's IFUNC resolvers pick on x86-64 (stripped
//! code near the end of `.text`) `__nss_database_lookup`, a 13-byte exported
//! stub far below them. Hence the few lines of ELF reading below, which keep
//! only a symbol whose extent covers the address.

use std::collections::HashMap;
use std::io::Read;
use std::process::Command;

/// One line of `/proc/self/maps`.
struct Mapping {
    start: u64,
    end: u64,
    offset: u64,
    path: String,
}

fn read_maps() -> Result<Vec<Mapping>, String> {
    let maps = std::fs::read_to_string("/proc/self/maps").map_err(|e| format!("maps: {e}"))?;
    let mut out = Vec::new();
    for line in maps.lines() {
        let mut fields = line.split_whitespace();
        let (Some(range), Some(_perms), Some(offset)) =
            (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        let path = fields.nth(2).unwrap_or("").to_string();
        let Some((start, end)) = range.split_once('-') else {
            continue;
        };
        let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("maps: {e}"));
        out.push(Mapping {
            start: hex(start)?,
            end: hex(end)?,
            offset: hex(offset)?,
            path,
        });
    }
    Ok(out)
}

fn u16_at(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u16::from_le_bytes(bytes.get(at..at.checked_add(2)?)?.try_into().ok()?).into())
}

fn u32_at(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u32::from_le_bytes(bytes.get(at..at.checked_add(4)?)?.try_into().ok()?).into())
}

fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        bytes.get(at..at.checked_add(8)?)?.try_into().ok()?,
    ))
}

/// An ELF object as far as naming its addresses goes.
struct Object {
    /// Whether its addresses are relative to where it was loaded
    /// (`ET_DYN`: a position-independent executable or a shared object).
    relocatable: bool,
    /// Its function symbols as (address, size, name), sorted.
    functions: Vec<(u64, u64, String)>,
}

/// The fields of an ELF64 section header the symbol tables need.
struct Section {
    kind: u64,
    offset: u64,
    size: u64,
    link: u64,
    entsize: u64,
}

/// The section headers of the ELF64 object in `bytes`, if it has them
/// whole.
fn sections(bytes: &[u8]) -> Option<Vec<Section>> {
    let (shoff, shentsize, shnum) = (
        u64_at(bytes, 0x28)?,
        u16_at(bytes, 0x3a)?,
        u16_at(bytes, 0x3c)?,
    );
    (0..shnum)
        .map(|i| {
            let at = shoff.saturating_add(i * shentsize) as usize;
            Some(Section {
                kind: u32_at(bytes, at.saturating_add(4))?,
                offset: u64_at(bytes, at.saturating_add(0x18))?,
                size: u64_at(bytes, at.saturating_add(0x20))?,
                link: u32_at(bytes, at.saturating_add(0x28))?,
                entsize: u64_at(bytes, at.saturating_add(0x38))?,
            })
        })
        .collect()
}

/// Reads the ELF header of `path` and, with `symbols`, its
/// `.symtab`/`.dynsym` function symbols; an object that cannot be read is
/// named by its path alone.
fn read_object(path: &str, symbols: bool) -> Object {
    let bytes = if symbols {
        std::fs::read(path).unwrap_or_default()
    } else {
        let mut header = [0u8; 18];
        let read = std::fs::File::open(path).and_then(|mut f| f.read_exact(&mut header));
        read.map_or_else(|_| Vec::new(), |()| header.to_vec())
    };
    let mut object = Object {
        relocatable: u16_at(&bytes, 16) == Some(3),
        functions: Vec::new(),
    };
    let Some(sections) = sections(&bytes) else {
        return object;
    };
    const SHT_SYMTAB: u64 = 2;
    const SHT_DYNSYM: u64 = 11;
    for table in &sections {
        if !(table.kind == SHT_SYMTAB || table.kind == SHT_DYNSYM) || table.entsize < 24 {
            continue;
        }
        let Some(strings) = sections.get(table.link as usize).map(|s| s.offset) else {
            continue;
        };
        for i in 0..table.size / table.entsize {
            let at = table.offset.saturating_add(i * table.entsize) as usize;
            let (Some(name), Some(info), Some(value), Some(extent)) = (
                u32_at(&bytes, at),
                bytes.get(at.saturating_add(4)),
                u64_at(&bytes, at.saturating_add(8)),
                u64_at(&bytes, at.saturating_add(16)),
            ) else {
                break;
            };
            // STT_FUNC and STT_GNU_IFUNC, with an extent.
            if !matches!(info & 0xf, 2 | 10) || extent == 0 {
                continue;
            }
            let Some(raw) = bytes.get(strings.saturating_add(name) as usize..) else {
                continue;
            };
            let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
            let name = String::from_utf8_lossy(&raw[..end]).into_owned();
            object.functions.push((value, extent, name));
        }
    }
    object.functions.sort_unstable();
    object
}

impl Object {
    /// The function whose extent covers `vaddr`, if a symbol table says.
    fn function(&self, vaddr: u64) -> Option<&str> {
        let i = self
            .functions
            .partition_point(|&(start, ..)| start <= vaddr);
        let (start, size, name) = self.functions.get(i.checked_sub(1)?)?;
        (vaddr < start + size).then_some(name.as_str())
    }
}

/// The last component of `path`.
fn basename(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Drops a legacy Rust symbol's `::h<16 hex digits>` suffix.
fn without_hash(name: &str) -> &str {
    match name.rsplit_once("::h") {
        Some((head, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            head
        }
        _ => name,
    }
}

/// The frames of every sample, innermost first: the inline chain
/// `addr2line` reports for an address in the executable, one frame naming
/// the object (and its covering function, if any) elsewhere.
pub fn frames(samples: &[u64]) -> Result<Vec<Vec<String>>, String> {
    let maps = read_maps()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let exe = exe.to_string_lossy().into_owned();
    // Where each object was loaded: the start of its mapping at file
    // offset 0 (the first loadable segment of an `ET_DYN` object has
    // address 0), or nothing to subtract for a fixed-address executable.
    let mut objects: HashMap<&str, (Object, u64)> = HashMap::new();
    for m in maps
        .iter()
        .filter(|m| m.offset == 0 && m.path.starts_with('/'))
    {
        objects.entry(m.path.as_str()).or_insert_with(|| {
            // The executable is named by `addr2line`, from its line tables.
            let object = read_object(&m.path, m.path != exe);
            let bias = if object.relocatable { m.start } else { 0 };
            (object, bias)
        });
    }
    let mut in_exe: Vec<u64> = Vec::new();
    let mut named: Vec<Option<Vec<String>>> = Vec::with_capacity(samples.len());
    for &addr in samples {
        let mapping = maps.iter().find(|m| (m.start..m.end).contains(&addr));
        let frame = match mapping {
            None => "[unmapped]".to_string(),
            Some(m) if m.path.is_empty() => "[anonymous]".to_string(),
            Some(m) => match objects.get(m.path.as_str()) {
                Some((_, bias)) if m.path == exe => {
                    in_exe.push(addr - bias);
                    named.push(None);
                    continue;
                }
                Some((object, bias)) => match object.function(addr - bias) {
                    Some(function) => format!("{} `{function}`", basename(&m.path)),
                    None => format!("{} (no symbol)", basename(&m.path)),
                },
                None => basename(&m.path).to_string(),
            },
        };
        named.push(Some(vec![frame]));
    }
    let chains = inline_chains(&exe, &in_exe)?;
    let unknown = vec![format!("{} (no line)", basename(&exe))];
    let mut in_exe = in_exe.iter();
    Ok(named
        .into_iter()
        .map(|frame| {
            frame.unwrap_or_else(|| {
                let vaddr = in_exe
                    .next()
                    .expect("one address per sample in the executable");
                chains.get(vaddr).unwrap_or(&unknown).clone()
            })
        })
        .collect())
}

/// Asks `addr2line` for the inline chain of every distinct address.
fn inline_chains(exe: &str, addrs: &[u64]) -> Result<HashMap<u64, Vec<String>>, String> {
    let mut distinct = addrs.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut chains = HashMap::new();
    for chunk in distinct.chunks(2048) {
        let out = Command::new("addr2line")
            .args(["-a", "-f", "-i", "-C", "-e", exe])
            .args(chunk.iter().map(|a| format!("{a:#x}")))
            .output()
            .map_err(|e| format!("addr2line: {e}"))?;
        if !out.status.success() {
            return Err(format!("addr2line exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let mut current: Option<(u64, Vec<String>)> = None;
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            if let Some(hex) = line.strip_prefix("0x") {
                chains.extend(current.take());
                let addr = u64::from_str_radix(hex, 16).map_err(|e| format!("addr2line: {e}"))?;
                current = Some((addr, Vec::new()));
                continue;
            }
            // A function line, then its file:line.
            lines.next();
            if let Some((_, frames)) = current.as_mut() {
                frames.push(without_hash(line).to_string());
            }
        }
        chains.extend(current.take());
    }
    Ok(chains)
}
