//! Subcommand implementations.

pub mod eval;
pub mod extract;
pub mod gen;
pub mod place;
pub mod route;
pub mod serve;

use crate::args::Args;
use sdp_core::MAX_THREADS;
use sdp_netlist::BookshelfCase;
use std::path::Path;

/// Parses `--threads`, rejecting kernel thread counts above
/// [`MAX_THREADS`] before any thread is spawned.
pub fn threads_flag(args: &Args) -> Result<Option<usize>, String> {
    match args.number::<usize>("threads")? {
        Some(t) if t > MAX_THREADS => Err(format!(
            "--threads: {t} is out of range 0..={MAX_THREADS} (0 = all cores)"
        )),
        t => Ok(t),
    }
}

/// Loads a Bookshelf bundle, mapping errors to CLI messages.
pub fn load_case(path: &str) -> Result<BookshelfCase, String> {
    sdp_netlist::read_bookshelf(path).map_err(|e| format!("reading `{path}`: {e}"))
}

/// Splits an `--out` prefix into `(directory, name)`.
pub fn split_out(prefix: &str) -> Result<(&Path, &str), String> {
    let p = Path::new(prefix);
    let name = p
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| format!("--out `{prefix}` has no file name component"))?;
    Ok((p.parent().unwrap_or(Path::new(".")), name))
}
