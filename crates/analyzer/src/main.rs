//! `analyzer` binary — run the workspace's concurrency rules.
//!
//! ```text
//! cargo run -p analyzer [-- --root <path>]
//! ```
//!
//! Exits 0 when the workspace is finding-clean, 1 when findings exist, and
//! 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use analyzer::{analyze_workspace, find_workspace_root};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.as_slice() {
        [] => std::env::current_dir().ok().and_then(|cwd| find_workspace_root(&cwd)),
        [flag, path] if flag == "--root" => Some(PathBuf::from(path)),
        _ => {
            eprintln!("usage: analyzer [--root <path>]");
            return ExitCode::from(2);
        }
    };
    let Some(root) = root else {
        eprintln!("could not locate a workspace root (pass --root)");
        return ExitCode::from(2);
    };

    match analyze_workspace(&root) {
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            if findings.is_empty() {
                println!("analyzer: no findings");
                ExitCode::SUCCESS
            } else {
                println!("analyzer: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("analyzer: I/O error: {e}");
            ExitCode::from(2)
        }
    }
}
