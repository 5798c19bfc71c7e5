//! `cgtd` — serve contaminated-GC trace evaluation over TCP.
//!
//! ```text
//! cgtd [--addr HOST:PORT] [--workers N] [--tenant-queue N]
//!      [--global-queue N] [--limits SPEC] [--tenant NAME=SPEC]...
//!      [--max-upload-mib N] [--shard-min-kib N] [--idle-timeout-ms N]
//!      [--cache-dir PATH] [--no-memoize] [--addr-file PATH]
//! ```
//!
//! `SPEC` is the `cgt`-style limits spec, e.g.
//! `events=50000000,heap-mib=1024,deadline-ms=60000`; an empty spec means
//! the conservative untrusted-input defaults.  `--tenant` overrides the
//! default budget for one tenant and may repeat.  `--addr 127.0.0.1:0`
//! picks an ephemeral port; `--addr-file` writes the bound address to a
//! file so scripts can find it.  `--shard-min-kib` sets the smallest
//! upload routed through the sharded evaluator when the tenant's `shards`
//! budget allows it (default 4096 KiB; `0` shards everything).  Below
//! about a mebibyte a 2-shard grant wins on some traces and loses on
//! others (the `serving_shards` bench prints the golden corpus), so the
//! default leaves small uploads single-shard.

use std::process::ExitCode;
use std::time::Duration;

use cg_server::{Server, ServerConfig};
use cg_trace::ResourceLimits;

fn usage() -> ! {
    eprintln!(
        "usage: cgtd [--addr HOST:PORT] [--workers N] [--tenant-queue N]\n\
         \x20           [--global-queue N] [--limits SPEC] [--tenant NAME=SPEC]...\n\
         \x20           [--max-upload-mib N] [--shard-min-kib N] [--idle-timeout-ms N]\n\
         \x20           [--cache-dir PATH] [--no-memoize] [--addr-file PATH]"
    );
    std::process::exit(2);
}

fn parse_num(flag: &str, value: &str) -> u64 {
    value.parse().unwrap_or_else(|_| {
        eprintln!("cgtd: {flag} wants a number, got '{value}'");
        usage();
    })
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut addr_file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("cgtd: {flag} wants a value");
                usage();
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value_of("--addr"),
            "--workers" => config.workers = parse_num("--workers", &value_of("--workers")) as usize,
            "--tenant-queue" => {
                config.tenant_queue =
                    parse_num("--tenant-queue", &value_of("--tenant-queue")) as usize;
            }
            "--global-queue" => {
                config.global_queue =
                    parse_num("--global-queue", &value_of("--global-queue")) as usize;
            }
            "--limits" => {
                let spec = value_of("--limits");
                config.default_limits = match ResourceLimits::parse(&spec) {
                    Ok(limits) => limits,
                    Err(e) => {
                        eprintln!("cgtd: --limits: {e}");
                        usage();
                    }
                };
            }
            "--tenant" => {
                let pair = value_of("--tenant");
                let Some((name, spec)) = pair.split_once('=') else {
                    eprintln!("cgtd: --tenant wants NAME=SPEC, got '{pair}'");
                    usage();
                };
                match ResourceLimits::parse(spec) {
                    Ok(limits) => {
                        config.tenant_limits.insert(name.to_string(), limits);
                    }
                    Err(e) => {
                        eprintln!("cgtd: --tenant {name}: {e}");
                        usage();
                    }
                }
            }
            "--max-upload-mib" => {
                config.max_upload_bytes =
                    parse_num("--max-upload-mib", &value_of("--max-upload-mib")) << 20;
            }
            "--shard-min-kib" => {
                config.shard_min_bytes =
                    parse_num("--shard-min-kib", &value_of("--shard-min-kib")) << 10;
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = Duration::from_millis(parse_num(
                    "--idle-timeout-ms",
                    &value_of("--idle-timeout-ms"),
                ));
            }
            "--cache-dir" => config.cache_dir = Some(value_of("--cache-dir").into()),
            "--no-memoize" => config.memoize = false,
            "--addr-file" => addr_file = Some(value_of("--addr-file")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("cgtd: unknown flag '{other}'");
                usage();
            }
        }
    }
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cgtd: bind failed: {e}");
            return ExitCode::from(6);
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("cgtd: no local address: {e}");
            return ExitCode::from(6);
        }
    };
    if let Some(path) = addr_file {
        if let Err(e) = std::fs::write(&path, format!("{addr}\n")) {
            eprintln!("cgtd: cannot write --addr-file {path}: {e}");
            return ExitCode::from(6);
        }
    }
    println!("cgtd listening on {addr}");
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cgtd: {e}");
            ExitCode::FAILURE
        }
    }
}
