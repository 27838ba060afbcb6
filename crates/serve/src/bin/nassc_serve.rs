//! The `nassc-serve` daemon binary.
//!
//! ```text
//! nassc-serve --addr 127.0.0.1:7878 --device montreal --device linear:16 \
//!             --workers 4 --queue-depth 64 --timeout-ms 60000
//! ```
//!
//! Every `--device <spec>` adds a served device (specs as accepted by
//! `Device::from_str`: `montreal`, `eagle`, `osprey`, `heavy-hex:<d>`,
//! `linear:<n>`, `grid:<rows>x<cols>`); the
//! first one is the default for requests without `?device=`. SIGINT/SIGTERM
//! drain in-flight requests before exit.
//!
//! Stderr is the access log, one JSON object per line (bar the start and
//! stop banners), and a panic is logged as one such line too.

use std::backtrace::{Backtrace, BacktraceStatus};
use std::process::ExitCode;

use nassc::trace::json_escape;
use nassc::Device;
use nassc_bench::{cli_usize, cli_value};
use nassc_serve::{signal, ServeConfig, Server};

/// Collects every occurrence of `--device <spec>` (unlike
/// [`cli_value`], which returns only the first).
fn devices_from_args() -> Result<Vec<Device>, ExitCode> {
    let mut devices = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--device" {
            let Some(spec) = args.next() else {
                eprintln!("error: --device expects a value");
                return Err(ExitCode::FAILURE);
            };
            match spec.parse() {
                Ok(device) => devices.push(device),
                Err(e) => {
                    eprintln!("error: --device: {e}");
                    return Err(ExitCode::FAILURE);
                }
            }
        }
    }
    if devices.is_empty() {
        devices.push(Device::montreal());
    }
    Ok(devices)
}

/// Replaces the default panic hook, whose multi-line banner would break the
/// access log, with one JSON line: `{"panic", "thread", "location"}`, plus
/// `"backtrace"` when `RUST_BACKTRACE` asks for one. Session and handler
/// panics are caught and answered (500, or a dropped connection); this line
/// is what is left of them on stderr.
fn log_panics_as_json() {
    std::panic::set_hook(Box::new(|info| {
        let message = info.payload_as_str().unwrap_or("Box<dyn Any>");
        let location = info.location().map(ToString::to_string).unwrap_or_default();
        let backtrace = Backtrace::capture();
        let backtrace = match backtrace.status() {
            BacktraceStatus::Captured => {
                format!(",\"backtrace\":\"{}\"", json_escape(&backtrace.to_string()))
            }
            _ => String::new(),
        };
        // Formatted first and printed whole: one write, as for each
        // access-log line, so concurrent lines cannot interleave.
        let line = format!(
            "{{\"panic\":\"{}\",\"thread\":\"{}\",\"location\":\"{}\"{backtrace}}}\n",
            json_escape(message),
            json_escape(std::thread::current().name().unwrap_or("<unnamed>")),
            json_escape(&location),
        );
        eprint!("{line}");
    }));
}

fn main() -> ExitCode {
    log_panics_as_json();
    if std::env::args().any(|arg| arg == "--help" || arg == "-h") {
        eprintln!(
            "usage: nassc-serve [--addr HOST:PORT] [--device SPEC]... \
             [--workers N] [--queue-depth N] [--timeout-ms N] \
             [--max-gates N] [--max-qubits N]"
        );
        return ExitCode::SUCCESS;
    }
    let devices = match devices_from_args() {
        Ok(devices) => devices,
        Err(code) => return code,
    };
    let config = ServeConfig {
        addr: cli_value("--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        devices,
        workers: cli_usize("--workers").unwrap_or(4).max(1),
        queue_depth: cli_usize("--queue-depth").unwrap_or(64).max(1),
        default_timeout_ms: cli_usize("--timeout-ms").unwrap_or(60_000).max(1) as u64,
        options: Default::default(),
        max_gates: cli_usize("--max-gates"),
        max_qubits: cli_usize("--max-qubits"),
    };
    signal::install_handlers();
    let server = match Server::bind(config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: binding {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    let device_names: Vec<String> = config
        .devices
        .iter()
        .map(|d| format!("{} ({}q)", d.name(), d.num_qubits()))
        .collect();
    eprintln!(
        "nassc-serve listening on {} — devices: {}; {} workers, queue depth {}",
        server.local_addr(),
        device_names.join(", "),
        config.workers,
        config.queue_depth,
    );
    server.run();
    eprintln!("nassc-serve drained and stopped");
    ExitCode::SUCCESS
}
