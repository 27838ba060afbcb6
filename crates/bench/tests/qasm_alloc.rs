//! What the OpenQASM edge allocates, pinned.
//!
//! This binary installs the counting allocator, as `bench_scale` does, and
//! reads the calling thread's allocated bytes around each call, so other
//! test threads do not count. A parse borrows its tokens from the source
//! and reuses its scratch buffers, so over the 13 corpus files it allocates
//! at most `PARSE_BYTES_PER_GATE` per parsed gate, the returned circuit
//! included. An export writes into one buffer sized for its text: it
//! allocates exactly the returned `String`'s capacity, with no growth and
//! no temporaries. A stored hit through `Transpiler::transpile_to_qasm`
//! is found by its source text and shares the answer text its session
//! keeps, so it parses nothing and allocates nothing: its deadline budget,
//! never shared, gets no cancellation flag.

use std::path::Path;

use nassc::qasm;
use nassc::{Device, Limits, TranspileOptions, Transpiler};
use nassc_bench::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The parse budget per input gate over the corpus.
const PARSE_BYTES_PER_GATE: u64 = 630;

/// Every `.qasm` file of the committed corpus, as `(name, source)`.
fn corpus() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/qasm");
    let files = qasm::load_corpus(&dir).expect("corpus directory readable");
    assert_eq!(files.len(), 13, "the corpus has 13 files");
    files
        .into_iter()
        .map(|file| {
            let source = std::fs::read_to_string(&file.path).expect("corpus file readable");
            (file.name, source)
        })
        .collect()
}

/// `run`'s result and the bytes this thread allocated while it ran.
fn allocated<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = alloc::thread_total_bytes();
    let out = run();
    (out, alloc::thread_total_bytes() - before)
}

#[test]
fn parsing_the_corpus_stays_within_its_byte_budget_per_gate() {
    let (mut bytes, mut gates) = (0, 0);
    for (name, source) in corpus() {
        let (circuit, parsed_bytes) = allocated(|| qasm::parse(&source));
        let circuit = circuit.unwrap_or_else(|e| panic!("{name}: {e}"));
        bytes += parsed_bytes;
        gates += circuit.num_gates() as u64;
    }
    assert!(
        bytes <= PARSE_BYTES_PER_GATE * gates,
        "parsing the corpus allocated {bytes} bytes for {gates} gates, {:.1} per gate",
        bytes as f64 / gates as f64
    );
}

#[test]
fn exporting_a_result_allocates_its_output_buffer_once() {
    let session = Transpiler::new(Device::montreal(), TranspileOptions::new());
    for (name, source) in corpus() {
        let circuit = qasm::parse(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let result = session.transpile(&circuit).expect("corpus files transpile");
        let (text, exported_bytes) = allocated(|| qasm::export(&result.circuit));
        let text = text.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            exported_bytes,
            text.capacity() as u64,
            "{name}: exporting {} bytes of text allocated {exported_bytes} bytes, \
             but the buffer holds {}",
            text.len(),
            text.capacity()
        );
    }
}

#[test]
fn a_stored_qasm_hit_allocates_nothing_per_gate() {
    let session = Transpiler::new(Device::montreal(), TranspileOptions::new());
    let options = session.options().clone();
    let corpus = corpus();
    let source = |name: &str| {
        let (_, source) = corpus.iter().find(|(file, _)| file == name).expect(name);
        source.as_str()
    };
    // What `name`'s third request allocated. The first runs cold; the
    // second parses, finds the prepared entry, indexes its text, and
    // replays and stores the answer; the third is found by its text.
    let text_hit = |name: &str| {
        for _ in 0..2 {
            let out = session.transpile_to_qasm(source(name), &options, Limits::default());
            out.expect(name);
        }
        let hit = || session.transpile_to_qasm(source(name), &options, Limits::default());
        let (hit, bytes) = allocated(hit);
        (hit.expect(name).cache.hits(), bytes)
    };
    let (bell_hits, bell_bytes) = text_hit("bell_n2");
    let (vqe_hits, vqe_bytes) = text_hit("vqe_n8");
    assert_eq!((bell_hits, vqe_hits), (3, 3), "both hits are stored hits");
    assert_eq!(
        (bell_bytes, vqe_bytes),
        (0, 0),
        "a text hit allocated {bell_bytes} bytes for bell_n2 and {vqe_bytes} for vqe_n8"
    );
}
