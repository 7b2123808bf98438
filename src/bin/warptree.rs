//! `warptree` — command-line front end for the time-warping subsequence
//! search index.
//!
//! ```text
//! warptree gen    --kind stock --sequences 200 --len 150 --out data.csv
//! warptree build  --input data.csv --method me --categories 40 \
//!                 --sparse --out-dir ./idx
//! warptree info   --index-dir ./idx
//! warptree verify ./idx
//! warptree search --index-dir ./idx --query 30.1,30.5,31.0 --epsilon 5
//! warptree knn    --index-dir ./idx --query 30.1,30.5,31.0 --k 5
//! warptree scan   --input data.csv --query 30.1,30.5 --epsilon 5
//! ```
//!
//! `build` writes an index directory into `--out-dir`: the corpus file
//! (sequences + categorization), the suffix-tree file (constructed
//! incrementally with binary merges), and a `MANIFEST` naming the
//! committed generation of each. `build` and `append` are crash-safe —
//! every mutation is staged under temporary names and committed by an
//! atomic manifest swap, and opening an index recovers from any
//! interrupted mutation. `verify` checks every page CRC and the manifest
//! without modifying anything.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;

use warptree::core::analysis::{longest_repeated, top_motifs, TreeStats};
use warptree::prelude::*;
use warptree::{
    build_index_dir_backend, build_index_dir_backend_metered, open_index_dir,
    open_index_dir_metered, resolve_index_dir,
};
use warptree_data::{load_csv, save_csv};

/// How writing stdout failed, once it has: `None` when the reader
/// closed the pipe, else the error.
static STDOUT_FAILED: OnceLock<Option<String>> = OnceLock::new();

/// Writes `text` to stdout; every command's output goes through here
/// (`outln!` is its `println!`). A reader that closes the pipe early
/// (`warptree info … | head -1`, or a script that reads a server's
/// first banner line) has what it came for: a broken pipe drops the
/// rest of the output quietly, and the command runs to its end (a
/// server keeps serving) and exits 0. Any other write error drops the
/// rest too, and fails the command once it returns.
fn emit(text: &str) {
    use std::io::Write as _;
    if STDOUT_FAILED.get().is_some() {
        return;
    }
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        let broken = e.kind() == std::io::ErrorKind::BrokenPipe;
        let _ = STDOUT_FAILED.set((!broken).then(|| e.to_string()));
    }
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(&format!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("append") => cmd_append(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("scrub") => cmd_scrub(&args[1..]),
        Some("search") => cmd_search(&args[1..], false),
        Some("knn") => cmd_search(&args[1..], true),
        Some("explain") => cmd_explain(&args[1..]),
        Some("scan") => cmd_scan(&args[1..]),
        Some("mine") => cmd_mine(&args[1..]),
        Some("forecast") => cmd_forecast(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("shard-init") => cmd_shard_init(&args[1..]),
        Some("shard-coordinator") => cmd_shard_coordinator(&args[1..]),
        Some("slowlog") => cmd_slowlog(&args[1..]),
        Some("bench-client") => cmd_bench_client(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    };
    let result = result.and_then(|()| match STDOUT_FAILED.get() {
        Some(Some(e)) => Err(format!("stdout: {e}")),
        _ => Ok(()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `warptree help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    outln!(
        "warptree — time-warping subsequence similarity search \
         (Park et al., ICDE 2000)\n\n\
         commands:\n\
         \u{20}  gen     generate a synthetic corpus as CSV\n\
         \u{20}          --kind stock|walk --sequences N --len L \
         [--seed S] --out FILE\n\
         \u{20}  build   build corpus + index files from a CSV\n\
         \u{20}          --input FILE --method me|el|exact|kmeans \
         [--categories C] [--sparse]\n\
         \u{20}          [--batch B] [--backend tree|esa] --out-dir DIR  \
         (esa: enhanced suffix array, identical answers, smaller \
         resident size)\n\
         \u{20}  append  add sequences from a CSV to an existing index \
         as a tail segment (crash-safe)\n\
         \u{20}          --input FILE --index-dir DIR\n\
         \u{20}  compact fold tail segments back into the base tree \
         (binary merge, one generation per fold)\n\
         \u{20}          DIR (or --index-dir DIR)\n\
         \u{20}  info    print index statistics\n\
         \u{20}          --index-dir DIR [--deep] [--json]\n\
         \u{20}  verify  check every committed file: its size against \
         the manifest, every page CRC, every record\n\
         \u{20}          DIR (or --index-dir DIR)\n\
         \u{20}  scrub   verify every page and repair: quarantine \
         corrupt tail segments, rebuild them from the corpus\n\
         \u{20}          DIR (or --index-dir DIR) [--check-only]\n\
         \u{20}  search  threshold search over a built index\n\
         \u{20}          --index-dir DIR --query v1,v2,…|--query-file F \
         --epsilon E [--window W] [--limit N] [--threads N] [--trace] \
         [--no-cascade]\n\
         \u{20}  knn     k-nearest-neighbour search over a built index\n\
         \u{20}          --index-dir DIR --query v1,v2,… --k K [--window W] \
         [--threads N] [--trace] [--no-cascade]\n\
         \u{20}  explain report one search's filter funnel, table work \
         and I/O profile\n\
         \u{20}          --index-dir DIR --query v1,v2,… --epsilon E \
         [--window W] [--json] [--no-cascade]\n\
         \u{20}  scan    index-free exact scan over a CSV\n\
         \u{20}          --input FILE --query v1,v2,… --epsilon E\n\
         \u{20}\n\
         \u{20}  build, search, knn and scan accept --stats[=json] to dump \
         a metrics snapshot to stderr\n\
         \u{20}  mine    most frequent shape motifs over the whole corpus\n\
         \u{20}          --index-dir DIR [--len L] [--k K]\n\
         \u{20}  forecast  aggregate what followed similar histories\n\
         \u{20}          --index-dir DIR --query v1,v2,… --epsilon E \
         [--horizon H] [--window W]\n\
         \u{20}  serve   serve an index directory over TCP \
         (length-prefixed JSON protocol)\n\
         \u{20}          DIR [--addr HOST:PORT] [--workers N] \
         [--queue-depth Q] [--deadline-ms D]\n\
         \u{20}          [--reload-ms R] [--max-query-len L] \
         [--max-conns C] [--threads N] [--compact-threshold T] \
         [--scrub-interval-ms S]\n\
         \u{20}          [--slow-ms MS: slow-query ring threshold, \
         0 disables] [--trace-sample N: trace 1-in-N requests]\n\
         \u{20}          [--slowlog-capacity K] [--metrics-addr \
         HOST:PORT: plain-HTTP GET /metrics Prometheus exposition]\n\
         \u{20}          SIGINT/SIGTERM drain gracefully, new index \
         generations are hot-reloaded from the commit manifest,\n\
         \u{20}          `ingest` appends tail segments online and a \
         background worker folds them at T tails (0 disables)\n\
         \u{20}  shard-init  partition a CSV corpus into N per-shard \
         index directories + a SHARDS manifest\n\
         \u{20}          --input FILE --shards N --out-dir DIR \
         [--method me|el|exact|kmeans] [--categories C]\n\
         \u{20}          [--sparse] [--batch B] [--backend tree|esa]  \
         (one global alphabet; shard answers merge byte-identically)\n\
         \u{20}  shard-coordinator  serve a sharded corpus by \
         scatter-gather over running shard servers\n\
         \u{20}          DIR --shards ADDR,ADDR,… [--addr HOST:PORT] \
         [--workers N] [--deadline-ms D]\n\
         \u{20}          [--shard-timeout-ms T] [--max-conns C] \
         [--health-interval-ms H] [--slow-ms MS]\n\
         \u{20}          [--trace-sample N] [--slowlog-capacity K]  \
         (shard addresses in manifest order)\n\
         \u{20}  slowlog dump a running server's slow-query ring \
         (newest first)\n\
         \u{20}          --addr HOST:PORT [--json] [--traces: include \
         span trees]\n\
         \u{20}  bench-client  drive a running server and report \
         throughput + latency quantiles\n\
         \u{20}          --addr HOST:PORT --input FILE \
         [--connections C] [--requests N]\n\
         \u{20}          [--mode closed|open] [--rate RPS] \
         [--epsilons e1,e2,…] [--window W]\n\
         \u{20}          [--queries K] [--seed S] [--out BENCH_serve.json]"
    );
}

/// Minimal `--flag value` / `--flag` parser.
struct Opts {
    pairs: Vec<(String, Option<String>)>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            // `--flag=value` binds tighter than the next-token rule, so
            // valueless flags like `--stats=json` stay unambiguous.
            if let Some((name, value)) = name.split_once('=') {
                pairs.push((name.to_string(), Some(value.to_string())));
                continue;
            }
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => Some(it.next().unwrap().clone()),
                _ => None,
            };
            pairs.push((name.to_string(), value));
        }
        Ok(Self { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn flag(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required --{name}"))
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

/// Output format of a `--stats[=json]` metrics dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatsFormat {
    Text,
    Json,
}

/// Parses `--stats` / `--stats=json`; `None` when the flag is absent.
fn stats_mode(o: &Opts) -> Result<Option<StatsFormat>, String> {
    if !o.flag("stats") {
        return Ok(None);
    }
    match o.get("stats") {
        None => Ok(Some(StatsFormat::Text)),
        Some("json") => Ok(Some(StatsFormat::Json)),
        Some(other) => Err(format!(
            "--stats: unknown format {other:?} (use --stats or --stats=json)"
        )),
    }
}

/// Dumps the registry snapshot to stderr (stdout stays machine-usable).
fn emit_stats(fmt: StatsFormat, reg: &MetricsRegistry) {
    let snap = reg.snapshot();
    match fmt {
        StatsFormat::Json => eprintln!("{}", snap.to_json()),
        StatsFormat::Text => eprintln!("{snap}"),
    }
}

/// Resolves the query from `--query v1,v2,…` or `--query-file FILE`
/// (one value per line or comma-separated).
fn resolve_query(o: &Opts) -> Result<Vec<f64>, String> {
    match (o.get("query"), o.get("query-file")) {
        (Some(text), None) => parse_query(text),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("--query-file: {e}"))?;
            let joined = text
                .split(['\n', ','])
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .collect::<Vec<_>>()
                .join(",");
            parse_query(&joined)
        }
        (Some(_), Some(_)) => Err("use either --query or --query-file, not both".into()),
        (None, None) => Err("missing required --query (or --query-file)".into()),
    }
}

fn parse_query(text: &str) -> Result<Vec<f64>, String> {
    let values: Result<Vec<f64>, _> = text.split(',').map(|t| t.trim().parse::<f64>()).collect();
    let values = values.map_err(|e| format!("bad query value: {e}"))?;
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return Err("query must be non-empty, finite numbers".into());
    }
    Ok(values)
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args)?;
    let out = PathBuf::from(o.require("out")?);
    let sequences: usize = o.parse_num("sequences", 200)?;
    let len: usize = o.parse_num("len", 150)?;
    let seed: u64 = o.parse_num("seed", 1)?;
    let store = match o.get("kind").unwrap_or("stock") {
        "stock" => stock_corpus(&StockConfig {
            sequences,
            mean_len: len,
            seed,
            ..Default::default()
        }),
        "walk" => artificial_corpus(&ArtificialConfig {
            sequences,
            len,
            seed,
            ..Default::default()
        }),
        other => return Err(format!("unknown --kind {other:?}")),
    };
    save_csv(&store, &out).map_err(|e| e.to_string())?;
    outln!(
        "wrote {} sequences ({} values) to {}",
        store.len(),
        store.total_len(),
        out.display()
    );
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args)?;
    let input = PathBuf::from(o.require("input")?);
    let out_dir = PathBuf::from(o.require("out-dir")?);
    let categories: usize = o.parse_num("categories", 40)?;
    let batch: usize = o.parse_num("batch", 64)?;
    let sparse = o.flag("sparse");
    let store = load_csv(&input).map_err(|e| e.to_string())?;
    if store.is_empty() {
        return Err("input contains no sequences".into());
    }
    let cat = match o.get("method").unwrap_or("me") {
        "me" => Categorization::MaxEntropy(categories),
        "el" => Categorization::EqualLength(categories),
        "exact" => Categorization::Exact,
        "kmeans" => Categorization::KMeans(categories),
        other => return Err(format!("unknown --method {other:?}")),
    };
    let backend = match o.get("backend").unwrap_or("tree") {
        "tree" => BackendKind::Tree,
        "esa" => BackendKind::Esa,
        other => return Err(format!("unknown --backend {other:?} (tree or esa)")),
    };
    let stats = stats_mode(&o)?;
    let t0 = std::time::Instant::now();
    let bytes = match stats {
        None => build_index_dir_backend(&store, cat, sparse, batch, backend, &out_dir)
            .map_err(|e| e.to_string())?,
        Some(_) => {
            let reg = MetricsRegistry::new();
            let bytes = build_index_dir_backend_metered(
                &store, cat, sparse, batch, backend, &out_dir, &reg,
            )
            .map_err(|e| e.to_string())?;
            emit_stats(stats.unwrap(), &reg);
            bytes
        }
    };
    let (corpus_path, index_path) = resolve_index_dir(&out_dir).map_err(|e| e.to_string())?;
    outln!(
        "built {} {} index over {} sequences: {} KiB in {:.2?}",
        if sparse { "sparse" } else { "full" },
        backend.as_str(),
        store.len(),
        bytes / 1024,
        t0.elapsed()
    );
    outln!("  corpus: {}", corpus_path.display());
    outln!("  index:  {}", index_path.display());
    Ok(())
}

fn cmd_append(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args)?;
    let input = PathBuf::from(o.require("input")?);
    let dir = PathBuf::from(o.require("index-dir")?);
    let new = load_csv(&input).map_err(|e| e.to_string())?;
    if new.is_empty() {
        return Err("input contains no sequences".into());
    }
    let t0 = std::time::Instant::now();
    let segments = warptree::append_index_dir(&dir, &new).map_err(|e| e.to_string())?;
    outln!(
        "appended {} sequences ({} values) as a tail segment in {:.2?}; \
         {segments} segments live (run `warptree compact` to fold them)",
        new.len(),
        new.total_len(),
        t0.elapsed(),
    );
    Ok(())
}

fn cmd_compact(args: &[String]) -> Result<(), String> {
    // Accept the directory positionally (`warptree compact ./idx`) or
    // as `--index-dir ./idx`.
    let dir = match args.first() {
        Some(a) if !a.starts_with("--") => {
            if args.len() > 1 {
                return Err("compact takes a single directory".into());
            }
            PathBuf::from(a)
        }
        _ => PathBuf::from(Opts::parse(args)?.require("index-dir")?),
    };
    let t0 = std::time::Instant::now();
    let runs = warptree::compact_index_dir(&dir).map_err(|e| e.to_string())?;
    if runs == 0 {
        outln!(
            "nothing to compact ({} has no tail segments)",
            dir.display()
        );
    } else {
        outln!(
            "compacted {} in {runs} merge{} ({:.2?}); index is monolithic again",
            dir.display(),
            if runs == 1 { "" } else { "s" },
            t0.elapsed()
        );
    }
    Ok(())
}

fn open_index(dir: &Path) -> Result<DiskIndexDir, String> {
    let idx = open_index_dir(dir, 0).map_err(|e| e.to_string())?;
    report_recovery(&idx);
    Ok(idx)
}

/// [`open_index`] with `disk.*` I/O metering on `reg`.
fn open_index_metered(dir: &Path, reg: &MetricsRegistry) -> Result<DiskIndexDir, String> {
    let idx = open_index_dir_metered(dir, reg).map_err(|e| e.to_string())?;
    report_recovery(&idx);
    Ok(idx)
}

/// Says on stderr that the answer came by sequential scan because an
/// index file is damaged, and names it. The answer is complete; the CLI
/// never writes to the directory, so healing is left to `scrub`.
fn report_degraded(dir: &Path, idx: &DiskIndexDir) {
    let damaged = idx.damaged();
    if damaged.is_empty() {
        return;
    }
    eprintln!(
        "degraded: answered by sequential scan; damaged {}; \
         run `warptree scrub {}` to heal",
        damaged.join(", "),
        dir.display()
    );
}

fn report_recovery(idx: &DiskIndexDir) {
    if !idx.recovery.is_clean() {
        for line in idx.recovery.to_string().lines() {
            eprintln!("recovery: {line}");
        }
    }
}

/// Splits a positional directory out of `args`, wherever it appears
/// (`scrub ./idx --check-only` and `scrub --check-only ./idx` both
/// work). Flags in `valued` consume the following token as their value,
/// so a directory can't be mistaken for one flag's argument or vice
/// versa.
fn split_positional_dir(args: &[String], valued: &[&str]) -> (Option<PathBuf>, Vec<String>) {
    let mut dir = None;
    let mut rest = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            rest.push(a.clone());
            let name = name.split('=').next().unwrap_or(name);
            if !a.contains('=') && valued.contains(&name) {
                if let Some(v) = it.peek() {
                    if !v.starts_with("--") {
                        rest.push(it.next().unwrap().clone());
                    }
                }
            }
        } else if dir.is_none() {
            dir = Some(PathBuf::from(a));
        } else {
            // A second positional is an error; let Opts::parse say so.
            rest.push(a.clone());
        }
    }
    (dir, rest)
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    // Accept the directory positionally (`warptree verify ./idx`) or as
    // `--index-dir ./idx`.
    let (pos, rest) = split_positional_dir(args, &["index-dir"]);
    let o = Opts::parse(&rest)?;
    let dir = match pos {
        Some(d) => d,
        None => PathBuf::from(o.require("index-dir")?),
    };
    let report =
        warptree_disk::verify_dir_with(&warptree_disk::RealVfs, &dir).map_err(|e| e.to_string())?;
    outln!("{report}");
    if report.is_ok() {
        Ok(())
    } else {
        Err(format!("{} failed verification", dir.display()))
    }
}

fn cmd_scrub(args: &[String]) -> Result<(), String> {
    // Accept the directory positionally (`warptree scrub ./idx`) or as
    // `--index-dir ./idx`.
    let (pos, rest) = split_positional_dir(args, &["index-dir"]);
    let o = Opts::parse(&rest)?;
    let dir = match pos {
        Some(d) => d,
        None => PathBuf::from(o.require("index-dir")?),
    };
    // Healing (rebuilding quarantined segments from the corpus) is the
    // default; `--check-only` quarantines newly corrupt segments but
    // leaves existing tombstones in place.
    let heal = !o.flag("check-only");
    let reg = MetricsRegistry::new();
    let report = warptree_disk::scrub_dir_with(&warptree_disk::RealVfs, &dir, heal, &reg)
        .map_err(|e| e.to_string())?;
    outln!("{report}");
    match &report.unrecoverable {
        None => Ok(()),
        Some(file) => Err(format!(
            "{file} is corrupt and cannot be rebuilt from the corpus"
        )),
    }
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args)?;
    let dir = PathBuf::from(o.require("index-dir")?);
    let json = o.flag("json");
    let idx = open_index(&dir)?;
    let (store, alphabet, tree) = (&idx.store, &idx.alphabet, &idx.tree);
    let backend = tree.kind();
    // Totals cover the base and every tail segment — tails hold real
    // suffixes too, or the compaction percentage would drift after every
    // append — and resident bytes are the backend-size stat the
    // tree-vs-esa race compares.
    use warptree::core::search::IndexBackend;
    let nodes: u64 = idx.live_trees().map(|t| t.record_count()).sum();
    let suffixes: u64 = idx.live_trees().map(IndexBackend::suffix_count).sum();
    let resident_bytes: u64 = idx.live_trees().map(|t| t.resident_bytes()).sum();
    let resolved = warptree_disk::resolve_dir_with(&warptree_disk::RealVfs, &dir)
        .map_err(|e| e.to_string())?;
    let file_bytes = std::fs::metadata(&resolved.index_path)
        .map_err(|e| e.to_string())?
        .len();
    let manifest = &resolved.manifest;
    // Every corpus file — the base's, then each tail's — with its scale
    // and size; the corpus's bytes are their sum.
    let mut corpus_files = Vec::new();
    for file in &resolved.corpus_files {
        let name = file.path.file_name().unwrap_or_default().to_string_lossy();
        let decimals = warptree_disk::corpus_decimals(&file.path).map_err(|e| e.to_string())?;
        let bytes = std::fs::metadata(&file.path)
            .map_err(|e| e.to_string())?
            .len();
        corpus_files.push((name.into_owned(), decimals, bytes));
    }
    let corpus_decimals = corpus_files[0].1;
    let corpus_file_bytes: u64 = corpus_files.iter().map(|f| f.2).sum();
    let manifest_corpus_bytes: u64 = resolved.corpus_files.iter().map(|f| f.file_len).sum();
    // `--deep` walks the base index for structural statistics.
    let deep = o.flag("deep").then(|| TreeStats::compute(tree));

    if json {
        use warptree::obs::json::{escape, num};
        let value_range = match store.value_range() {
            Some((lo, hi)) => format!("[{},{}]", num(lo), num(hi)),
            None => "null".into(),
        };
        let manifest_json = format!(
            concat!(
                "{{\"generation\":{},\"corpus\":\"{}\",\"index\":\"{}\",",
                "\"corpus_bytes\":{},\"index_bytes\":{}}}"
            ),
            manifest.generation,
            escape(&manifest.corpus),
            escape(&manifest.index),
            manifest_corpus_bytes,
            manifest.index_len,
        );
        let decimals_json = |d: Option<u32>| d.map_or("null".into(), |d| d.to_string());
        let files_json: Vec<String> = (corpus_files.iter())
            .map(|(name, decimals, bytes)| {
                format!(
                    "{{\"name\":\"{}\",\"decimals\":{},\"file_bytes\":{bytes}}}",
                    escape(name),
                    decimals_json(*decimals)
                )
            })
            .collect();
        let structure_json = deep.as_ref().map_or("null".into(), TreeStats::to_json);
        outln!(
            concat!(
                "{{\"corpus\":{{\"sequences\":{},\"elements\":{},",
                "\"mean_len\":{},\"value_range\":{},",
                "\"decimals\":{},\"file_bytes\":{},\"files\":[{}]}},",
                "\"categorization\":{{\"method\":\"{}\",\"categories\":{}}},",
                "\"index\":{{\"kind\":\"{}\",\"backend\":\"{}\",",
                "\"nodes\":{},\"suffixes\":{},",
                "\"depth_limit\":{},\"file_bytes\":{},\"resident_bytes\":{},",
                "\"generation\":{},",
                "\"segments\":{}}},",
                "\"manifest\":{},\"structure\":{}}}"
            ),
            store.len(),
            store.total_len(),
            num(store.mean_len()),
            value_range,
            decimals_json(corpus_decimals),
            corpus_file_bytes,
            files_json.join(","),
            escape(&alphabet.method().to_string()),
            alphabet.len(),
            if tree.is_sparse() { "sparse" } else { "full" },
            backend.as_str(),
            nodes,
            suffixes,
            match tree.depth_limit() {
                Some(d) => d.to_string(),
                None => "null".into(),
            },
            file_bytes,
            resident_bytes,
            idx.generation,
            idx.segment_count(),
            manifest_json,
            structure_json,
        );
        return Ok(());
    }

    outln!("corpus:");
    outln!("  sequences:      {}", store.len());
    outln!("  elements:       {}", store.total_len());
    outln!("  mean length:    {:.1}", store.mean_len());
    if let Some((lo, hi)) = store.value_range() {
        outln!("  value range:    [{lo}, {hi}]");
    }
    let storage = |decimals: Option<u32>| match decimals {
        Some(d) => format!("{d}-decimal delta varints"),
        None => "raw f64".into(),
    };
    match &corpus_files[..] {
        [_] => outln!(
            "  stored as:      {}, {} KiB",
            storage(corpus_decimals),
            corpus_file_bytes / 1024
        ),
        files => {
            outln!(
                "  stored as:      {} files, {} KiB",
                files.len(),
                corpus_file_bytes / 1024
            );
            for (name, decimals, bytes) in files {
                outln!("    {name}: {}, {} KiB", storage(*decimals), bytes / 1024);
            }
        }
    }
    outln!("categorization:");
    outln!("  method:         {}", alphabet.method());
    outln!("  categories:     {}", alphabet.len());
    outln!("index:");
    outln!(
        "  kind:           {}",
        if tree.is_sparse() {
            "sparse (SST_C)"
        } else {
            "full (ST_C)"
        }
    );
    outln!(
        "  backend:        {}",
        match backend {
            BackendKind::Tree => "tree (suffix tree)",
            BackendKind::Esa => "esa (enhanced suffix array)",
        }
    );
    outln!("  nodes:          {nodes}");
    outln!("  stored suffixes:{suffixes}");
    outln!(
        "  compaction:     {:.1}% of suffixes stored",
        100.0 * suffixes as f64 / store.total_len().max(1) as f64
    );
    match tree.depth_limit() {
        Some(d) => outln!("  depth limit:    {d} (truncated, §8)"),
        None => outln!("  depth limit:    none"),
    }
    outln!("  file size:      {} KiB", file_bytes / 1024);
    outln!("  resident size:  {} KiB", resident_bytes / 1024);
    outln!("  generation:     {}", idx.generation);
    match idx.segment_count() {
        1 => outln!("  segments:       1 (monolithic)"),
        n => outln!(
            "  segments:       {n} (1 base + {} tail; `warptree compact` folds them)",
            n - 1
        ),
    }
    outln!("manifest:");
    outln!(
        "  corpus:         {} ({} KiB; {} KiB in all {} corpus files)",
        manifest.corpus,
        manifest.corpus_len / 1024,
        manifest_corpus_bytes / 1024,
        resolved.corpus_files.len()
    );
    outln!(
        "  index:          {} ({} KiB)",
        manifest.index,
        manifest.index_len / 1024
    );
    if let Some(structure) = &deep {
        outln!("structure:");
        for line in structure.to_string().lines() {
            outln!("  {line}");
        }
    }
    Ok(())
}

fn cmd_search(args: &[String], knn: bool) -> Result<(), String> {
    let o = Opts::parse(args)?;
    let dir = PathBuf::from(o.require("index-dir")?);
    let query = resolve_query(&o)?;
    let stats_fmt = stats_mode(&o)?;
    let reg = MetricsRegistry::new();
    let idx = match stats_fmt {
        Some(_) => open_index_metered(&dir, &reg)?,
        None => open_index(&dir)?,
    };
    let store = &idx.store;
    let window: Option<u32> = match o.get("window") {
        Some(w) => Some(w.parse().map_err(|_| "--window: bad value".to_string())?),
        None => None,
    };
    // `--trace` runs the search under an active span tree and prints
    // the rendered funnel (filter → prune → postprocess) to stderr;
    // results on stdout are byte-identical with or without it.
    let trace = if o.flag("trace") {
        warptree::obs::Trace::active("cli")
    } else {
        warptree::obs::Trace::noop()
    };
    let metrics = match stats_fmt {
        Some(_) => SearchMetrics::register(&reg),
        None => SearchMetrics::new(),
    }
    .with_trace(trace.clone());
    let threads: u32 = o.parse_num("threads", 1)?;
    // `--no-cascade` skips the lower-bound screens and verifies every
    // candidate against the exact table — answers are identical either
    // way (see `core::search::cascade`); the flag exists to measure
    // the cascade's work savings on a given corpus.
    let cascade = !o.flag("no-cascade");
    let t0 = std::time::Instant::now();
    if knn {
        let k: usize = o.parse_num("k", 5)?;
        let mut params = warptree::core::search::KnnParams::new(k);
        params.window = window;
        params.threads = threads;
        params.cascade = cascade;
        let req = QueryRequest::knn_params(&query, params);
        let out = idx.query_with(&req, &metrics).map_err(|e| e.to_string())?;
        report_degraded(&dir, &idx);
        let matches = out.into_ranked();
        let head = format!(
            "{} nearest subsequences in {:.2?} ({} nodes visited):",
            matches.len(),
            t0.elapsed(),
            metrics.snapshot().nodes_visited
        );
        print_matches(&head, &matches, store, None);
    } else {
        let epsilon: f64 = o
            .require("epsilon")?
            .parse()
            .map_err(|_| "--epsilon: bad value".to_string())?;
        let limit: usize = o.parse_num("limit", 20)?;
        let mut params = SearchParams::with_epsilon(epsilon);
        params.window = window;
        params.threads = threads;
        params.cascade = cascade;
        let req = QueryRequest::threshold_params(&query, params);
        let out = idx.query_with(&req, &metrics).map_err(|e| e.to_string())?;
        report_degraded(&dir, &idx);
        let answers = out.into_answer_set();
        let stats = metrics.snapshot();
        let head = format!(
            "{} answers within ε = {epsilon} in {:.2?} ({} candidates \
             verified, {} false alarms)",
            answers.len(),
            t0.elapsed(),
            stats.postprocessed,
            stats.false_alarms
        );
        let more = (answers.len() > limit)
            .then(|| format!("  … ({} more; raise --limit)", answers.len() - limit));
        print_matches(&head, &answers.top_k(limit), store, more.as_deref());
    }
    if let Some(data) = trace.finish() {
        eprint!("{}", data.render());
    }
    if let Some(fmt) = stats_fmt {
        emit_stats(fmt, &reg);
    }
    Ok(())
}

/// Prints a query's report — `head`, a line per match, `tail` — as one
/// write: thousands of lines are a few system calls.
fn print_matches(
    head: &str,
    matches: &[warptree::core::search::Match],
    store: &SequenceStore,
    tail: Option<&str>,
) {
    use std::fmt::Write as _;
    let mut text = format!("{head}\n");
    for m in matches {
        let name = store.display_name(m.occ.seq);
        let _ = writeln!(text, "  {} ({name})  dist {:.4}", m.occ, m.dist);
    }
    if let Some(tail) = tail {
        let _ = writeln!(text, "{tail}");
    }
    emit(&text);
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args)?;
    let dir = PathBuf::from(o.require("index-dir")?);
    let query = resolve_query(&o)?;
    let epsilon: f64 = o
        .require("epsilon")?
        .parse()
        .map_err(|_| "--epsilon: bad value".to_string())?;
    let mut params = SearchParams::with_epsilon(epsilon);
    if let Some(w) = o.get("window") {
        params.window = Some(w.parse().map_err(|_| "--window: bad value".to_string())?);
    }
    params.cascade = !o.flag("no-cascade");
    let idx = open_index(&dir)?;
    let (_, report) = idx.explain(&query, &params).map_err(|e| e.to_string())?;
    report_degraded(&dir, &idx);
    if o.flag("json") {
        outln!("{}", report.to_json());
    } else {
        outln!("{report}");
    }
    Ok(())
}

fn cmd_mine(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args)?;
    let dir = PathBuf::from(o.require("index-dir")?);
    let len: u32 = o.parse_num("len", 8)?;
    let k: usize = o.parse_num("k", 5)?;
    let idx = open_index(&dir)?;
    // One full ESA over the whole corpus — the base and every tail —
    // whatever backend and sparseness the directory was built with.
    let esa = warptree_esa::EsaIndex::build(idx.cat.clone(), false);
    let motifs = top_motifs(&esa, len, k).map_err(|e| e.to_string())?;
    outln!("top {} motifs of length {len}:", motifs.len());
    for (rank, m) in motifs.iter().enumerate() {
        let exemplar = m.occurrences[0];
        let values = idx
            .store
            .get(exemplar.0)
            .subseq(exemplar.1, len)
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
            .join(", ");
        outln!(
            "  #{}: {} occurrences, e.g. {}[{}..] = [{}]",
            rank + 1,
            m.count,
            idx.store.display_name(exemplar.0),
            exemplar.1 + 1,
            values
        );
    }
    if let Some(longest) = longest_repeated(&esa, 2).map_err(|e| e.to_string())? {
        outln!(
            "longest repeated shape: {} symbols, {} occurrences",
            longest.symbols.len(),
            longest.count
        );
    }
    Ok(())
}

fn cmd_forecast(args: &[String]) -> Result<(), String> {
    use warptree::core::predict::{forecast, Weighting};
    let o = Opts::parse(args)?;
    let dir = PathBuf::from(o.require("index-dir")?);
    let query = resolve_query(&o)?;
    let epsilon: f64 = o
        .require("epsilon")?
        .parse()
        .map_err(|_| "--epsilon: bad value".to_string())?;
    let horizon: usize = o.parse_num("horizon", 5)?;
    let idx = open_index(&dir)?;
    let mut params = SearchParams::with_epsilon(epsilon);
    if let Some(w) = o.get("window") {
        params.window = Some(w.parse().map_err(|_| "--window: bad value".to_string())?);
    }
    let (out, _) = idx
        .query(&QueryRequest::threshold_params(&query, params))
        .map_err(|e| e.to_string())?;
    report_degraded(&dir, &idx);
    let episodes = out.into_answer_set().non_overlapping();
    if episodes.is_empty() {
        return Err("no similar episodes found — raise --epsilon".into());
    }
    match forecast(
        &idx.store,
        &episodes,
        horizon,
        Weighting::InverseDistance { lambda: 0.5 },
    ) {
        None => Err("episodes have no continuations".into()),
        Some(f) => {
            let last = *query.last().expect("non-empty query");
            outln!(
                "{} distinct episodes; forecast from last value {last:.2}:",
                episodes.len()
            );
            for step in 0..f.mean.len() {
                outln!(
                    "  +{}: {:>8.2}  (range {:.2}..{:.2}, {} continuations)",
                    step + 1,
                    last + f.mean[step],
                    last + f.low[step],
                    last + f.high[step],
                    f.support[step]
                );
            }
            Ok(())
        }
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use warptree::server::signal;
    // Accept the directory positionally (`warptree serve ./idx`) or as
    // `--index-dir ./idx`.
    let (dir, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (PathBuf::from(a), &args[1..]),
        _ => {
            let o = Opts::parse(args)?;
            (PathBuf::from(o.require("index-dir")?), args)
        }
    };
    let o = Opts::parse(rest)?;
    let mut config = ServerConfig {
        addr: o.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        ..ServerConfig::default()
    };
    config.workers = o.parse_num("workers", config.workers)?;
    config.queue_depth = o.parse_num("queue-depth", config.queue_depth)?;
    config.deadline = std::time::Duration::from_millis(o.parse_num("deadline-ms", 5000u64)?);
    config.reload_interval = std::time::Duration::from_millis(o.parse_num("reload-ms", 200u64)?);
    config.max_query_len = o.parse_num("max-query-len", config.max_query_len)?;
    config.max_conns = o.parse_num("max-conns", config.max_conns)?;
    config.max_parallelism = o.parse_num("threads", config.max_parallelism)?;
    config.compact_threshold = o.parse_num("compact-threshold", config.compact_threshold)?;
    config.scrub_interval =
        std::time::Duration::from_millis(o.parse_num("scrub-interval-ms", 0u64)?);
    config.enable_debug_ops = o.flag("debug-ops");
    config.slow_ms = o.parse_num("slow-ms", config.slow_ms)?;
    config.trace_sample = o.parse_num("trace-sample", config.trace_sample)?;
    config.slowlog_capacity = o.parse_num("slowlog-capacity", config.slowlog_capacity)?;
    config.metrics_addr = o.get("metrics-addr").map(str::to_string);

    if !signal::install_handlers() {
        eprintln!(
            "warning: SIGINT/SIGTERM handlers unavailable; stop via the protocol `shutdown` op"
        );
    }
    let handle = Server::start(&dir, config.clone()).map_err(|e| e.to_string())?;
    // One parseable line so scripts can discover the bound port.
    let mut banner = format!("serving {} on {}\n", dir.display(), handle.addr());
    banner += &format!(
        "  workers {}, queue depth {}, max conns {}, deadline {:?}, reload poll {:?}, \
         per-request parallelism cap {}\n",
        config.workers,
        config.queue_depth,
        config.max_conns,
        config.deadline,
        config.reload_interval,
        config.max_parallelism
    );
    banner += &format!(
        "  slow-query threshold {} ms, trace sample {}, slowlog capacity {}\n",
        config.slow_ms,
        if config.trace_sample == 0 {
            "off".to_string()
        } else {
            format!("1-in-{}", config.trace_sample)
        },
        config.slowlog_capacity
    );
    if let Some(maddr) = handle.metrics_addr() {
        banner += &format!("  metrics exposition on http://{maddr}/metrics\n");
    }
    emit(&banner);
    // Park until SIGINT/SIGTERM or a protocol `shutdown` op, then drain.
    while !signal::shutdown_requested() && !handle.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("shutdown requested; draining in-flight requests…");
    handle.request_shutdown();
    handle.join();
    eprintln!("drained; bye");
    Ok(())
}

/// Greedy contiguous value-balanced partition: cut after the sequence
/// whose cumulative value count first reaches the running target, while
/// always leaving at least one sequence per remaining shard. Contiguity
/// is what makes the coordinator's id remap pure arithmetic.
fn partition_points(lens: &[u64], shards: usize) -> Vec<usize> {
    let total: u64 = lens.iter().sum();
    let mut cuts = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut consumed = 0u64;
    for s in 0..shards {
        let remaining_shards = shards - s;
        let max_end = lens.len() - (remaining_shards - 1);
        let target = consumed + (total - consumed) / remaining_shards as u64;
        let mut end = start + 1;
        consumed += lens[start];
        while end < max_end && consumed < target {
            consumed += lens[end];
            end += 1;
        }
        cuts.push(end);
        start = end;
    }
    cuts
}

fn cmd_shard_init(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args)?;
    let input = PathBuf::from(o.require("input")?);
    let out_dir = PathBuf::from(o.require("out-dir")?);
    let shards: usize = o.parse_num("shards", 2)?;
    let categories: usize = o.parse_num("categories", 40)?;
    let batch: usize = o.parse_num("batch", 64)?;
    let kind = if o.flag("sparse") {
        warptree_disk::TreeKind::Sparse
    } else {
        warptree_disk::TreeKind::Full
    };
    let backend = match o.get("backend").unwrap_or("tree") {
        "tree" => BackendKind::Tree,
        "esa" => BackendKind::Esa,
        other => return Err(format!("unknown --backend {other:?} (tree or esa)")),
    };
    let store = load_csv(&input).map_err(|e| e.to_string())?;
    if store.is_empty() {
        return Err("input contains no sequences".into());
    }
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if shards > store.len() {
        return Err(format!(
            "--shards {shards} exceeds the corpus's {} sequences",
            store.len()
        ));
    }
    let cat = match o.get("method").unwrap_or("me") {
        "me" => Categorization::MaxEntropy(categories),
        "el" => Categorization::EqualLength(categories),
        "exact" => Categorization::Exact,
        "kmeans" => Categorization::KMeans(categories),
        other => return Err(format!("unknown --method {other:?}")),
    };
    // ONE alphabet over the whole corpus, shared by every shard build.
    // Per-shard alphabets would categorize the same values differently
    // and shard answers would stop merging byte-identically with a
    // monolithic index.
    let alphabet = cat.alphabet(&store).map_err(|e| e.to_string())?;
    let lens: Vec<u64> = store.iter().map(|(_, s)| s.len() as u64).collect();
    let cuts = partition_points(&lens, shards);
    let t0 = std::time::Instant::now();
    let mut metas = Vec::with_capacity(shards);
    let mut start = 0usize;
    for (i, &end) in cuts.iter().enumerate() {
        let mut slice = warptree::core::sequence::SequenceStore::new();
        for id in start..end {
            let sid = warptree::core::sequence::SeqId(id as u32);
            let seq = store.get(sid).clone();
            match store.name(sid) {
                Some(n) => slice.push_named(seq, n),
                None => slice.push(seq),
            };
        }
        let dir_name = format!("shard-{i:04}");
        let shard_dir = out_dir.join(&dir_name);
        warptree_disk::build_dir_backend_with(
            warptree_disk::real_vfs(),
            &slice,
            &alphabet,
            kind,
            batch,
            1,
            None,
            backend,
            &shard_dir,
        )
        .map_err(|e| format!("building {dir_name}: {e}"))?;
        outln!(
            "  {dir_name}: sequences [{start}, {end}) — {} values",
            slice.total_len()
        );
        metas.push(warptree_disk::ShardMeta {
            dir: dir_name,
            start_seq: start as u32,
            seq_count: (end - start) as u32,
            values: slice.total_len(),
        });
        start = end;
    }
    let manifest = warptree_disk::ShardManifest {
        generation: 1,
        shards: metas,
    };
    warptree_disk::write_shard_manifest(&out_dir, &manifest).map_err(|e| e.to_string())?;
    outln!(
        "sharded {} sequences ({} values) into {shards} shard directories under {} in {:.2?}",
        store.len(),
        store.total_len(),
        out_dir.display(),
        t0.elapsed()
    );
    outln!(
        "  serve each with `warptree serve {}/shard-NNNN`, then \
         `warptree shard-coordinator {} --shards ADDR,…`",
        out_dir.display(),
        out_dir.display()
    );
    Ok(())
}

fn cmd_shard_coordinator(args: &[String]) -> Result<(), String> {
    use warptree::coord::{CoordConfig, Coordinator};
    use warptree::server::signal;
    // Accept the sharding root positionally or as `--index-dir DIR`.
    let (dir, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (PathBuf::from(a), &args[1..]),
        _ => {
            let o = Opts::parse(args)?;
            (PathBuf::from(o.require("index-dir")?), args)
        }
    };
    let o = Opts::parse(rest)?;
    let shard_addrs: Vec<String> = o
        .require("shards")?
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .map(str::to_string)
        .collect();
    if shard_addrs.is_empty() {
        return Err("--shards needs at least one address".into());
    }
    let mut config = CoordConfig {
        addr: o.get("addr").unwrap_or("127.0.0.1:7979").to_string(),
        shard_addrs,
        ..CoordConfig::default()
    };
    config.workers = o.parse_num("workers", config.workers)?;
    config.deadline = std::time::Duration::from_millis(o.parse_num("deadline-ms", 5000u64)?);
    config.shard_timeout =
        std::time::Duration::from_millis(o.parse_num("shard-timeout-ms", 5000u64)?);
    config.max_conns = o.parse_num("max-conns", config.max_conns)?;
    config.health_interval =
        std::time::Duration::from_millis(o.parse_num("health-interval-ms", 500u64)?);
    config.slow_ms = o.parse_num("slow-ms", config.slow_ms)?;
    config.trace_sample = o.parse_num("trace-sample", config.trace_sample)?;
    config.slowlog_capacity = o.parse_num("slowlog-capacity", config.slowlog_capacity)?;

    if !signal::install_handlers() {
        eprintln!(
            "warning: SIGINT/SIGTERM handlers unavailable; stop via the protocol `shutdown` op"
        );
    }
    let shard_count = config.shard_addrs.len();
    let handle = Coordinator::start(&dir, config.clone()).map_err(|e| e.to_string())?;
    // One parseable line so scripts can discover the bound port.
    let mut banner = format!("coordinating {shard_count} shards on {}\n", handle.addr());
    for (i, addr) in config.shard_addrs.iter().enumerate() {
        banner += &format!("  shard {i}: {addr}\n");
    }
    banner += &format!(
        "  scatter lanes {}, deadline {:?}, per-shard timeout {:?}, max conns {}, \
         health poll {:?}\n",
        config.workers,
        config.deadline,
        config.shard_timeout,
        config.max_conns,
        config.health_interval
    );
    emit(&banner);
    // Park until SIGINT/SIGTERM or a protocol `shutdown` op, then drain.
    while !signal::shutdown_requested() && !handle.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("shutdown requested; draining in-flight requests…");
    handle.request_shutdown();
    handle.join();
    eprintln!("drained; bye");
    Ok(())
}

/// `warptree slowlog --addr HOST:PORT` — dump a running server's
/// slow-query ring, newest first. `--json` prints the raw entries
/// array; `--traces` renders each captured span tree inline.
fn cmd_slowlog(args: &[String]) -> Result<(), String> {
    use warptree::server::json::Json;
    let o = Opts::parse(args)?;
    let addr = o.require("addr")?;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let resp = client.slowlog().map_err(|e| e.to_string())?;
    let entries = resp
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("malformed slowlog response")?;
    if o.flag("json") {
        // Raw passthrough of the server's entries array, one line, for
        // scripts — stdout stays machine-usable.
        let raw = client
            .request_raw(&warptree::server::Request::Slowlog.encode(None))
            .map_err(|e| e.to_string())?;
        outln!("{raw}");
        return Ok(());
    }
    if entries.is_empty() {
        outln!("slow-query ring is empty");
        return Ok(());
    }
    outln!("{} slow-query entries (newest first):", entries.len());
    for e in entries {
        let ms = |key: &str| e.get(key).and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6;
        outln!(
            "  {:>10.3} ms  (queue {:>8.3} ms)  {}  gen {}  trace {}",
            ms("dur_ns"),
            ms("queue_ns"),
            e.get("op").and_then(Json::as_str).unwrap_or("?"),
            e.get("generation").and_then(Json::as_u64).unwrap_or(0),
            match e.get("trace_id").and_then(Json::as_str) {
                Some("") | None => "-",
                Some(id) => id,
            },
        );
        if o.flag("traces") {
            if let Some(spans) = e
                .get("trace")
                .and_then(|t| t.get("spans"))
                .and_then(Json::as_arr)
            {
                for s in spans {
                    outln!(
                        "      {:>10.3} ms  {}",
                        s.get("dur_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6,
                        s.get("name").and_then(Json::as_str).unwrap_or("?"),
                    );
                }
            }
        }
    }
    Ok(())
}

fn cmd_bench_client(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args)?;
    let addr = o.require("addr")?.to_string();
    let connections: usize = o.parse_num("connections", 8)?;
    let requests: usize = o.parse_num("requests", 240)?;
    let mode = match o.get("mode").unwrap_or("closed") {
        "closed" => LoopMode::Closed,
        "open" => LoopMode::Open {
            rate: o.parse_num("rate", 100.0)?,
        },
        other => return Err(format!("unknown --mode {other:?} (closed|open)")),
    };
    let epsilons = match o.get("epsilons") {
        None => warptree::server::bench::default_epsilons(),
        Some(text) => parse_query(text)?,
    };
    let window: Option<u32> = match o.get("window") {
        Some(w) => Some(w.parse().map_err(|_| "--window: bad value".to_string())?),
        None => None,
    };
    // Query pool: explicit `--query`, or drawn from a corpus CSV with
    // the paper's stratified workload (§7: mean length 20, 20/50/30
    // band mix).
    let queries: Vec<Vec<f64>> = match (o.get("query"), o.get("input")) {
        (Some(text), _) => vec![parse_query(text)?],
        (None, Some(input)) => {
            let store = load_csv(Path::new(input)).map_err(|e| e.to_string())?;
            if store.is_empty() {
                return Err("--input contains no sequences".into());
            }
            let cfg = QueryConfig {
                count: o.parse_num("queries", 32usize)?,
                seed: o.parse_num("seed", 1u64)?,
                ..Default::default()
            };
            QueryWorkload::draw(&store, &cfg)
                .queries()
                .iter()
                .map(|q| q.values.clone())
                .collect()
        }
        (None, None) => return Err("bench-client needs --query or --input".into()),
    };
    let config = BenchConfig {
        addr,
        connections,
        requests,
        mode,
        epsilons,
        window,
        queries,
    };
    let t0 = std::time::Instant::now();
    let report = warptree::server::bench::run(&config).map_err(|e| e.to_string())?;
    outln!(
        "{} requests over {} connections ({}) in {:.2?}:",
        report.sent,
        report.connections,
        report.mode,
        t0.elapsed()
    );
    outln!(
        "  ok {}, overloaded {}, deadline_exceeded {}, errors {} ({} connection failures)",
        report.ok,
        report.overloaded,
        report.deadline_exceeded,
        report.errors,
        report.conn_failures
    );
    outln!(
        "  throughput {:.1} req/s; latency p50 {} µs, p95 {} µs, p99 {} µs, max {} µs",
        report.throughput,
        report.p50_us,
        report.p95_us,
        report.p99_us,
        report.max_us
    );
    outln!(
        "  server split: queue wait p50 {} µs, p99 {} µs; service p50 {} µs, p99 {} µs",
        report.queue_wait_us[0],
        report.queue_wait_us[2],
        report.service_us[0],
        report.service_us[2]
    );
    outln!(
        "  outside the server's split (wire + client parse): p50 {} µs, p95 {} µs",
        report.unattributed_us[0],
        report.unattributed_us[1]
    );
    if let Some(out) = o.get("out") {
        std::fs::write(out, report.to_json() + "\n").map_err(|e| e.to_string())?;
        outln!("  wrote {out}");
    }
    Ok(())
}

fn cmd_scan(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args)?;
    let input = PathBuf::from(o.require("input")?);
    let query = resolve_query(&o)?;
    let epsilon: f64 = o
        .require("epsilon")?
        .parse()
        .map_err(|_| "--epsilon: bad value".to_string())?;
    let store = load_csv(&input).map_err(|e| e.to_string())?;
    let stats_fmt = stats_mode(&o)?;
    let params = SearchParams::with_epsilon(epsilon);
    let mut stats = SearchStats::default();
    let t0 = std::time::Instant::now();
    let answers = seq_scan(
        &store,
        &query,
        &params,
        SeqScanMode::EarlyAbandon,
        &mut stats,
    );
    outln!(
        "{} answers within ε = {epsilon} in {:.2?} (exact scan, {} table \
         cells)",
        answers.len(),
        t0.elapsed(),
        stats.total_cells()
    );
    for m in answers.top_k(20) {
        outln!("  {}  dist {:.4}", m.occ, m.dist);
    }
    if let Some(fmt) = stats_fmt {
        // The scan reports through the plain snapshot; bridge it into a
        // registry so the dump has the same shape as the indexed paths.
        let reg = MetricsRegistry::new();
        SearchMetrics::register(&reg).add(&stats);
        emit_stats(fmt, &reg);
    }
    Ok(())
}
