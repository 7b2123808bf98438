//! `warptree-benchmark`: one run of one workload, or `compare A B`.
//!
//! ```text
//! warptree-benchmark --workload lib-selective --seed 1 --seconds 20 --trace 0
//! warptree-benchmark compare results/a results/b
//! ```

use std::path::Path;
use std::process::ExitCode;

use warptree_benchmark::inputs::{self, WORKLOADS};
use warptree_benchmark::tmp::{out_dir, TempRoot};
use warptree_benchmark::{compare, run};

const USAGE: &str = "usage: warptree-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>\n       warptree-benchmark compare <result-set-A> <result-set-B>";

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name} <value>"))
}

fn run_workload(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload")?;
    let spec = inputs::spec(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seed: u64 = flag(args, "--seed")?
        .parse()
        .map_err(|_| "--seed: not a whole number".to_string())?;
    let seconds: f64 = flag(args, "--seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number".to_string())?;
    let trace = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
    };
    println!("# workload: {name}");
    println!("# seed: {seed}");
    println!("# run_seconds: {seconds}");
    println!(
        "# threads_available: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    // From here on nothing sees the seed or the workload's name.
    let generated = inputs::generate(spec, seed);
    let trace_path = out_dir().join(format!("trace-{name}.json"));
    let mut tmp = TempRoot::new().map_err(|e| format!("creating the scratch root: {e}"))?;
    let outcome = run(&generated, seconds, trace, &trace_path, &mut tmp);
    drop(tmp);
    outcome.print(trace);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("compare") => Err("compare takes two result-set directories".to_string()),
        // Exit 0 whether or not the answers were right: `correct` says that.
        Some(_) => run_workload(&args).map(|()| true),
        None => Err("no arguments".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
