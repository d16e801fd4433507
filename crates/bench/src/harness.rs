//! The report binaries' shared driver: one argument parser, one child
//! fan-out, one JSON row emitter and one A/B stream timer.
//!
//! A malformed command line is a usage error, not a silent default: every
//! binary parses its flags through [`Args::parse`] against a fixed spec, and
//! [`Args::from_env`] ends the process with exit status 2 and a message on
//! an unknown or repeated flag, a missing or malformed number, a zero where
//! a count must be positive, or a name outside the flag's allowed set.

use std::process::Command;

use pwe_asym::cost::{measure, CostReport, Omega};

/// What a flag takes.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A bare switch (`--smoke`).
    Switch,
    /// One non-negative integer (`--n 5000`).
    Num,
    /// One positive integer (`--shards 8`).
    Pos,
    /// Comma-separated positive integers, sorted and deduplicated
    /// (`--threads 2,1`).
    List,
    /// One name out of a fixed set (`--tree range`).
    Choice(&'static [&'static str]),
}

#[derive(Debug)]
enum Value {
    Switch,
    Num(usize),
    List(Vec<usize>),
    Name(String),
}

/// A parsed, validated command line.
#[derive(Debug)]
pub struct Args(Vec<(&'static str, Value)>);

impl Args {
    /// Parse `argv` (without the program name) against `spec`, the
    /// `(flag, kind)` pairs the binary accepts.
    pub fn parse(argv: &[String], spec: &[(&'static str, Kind)]) -> Result<Args, String> {
        let mut given = Vec::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let &(flag, kind) = spec
                .iter()
                .find(|(f, _)| f == arg)
                .ok_or_else(|| format!("unknown argument {arg:?}"))?;
            if given.iter().any(|(f, _)| *f == flag) {
                return Err(format!("{flag} given twice"));
            }
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let num = |v: &str| {
                v.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("{flag}: {v:?} is not a non-negative integer"))
            };
            let pos = |v: &str| match num(v)? {
                0 => Err(format!("{flag}: {v:?} must be positive")),
                x => Ok(x),
            };
            let parsed = match kind {
                Kind::Switch => Value::Switch,
                Kind::Num => Value::Num(num(value()?)?),
                Kind::Pos => Value::Num(pos(value()?)?),
                Kind::List => {
                    let mut out = value()?
                        .split(',')
                        .map(pos)
                        .collect::<Result<Vec<_>, _>>()?;
                    out.sort_unstable();
                    out.dedup();
                    Value::List(out)
                }
                Kind::Choice(names) => {
                    let name = value()?;
                    if names.is_empty() {
                        return Err(format!("{flag} does not apply to this mode"));
                    }
                    if !names.contains(&name.as_str()) {
                        return Err(format!(
                            "unknown {flag} {name:?}; expected one of {names:?}"
                        ));
                    }
                    Value::Name(name.clone())
                }
            };
            given.push((flag, parsed));
        }
        Ok(Args(given))
    }

    /// [`Args::parse`] of the process's arguments for a binary's `main`: a
    /// usage error ends the process with exit status 2.
    pub fn from_env(spec: &[(&'static str, Kind)]) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&argv, spec).unwrap_or_else(|e| usage_error(&e))
    }

    fn get(&self, flag: &str) -> Option<&Value> {
        self.0.iter().find(|(f, _)| *f == flag).map(|(_, v)| v)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// The value of a [`Kind::Num`] or [`Kind::Pos`] flag.
    pub fn num(&self, flag: &str) -> Option<usize> {
        match self.get(flag)? {
            Value::Num(v) => Some(*v),
            other => panic!("{flag} holds {other:?}, not a number"),
        }
    }

    /// The value of a [`Kind::List`] flag.
    pub fn list(&self, flag: &str) -> Option<&[usize]> {
        match self.get(flag)? {
            Value::List(v) => Some(v),
            other => panic!("{flag} holds {other:?}, not a list"),
        }
    }

    /// The value of a [`Kind::Choice`] flag.
    pub fn name(&self, flag: &str) -> Option<&str> {
        match self.get(flag)? {
            Value::Name(v) => Some(v),
            other => panic!("{flag} holds {other:?}, not a name"),
        }
    }

    /// Re-render every given flag but `dropped` as arguments, for a child
    /// that parses them with the same spec.
    pub fn without(&self, dropped: &[&str]) -> Vec<String> {
        let mut out = Vec::new();
        for (flag, value) in self.0.iter().filter(|(f, _)| !dropped.contains(f)) {
            out.push(flag.to_string());
            match value {
                Value::Switch => {}
                Value::Num(v) => out.push(v.to_string()),
                Value::List(v) => {
                    out.push(v.iter().map(usize::to_string).collect::<Vec<_>>().join(","))
                }
                Value::Name(v) => out.push(v.clone()),
            }
        }
        out
    }
}

/// Report a usage error and exit with status 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The host's detected parallelism.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The one child fan-out.  The pool reads `RAYON_NUM_THREADS` once, when it
/// starts, so one process cannot measure two pool widths: each job
/// re-executes this binary with `args` naming one cell and the variable set
/// to the job's width, and `report` receives the child's non-empty stdout
/// lines.  A failed child ends the run (exit status 1) with its stderr.
pub fn fan_out(
    jobs: impl IntoIterator<Item = (Vec<String>, usize)>,
    mut report: impl FnMut(&[String], usize, Vec<String>),
) {
    let exe = std::env::current_exe().expect("current_exe");
    for (args, threads) in jobs {
        let out = Command::new(&exe)
            .args(&args)
            .env("RAYON_NUM_THREADS", threads.to_string())
            .output()
            .expect("failed to spawn child");
        if !out.status.success() {
            eprintln!(
                "child {args:?} ({threads} threads) failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            std::process::exit(1);
        }
        let lines = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(String::from)
            .collect();
        report(&args, threads, lines);
    }
}

/// The one JSON row emitter: a row's identifying keys (`head`), then
/// `threads_available` (detected parallelism) and `rayon_threads` (actual
/// pool width), then its measurements (`body`).  The thread fields tell
/// committed rows from a small container apart from multicore CI rows.
pub fn json_row(head: &str, body: &str) -> String {
    format!(
        "{{{head},\"threads_available\":{},\"rayon_threads\":{},{body}}}",
        available_threads(),
        rayon::current_num_threads()
    )
}

/// Extract `"key":<number>` from a flat JSON object line (the only JSON the
/// harness parses is the one it printed itself).
pub fn json_f64(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Repetitions per timed side of an A/B row.
pub const AB_REPS: usize = 5;

/// Stream items each side answers untimed before its timed runs.
const AB_WARMUP: usize = 64;

/// Both timed sides of one A/B over the same stream.
#[derive(Debug, Clone)]
pub struct AbTiming {
    /// The "before" side (flat layout, scalar kernel, uncascaded walk).
    pub before: CostReport,
    /// The "after" side.
    pub after: CostReport,
    /// Whether both sides folded their answers to the same checksum.
    pub answers_equal: bool,
}

/// The one A/B stream timer: warm both sides up on the head of `stream`,
/// then time each over the whole stream and keep the fastest of
/// [`AB_REPS`] runs (the counters and the checksum are deterministic, so
/// every repetition reports the same ones).  A side folds its answer to
/// one stream item into a running checksum.
pub fn ab_stream<Q>(
    stream: &[Q],
    mut before: impl FnMut(u64, &Q) -> u64,
    mut after: impl FnMut(u64, &Q) -> u64,
) -> AbTiming {
    let timed = |side: &mut dyn FnMut(u64, &Q) -> u64| {
        stream.iter().take(AB_WARMUP).fold(0, &mut *side);
        (0..AB_REPS)
            .map(|_| measure(Omega::new(1), || stream.iter().fold(0, &mut *side)))
            .min_by_key(|(_, report)| report.elapsed)
            .expect("AB_REPS > 0")
    };
    let (sum_before, before) = timed(&mut before);
    let (sum_after, after) = timed(&mut after);
    AbTiming {
        before,
        after,
        answers_equal: sum_before == sum_after,
    }
}

/// An A/B side for id-reporting queries: fold each query's ids into the
/// checksum, order-sensitively (both sides return identically ordered
/// answers, so a mismatch anywhere in the stream perturbs the final word).
pub fn fold_ids<Q>(answer: impl Fn(&Q) -> Vec<u64>) -> impl FnMut(u64, &Q) -> u64 {
    move |acc, q| {
        let ids = answer(q);
        let h = acc
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(ids.len() as u64);
        ids.iter()
            .fold(h, |h, &id| h.wrapping_mul(31).wrapping_add(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &[(&str, Kind)] = &[
        ("--smoke", Kind::Switch),
        ("--n", Kind::Num),
        ("--omega", Kind::Pos),
        ("--threads", Kind::List),
        ("--tree", Kind::Choice(&["all", "range"])),
    ];

    fn parse(argv: &str) -> Result<Args, String> {
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        Args::parse(&argv, SPEC)
    }

    #[test]
    fn well_formed_flags_parse() {
        let args = parse("--n 3000 --threads 4,1,2,1 --tree range --smoke").unwrap();
        assert_eq!(args.num("--n"), Some(3000));
        assert_eq!(args.list("--threads"), Some(&[1, 2, 4][..]));
        assert_eq!(args.name("--tree"), Some("range"));
        assert!(args.has("--smoke"));
        let empty = parse("").unwrap();
        assert_eq!((empty.num("--n"), empty.has("--smoke")), (None, false));
    }

    #[test]
    fn malformed_flags_are_errors() {
        for bad in [
            "--n 3k",
            "--n 1e5",
            "--n -1",
            "--omega 0",
            "--n",
            "--threads 1,x",
            "--threads 0,1",
            "--threads ,",
            "--tree forest",
            "--trees all",
            "stray",
            "--n 1 --n 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(
            parse("--n 3k").unwrap_err(),
            "--n: \"3k\" is not a non-negative integer"
        );
    }

    #[test]
    fn without_round_trips() {
        let args = parse("--n 7 --threads 2,1 --smoke").unwrap();
        let fwd = args.without(&["--n"]);
        assert_eq!(fwd, ["--threads", "1,2", "--smoke"]);
        let again = Args::parse(&fwd, SPEC).unwrap();
        assert_eq!(again.list("--threads"), args.list("--threads"));
        assert_eq!(again.num("--n"), None);
    }

    #[test]
    fn ab_stream_compares_checksums() {
        let qs: Vec<u64> = (0..100).collect();
        let same = ab_stream(&qs, fold_ids(|&q| vec![q]), fold_ids(|&q| vec![q]));
        assert!(same.answers_equal);
        let diff = ab_stream(&qs, fold_ids(|&q| vec![q]), fold_ids(|&q| vec![q + 1]));
        assert!(!diff.answers_equal);
        assert_eq!(json_f64(&json_row("\"a\":1", "\"b\":2.5"), "b"), Some(2.5));
    }
}
