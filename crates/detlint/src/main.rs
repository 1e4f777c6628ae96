//! The `detlint` CLI: scan the workspace for determinism & robustness
//! invariant violations.
//!
//! ```text
//! detlint                      # scan the enclosing workspace, human output
//! detlint --format github      # GitHub Actions ::error annotations
//! detlint --json               # machine-readable report (= --format json)
//! detlint --root PATH          # scan PATH instead of the enclosing workspace
//! detlint --disable RULE       # drop a rule for this run (repeatable)
//! detlint --fixtures           # run the committed fixture self-test
//! detlint --waiver-audit       # list inline waivers, flag stale ones
//! detlint --list               # print the rule catalogue
//! ```
//!
//! Exit codes: 0 clean, 1 findings (or fixture self-test failure, or
//! stale waivers under `--waiver-audit`), 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use detlint::{find_workspace_root, fixtures_selftest, load_tree, waiver_audit, RuleSet, Scanner};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Github,
}

struct Opts {
    format: Format,
    fixtures: bool,
    list: bool,
    audit: bool,
    root: Option<PathBuf>,
    disable: Vec<String>,
}

fn usage() -> &'static str {
    "usage: detlint [--format human|json|github] [--json] [--root PATH] \
     [--disable RULE]... [--fixtures] [--waiver-audit] [--list]"
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        format: Format::Human,
        fixtures: false,
        list: false,
        audit: false,
        root: None,
        disable: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => opts.format = Format::Json,
            "--format" => {
                i += 1;
                let fmt = args.get(i).ok_or("--format needs human, json, or github")?;
                opts.format = match fmt.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    "github" => Format::Github,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--fixtures" => opts.fixtures = true,
            "--list" => opts.list = true,
            "--waiver-audit" => opts.audit = true,
            "--root" => {
                i += 1;
                let path = args.get(i).ok_or("--root needs a path")?;
                opts.root = Some(PathBuf::from(path));
            }
            "--disable" => {
                i += 1;
                let rule = args.get(i).ok_or("--disable needs a rule id")?;
                opts.disable.push(rule.clone());
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("detlint: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if opts.list {
        for rule in RuleSet::determinism().enabled() {
            let mark = if opts.disable.iter().any(|d| d == rule.id()) {
                '-'
            } else {
                ' '
            };
            println!("{mark} {:<21} {}", rule.id(), rule.summary());
        }
        println!(
            "  {:<21} malformed waiver comments (always on)",
            detlint::WAIVER_SYNTAX
        );
        return ExitCode::SUCCESS;
    }

    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("detlint: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "detlint: no workspace root above {} (pass --root)",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let mut rules = RuleSet::determinism();
    for id in &opts.disable {
        if !rules.knows(id) {
            eprintln!("detlint: unknown rule `{id}` (see --list)");
            return ExitCode::from(2);
        }
        rules = rules.without(id);
    }

    if opts.fixtures {
        let dir = root.join("crates/detlint/fixtures");
        return match fixtures_selftest(&dir, &rules) {
            Ok(transcript) => {
                print!("{transcript}");
                ExitCode::SUCCESS
            }
            Err(transcript) => {
                print!("{transcript}");
                eprintln!("detlint: fixture self-test FAILED");
                ExitCode::from(1)
            }
        };
    }

    if opts.audit {
        let sources = match load_tree(&root) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("detlint: scan failed: {e}");
                return ExitCode::from(2);
            }
        };
        let audit = waiver_audit(&sources, &rules);
        print!("{}", audit.render());
        return if audit.stale_count() == 0 {
            ExitCode::SUCCESS
        } else {
            eprintln!("detlint: stale waivers — delete the dead allow() comments");
            ExitCode::from(1)
        };
    }

    let report = match Scanner::new(rules).scan_tree(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    match opts.format {
        Format::Human => print!("{}", report.render()),
        Format::Json => println!("{}", report.to_json()),
        Format::Github => print!("{}", report.to_github()),
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
