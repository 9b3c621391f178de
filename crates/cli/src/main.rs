//! `rlr` — the command-line driver for the RLR reproduction.
//!
//! See `rlr help` (or [`commands::help`]) for usage.

mod args;
mod commands;

use args::Args;

fn main() {
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            commands::help();
            std::process::exit(2);
        }
    };
    let result = match parsed.command() {
        "list" => commands::list(),
        "run" => commands::run(&parsed),
        "compare" => commands::compare(&parsed),
        "replay" => commands::replay(&parsed),
        "train" => commands::train(&parsed),
        "analyze" => commands::analyze(&parsed),
        "characterize" => commands::characterize(&parsed),
        "overhead" => commands::overhead(),
        "trace" => commands::trace(&parsed),
        "objcache" => commands::objcache(&parsed),
        "tenancy" => commands::tenancy(&parsed),
        "doctor" => commands::doctor(&parsed),
        "help" | "--help" | "-h" => {
            commands::help();
            Ok(())
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            commands::help();
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use crate::commands::policy_by_name;
    use experiments::PolicyKind;

    #[test]
    fn policy_aliases_resolve() {
        assert_eq!(policy_by_name("rlr").expect("rlr"), PolicyKind::Rlr);
        assert_eq!(policy_by_name("RLR(unopt)").expect("unopt"), PolicyKind::RlrUnopt);
        assert_eq!(policy_by_name("rlr-unopt").expect("alias"), PolicyKind::RlrUnopt);
        assert_eq!(policy_by_name("ship++").expect("shippp"), PolicyKind::ShipPp);
        assert_eq!(policy_by_name("OPT").expect("belady"), PolicyKind::Belady);
        assert!(policy_by_name("nonsense").is_err());
    }
}
