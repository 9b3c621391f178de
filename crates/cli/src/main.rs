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
        "list" => {
            print!("{}", commands::listing());
            Ok(())
        }
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
    use crate::commands::{listing, policy_by_name};
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

    #[test]
    fn every_listed_policy_name_resolves_to_a_distinct_policy() {
        let listing = listing();
        let (_, policies) = listing.split_once("Policies:\n").expect("a policy section");
        let mut kinds = Vec::new();
        for line in policies.lines() {
            let name = line.split_whitespace().next().expect("a policy name");
            let kind = policy_by_name(name).unwrap_or_else(|e| panic!("`{name}`: {e}"));
            assert!(!kinds.contains(&kind), "`{name}` resolves to {kind:?} a second time");
            kinds.push(kind);
        }
        assert_eq!(kinds.len(), PolicyKind::ALL_ONLINE.len() + 1, "every online policy and Belady");
    }
}
