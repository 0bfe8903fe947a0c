//! `paper <experiment>… [--scale tiny|default|full] [--seed N] [--threads N]`
//! runs the named experiments in order (see the `ccsa_paper` crate docs
//! for the list). A missing or unknown name exits 2 with the usage line.

use ccsa_paper::{usage, Cli, DatasetCache};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cli, experiments) = Cli::parse(&args).unwrap_or_else(|msg| {
        if !msg.is_empty() {
            eprintln!("error: {msg}");
        }
        eprintln!("{}", usage());
        std::process::exit(2);
    });
    let mut cache = DatasetCache::new();
    for run in experiments {
        run(&cli, &mut cache);
    }
}
