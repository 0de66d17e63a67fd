//! The `pra` binary: thin shim over [`pra_cli::dispatch`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match pra_cli::dispatch(args) {
        Ok(output) => print!("{output}"),
        Err(error) => {
            if error.kind == pra_cli::ErrorKind::CampaignFailures {
                // The campaign itself completed; its summary is the normal
                // output. Only the exit code marks the journaled failures.
                print!("{error}");
            } else {
                eprintln!("error: {error}");
            }
            std::process::exit(error.kind.exit_code());
        }
    }
}
