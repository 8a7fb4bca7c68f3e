fn main() {
    std::process::exit(hcq_benchmark::cli::run(std::env::args().skip(1).collect()));
}
