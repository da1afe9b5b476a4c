//! Prints the complete top-level specification — the artifact behind the
//! paper's claim that "all the above take up less than a page of code and
//! form our application-level promise to the user" (§3.1).
//!
//! What is printed is not documentation but the *actual* combinator
//! structure of `goodHlTrace` as built by `lightbulb::spec`, rendered by
//! the predicate's own `Debug` implementation. The per-event atoms carry
//! their names (`ld@…`, `st@…`, value predicates); `ε` is the empty trace.

use lightbulb_system::lightbulb::spec;
use lightbulb_system::lightbulb::DriverOptions;

fn section(title: &str, pred: &impl std::fmt::Debug) {
    println!("── {title} ──");
    let text = format!("{pred:?}");
    // Wrap for readability: break after top-level "+++" separators.
    let mut depth: i32 = 0;
    let mut line = String::new();
    for c in text.chars() {
        line.push(c);
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            _ => {}
        }
        if line.len() > 100 && depth <= 2 && c == ' ' {
            println!("  {line}");
            line.clear();
        }
    }
    if !line.is_empty() {
        println!("  {line}");
    }
    println!();
}

fn main() {
    bench::cli(env!("CARGO_BIN_NAME"), &[]);
    let opts = DriverOptions::default();
    println!("The top-level specification, as constructed (verified configuration):\n");
    section("BootSeq", &spec::boot_seq(opts));
    section("PollNone", &spec::poll_none(opts));
    section("Recv true (the 'on' command)", &spec::recv(opts, true));
    section("LightbulbCmd true", &spec::lightbulb_cmd(true));
    section("RecvInvalid", &spec::recv_invalid(opts));
    println!("── goodHlTrace ──");
    println!("  BootSeq +++ ((EX b, Recv b +++ LightbulbCmd b)");
    println!("               ||| RecvInvalid ||| PollNone)^*");
    println!();
    println!("(goodHlTrace itself is the combinator term above; its full expansion");
    println!("is the concatenation of the printed pieces. The source constructing");
    println!("all of this is crates/lightbulb/src/spec.rs — the TCB entry of Table 3.)");
}
