//! **E2 / Fig. 5** — The five (normalized) demand traces used in the
//! evaluation: Facebook SYS and ETC, SAP, NLANR, Microsoft.
//!
//! Prints one column per trace, one row per minute, matching the shapes of
//! the paper's Fig. 5 panels.

use elmem_bench::figures::fig5;

fn main() {
    println!("== Fig. 5: normalized request-rate traces ==\n");
    let traces = fig5();
    print!("{:>4}", "min");
    for (name, _) in &traces {
        print!(" {name:>10}");
    }
    println!();
    for m in 0..60usize {
        print!("{m:>4}");
        for (_, t) in &traces {
            print!(" {:>10.3}", t.samples()[m]);
        }
        println!();
    }
    println!();
    for (name, t) in &traces {
        println!(
            "{name:<10} peak={:.2} trough={:.2} (variation {:.1}x)",
            t.peak(),
            t.trough(),
            t.peak() / t.trough().max(1e-9)
        );
    }
}
