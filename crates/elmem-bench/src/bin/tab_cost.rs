//! **E8 / §II-B + §II-C** — Cost/energy analysis of Memcached and the
//! potential savings from elasticity.
//!
//! Reproduces the static model: a Memcached node (1 socket, 72 GB) draws
//! ~47% more peak power than an app-tier node (2 sockets, 12 GB) and costs
//! ~66% more per hour on EC2; and the paper's §II-C estimate that a
//! perfectly elastic tier saves 30–70% of cache node-hours on real traces.

use elmem_bench::figures::tab_cost;
use elmem_util::costmodel::{app_tier_spec, memcached_spec};

fn main() {
    println!("== Tab (SS II-B): cost/energy analysis ==\n");
    let tab = tab_cost();
    let c = tab.comparison;
    let app = app_tier_spec();
    let mc = memcached_spec();
    println!(
        "app-tier node:  {} sockets, {:>3} GB -> {:>6.1} W, ${:.3}/hr",
        app.cpu_sockets, app.dram_gb, c.app_watts, app.hourly_cost_usd
    );
    println!(
        "memcached node: {} sockets, {:>3} GB -> {:>6.1} W, ${:.3}/hr",
        mc.cpu_sockets, mc.dram_gb, c.cache_watts, mc.hourly_cost_usd
    );
    println!(
        "power overhead: +{:.0}% (paper: +47%)   cost overhead: +{:.0}% (paper: +66%)",
        c.power_overhead * 100.0,
        c.cost_overhead * 100.0
    );

    println!("\n== SS II-C: elasticity savings on the five traces ==\n");
    println!(
        "{:<12} {:>14} {:>12}",
        "trace", "node-hours saved", "peak nodes"
    );
    for (name, savings, peak) in tab.traces {
        println!("{name:<12} {:>13.1}% {peak:>12}", savings * 100.0);
    }
    println!("\n(the one-hour Fig. 5 snippets understate what full diurnal traces allow)");

    println!("\n== SS II-C: full diurnal day (2x swing + spikes) ==\n");
    println!(
        "diurnal day: node-hours saved {:.1}% (paper: 30-70%)",
        tab.diurnal_savings * 100.0
    );
}
