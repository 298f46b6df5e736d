//! Regenerate the **§3 domain-acquisition funnel** (experiment E1):
//! 1,000,000 Alexa domains → 770 NXDOMAIN → 251 available → 244
//! WHOIS-free → 244 clean → 50 archived+indexed, plus the 62
//! random-keyword registrations for 112 domains in total.
//!
//! ```text
//! cargo run --release -p phishsim-bench --bin funnel           # full 1M scan
//! cargo run --release -p phishsim-bench --bin funnel -- fast   # 5k-domain population
//! ```

use phishsim_core::domains::{acquire_domains, AcquisitionConfig};
use phishsim_core::DEFAULT_SEED;
use phishsim_dns::TldKind;
use phishsim_simnet::DetRng;

fn main() {
    let fast = std::env::args().any(|a| a == "fast");
    let config = if fast {
        AcquisitionConfig::small()
    } else {
        AcquisitionConfig::paper()
    };
    eprintln!(
        "scanning a synthetic Alexa population of {} domains...",
        config.population.alexa_size
    );
    let start = std::time::Instant::now();
    let r = acquire_domains(&config, &DetRng::new(DEFAULT_SEED));
    let elapsed = start.elapsed();

    let f = r.funnel;
    println!("Domain-acquisition funnel (paper §3)     measured   paper");
    println!(
        "  Alexa domains scanned               {:>10}   1,000,000",
        f.scanned
    );
    println!(
        "  1. SOA/NS scan -> NXDOMAIN          {:>10}   770",
        f.nxdomain
    );
    println!(
        "  2. registrar availability APIs      {:>10}   251",
        f.available
    );
    println!(
        "  3. WHOIS 'NOT FOUND'                {:>10}   244",
        f.whois_not_found
    );
    println!(
        "  4. VT + GSB history clean           {:>10}   244",
        f.clean_history
    );
    println!(
        "  5. archived at least once           {:>10}   50",
        f.archived
    );
    println!(
        "  6. indexed at least once            {:>10}   50",
        f.indexed
    );
    println!();
    let new_gtld = r
        .random
        .iter()
        .filter(|d| d.tld_kind() == TldKind::NewGtld)
        .count();
    println!(
        "Registered: {} drop-catch + {} random ({} new gTLD, {} legacy) = {} domains",
        r.drop_catch.len(),
        r.random.len(),
        new_gtld,
        r.random.len() - new_gtld,
        r.all_domains().len()
    );
    println!(
        "Max registrations in any 24 h window: {} (spread over {} days to avoid bulk patterns)",
        r.max_daily_registrations, config.registration_days
    );
    // Host time goes to stderr only: it differs run to run, so it stays
    // out of the record.
    eprintln!("Scan wall-clock: {elapsed:.2?}");
    println!(
        "\nSample selections: {:?}",
        &r.drop_catch[..5.min(r.drop_catch.len())]
    );

    let record = serde_json::json!({
        "experiment": "funnel",
        "seed": DEFAULT_SEED,
        "population": config.population.alexa_size,
        "funnel": f,
        "drop_catch": r.drop_catch.len(),
        "random_new_gtld": new_gtld,
        "random_legacy": r.random.len() - new_gtld,
        "max_daily_registrations": r.max_daily_registrations,
    });
    phishsim_bench::write_record("funnel", &record);
}
