//! Replay a contact-trace file through every protocol of the study.
//!
//! Point it at any file in the documented interchange format (a CRAWDAD
//! Haggle export maps onto it line-for-line — see
//! `dtn_mobility::trace_io`); with no argument it writes and replays a
//! bundled sample so the example is self-contained.
//!
//! ```text
//! cargo run --release -p dtn-experiments --example trace_replay [-- /path/to/file.trace]
//! ```

use dtn_epidemic::{protocols, NullProbe, SimConfig};
use dtn_experiments::{ReplicationPlan, Traces};
use dtn_mobility::{read_trace_file, write_trace, HaggleParams, LazyTrace};
use dtn_sim::{SimRng, Threads, Watchdog, Welford};
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let path: PathBuf = match std::env::args().nth(1) {
        Some(p) => PathBuf::from(p),
        None => {
            // Self-contained mode: synthesize a five-day trace and write
            // it where the user can inspect the format.
            let sample = std::env::temp_dir().join("dtn_sample.trace");
            let trace = HaggleParams::default().generate(&mut SimRng::new(2012));
            let mut file = std::fs::File::create(&sample).expect("create sample trace");
            write_trace(&trace, &mut file).expect("write sample trace");
            println!("no trace given; wrote a sample to {}\n", sample.display());
            sample
        }
    };

    let trace = match read_trace_file(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_replay: cannot load {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    println!(
        "loaded {}: {} nodes, {} contacts, horizon {}",
        path.display(),
        trace.node_count(),
        trace.len(),
        trace.horizon()
    );

    let trace = Arc::new(LazyTrace::complete(Arc::new(trace)));

    // The paper's workload at a middling load, averaged over random
    // source/destination pairs.
    let load = 25;
    let replications = 10;
    println!(
        "\nreplaying load {load} with {replications} random src/dst pairs:\n\
         {:<36} {:>9} {:>10} {:>9} {:>9}",
        "protocol", "delivery", "delay", "buffer", "dup"
    );
    for protocol in protocols::all_protocols() {
        let mut delivery = Welford::new();
        let mut delay = Welford::new();
        let mut buffer = Welford::new();
        let mut dup = Welford::new();
        let plan = ReplicationPlan {
            root: SimRng::new(99),
            load,
            replications,
            traces: Traces::Fixed(Arc::clone(&trace)),
            config: SimConfig::paper_defaults(protocol.clone()),
        };
        for outcome in plan.run(Threads::Auto, Watchdog::default(), |_| NullProbe) {
            let (m, _) = outcome.into_result().expect("replication panicked");
            delivery.push(m.delivery_ratio);
            if let Some(d) = m.delay_secs() {
                delay.push(d);
            }
            buffer.push(m.avg_buffer_occupancy);
            dup.push(m.avg_duplication_rate);
        }
        println!(
            "{:<36} {:>8.1}% {:>10} {:>8.1}% {:>8.1}%",
            protocol.name,
            100.0 * delivery.mean(),
            if delay.count() > 0 {
                format!("{:.0} s", delay.mean())
            } else {
                "all failed".into()
            },
            100.0 * buffer.mean(),
            100.0 * dup.mean(),
        );
    }
}
