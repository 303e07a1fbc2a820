//! Golden-value equivalence tests for the hot-path rewrite.
//!
//! The bitset summary-vector/immunity storage and the zero-copy contact
//! sessions are pure performance work: they must leave every observable
//! number untouched. These tests pin the *exact* [`RunMetrics`] each
//! protocol family produces on a fixed scenario/seed — floats are
//! compared by bit pattern, so even a changed order of floating-point
//! accumulation fails the test.
//!
//! The goldens were captured from the seed implementation (before the
//! bitset/zero-copy rewrite) at `base_seed = 0xD7_2012`, load 20, two
//! replications, on all three scenario families. To regenerate after an
//! *intentional* behavior change:
//!
//! ```text
//! cargo test --test golden_equivalence -- --ignored --nocapture
//! ```
//!
//! and paste the printed constants over the `GOLDEN_*` values below.

use dtn_epidemic::{protocols, ProtocolConfig, RunMetrics};
use dtn_experiments::{
    fault_grid, grid_point_jobs, run_point_checked_cached, Mobility, RunOutcome, SweepConfig,
    TraceCache,
};
use dtn_sim::Threads;

const LOAD: u32 = 20;
const REPLICATIONS: usize = 2;
const MOBILITIES: [Mobility; 3] = [Mobility::Trace, Mobility::Rwp, Mobility::Interval(400)];

fn pinned_config() -> SweepConfig {
    SweepConfig {
        loads: vec![LOAD],
        replications: REPLICATIONS,
        threads: Threads::Sequential,
        ..SweepConfig::default()
    }
}

/// Hex bit pattern of an `f64`: exact, stable, and diff-friendly.
fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Canonical one-line rendering of a [`RunMetrics`]; every field appears,
/// floats as bit patterns.
fn fingerprint(m: &RunMetrics) -> String {
    format!(
        "tb={} dv={} dr={} ct={} abo={} pbo={} adr={} co={} tx={} ar={} \
         ev={} ex={} rj={} ip={} tl={} pb={} cb={} et={}",
        m.total_bundles,
        m.delivered,
        bits(m.delivery_ratio),
        m.completion_time
            .map(|t| bits(t.as_secs_f64()))
            .unwrap_or_else(|| "none".into()),
        bits(m.avg_buffer_occupancy),
        bits(m.peak_buffer_occupancy),
        bits(m.avg_duplication_rate),
        m.contacts_processed,
        m.bundle_transmissions,
        m.ack_records_sent,
        m.evictions,
        m.expirations,
        m.rejections,
        m.immunity_purges,
        m.transfer_losses,
        m.payload_bytes_sent,
        m.control_bytes_sent,
        bits(m.end_time.as_secs_f64()),
    )
}

/// All replications of all pinned scenarios for one protocol, one line
/// per run.
fn protocol_fingerprint(protocol: &ProtocolConfig) -> String {
    let cfg = pinned_config();
    let mut out = String::new();
    for mobility in MOBILITIES {
        for (rep, m) in run_point_checked_cached(protocol, mobility, LOAD, &cfg, &TraceCache::new())
            .into_iter()
            .map(Result::unwrap)
            .enumerate()
        {
            out.push_str(&format!(
                "{} r{rep}: {}\n",
                mobility.label(),
                fingerprint(&m)
            ));
        }
    }
    out
}

fn by_name(name: &str) -> ProtocolConfig {
    protocols::all_protocols()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("unknown protocol {name}"))
}

fn check(name: &str, golden: &str) {
    assert_eq!(
        protocol_fingerprint(&by_name(name)),
        golden,
        "{name}: RunMetrics diverged from the seed implementation"
    );
}

/// Regenerator: prints the golden constants for all eight protocols,
/// then the generator digests, the geometric-RWP goldens and the Bloom
/// goldens below.
#[test]
#[ignore = "regenerates the golden constants; run with --ignored --nocapture"]
fn print_goldens() {
    for p in protocols::all_protocols() {
        println!("// {}", p.name);
        print!("{}", protocol_fingerprint(&p));
        println!();
    }
    println!(
        "{}",
        golden_const("GOLDEN_GENERATOR_DIGESTS", &generator_digests())
    );
    println!(
        "{}",
        golden_const("GOLDEN_GEOM_RWP", &geom_rwp_fingerprint())
    );
    for (name, spec) in BLOOM_PRESETS {
        println!("{}", golden_const(name, &bloom_fingerprint(spec)));
    }
}

const GOLDEN_PURE: &str = "trace r0: tb=20 dv=20 dr=3ff0000000000000 ct=410716af4bc6a7f0 abo=3fe955a4c984438b pbo=4000000000000000 adr=3fc225fc5c733fbb co=330 tx=234 ar=0 ev=116 ex=0 rj=0 ip=0 tl=0 pb=2340000000 cb=804 et=410716af4bc6a7f0
\
     trace r1: tb=20 dv=20 dr=3ff0000000000000 ct=40fb3a783126e979 abo=3fe7f660cd110b5b pbo=4000000000000000 adr=3fd3b947b11919eb co=228 tx=163 ar=0 ev=53 ex=0 rj=0 ip=0 tl=0 pb=1630000000 cb=486 et=40fb3a783126e979
\
     rwp r0: tb=20 dv=20 dr=3ff0000000000000 ct=40f939bf26e978d5 abo=3fea734e7ebb0d61 pbo=4000000000000000 adr=3fce99b1344833e8 co=1049 tx=320 ar=0 ev=200 ex=0 rj=0 ip=0 tl=0 pb=3200000000 cb=1284 et=40f939bf26e978d5
\
     rwp r1: tb=20 dv=20 dr=3ff0000000000000 ct=40f6cfcd9999999a abo=3fea53c94b56e420 pbo=4000000000000000 adr=3fc3d1722050e751 co=933 tx=270 ar=0 ev=150 ex=0 rj=0 ip=0 tl=0 pb=2700000000 cb=1179 et=40f6cfcd9999999a
\
     interval400 r0: tb=20 dv=20 dr=3ff0000000000000 ct=40a67eb333333333 abo=3fe4bcdc84995ea2 pbo=4000000000000000 adr=3fd3b19976d76809 co=101 tx=550 ar=0 ev=350 ex=0 rj=0 ip=0 tl=0 pb=5500000000 cb=606 et=40a67eb333333333
\
     interval400 r1: tb=20 dv=20 dr=3ff0000000000000 ct=409b65fdf3b645a2 abo=3fdf3eb06b2dfab3 pbo=4000000000000000 adr=3fc94e6e64bfc38e co=60 tx=274 ar=0 ev=84 ex=0 rj=0 ip=0 tl=0 pb=2740000000 cb=351 et=409b65fdf3b645a2
";

const GOLDEN_PQ: &str = "trace r0: tb=20 dv=20 dr=3ff0000000000000 ct=410716af4bc6a7f0 abo=3fe955a4c984438b pbo=4000000000000000 adr=3fc225fc5c733fbb co=330 tx=234 ar=0 ev=116 ex=0 rj=0 ip=0 tl=0 pb=2340000000 cb=804 et=410716af4bc6a7f0
\
     trace r1: tb=20 dv=20 dr=3ff0000000000000 ct=40fb3a783126e979 abo=3fe7f660cd110b5b pbo=4000000000000000 adr=3fd3b947b11919eb co=228 tx=163 ar=0 ev=53 ex=0 rj=0 ip=0 tl=0 pb=1630000000 cb=486 et=40fb3a783126e979
\
     rwp r0: tb=20 dv=20 dr=3ff0000000000000 ct=40f939bf26e978d5 abo=3fea734e7ebb0d61 pbo=4000000000000000 adr=3fce99b1344833e8 co=1049 tx=320 ar=0 ev=200 ex=0 rj=0 ip=0 tl=0 pb=3200000000 cb=1284 et=40f939bf26e978d5
\
     rwp r1: tb=20 dv=20 dr=3ff0000000000000 ct=40f6cfcd9999999a abo=3fea53c94b56e420 pbo=4000000000000000 adr=3fc3d1722050e751 co=933 tx=270 ar=0 ev=150 ex=0 rj=0 ip=0 tl=0 pb=2700000000 cb=1179 et=40f6cfcd9999999a
\
     interval400 r0: tb=20 dv=20 dr=3ff0000000000000 ct=40a67eb333333333 abo=3fe4bcdc84995ea2 pbo=4000000000000000 adr=3fd3b19976d76809 co=101 tx=550 ar=0 ev=350 ex=0 rj=0 ip=0 tl=0 pb=5500000000 cb=606 et=40a67eb333333333
\
     interval400 r1: tb=20 dv=20 dr=3ff0000000000000 ct=409b65fdf3b645a2 abo=3fdf3eb06b2dfab3 pbo=4000000000000000 adr=3fc94e6e64bfc38e co=60 tx=274 ar=0 ev=84 ex=0 rj=0 ip=0 tl=0 pb=2740000000 cb=351 et=409b65fdf3b645a2
";

const GOLDEN_TTL: &str = "trace r0: tb=20 dv=9 dr=3fdccccccccccccd ct=none abo=3fc5600766e2a02f pbo=4000000000000000 adr=3fb55fb3601956a3 co=695 tx=76 ar=0 ev=0 ex=67 rj=0 ip=0 tl=0 pb=760000000 cb=2094 et=411ffe0800000000
\
     trace r1: tb=20 dv=10 dr=3fe0000000000000 ct=none abo=3fc574decee1bce8 pbo=4000000000000000 adr=3fb571a02d98032c co=695 tx=210 ar=0 ev=0 ex=200 rj=0 ip=0 tl=0 pb=2100000000 cb=1944 et=411ffe0800000000
\
     rwp r0: tb=20 dv=20 dr=3ff0000000000000 ct=4116147796872b02 abo=3fc58c11093fabbb pbo=4000000000000000 adr=3fb597285461b3a0 co=3796 tx=247 ar=0 ev=0 ex=227 rj=0 ip=0 tl=0 pb=2470000000 cb=6993 et=4116147796872b02
\
     rwp r1: tb=20 dv=20 dr=3ff0000000000000 ct=411eb91ac49ba5e3 abo=3fc581348a9f5175 pbo=4000000000000000 adr=3fb5819db702f7e7 co=5012 tx=280 ar=0 ev=0 ex=260 rj=0 ip=0 tl=0 pb=2800000000 cb=8556 et=411eb91ac49ba5e3
\
     interval400 r0: tb=20 dv=20 dr=3ff0000000000000 ct=40adf90395810625 abo=3fd68568b4acf445 pbo=4000000000000000 adr=3fc66a0f63f0882e co=132 tx=521 ar=0 ev=97 ex=298 rj=0 ip=0 tl=0 pb=5210000000 cb=789 et=40adf90395810625
\
     interval400 r1: tb=20 dv=20 dr=3ff0000000000000 ct=409ccdfdf3b645a2 abo=3fd06315b1421d96 pbo=4000000000000000 adr=3fbcaf702036f6c4 co=60 tx=197 ar=0 ev=54 ex=53 rj=0 ip=0 tl=0 pb=1970000000 cb=351 et=409ccdfdf3b645a2
";

const GOLDEN_DYNAMIC_TTL: &str = "trace r0: tb=20 dv=12 dr=3fe3333333333333 ct=none abo=3fcb4d672818da7b pbo=4000000000000000 adr=3fb6654feacf87e6 co=695 tx=221 ar=0 ev=0 ex=207 rj=0 ip=0 tl=0 pb=2210000000 cb=1947 et=411ffe0800000000
\
     trace r1: tb=20 dv=14 dr=3fe6666666666666 ct=none abo=3fcce403cdec97e1 pbo=4000000000000000 adr=3fb86ced04aa7aa6 co=695 tx=336 ar=0 ev=0 ex=316 rj=0 ip=0 tl=0 pb=3360000000 cb=1824 et=411ffe0800000000
\
     rwp r0: tb=20 dv=20 dr=3ff0000000000000 ct=410cd7c5f5c28f5c abo=3fc6b889f3698663 pbo=4000000000000000 adr=3fb646498d28f847 co=2470 tx=269 ar=0 ev=0 ex=249 rj=0 ip=0 tl=0 pb=2690000000 cb=4494 et=410cd7c5f5c28f5c
\
     rwp r1: tb=20 dv=20 dr=3ff0000000000000 ct=411b9dffdf3b645a abo=3fc7fb42398ef857 pbo=4000000000000000 adr=3fb634fa76cb451f co=4498 tx=563 ar=0 ev=0 ex=540 rj=0 ip=0 tl=0 pb=5630000000 cb=7422 et=411b9dffdf3b645a
\
     interval400 r0: tb=20 dv=20 dr=3ff0000000000000 ct=40a6bab333333333 abo=3fdf0fa649a2ba75 pbo=4000000000000000 adr=3fcde6317e5fc6c2 co=101 tx=570 ar=0 ev=138 ex=274 rj=0 ip=0 tl=0 pb=5700000000 cb=600 et=40a6bab333333333
\
     interval400 r1: tb=20 dv=20 dr=3ff0000000000000 ct=409b65fdf3b645a2 abo=3fd64c07863672be pbo=4000000000000000 adr=3fc102f195d31441 co=60 tx=252 ar=0 ev=65 ex=67 rj=0 ip=0 tl=0 pb=2520000000 cb=354 et=409b65fdf3b645a2
";

const GOLDEN_EC: &str = "trace r0: tb=20 dv=20 dr=3ff0000000000000 ct=4109016c95810625 abo=3fe99efe565a71bf pbo=4000000000000000 adr=3fc447876bee877f co=343 tx=258 ar=0 ev=142 ex=0 rj=0 ip=0 tl=0 pb=2580000000 cb=819 et=4109016c95810625
\
     trace r1: tb=20 dv=20 dr=3ff0000000000000 ct=40fb3a783126e979 abo=3fe7e6ac01f4f799 pbo=4000000000000000 adr=3fd4b9a5a7d243b1 co=228 tx=163 ar=0 ev=53 ex=0 rj=0 ip=0 tl=0 pb=1630000000 cb=483 et=40fb3a783126e979
\
     rwp r0: tb=20 dv=20 dr=3ff0000000000000 ct=40fbcb5960418937 abo=3feaef1ed0091680 pbo=4000000000000000 adr=3fcf11d533a134b3 co=1155 tx=346 ar=0 ev=226 ex=0 rj=0 ip=0 tl=0 pb=3460000000 cb=1419 et=40fbcb5960418937
\
     rwp r1: tb=20 dv=20 dr=3ff0000000000000 ct=40f5dc76624dd2f2 abo=3fea14a472334b30 pbo=4000000000000000 adr=3fc31d2285a7484c co=895 tx=261 ar=0 ev=141 ex=0 rj=0 ip=0 tl=0 pb=2610000000 cb=1128 et=40f5dc76624dd2f2
\
     interval400 r0: tb=20 dv=20 dr=3ff0000000000000 ct=40a4a44bc6a7ef9e abo=3fe3ba06309012ba pbo=4000000000000000 adr=3fd3ce882f7c19ea co=92 tx=514 ar=0 ev=314 ex=0 rj=0 ip=0 tl=0 pb=5140000000 cb=552 et=40a4a44bc6a7ef9e
\
     interval400 r1: tb=20 dv=20 dr=3ff0000000000000 ct=40a2b1f126e978d5 abo=3fe3fec0464fcb51 pbo=4000000000000000 adr=3fbf9e261d33807f co=80 tx=375 ar=0 ev=175 ex=0 rj=0 ip=0 tl=0 pb=3750000000 cb=474 et=40a2b1f126e978d5
";

const GOLDEN_EC_TTL: &str = "trace r0: tb=20 dv=18 dr=3feccccccccccccd ct=none abo=3fcbe428d0bf53bf pbo=4000000000000000 adr=3fbcf3cc6a6cab6a co=695 tx=251 ar=0 ev=0 ex=173 rj=60 ip=0 tl=0 pb=2510000000 cb=1941 et=411ffe0800000000
\
     trace r1: tb=20 dv=19 dr=3fee666666666666 ct=none abo=3fd3c2e1bebca41d pbo=4000000000000000 adr=3fc415d39c81220e co=695 tx=411 ar=0 ev=12 ex=229 rj=145 ip=0 tl=0 pb=4110000000 cb=1722 et=411ffe0800000000
\
     rwp r0: tb=20 dv=20 dr=3ff0000000000000 ct=410231b989374bc7 abo=3fca83fb1315f895 pbo=4000000000000000 adr=3fba8e8560990aa2 co=1516 tx=259 ar=0 ev=0 ex=160 rj=79 ip=0 tl=0 pb=2590000000 cb=2541 et=410231b989374bc7
\
     rwp r1: tb=20 dv=20 dr=3ff0000000000000 ct=410c14173f7ced91 abo=3fc9d266c40927c1 pbo=4000000000000000 adr=3fba1fd006374575 co=2312 tx=351 ar=0 ev=0 ex=219 rj=109 ip=0 tl=0 pb=3510000000 cb=3633 et=410c14173f7ced91
\
     interval400 r0: tb=20 dv=20 dr=3ff0000000000000 ct=40a732b333333333 abo=3fdc8940a52be256 pbo=4000000000000000 adr=3fcde785a9909d76 co=101 tx=476 ar=0 ev=58 ex=238 rj=67 ip=0 tl=0 pb=4760000000 cb=603 et=40a732b333333333
\
     interval400 r1: tb=20 dv=20 dr=3ff0000000000000 ct=40a2c5f126e978d5 abo=3fdc2f8f22a81e8a pbo=4000000000000000 adr=3fc6c3344ce39ca9 co=80 tx=410 ar=0 ev=53 ex=227 rj=73 ip=0 tl=0 pb=4100000000 cb=474 et=40a2c5f126e978d5
";

const GOLDEN_IMMUNITY: &str = "trace r0: tb=20 dv=20 dr=3ff0000000000000 ct=40f75c16189374bc abo=3fd699849f2344ed pbo=4000000000000000 adr=3fd199ac9e302669 co=199 tx=99 ar=3309 ev=0 ex=0 rj=0 ip=82 tl=0 pb=990000000 cb=53472 et=40f75c16189374bc
\
     trace r1: tb=20 dv=20 dr=3ff0000000000000 ct=40f7629276c8b439 abo=3fd7bdeba79bc440 pbo=4000000000000000 adr=3fd843a0b5efca50 co=200 tx=119 ar=3574 ev=0 ex=0 rj=0 ip=97 tl=0 pb=1190000000 cb=57679 et=40f7629276c8b439
\
     rwp r0: tb=20 dv=20 dr=3ff0000000000000 ct=40e85abb0a3d70a4 abo=3fda99ad31c861b7 pbo=4000000000000000 adr=3fd8828ef2d3846b co=512 tx=133 ar=8041 ev=0 ex=0 rj=0 ip=112 tl=0 pb=1330000000 cb=129493 et=40e85abb0a3d70a4
\
     rwp r1: tb=20 dv=20 dr=3ff0000000000000 ct=40ee919d374bc6a8 abo=3fd5d7373f921de0 pbo=4000000000000000 adr=3fd07431a2604543 co=636 tx=146 ar=10279 ev=0 ex=0 rj=0 ip=137 tl=0 pb=1460000000 cb=165427 et=40ee919d374bc6a8
\
     interval400 r0: tb=20 dv=20 dr=3ff0000000000000 ct=40a67eb333333333 abo=3fe43f696237f722 pbo=4000000000000000 adr=3fd3f60582b0ea41 co=101 tx=535 ar=137 ev=308 ex=0 rj=0 ip=64 tl=0 pb=5350000000 cb=2798 et=40a67eb333333333
\
     interval400 r1: tb=20 dv=20 dr=3ff0000000000000 ct=409b65fdf3b645a2 abo=3fdf813f929a0182 pbo=4000000000000000 adr=3fcb11f64a627a94 co=60 tx=273 ar=59 ev=64 ex=0 rj=0 ip=28 tl=0 pb=2730000000 cb=1298 et=409b65fdf3b645a2
";

const GOLDEN_CUMULATIVE: &str = "trace r0: tb=20 dv=20 dr=3ff0000000000000 ct=41069dd7e76c8b44 abo=3fc8e2b9e63f94eb pbo=4000000000000000 adr=3fd362009737af21 co=325 tx=126 ar=619 ev=0 ex=0 rj=0 ip=104 tl=0 pb=1260000000 cb=10840 et=41069dd7e76c8b44
\
     trace r1: tb=20 dv=20 dr=3ff0000000000000 ct=410019c1872b020c abo=3fcc11a6ce793a83 pbo=4000000000000000 adr=3fc982b3764037e5 co=259 tx=138 ar=419 ev=0 ex=0 rj=0 ip=116 tl=0 pb=1380000000 cb=7361 et=410019c1872b020c
\
     rwp r0: tb=20 dv=20 dr=3ff0000000000000 ct=40f515f8f1a9fbe7 abo=3fc56cf6ff0b70bb pbo=4000000000000000 adr=3fc479143540a64c co=888 tx=159 ar=1719 ev=0 ex=0 rj=0 ip=146 tl=0 pb=1590000000 cb=29013 et=40f515f8f1a9fbe7
\
     rwp r1: tb=20 dv=20 dr=3ff0000000000000 ct=40f6cfcd9999999a abo=3fc659813fb472db pbo=4000000000000000 adr=3fbf9f00c34c0d5b co=933 tx=148 ar=1761 ev=0 ex=0 rj=0 ip=145 tl=0 pb=1480000000 cb=29703 et=40f6cfcd9999999a
\
     interval400 r0: tb=20 dv=20 dr=3ff0000000000000 ct=40a70ab333333333 abo=3fe50782db4b25be pbo=4000147ae147ae15 adr=3fd168b52f98c78e co=101 tx=502 ar=11 ev=302 ex=0 rj=0 ip=0 tl=0 pb=5020000000 cb=782 et=40a70ab333333333
\
     interval400 r1: tb=20 dv=20 dr=3ff0000000000000 ct=409c05fdf3b645a2 abo=3fdfeeaa0cfddf23 pbo=4000000000000000 adr=3fc388ac592840fc co=60 tx=281 ar=5 ev=91 ex=0 rj=0 ip=0 tl=0 pb=2810000000 cb=434 et=409c05fdf3b645a2
";

#[test]
fn pure_epidemic_matches_seed() {
    check("Pure epidemic", GOLDEN_PURE);
}

#[test]
fn pq_epidemic_matches_seed() {
    check("P-Q epidemic", GOLDEN_PQ);
}

#[test]
fn ttl_epidemic_matches_seed() {
    check("Epidemic with TTL", GOLDEN_TTL);
}

#[test]
fn dynamic_ttl_epidemic_matches_seed() {
    check("Epidemic with dynamic TTL", GOLDEN_DYNAMIC_TTL);
}

#[test]
fn ec_epidemic_matches_seed() {
    check("Epidemic with EC", GOLDEN_EC);
}

#[test]
fn ec_ttl_epidemic_matches_seed() {
    check("Epidemic with EC+TTL", GOLDEN_EC_TTL);
}

#[test]
fn immunity_epidemic_matches_seed() {
    check("Epidemic with immunity", GOLDEN_IMMUNITY);
}

#[test]
fn cumulative_immunity_epidemic_matches_seed() {
    check("Epidemic with cumulative immunity", GOLDEN_CUMULATIVE);
}

// ---------------------------------------------------------------------
// Faulted goldens.
//
// The goldens above run fault-free. These pin runs where churn flips and
// lossy sessions interleave with contacts — in particular a churn flip
// at a contact's start time, which must keep firing first. They cover
// every `fault_grid()` cell × the eight paper protocols on `rwp`
// (load 5, replications 0–1, through the robustness grid's own
// `PointJob`s) plus one crash-churn `trace` point, and fingerprint the
// fault counters as well. Regenerate after an intentional behavior
// change with
//
// ```text
// cargo test --test golden_equivalence print_faulted_goldens -- --ignored --nocapture
// ```

const FAULT_LOAD: u32 = 5;
const CRASH_TRACE_LOAD: u32 = 20;

/// [`fingerprint`] plus the signaling and fault counters.
fn faulted_fingerprint(m: &RunMetrics) -> String {
    format!(
        "{} sb={} fp={} sk={} st={} al={} cw={} cd={}",
        fingerprint(m),
        m.signaling_bytes,
        m.false_positive_transmissions,
        m.contacts_skipped,
        m.sessions_truncated,
        m.ack_losses,
        m.churn_wipes,
        m.churn_drops,
    )
}

/// One line per (protocol, replication) of one `fault_grid()` cell on
/// `rwp`, in grid order.
fn grid_cell_fingerprint(cell: &str) -> String {
    let cfg = SweepConfig {
        loads: vec![FAULT_LOAD],
        replications: REPLICATIONS,
        threads: Threads::Sequential,
        ..SweepConfig::default()
    };
    let cache = TraceCache::new();
    let mut out = String::new();
    for point in grid_point_jobs(Mobility::Rwp, &cfg).unwrap() {
        if point.cell_label != cell {
            continue;
        }
        let outcome = point.job.run(Threads::Sequential, &cache).unwrap();
        for (rep, run) in outcome.outcomes.iter().enumerate() {
            let RunOutcome::Ok(m) = run else {
                panic!("{}: replication {rep} failed: {run:?}", point.key)
            };
            out.push_str(&format!(
                "{} r{rep}: {}\n",
                point.protocol_spec,
                faulted_fingerprint(m)
            ));
        }
    }
    assert!(!out.is_empty(), "no grid cell labelled {cell}");
    out
}

/// Cumulative immunity on the Haggle-like trace under crash churn: a
/// crash wipes relay buffers and immunity tables mid-run.
fn crash_trace_fingerprint() -> String {
    let crash = fault_grid()
        .into_iter()
        .find(|c| c.label == "churn=crash,loss=clean")
        .expect("crash cell");
    let cfg = SweepConfig {
        loads: vec![CRASH_TRACE_LOAD],
        replications: REPLICATIONS,
        threads: Threads::Sequential,
        faults: crash.plan,
        ..SweepConfig::default()
    };
    let protocol = by_name("Epidemic with cumulative immunity");
    let mut out = String::new();
    for (rep, m) in run_point_checked_cached(
        &protocol,
        Mobility::Trace,
        CRASH_TRACE_LOAD,
        &cfg,
        &TraceCache::new(),
    )
    .into_iter()
    .map(Result::unwrap)
    .enumerate()
    {
        out.push_str(&format!("trace r{rep}: {}\n", faulted_fingerprint(&m)));
    }
    out
}

/// Render `text` as a Rust string constant in this file's layout.
fn golden_const(name: &str, text: &str) -> String {
    let body = text.trim_end_matches('\n').replace('\n', "\n\\\n     ");
    format!("const {name}: &str = \"{body}\n\";\n")
}

/// Regenerator: prints the faulted golden constants.
#[test]
#[ignore = "regenerates the faulted golden constants; run with --ignored --nocapture"]
fn print_faulted_goldens() {
    for (name, cell) in FAULT_CELLS {
        println!("{}", golden_const(name, &grid_cell_fingerprint(cell)));
    }
    println!(
        "{}",
        golden_const("GOLDEN_CRASH_TRACE", &crash_trace_fingerprint())
    );
}

const FAULT_CELLS: [(&str, &str); 6] = [
    ("GOLDEN_RWP_NO_CHURN_CLEAN", "churn=none,loss=clean"),
    ("GOLDEN_RWP_NO_CHURN_LOSSY", "churn=none,loss=lossy"),
    ("GOLDEN_RWP_DUTY_CLEAN", "churn=duty,loss=clean"),
    ("GOLDEN_RWP_DUTY_LOSSY", "churn=duty,loss=lossy"),
    ("GOLDEN_RWP_CRASH_CLEAN", "churn=crash,loss=clean"),
    ("GOLDEN_RWP_CRASH_LOSSY", "churn=crash,loss=lossy"),
];

fn check_cell(cell: &str, golden: &str) {
    assert_eq!(
        grid_cell_fingerprint(cell),
        golden,
        "rwp {cell}: RunMetrics diverged from the golden"
    );
}

const GOLDEN_RWP_NO_CHURN_CLEAN: &str = "pure r0: tb=5 dv=5 dr=3ff0000000000000 ct=40d6354a9fbe76c9 abo=3fc59fc34a78d75d pbo=3fe0000000000000 adr=3fc4adc4d6fb9d2e co=233 tx=40 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=400000000 cb=141 et=40d6354a9fbe76c9 sb=141 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     pure r1: tb=5 dv=5 dr=3ff0000000000000 ct=40cc96d0624dd2f2 abo=3fc51305450edec5 pbo=3fe0000000000000 adr=3fcabc0b7cbf35ee co=158 tx=36 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=360000000 cb=95 et=40cc96d0624dd2f2 sb=95 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     pq=1,1 r0: tb=5 dv=5 dr=3ff0000000000000 ct=40d6354a9fbe76c9 abo=3fc59fc34a78d75d pbo=3fe0000000000000 adr=3fc4adc4d6fb9d2e co=233 tx=40 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=400000000 cb=141 et=40d6354a9fbe76c9 sb=141 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     pq=1,1 r1: tb=5 dv=5 dr=3ff0000000000000 ct=40cc96d0624dd2f2 abo=3fc51305450edec5 pbo=3fe0000000000000 adr=3fcabc0b7cbf35ee co=158 tx=36 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=360000000 cb=95 et=40cc96d0624dd2f2 sb=95 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     ttl=300 r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f90aefe76c8b44 abo=3fa5e8bd65f8ee7c pbo=3fe0000000000000 adr=3fb5cd5260bd70c2 co=1044 tx=50 ar=0 ev=0 ex=45 rj=0 ip=0 tl=0 pb=500000000 cb=602 et=40f90aefe76c8b44 sb=602 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     ttl=300 r1: tb=5 dv=5 dr=3ff0000000000000 ct=40f546f6d0e56042 abo=3fa608c38a536da0 pbo=3fe0000000000000 adr=3fb62f45fd01afd0 co=867 tx=51 ar=0 ev=0 ex=46 rj=0 ip=0 tl=0 pb=510000000 cb=517 et=40f546f6d0e56042 sb=517 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     dynttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f3a1623d70a3d7 abo=3fa67d8d7d7757df pbo=3fe0000000000000 adr=3fb61d7968052212 co=823 tx=44 ar=0 ev=0 ex=39 rj=0 ip=0 tl=0 pb=440000000 cb=493 et=40f3a1623d70a3d7 sb=493 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     dynttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40f2bcc839581062 abo=3fb08b9dcdbe66f5 pbo=3fe0000000000000 adr=3fb7d46cd0f33e29 co=777 tx=120 ar=0 ev=0 ex=111 rj=0 ip=0 tl=0 pb=1200000000 cb=436 et=40f2bcc839581062 sb=436 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     ec r0: tb=5 dv=5 dr=3ff0000000000000 ct=40d6354a9fbe76c9 abo=3fc59fc34a78d75d pbo=3fe0000000000000 adr=3fc4adc4d6fb9d2e co=233 tx=40 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=400000000 cb=141 et=40d6354a9fbe76c9 sb=141 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     ec r1: tb=5 dv=5 dr=3ff0000000000000 ct=40cc96d0624dd2f2 abo=3fc51305450edec5 pbo=3fe0000000000000 adr=3fcabc0b7cbf35ee co=158 tx=36 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=360000000 cb=95 et=40cc96d0624dd2f2 sb=95 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     ecttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=40e05ef91eb851ec abo=3fb4ad75c3501023 pbo=3fe0000000000000 adr=3fc15a8279e41bf7 co=348 tx=59 ar=0 ev=0 ex=35 rj=17 ip=0 tl=0 pb=590000000 cb=206 et=40e05ef91eb851ec sb=206 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     ecttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fb6000e033a6f23 pbo=3fe0000000000000 adr=3fc61fbfdb7fbbec co=217 tx=41 ar=0 ev=0 ex=23 rj=8 ip=0 tl=0 pb=410000000 cb=113 et=40d38d184189374c sb=113 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     immunity r0: tb=5 dv=5 dr=3ff0000000000000 ct=40d3fe43020c49ba abo=3fb85daf911a66d5 pbo=3fe0000000000000 adr=3fc9755c7da95d63 co=216 tx=34 ar=548 ev=0 ex=0 rj=0 ip=22 tl=0 pb=340000000 cb=8897 et=40d3fe43020c49ba sb=129 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     immunity r1: tb=5 dv=5 dr=3ff0000000000000 ct=40cc96d0624dd2f2 abo=3fbca2bf061d47c0 pbo=3fe0000000000000 adr=3fd1385ab7b055cb co=158 tx=32 ar=559 ev=0 ex=0 rj=0 ip=22 tl=0 pb=320000000 cb=9042 et=40cc96d0624dd2f2 sb=98 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     cumulative r0: tb=5 dv=5 dr=3ff0000000000000 ct=40d6354a9fbe76c9 abo=3fb10ebd62116dfd pbo=3fe0000000000000 adr=3fc2139723797ce5 co=233 tx=30 ar=297 ev=0 ex=0 rj=0 ip=25 tl=0 pb=300000000 cb=4896 et=40d6354a9fbe76c9 sb=144 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     cumulative r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fb6dcece37f036d pbo=3fe0000000000000 adr=3fcace4f6ed6de5c co=217 tx=33 ar=381 ev=0 ex=0 rj=0 ip=29 tl=0 pb=330000000 cb=6215 et=40d38d184189374c sb=119 fp=0 sk=0 st=0 al=0 cw=0 cd=0
";
const GOLDEN_RWP_NO_CHURN_LOSSY: &str = "pure r0: tb=5 dv=5 dr=3ff0000000000000 ct=40d904fd916872b0 abo=3fb71e1b3caf731f pbo=3fe0000000000000 adr=3fc448afe1a32a53 co=256 tx=26 ar=0 ev=0 ex=0 rj=0 ip=0 tl=1 pb=260000000 cb=119 et=40d904fd916872b0 sb=119 fp=0 sk=0 st=19 al=0 cw=0 cd=0
\
     pure r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fc4c96b93baa65e pbo=3fe0000000000000 adr=3fc78e12f9f21a5b co=217 tx=34 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=340000000 cb=82 et=40d38d184189374c sb=82 fp=0 sk=0 st=18 al=0 cw=0 cd=0
\
     pq=1,1 r0: tb=5 dv=5 dr=3ff0000000000000 ct=40d904fd916872b0 abo=3fb71e1b3caf731f pbo=3fe0000000000000 adr=3fc448afe1a32a53 co=256 tx=26 ar=0 ev=0 ex=0 rj=0 ip=0 tl=1 pb=260000000 cb=119 et=40d904fd916872b0 sb=119 fp=0 sk=0 st=19 al=0 cw=0 cd=0
\
     pq=1,1 r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fc4c96b93baa65e pbo=3fe0000000000000 adr=3fc78e12f9f21a5b co=217 tx=34 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=340000000 cb=82 et=40d38d184189374c sb=82 fp=0 sk=0 st=18 al=0 cw=0 cd=0
\
     ttl=300 r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f9112fe76c8b44 abo=3fa5b6736af3c6bd pbo=3fe0000000000000 adr=3fb59926b5a5c8f2 co=1044 tx=37 ar=0 ev=0 ex=30 rj=0 ip=0 tl=2 pb=370000000 cb=468 et=40f9112fe76c8b44 sb=468 fp=0 sk=0 st=71 al=0 cw=0 cd=0
\
     ttl=300 r1: tb=5 dv=5 dr=3ff0000000000000 ct=40f546f6d0e56042 abo=3fa5d19ba75dd52f pbo=3fe0000000000000 adr=3fb5ce04eb60bb4d co=867 tx=40 ar=0 ev=0 ex=33 rj=0 ip=0 tl=2 pb=400000000 cb=407 et=40f546f6d0e56042 sb=407 fp=0 sk=0 st=58 al=0 cw=0 cd=0
\
     dynttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f9112fe76c8b44 abo=3fa63a805cb2dfd7 pbo=3fe0000000000000 adr=3fb63094f42a788e co=1044 tx=39 ar=0 ev=0 ex=32 rj=0 ip=0 tl=2 pb=390000000 cb=467 et=40f9112fe76c8b44 sb=467 fp=0 sk=0 st=71 al=0 cw=0 cd=0
\
     dynttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40f2bcc839581062 abo=3fadb747826148c5 pbo=3fe0000000000000 adr=3fb96b522fd8a61c co=777 tx=79 ar=0 ev=0 ex=62 rj=0 ip=0 tl=9 pb=790000000 cb=353 et=40f2bcc839581062 sb=353 fp=0 sk=0 st=54 al=0 cw=0 cd=0
\
     ec r0: tb=5 dv=5 dr=3ff0000000000000 ct=40d904fd916872b0 abo=3fb71e1b3caf731f pbo=3fe0000000000000 adr=3fc448afe1a32a53 co=256 tx=26 ar=0 ev=0 ex=0 rj=0 ip=0 tl=1 pb=260000000 cb=119 et=40d904fd916872b0 sb=119 fp=0 sk=0 st=19 al=0 cw=0 cd=0
\
     ec r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fc4c96b93baa65e pbo=3fe0000000000000 adr=3fc78e12f9f21a5b co=217 tx=34 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=340000000 cb=82 et=40d38d184189374c sb=82 fp=0 sk=0 st=18 al=0 cw=0 cd=0
\
     ecttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f02e03ef9db22d abo=3fb0745d985eb8d1 pbo=3fe0000000000000 adr=3fbe59bbf76b9f0d co=676 tx=54 ar=0 ev=0 ex=29 rj=15 ip=0 tl=3 pb=540000000 cb=302 et=40f02e03ef9db22d sb=302 fp=0 sk=0 st=51 al=0 cw=0 cd=0
\
     ecttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d543a6a7ef9db2 abo=3fb32fadfa63c7c3 pbo=3fe0000000000000 adr=3fc772f0529ed3d0 co=235 tx=29 ar=0 ev=0 ex=11 rj=5 ip=0 tl=0 pb=290000000 cb=100 et=40d543a6a7ef9db2 sb=100 fp=0 sk=0 st=21 al=0 cw=0 cd=0
\
     immunity r0: tb=5 dv=5 dr=3ff0000000000000 ct=40d9acfc9ba5e354 abo=3fb43be7421fa21e pbo=3fe0000000000000 adr=3fc4effa74124f1f co=269 tx=24 ar=426 ev=0 ex=0 rj=0 ip=14 tl=1 pb=240000000 cb=6944 et=40d9acfc9ba5e354 sb=128 fp=0 sk=0 st=21 al=139 cw=0 cd=0
\
     immunity r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fb6adb0e2d520d5 pbo=3fe0000000000000 adr=3fd050842b001fd1 co=217 tx=27 ar=858 ev=0 ex=0 rj=0 ip=19 tl=0 pb=270000000 cb=13815 et=40d38d184189374c sb=87 fp=0 sk=0 st=18 al=117 cw=0 cd=0
\
     cumulative r0: tb=5 dv=5 dr=3ff0000000000000 ct=40e05ef91eb851ec abo=3fac73a30aed0e8f pbo=3fe0000000000000 adr=3fb91d901cc47bde co=348 tx=24 ar=465 ev=0 ex=0 rj=0 ip=21 tl=1 pb=240000000 cb=7612 et=40e05ef91eb851ec sb=172 fp=0 sk=0 st=27 al=177 cw=0 cd=0
\
     cumulative r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d9e5995810624e abo=3faf943be4a64243 pbo=3fe0000000000000 adr=3fc42d314eacdd1c co=272 tx=30 ar=479 ev=0 ex=0 rj=0 ip=24 tl=0 pb=300000000 cb=7782 et=40d9e5995810624e sb=118 fp=0 sk=0 st=24 al=139 cw=0 cd=0
";
const GOLDEN_RWP_DUTY_CLEAN: &str = "pure r0: tb=5 dv=5 dr=3ff0000000000000 ct=40ed92a245a1cac1 abo=3fc971244f812e25 pbo=3fe0000000000000 adr=3fc6a81befc6b83d co=372 tx=49 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=490000000 cb=226 et=40ed92a245a1cac1 sb=226 fp=0 sk=251 st=0 al=0 cw=0 cd=0
\
     pure r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fc087880819719f pbo=3fe0000000000000 adr=3fc0606649010f89 co=173 tx=22 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=220000000 cb=92 et=40d38d184189374c sb=92 fp=0 sk=44 st=0 al=0 cw=0 cd=0
\
     pq=1,1 r0: tb=5 dv=5 dr=3ff0000000000000 ct=40ed92a245a1cac1 abo=3fc971244f812e25 pbo=3fe0000000000000 adr=3fc6a81befc6b83d co=372 tx=49 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=490000000 cb=226 et=40ed92a245a1cac1 sb=226 fp=0 sk=251 st=0 al=0 cw=0 cd=0
\
     pq=1,1 r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fc087880819719f pbo=3fe0000000000000 adr=3fc0606649010f89 co=173 tx=22 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=220000000 cb=92 et=40d38d184189374c sb=92 fp=0 sk=44 st=0 al=0 cw=0 cd=0
\
     ttl=300 r0: tb=5 dv=5 dr=3ff0000000000000 ct=4105c8fb6c8b4396 abo=3fa5c56ad3114254 pbo=3fe0000000000000 adr=3fb5afea49295b86 co=1216 tx=66 ar=0 ev=0 ex=61 rj=0 ip=0 tl=0 pb=660000000 cb=759 et=4105c8fb6c8b4396 sb=759 fp=0 sk=622 st=0 al=0 cw=0 cd=0
\
     ttl=300 r1: tb=5 dv=5 dr=3ff0000000000000 ct=40f546f6d0e56042 abo=3fa5cd0cf3bc2029 pbo=3fe0000000000000 adr=3fb5d56cd3e643ff co=612 tx=36 ar=0 ev=0 ex=31 rj=0 ip=0 tl=0 pb=360000000 cb=357 et=40f546f6d0e56042 sb=357 fp=0 sk=255 st=0 al=0 cw=0 cd=0
\
     dynttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=410466f353f7ced9 abo=3fa67953f7b14de1 pbo=3fe0000000000000 adr=3fb65a157b4c6272 co=1152 tx=68 ar=0 ev=0 ex=62 rj=0 ip=0 tl=0 pb=680000000 cb=697 et=410466f353f7ced9 sb=697 fp=0 sk=555 st=0 al=0 cw=0 cd=0
\
     dynttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40f2bcc839581062 abo=3faf3989dd58d8ac pbo=3fe0000000000000 adr=3fb72c174c7bbafa co=536 tx=80 ar=0 ev=0 ex=71 rj=0 ip=0 tl=0 pb=800000000 cb=306 et=40f2bcc839581062 sb=306 fp=0 sk=241 st=0 al=0 cw=0 cd=0
\
     ec r0: tb=5 dv=5 dr=3ff0000000000000 ct=40ed92a245a1cac1 abo=3fc971244f812e25 pbo=3fe0000000000000 adr=3fc6a81befc6b83d co=372 tx=49 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=490000000 cb=226 et=40ed92a245a1cac1 sb=226 fp=0 sk=251 st=0 al=0 cw=0 cd=0
\
     ec r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fc087880819719f pbo=3fe0000000000000 adr=3fc0606649010f89 co=173 tx=22 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=220000000 cb=92 et=40d38d184189374c sb=92 fp=0 sk=44 st=0 al=0 cw=0 cd=0
\
     ecttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f90aefe76c8b44 abo=3fb1c4b5dcbe4ebc pbo=3fe0000000000000 adr=3fc72262b75f61eb co=629 tx=67 ar=0 ev=0 ex=44 rj=14 ip=0 tl=0 pb=670000000 cb=361 et=40f90aefe76c8b44 sb=361 fp=0 sk=415 st=0 al=0 cw=0 cd=0
\
     ecttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fb093383f3efc96 pbo=3fe0000000000000 adr=3fc05ad4974b727e co=173 tx=18 ar=0 ev=0 ex=8 rj=1 ip=0 tl=0 pb=180000000 cb=94 et=40d38d184189374c sb=94 fp=0 sk=44 st=0 al=0 cw=0 cd=0
\
     immunity r0: tb=5 dv=5 dr=3ff0000000000000 ct=40e7ced4bc6a7efa abo=3fb1495748f018f9 pbo=3fe0000000000000 adr=3fc0701e798c9321 co=289 tx=26 ar=1247 ev=0 ex=0 rj=0 ip=21 tl=0 pb=260000000 cb=20136 et=40e7ced4bc6a7efa sb=184 fp=0 sk=215 st=0 al=0 cw=0 cd=0
\
     immunity r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fb0d4483a32cea7 pbo=3fe0000000000000 adr=3fc0606649010f89 co=173 tx=16 ar=664 ev=0 ex=0 rj=0 ip=15 tl=0 pb=160000000 cb=10720 et=40d38d184189374c sb=96 fp=0 sk=44 st=0 al=0 cw=0 cd=0
\
     cumulative r0: tb=5 dv=5 dr=3ff0000000000000 ct=40ed92a245a1cac1 abo=3fa8576f68c95d3b pbo=3fe0000000000000 adr=3fc431055b4d5ef9 co=372 tx=29 ar=625 ev=0 ex=0 rj=0 ip=20 tl=0 pb=290000000 cb=10236 et=40ed92a245a1cac1 sb=236 fp=0 sk=251 st=0 al=0 cw=0 cd=0
\
     cumulative r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e0a35743958106 abo=3faed3538b7a7f71 pbo=3fe0000000000000 adr=3fc5174c2bf385cb co=254 tx=28 ar=455 ev=0 ex=0 rj=0 ip=15 tl=0 pb=280000000 cb=7431 et=40e0a35743958106 sb=151 fp=0 sk=95 st=0 al=0 cw=0 cd=0
";
const GOLDEN_RWP_DUTY_LOSSY: &str = "pure r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f35335d2f1a9fc abo=3fc123f82b02a8c6 pbo=3fe0000000000000 adr=3fc68f97952bb9aa co=509 tx=48 ar=0 ev=0 ex=0 rj=0 ip=0 tl=3 pb=480000000 cb=242 et=40f35335d2f1a9fc sb=242 fp=0 sk=296 st=39 al=0 cw=0 cd=0
\
     pure r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e02691cac08312 abo=3fc03316293162f1 pbo=3fe0000000000000 adr=3fc2e5f5cbe15988 co=248 tx=27 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=270000000 cb=106 et=40e02691cac08312 sb=106 fp=0 sk=95 st=21 al=0 cw=0 cd=0
\
     pq=1,1 r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f35335d2f1a9fc abo=3fc123f82b02a8c6 pbo=3fe0000000000000 adr=3fc68f97952bb9aa co=509 tx=48 ar=0 ev=0 ex=0 rj=0 ip=0 tl=3 pb=480000000 cb=242 et=40f35335d2f1a9fc sb=242 fp=0 sk=296 st=39 al=0 cw=0 cd=0
\
     pq=1,1 r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e02691cac08312 abo=3fc03316293162f1 pbo=3fe0000000000000 adr=3fc2e5f5cbe15988 co=248 tx=27 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=270000000 cb=106 et=40e02691cac08312 sb=106 fp=0 sk=95 st=21 al=0 cw=0 cd=0
\
     ttl=300 r0: tb=5 dv=5 dr=3ff0000000000000 ct=410e34d953f7ced9 abo=3fa5a0c2b067e4e9 pbo=3fe0000000000000 adr=3fb59344989120f6 co=1751 tx=64 ar=0 ev=0 ex=56 rj=0 ip=0 tl=3 pb=640000000 cb=864 et=410e34d953f7ced9 sb=864 fp=0 sk=832 st=138 al=0 cw=0 cd=0
\
     ttl=300 r1: tb=5 dv=5 dr=3ff0000000000000 ct=40f546f6d0e56042 abo=3fa5ba404a2252eb pbo=3fe0000000000000 adr=3fb5c3dca3fc4478 co=612 tx=31 ar=0 ev=0 ex=26 rj=0 ip=0 tl=0 pb=310000000 cb=283 et=40f546f6d0e56042 sb=283 fp=0 sk=255 st=42 al=0 cw=0 cd=0
\
     dynttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=410e34d953f7ced9 abo=3fa616063b3e3d75 pbo=3fe0000000000000 adr=3fb5e5dace9fdc94 co=1751 tx=67 ar=0 ev=0 ex=59 rj=0 ip=0 tl=3 pb=670000000 cb=863 et=410e34d953f7ced9 sb=863 fp=0 sk=832 st=138 al=0 cw=0 cd=0
\
     dynttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40f546f6d0e56042 abo=3fadfd958dacbf84 pbo=3fe0000000000000 adr=3fb82c6dd3a86be2 co=612 tx=79 ar=0 ev=0 ex=64 rj=0 ip=0 tl=9 pb=790000000 cb=272 et=40f546f6d0e56042 sb=272 fp=0 sk=255 st=42 al=0 cw=0 cd=0
\
     ec r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f35335d2f1a9fc abo=3fc123f82b02a8c6 pbo=3fe0000000000000 adr=3fc68f97952bb9aa co=509 tx=48 ar=0 ev=0 ex=0 rj=0 ip=0 tl=3 pb=480000000 cb=242 et=40f35335d2f1a9fc sb=242 fp=0 sk=296 st=39 al=0 cw=0 cd=0
\
     ec r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e02691cac08312 abo=3fc03316293162f1 pbo=3fe0000000000000 adr=3fc2e5f5cbe15988 co=248 tx=27 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=270000000 cb=106 et=40e02691cac08312 sb=106 fp=0 sk=95 st=21 al=0 cw=0 cd=0
\
     ecttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=410e31b953f7ced9 abo=3fad16929f69a5ff pbo=3fe0000000000000 adr=3fbe55171447ebf2 co=1751 tx=113 ar=0 ev=0 ex=65 rj=35 ip=0 tl=8 pb=1130000000 cb=834 et=410e31b953f7ced9 sb=834 fp=0 sk=832 st=138 al=0 cw=0 cd=0
\
     ecttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e329548b439581 abo=3fb0cfe1284169df pbo=3fe0000000000000 adr=3fbf294c313e496e co=301 tx=31 ar=0 ev=0 ex=11 rj=8 ip=0 tl=0 pb=310000000 cb=133 et=40e329548b439581 sb=133 fp=0 sk=97 st=25 al=0 cw=0 cd=0
\
     immunity r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f58fbf47ae147b abo=3fb3b1b6325a1218 pbo=3fe0000000000000 adr=3fc9016fb4d6aa37 co=564 tx=45 ar=1468 ev=0 ex=0 rj=0 ip=31 tl=2 pb=450000000 cb=23755 et=40f58fbf47ae147b sb=267 fp=0 sk=338 st=41 al=275 cw=0 cd=0
\
     immunity r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e02691cac08312 abo=3fb2f1809b784815 pbo=3fe0000000000000 adr=3fc958c652384387 co=248 tx=22 ar=1007 ev=0 ex=0 rj=0 ip=14 tl=0 pb=220000000 cb=16220 et=40e02691cac08312 sb=108 fp=0 sk=95 st=21 al=132 cw=0 cd=0
\
     cumulative r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f9758f47ae147b abo=3fb29ea83a0c70b9 pbo=3fe0000000000000 adr=3fc7c9587721fb07 co=638 tx=49 ar=685 ev=0 ex=0 rj=0 ip=35 tl=3 pb=490000000 cb=11255 et=40f9758f47ae147b sb=295 fp=0 sk=423 st=47 al=306 cw=0 cd=0
\
     cumulative r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e329548b439581 abo=3fac1bc350290390 pbo=3fe0000000000000 adr=3fc8a62bcfb139a8 co=301 tx=25 ar=537 ev=0 ex=0 rj=0 ip=18 tl=0 pb=250000000 cb=8728 et=40e329548b439581 sb=136 fp=0 sk=97 st=25 al=157 cw=0 cd=0
";
const GOLDEN_RWP_CRASH_CLEAN: &str = "pure r0: tb=5 dv=5 dr=3ff0000000000000 ct=40ed92a245a1cac1 abo=3fc7e3e26fee1d1b pbo=3fe0000000000000 adr=3fc652683d7a5278 co=372 tx=59 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=590000000 cb=223 et=40ed92a245a1cac1 sb=223 fp=0 sk=251 st=0 al=0 cw=15 cd=15
\
     pure r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fc01a54b8ba946f pbo=3fe0000000000000 adr=3fc05ecc268f323c co=173 tx=23 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=230000000 cb=91 et=40d38d184189374c sb=91 fp=0 sk=44 st=0 al=0 cw=1 cd=2
\
     pq=1,1 r0: tb=5 dv=5 dr=3ff0000000000000 ct=40ed92a245a1cac1 abo=3fc7e3e26fee1d1b pbo=3fe0000000000000 adr=3fc652683d7a5278 co=372 tx=59 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=590000000 cb=223 et=40ed92a245a1cac1 sb=223 fp=0 sk=251 st=0 al=0 cw=15 cd=15
\
     pq=1,1 r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fc01a54b8ba946f pbo=3fe0000000000000 adr=3fc05ecc268f323c co=173 tx=23 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=230000000 cb=91 et=40d38d184189374c sb=91 fp=0 sk=44 st=0 al=0 cw=1 cd=2
\
     ttl=300 r0: tb=5 dv=5 dr=3ff0000000000000 ct=4105c8fb6c8b4396 abo=3fa5c56ad3114254 pbo=3fe0000000000000 adr=3fb5afea49295b86 co=1216 tx=66 ar=0 ev=0 ex=61 rj=0 ip=0 tl=0 pb=660000000 cb=759 et=4105c8fb6c8b4396 sb=759 fp=0 sk=622 st=0 al=0 cw=43 cd=0
\
     ttl=300 r1: tb=5 dv=5 dr=3ff0000000000000 ct=40f546f6d0e56042 abo=3fa5cd0cf3bc2029 pbo=3fe0000000000000 adr=3fb5d56cd3e643ff co=612 tx=36 ar=0 ev=0 ex=31 rj=0 ip=0 tl=0 pb=360000000 cb=357 et=40f546f6d0e56042 sb=357 fp=0 sk=255 st=0 al=0 cw=19 cd=0
\
     dynttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=410466f353f7ced9 abo=3fa67953f7b14de1 pbo=3fe0000000000000 adr=3fb65a157b4c6272 co=1152 tx=68 ar=0 ev=0 ex=62 rj=0 ip=0 tl=0 pb=680000000 cb=697 et=410466f353f7ced9 sb=697 fp=0 sk=555 st=0 al=0 cw=39 cd=0
\
     dynttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40f540b6d0e56042 abo=3fab5140f9979111 pbo=3fe0000000000000 adr=3fb6fbfa3a1873ff co=612 tx=66 ar=0 ev=0 ex=60 rj=0 ip=0 tl=0 pb=660000000 cb=348 et=40f540b6d0e56042 sb=348 fp=0 sk=255 st=0 al=0 cw=19 cd=1
\
     ec r0: tb=5 dv=5 dr=3ff0000000000000 ct=40ed92a245a1cac1 abo=3fc7e3e26fee1d1b pbo=3fe0000000000000 adr=3fc652683d7a5278 co=372 tx=59 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=590000000 cb=223 et=40ed92a245a1cac1 sb=223 fp=0 sk=251 st=0 al=0 cw=15 cd=15
\
     ec r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fc01a54b8ba946f pbo=3fe0000000000000 adr=3fc05ecc268f323c co=173 tx=23 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=230000000 cb=91 et=40d38d184189374c sb=91 fp=0 sk=44 st=0 al=0 cw=1 cd=2
\
     ecttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f90aefe76c8b44 abo=3fb1abcef13e525c pbo=3fe0000000000000 adr=3fc72262b75f61eb co=629 tx=65 ar=0 ev=0 ex=41 rj=13 ip=0 tl=0 pb=650000000 cb=363 et=40f90aefe76c8b44 sb=363 fp=0 sk=415 st=0 al=0 cw=24 cd=2
\
     ecttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fb0074b896ca397 pbo=3fe0000000000000 adr=3fc0593a74d99531 co=173 tx=19 ar=0 ev=0 ex=10 rj=1 ip=0 tl=0 pb=190000000 cb=93 et=40d38d184189374c sb=93 fp=0 sk=44 st=0 al=0 cw=1 cd=1
\
     immunity r0: tb=5 dv=5 dr=3ff0000000000000 ct=40e7ced4bc6a7efa abo=3fb11cca2d02ef04 pbo=3fe0000000000000 adr=3fc0701e798c9321 co=289 tx=26 ar=1225 ev=0 ex=0 rj=0 ip=20 tl=0 pb=260000000 cb=19784 et=40e7ced4bc6a7efa sb=184 fp=0 sk=215 st=0 al=0 cw=10 cd=1
\
     immunity r1: tb=5 dv=5 dr=3ff0000000000000 ct=40d38d184189374c abo=3fb0a9370a27c265 pbo=3fe0000000000000 adr=3fc05ecc268f323c co=173 tx=16 ar=662 ev=0 ex=0 rj=0 ip=14 tl=0 pb=160000000 cb=10688 et=40d38d184189374c sb=96 fp=0 sk=44 st=0 al=0 cw=1 cd=1
\
     cumulative r0: tb=5 dv=5 dr=3ff0000000000000 ct=40ed92a245a1cac1 abo=3fa8335875fdf603 pbo=3fe0000000000000 adr=3fc431055b4d5ef9 co=372 tx=29 ar=614 ev=0 ex=0 rj=0 ip=19 tl=0 pb=290000000 cb=10060 et=40ed92a245a1cac1 sb=236 fp=0 sk=251 st=0 al=0 cw=15 cd=1
\
     cumulative r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e0a35743958106 abo=3faec16ae7b41d0f pbo=3fe0000000000000 adr=3fc5174c2bf385cb co=254 tx=28 ar=452 ev=0 ex=0 rj=0 ip=14 tl=0 pb=280000000 cb=7383 et=40e0a35743958106 sb=151 fp=0 sk=95 st=0 al=0 cw=3 cd=1
";
const GOLDEN_RWP_CRASH_LOSSY: &str = "pure r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f157cbba5e353f abo=3fbb1847097e5701 pbo=3fe0000000000000 adr=3fc3af25a41be1bf co=458 tx=46 ar=0 ev=0 ex=0 rj=0 ip=0 tl=2 pb=460000000 cb=225 et=40f157cbba5e353f sb=225 fp=0 sk=273 st=32 al=0 cw=15 cd=2
\
     pure r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e02691cac08312 abo=3fc001d3f100c988 pbo=3fe0000000000000 adr=3fc2e5f5cbe15988 co=248 tx=28 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=280000000 cb=105 et=40e02691cac08312 sb=105 fp=0 sk=95 st=21 al=0 cw=3 cd=2
\
     pq=1,1 r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f157cbba5e353f abo=3fbb1847097e5701 pbo=3fe0000000000000 adr=3fc3af25a41be1bf co=458 tx=46 ar=0 ev=0 ex=0 rj=0 ip=0 tl=2 pb=460000000 cb=225 et=40f157cbba5e353f sb=225 fp=0 sk=273 st=32 al=0 cw=15 cd=2
\
     pq=1,1 r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e02691cac08312 abo=3fc001d3f100c988 pbo=3fe0000000000000 adr=3fc2e5f5cbe15988 co=248 tx=28 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=280000000 cb=105 et=40e02691cac08312 sb=105 fp=0 sk=95 st=21 al=0 cw=3 cd=2
\
     ttl=300 r0: tb=5 dv=5 dr=3ff0000000000000 ct=410e34d953f7ced9 abo=3fa5a0c2b067e4e9 pbo=3fe0000000000000 adr=3fb59344989120f6 co=1751 tx=64 ar=0 ev=0 ex=56 rj=0 ip=0 tl=3 pb=640000000 cb=864 et=410e34d953f7ced9 sb=864 fp=0 sk=832 st=138 al=0 cw=61 cd=0
\
     ttl=300 r1: tb=5 dv=5 dr=3ff0000000000000 ct=40f546f6d0e56042 abo=3fa5ba404a2252eb pbo=3fe0000000000000 adr=3fb5c3dca3fc4478 co=612 tx=31 ar=0 ev=0 ex=26 rj=0 ip=0 tl=0 pb=310000000 cb=283 et=40f546f6d0e56042 sb=283 fp=0 sk=255 st=42 al=0 cw=19 cd=0
\
     dynttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=410e34d953f7ced9 abo=3fa616063b3e3d75 pbo=3fe0000000000000 adr=3fb5e5dace9fdc94 co=1751 tx=67 ar=0 ev=0 ex=59 rj=0 ip=0 tl=3 pb=670000000 cb=863 et=410e34d953f7ced9 sb=863 fp=0 sk=832 st=138 al=0 cw=61 cd=0
\
     dynttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40f546f6d0e56042 abo=3faa5e3fadfee3e7 pbo=3fe0000000000000 adr=3fb7edbda6972140 co=612 tx=55 ar=0 ev=0 ex=47 rj=0 ip=0 tl=2 pb=550000000 cb=276 et=40f546f6d0e56042 sb=276 fp=0 sk=255 st=42 al=0 cw=19 cd=1
\
     ec r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f157cbba5e353f abo=3fbb1847097e5701 pbo=3fe0000000000000 adr=3fc3af25a41be1bf co=458 tx=46 ar=0 ev=0 ex=0 rj=0 ip=0 tl=2 pb=460000000 cb=225 et=40f157cbba5e353f sb=225 fp=0 sk=273 st=32 al=0 cw=15 cd=2
\
     ec r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e02691cac08312 abo=3fc001d3f100c988 pbo=3fe0000000000000 adr=3fc2e5f5cbe15988 co=248 tx=28 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=280000000 cb=105 et=40e02691cac08312 sb=105 fp=0 sk=95 st=21 al=0 cw=3 cd=2
\
     ecttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=410c392ef7ced917 abo=3fad6c1b53b3a1cd pbo=3fe0000000000000 adr=3fbcd54ca9ad9618 co=1649 tx=106 ar=0 ev=0 ex=57 rj=26 ip=0 tl=7 pb=1060000000 cb=783 et=410c392ef7ced917 sb=783 fp=0 sk=777 st=126 al=0 cw=56 cd=11
\
     ecttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e329548b439581 abo=3fb04285dca176d7 pbo=3fe0000000000000 adr=3fbeb68fca495020 co=301 tx=29 ar=0 ev=0 ex=9 rj=6 ip=0 tl=0 pb=290000000 cb=133 et=40e329548b439581 sb=133 fp=0 sk=97 st=25 al=0 cw=5 cd=4
\
     immunity r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f35335d2f1a9fc abo=3fb2cb6c028eb619 pbo=3fe0000000000000 adr=3fc546ce9485b766 co=509 tx=40 ar=1012 ev=0 ex=0 rj=0 ip=29 tl=2 pb=400000000 cb=16433 et=40f35335d2f1a9fc sb=241 fp=0 sk=296 st=39 al=243 cw=17 cd=1
\
     immunity r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e02691cac08312 abo=3fb2eaf066c5e706 pbo=3fe0000000000000 adr=3fc958c652384387 co=248 tx=22 ar=1003 ev=0 ex=0 rj=0 ip=13 tl=0 pb=220000000 cb=16156 et=40e02691cac08312 sb=108 fp=0 sk=95 st=21 al=132 cw=3 cd=1
\
     cumulative r0: tb=5 dv=5 dr=3ff0000000000000 ct=40f9758f47ae147b abo=3fb2963c644d32c1 pbo=3fe0000000000000 adr=3fc7c891150cb029 co=638 tx=49 ar=671 ev=0 ex=0 rj=0 ip=33 tl=3 pb=490000000 cb=11031 et=40f9758f47ae147b sb=295 fp=0 sk=423 st=47 al=306 cw=26 cd=4
\
     cumulative r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e329548b439581 abo=3fab6b775c975833 pbo=3fe0000000000000 adr=3fc75cca27b7be5a co=301 tx=24 ar=532 ev=0 ex=0 rj=0 ip=16 tl=0 pb=240000000 cb=8648 et=40e329548b439581 sb=136 fp=0 sk=97 st=25 al=157 cw=5 cd=2
";
const GOLDEN_CRASH_TRACE: &str = "trace r0: tb=20 dv=15 dr=3fe8000000000000 ct=none abo=3fc1f970a2925021 pbo=4000000000000000 adr=3fbfd632f9de782b co=438 tx=151 ar=715 ev=0 ex=0 rj=0 ip=42 tl=0 pb=1510000000 cb=12718 et=411ffe0800000000 sb=1278 fp=0 sk=257 st=0 al=0 cw=133 cd=102
\
     trace r1: tb=20 dv=20 dr=3ff0000000000000 ct=41027e95e147ae14 abo=3fc783c391882d2f pbo=4000000000000000 adr=3fc0d7e5ea8995e9 co=205 tx=123 ar=290 ev=0 ex=0 rj=0 ip=63 tl=0 pb=1230000000 cb=5177 et=41027e95e147ae14 sb=537 fp=0 sk=75 st=0 al=0 cw=30 cd=31
";

#[test]
fn rwp_no_churn_clean_matches_golden() {
    check_cell("churn=none,loss=clean", GOLDEN_RWP_NO_CHURN_CLEAN);
}

#[test]
fn rwp_no_churn_lossy_matches_golden() {
    check_cell("churn=none,loss=lossy", GOLDEN_RWP_NO_CHURN_LOSSY);
}

#[test]
fn rwp_duty_clean_matches_golden() {
    check_cell("churn=duty,loss=clean", GOLDEN_RWP_DUTY_CLEAN);
}

#[test]
fn rwp_duty_lossy_matches_golden() {
    check_cell("churn=duty,loss=lossy", GOLDEN_RWP_DUTY_LOSSY);
}

#[test]
fn rwp_crash_clean_matches_golden() {
    check_cell("churn=crash,loss=clean", GOLDEN_RWP_CRASH_CLEAN);
}

#[test]
fn rwp_crash_lossy_matches_golden() {
    check_cell("churn=crash,loss=lossy", GOLDEN_RWP_CRASH_LOSSY);
}

#[test]
fn trace_crash_churn_matches_golden() {
    assert_eq!(
        crash_trace_fingerprint(),
        GOLDEN_CRASH_TRACE,
        "trace crash churn: RunMetrics diverged from the golden"
    );
}

// ---------------------------------------------------------------------
// Generator pins.
//
// The goldens above pin what the engine makes of a trace; these pin the
// traces themselves. Every built-in generator's contact list is folded
// into an FNV-1a digest over eight (seed, replication) pairs, and the
// geometric RWP model, which no golden above runs, gets its own
// `RunMetrics` golden for the eight paper protocols at load 5. Both are
// printed by `print_goldens`.

/// The (scenario seed, replication) pairs the generator digests cover.
const DIGEST_RUNS: [(u64, u64); 8] = [
    (0xD7_2012, 0),
    (0xD7_2012, 1),
    (1, 0),
    (1, 9),
    (7, 3),
    (42, 2),
    (0xDEAD_BEEF, 5),
    (u64::MAX, 7),
];

const DIGEST_MOBILITIES: [Mobility; 5] = [
    Mobility::Trace,
    Mobility::Rwp,
    Mobility::GeometricRwp,
    Mobility::Interval(400),
    Mobility::Interval(2000),
];

/// FNV-1a (64-bit) over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One line per (mobility, seed, replication): the trace's size and the
/// digest of its node count, horizon and every contact, in order.
fn generator_digests() -> String {
    let mut out = String::new();
    for mobility in DIGEST_MOBILITIES {
        for (seed, rep) in DIGEST_RUNS {
            let trace = mobility.build(seed, rep);
            let mut fnv = Fnv::new();
            fnv.bytes(&(trace.node_count() as u64).to_le_bytes());
            fnv.bytes(&trace.horizon().as_millis().to_le_bytes());
            for c in trace.contacts() {
                fnv.bytes(&c.a.0.to_le_bytes());
                fnv.bytes(&c.b.0.to_le_bytes());
                fnv.bytes(&c.start.as_millis().to_le_bytes());
                fnv.bytes(&c.end.as_millis().to_le_bytes());
            }
            out.push_str(&format!(
                "{} {seed:x}/{rep}: n={} fnv={:016x}\n",
                mobility.spec(),
                trace.len(),
                fnv.0
            ));
        }
    }
    out
}

/// Every paper protocol on geometric RWP at load 5, replications 0–1.
fn geom_rwp_fingerprint() -> String {
    let cfg = SweepConfig {
        loads: vec![FAULT_LOAD],
        replications: REPLICATIONS,
        threads: Threads::Sequential,
        ..SweepConfig::default()
    };
    let cache = TraceCache::new();
    let mut out = String::new();
    for (spec, protocol) in ["pure", "pq", "ttl", "dynttl", "ec", "ecttl", "imm", "cum"]
        .into_iter()
        .zip(protocols::all_protocols())
    {
        for (rep, m) in
            run_point_checked_cached(&protocol, Mobility::GeometricRwp, FAULT_LOAD, &cfg, &cache)
                .into_iter()
                .map(Result::unwrap)
                .enumerate()
        {
            out.push_str(&format!("{spec} r{rep}: {}\n", faulted_fingerprint(&m)));
        }
    }
    out
}

#[test]
fn generators_match_pinned_digests() {
    assert_eq!(
        generator_digests(),
        GOLDEN_GENERATOR_DIGESTS,
        "a generator's contact list diverged from the pinned digest"
    );
}

#[test]
fn geom_rwp_matches_golden() {
    assert_eq!(
        geom_rwp_fingerprint(),
        GOLDEN_GEOM_RWP,
        "geom-rwp: RunMetrics diverged from the golden"
    );
}

const GOLDEN_GENERATOR_DIGESTS: &str = "trace d72012/0: n=695 fnv=4aeba6d7630774ff
\
     trace d72012/1: n=695 fnv=4aeba6d7630774ff
\
     trace 1/0: n=708 fnv=173604689f0e9ba8
\
     trace 1/9: n=708 fnv=173604689f0e9ba8
\
     trace 7/3: n=678 fnv=3e3469e4facfeee8
\
     trace 2a/2: n=730 fnv=7cac3931ae19d465
\
     trace deadbeef/5: n=669 fnv=9e52e281b860db11
\
     trace ffffffffffffffff/7: n=593 fnv=79915d514c39a701
\
     rwp d72012/0: n=6219 fnv=d54de630e0800051
\
     rwp d72012/1: n=5898 fnv=88ca0dfe0737660a
\
     rwp 1/0: n=6620 fnv=7c78b021b0d7864f
\
     rwp 1/9: n=6117 fnv=d30707e676fe2e6b
\
     rwp 7/3: n=6233 fnv=10ed7119cae97ed4
\
     rwp 2a/2: n=6095 fnv=2587534058d3367d
\
     rwp deadbeef/5: n=6195 fnv=87a952b12d144adc
\
     rwp ffffffffffffffff/7: n=6128 fnv=516bec177fea2408
\
     geom-rwp d72012/0: n=12572 fnv=32a4c4e04136689b
\
     geom-rwp d72012/1: n=12435 fnv=28dd0fda4d4bc04a
\
     geom-rwp 1/0: n=12729 fnv=6d8c49c7f27592d5
\
     geom-rwp 1/9: n=12506 fnv=2e48d648a6c4e196
\
     geom-rwp 7/3: n=12418 fnv=3340ce55e5d20a59
\
     geom-rwp 2a/2: n=12624 fnv=6a214d44a128b010
\
     geom-rwp deadbeef/5: n=12406 fnv=c6f1a3c0eaabbbc6
\
     geom-rwp ffffffffffffffff/7: n=12455 fnv=e4faa556b3e736f7
\
     interval=400 d72012/0: n=200 fnv=a81da849796ef864
\
     interval=400 d72012/1: n=200 fnv=cd02c0fb903ac9e9
\
     interval=400 1/0: n=199 fnv=8f48a33b3fbd825d
\
     interval=400 1/9: n=200 fnv=780605eccca88c1e
\
     interval=400 7/3: n=200 fnv=99e27fc80c9d5c38
\
     interval=400 2a/2: n=200 fnv=d6e0ec9ccbb5d595
\
     interval=400 deadbeef/5: n=200 fnv=3a5ffee95e731331
\
     interval=400 ffffffffffffffff/7: n=200 fnv=b94b8a5e7700dd81
\
     interval=2000 d72012/0: n=199 fnv=e4427ae1d785ff5f
\
     interval=2000 d72012/1: n=199 fnv=5e07e10167116de9
\
     interval=2000 1/0: n=200 fnv=06977a4367d18f95
\
     interval=2000 1/9: n=200 fnv=e800c4fc9c3eddeb
\
     interval=2000 7/3: n=199 fnv=f7f2d4db480e99ab
\
     interval=2000 2a/2: n=200 fnv=b79f37a0f94ac0a0
\
     interval=2000 deadbeef/5: n=200 fnv=4119331ef392221c
\
     interval=2000 ffffffffffffffff/7: n=199 fnv=aead5bfa12c1a16e
";

const GOLDEN_GEOM_RWP: &str = "pure r0: tb=5 dv=5 dr=3ff0000000000000 ct=40c8cf072b020c4a abo=3fcc1a73fe9d0f91 pbo=3fe0000000000000 adr=3fce7bf18ea84047 co=260 tx=52 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=520000000 cb=123 et=40c8cf072b020c4a sb=123 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     pure r1: tb=5 dv=5 dr=3ff0000000000000 ct=40b56a8872b020c5 abo=3fc14f8151273b32 pbo=3fe0000000000000 adr=3fc390bae2a56a1a co=109 tx=34 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=340000000 cb=58 et=40b56a8872b020c5 sb=58 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     pq r0: tb=5 dv=5 dr=3ff0000000000000 ct=40c8cf072b020c4a abo=3fcc1a73fe9d0f91 pbo=3fe0000000000000 adr=3fce7bf18ea84047 co=260 tx=52 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=520000000 cb=123 et=40c8cf072b020c4a sb=123 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     pq r1: tb=5 dv=5 dr=3ff0000000000000 ct=40b56a8872b020c5 abo=3fc14f8151273b32 pbo=3fe0000000000000 adr=3fc390bae2a56a1a co=109 tx=34 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=340000000 cb=58 et=40b56a8872b020c5 sb=58 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     ttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=40e903173b645a1d abo=3fa7a7afcd7a7314 pbo=3fe0000000000000 adr=3fb76941109b3488 co=1119 tx=94 ar=0 ev=0 ex=89 rj=0 ip=0 tl=0 pb=940000000 cb=455 et=40e903173b645a1d sb=455 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     ttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40e322e73b645a1d abo=3fa87336c10a2db1 pbo=3fe0000000000000 adr=3fb90fb983e0cc5b co=799 tx=93 ar=0 ev=0 ex=87 rj=0 ip=0 tl=0 pb=930000000 cb=395 et=40e322e73b645a1d sb=395 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     dynttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=40e903173b645a1d abo=3fa863b77d4f2eb5 pbo=3fe0000000000000 adr=3fb7bc2f773666f7 co=1119 tx=96 ar=0 ev=0 ex=91 rj=0 ip=0 tl=0 pb=960000000 cb=455 et=40e903173b645a1d sb=455 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     dynttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40c765d9374bc6a8 abo=3fb3735117655764 pbo=3fe0000000000000 adr=3fb755f1a860cd3d co=251 tx=48 ar=0 ev=0 ex=36 rj=0 ip=0 tl=0 pb=480000000 cb=112 et=40c765d9374bc6a8 sb=112 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     ec r0: tb=5 dv=5 dr=3ff0000000000000 ct=40c8cf072b020c4a abo=3fcc1a73fe9d0f91 pbo=3fe0000000000000 adr=3fce7bf18ea84047 co=260 tx=52 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=520000000 cb=123 et=40c8cf072b020c4a sb=123 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     ec r1: tb=5 dv=5 dr=3ff0000000000000 ct=40b56a8872b020c5 abo=3fc14f8151273b32 pbo=3fe0000000000000 adr=3fc390bae2a56a1a co=109 tx=34 ar=0 ev=0 ex=0 rj=0 ip=0 tl=0 pb=340000000 cb=58 et=40b56a8872b020c5 sb=58 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     ecttl r0: tb=5 dv=5 dr=3ff0000000000000 ct=40e8f6973b645a1d abo=3fb069465151d149 pbo=3fe0000000000000 adr=3fc070d7f9aa0004 co=1119 tx=131 ar=0 ev=0 ex=66 rj=60 ip=0 tl=0 pb=1310000000 cb=441 et=40e8f6973b645a1d sb=441 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     ecttl r1: tb=5 dv=5 dr=3ff0000000000000 ct=40b56a8872b020c5 abo=3fb7651bc88b8bbb pbo=3fe0000000000000 adr=3fc1c78998e6c1d6 co=109 tx=38 ar=0 ev=0 ex=9 rj=4 ip=0 tl=0 pb=380000000 cb=56 et=40b56a8872b020c5 sb=56 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     imm r0: tb=5 dv=5 dr=3ff0000000000000 ct=40c13926872b020c abo=3fb69657fa9ac94c pbo=3fe0000000000000 adr=3fcd9f090f0c537e co=180 tx=28 ar=464 ev=0 ex=0 rj=0 ip=21 tl=0 pb=280000000 cb=7512 et=40c13926872b020c sb=88 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     imm r1: tb=5 dv=5 dr=3ff0000000000000 ct=40b56a8872b020c5 abo=3fb3ee50ef0676a3 pbo=3fe0000000000000 adr=3fc90e26a2094b4e co=109 tx=23 ar=405 ev=0 ex=0 rj=0 ip=11 tl=0 pb=230000000 cb=6539 et=40b56a8872b020c5 sb=59 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     cum r0: tb=5 dv=5 dr=3ff0000000000000 ct=40c901072b020c4a abo=3fb68aed4433fad1 pbo=3fe0000000000000 adr=3fd0c3228e6611d1 co=260 tx=37 ar=351 ev=0 ex=0 rj=0 ip=19 tl=0 pb=370000000 cb=5738 et=40c901072b020c4a sb=122 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     cum r1: tb=5 dv=5 dr=3ff0000000000000 ct=40b5ce8872b020c5 abo=3fac83459fadb57b pbo=3fe0000000000000 adr=3fc1e0180386fce1 co=109 tx=21 ar=163 ev=0 ex=0 rj=0 ip=10 tl=0 pb=210000000 cb=2667 et=40b5ce8872b020c5 sb=59 fp=0 sk=0 st=0 al=0 cw=0 cd=0
";

// ---------------------------------------------------------------------
// Bloom goldens.
//
// The four Bloom-digest presets are not paper protocols, so the goldens
// above never run them. These pin them on the three pinned mobilities
// at load 20, plus a load-130 point on RWP: a three-word summary
// vector and, at fp 0.01, a 20-word digest. The fingerprint carries the
// signaling and false-positive counters, the two numbers only the
// digest moves. `print_goldens` prints them.

const BLOOM_WIDE_LOAD: u32 = 130;

const BLOOM_PRESETS: [(&str, &str); 4] = [
    ("GOLDEN_BLOOM_1PCT", "bloom=0.01"),
    ("GOLDEN_BLOOM_10PCT", "bloom=0.1"),
    ("GOLDEN_BLOOMIMM_1PCT", "bloomimm=0.01"),
    ("GOLDEN_BLOOMIMM_10PCT", "bloomimm=0.1"),
];

/// One line per (mobility, load, replication) of one Bloom preset.
fn bloom_fingerprint(spec: &str) -> String {
    let protocol = protocols::from_spec(spec).unwrap();
    let cfg = pinned_config();
    let cache = TraceCache::new();
    let points = MOBILITIES
        .map(|mobility| (mobility, LOAD))
        .into_iter()
        .chain([(Mobility::Rwp, BLOOM_WIDE_LOAD)]);
    let mut out = String::new();
    for (mobility, load) in points {
        for (rep, m) in run_point_checked_cached(&protocol, mobility, load, &cfg, &cache)
            .into_iter()
            .map(Result::unwrap)
            .enumerate()
        {
            out.push_str(&format!(
                "{} l{load} r{rep}: {}\n",
                mobility.label(),
                faulted_fingerprint(&m)
            ));
        }
    }
    out
}

fn check_bloom(spec: &str, golden: &str) {
    assert_eq!(
        bloom_fingerprint(spec),
        golden,
        "{spec}: RunMetrics diverged from the golden"
    );
}

#[test]
fn bloom_1pct_matches_golden() {
    check_bloom("bloom=0.01", GOLDEN_BLOOM_1PCT);
}

#[test]
fn bloom_10pct_matches_golden() {
    check_bloom("bloom=0.1", GOLDEN_BLOOM_10PCT);
}

#[test]
fn bloomimm_1pct_matches_golden() {
    check_bloom("bloomimm=0.01", GOLDEN_BLOOMIMM_1PCT);
}

#[test]
fn bloomimm_10pct_matches_golden() {
    check_bloom("bloomimm=0.1", GOLDEN_BLOOMIMM_10PCT);
}

const GOLDEN_BLOOM_1PCT: &str = "trace l20 r0: tb=20 dv=20 dr=3ff0000000000000 ct=410716af4bc6a7f0 abo=3fe955a4c984438b pbo=4000000000000000 adr=3fc244f053b27f75 co=330 tx=232 ar=0 ev=114 ex=0 rj=0 ip=0 tl=0 pb=2320000000 cb=6456 et=410716af4bc6a7f0 sb=6456 fp=4 sk=0 st=0 al=0 cw=0 cd=0
\
     trace l20 r1: tb=20 dv=20 dr=3ff0000000000000 ct=40fb3a783126e979 abo=3fe7f660cd110b5b pbo=4000000000000000 adr=3fd3b947b11919eb co=228 tx=163 ar=0 ev=53 ex=0 rj=0 ip=0 tl=0 pb=1630000000 cb=3888 et=40fb3a783126e979 sb=3888 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l20 r0: tb=20 dv=20 dr=3ff0000000000000 ct=40f939bf26e978d5 abo=3fea734e7ebb0d61 pbo=4000000000000000 adr=3fce99b1344833e8 co=1049 tx=320 ar=0 ev=200 ex=0 rj=0 ip=0 tl=0 pb=3200000000 cb=10272 et=40f939bf26e978d5 sb=10272 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l20 r1: tb=20 dv=20 dr=3ff0000000000000 ct=40f6cfcd9999999a abo=3fea53c94b56e420 pbo=4000000000000000 adr=3fc3d1722050e751 co=933 tx=270 ar=0 ev=150 ex=0 rj=0 ip=0 tl=0 pb=2700000000 cb=9432 et=40f6cfcd9999999a sb=9432 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     interval400 l20 r0: tb=20 dv=19 dr=3fee666666666666 ct=none abo=3fead472b583745d pbo=4000000000000000 adr=3fd510683be8f0cd co=200 tx=1215 ar=0 ev=1016 ex=0 rj=0 ip=0 tl=0 pb=12150000000 cb=9600 et=40b8802fdf3b645a sb=9600 fp=15 sk=0 st=0 al=0 cw=0 cd=0
\
     interval400 l20 r1: tb=20 dv=20 dr=3ff0000000000000 ct=409b65fdf3b645a2 abo=3fdf3eb06b2dfab3 pbo=4000000000000000 adr=3fc99d26d55584a9 co=60 tx=273 ar=0 ev=83 ex=0 rj=0 ip=0 tl=0 pb=2730000000 cb=2808 et=409b65fdf3b645a2 sb=2808 fp=2 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l130 r0: tb=130 dv=129 dr=3fefc0fc0fc0fc10 ct=none abo=3ffe349451bd8aff pbo=402a000000000000 adr=3fb7f5edf75df1c2 co=6219 tx=1917 ar=0 ev=1688 ex=0 rj=0 ip=0 tl=0 pb=19170000000 cb=377832 et=41224f8000000000 sb=377832 fp=35 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l130 r1: tb=130 dv=129 dr=3fefc0fc0fc0fc10 ct=none abo=3ffe132a44db5f9c pbo=402a000000000000 adr=3fb77cb50da85aed co=5898 tx=1741 ar=0 ev=1512 ex=0 rj=0 ip=0 tl=0 pb=17410000000 cb=361140 et=41224f8000000000 sb=361140 fp=22 sk=0 st=0 al=0 cw=0 cd=0
";

const GOLDEN_BLOOM_10PCT: &str = "trace l20 r0: tb=20 dv=20 dr=3ff0000000000000 ct=410716af4bc6a7f0 abo=3fe94dd6b22e6833 pbo=4000000000000000 adr=3fc1be465e46e491 co=330 tx=222 ar=0 ev=104 ex=0 rj=0 ip=0 tl=0 pb=2220000000 cb=3228 et=410716af4bc6a7f0 sb=3228 fp=28 sk=0 st=0 al=0 cw=0 cd=0
\
     trace l20 r1: tb=20 dv=19 dr=3fee666666666666 ct=none abo=3fee2862312fccbc pbo=4000000000000000 adr=3fdbf14d49cdef63 co=695 tx=578 ar=0 ev=459 ex=0 rj=0 ip=0 tl=0 pb=5780000000 cb=5868 et=411ffe0800000000 sb=5868 fp=112 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l20 r0: tb=20 dv=19 dr=3fee666666666666 ct=none abo=3fef0cc8dcefcc47 pbo=4000000000000000 adr=3fe1b6d7b22ebb2b co=6219 tx=1820 ar=0 ev=1701 ex=0 rj=0 ip=0 tl=0 pb=18200000000 cb=29904 et=41224f8000000000 sb=29904 fp=634 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l20 r1: tb=20 dv=20 dr=3ff0000000000000 ct=40f6cfcd9999999a abo=3fea53c94b56e420 pbo=4000000000000000 adr=3fc3d1722050e751 co=933 tx=270 ar=0 ev=150 ex=0 rj=0 ip=0 tl=0 pb=2700000000 cb=4716 et=40f6cfcd9999999a sb=4716 fp=10 sk=0 st=0 al=0 cw=0 cd=0
\
     interval400 l20 r0: tb=20 dv=17 dr=3feb333333333333 ct=none abo=3feab8d305a66ed6 pbo=4000000000000000 adr=3fce4666ff4afc7e co=200 tx=1093 ar=0 ev=896 ex=0 rj=0 ip=0 tl=0 pb=10930000000 cb=4800 et=40b8802fdf3b645a sb=4800 fp=82 sk=0 st=0 al=0 cw=0 cd=0
\
     interval400 l20 r1: tb=20 dv=19 dr=3fee666666666666 ct=none abo=3feb8ccb59ea0e9a pbo=4000000000000000 adr=3fd4cf06bd36bdba co=200 tx=1066 ar=0 ev=867 ex=0 rj=0 ip=0 tl=0 pb=10660000000 cb=4764 et=40b94a9020c49ba6 sb=4764 fp=91 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l130 r0: tb=130 dv=122 dr=3fee07e07e07e07e ct=none abo=3ffe349451bd8aff pbo=402a000000000000 adr=3fba822a46d4f35b co=6219 tx=1910 ar=0 ev=1688 ex=0 rj=0 ip=0 tl=0 pb=19100000000 cb=188916 et=41224f8000000000 sb=188916 fp=196 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l130 r1: tb=130 dv=119 dr=3fed4ad4ad4ad4ad ct=none abo=3ffe132a44db5f9c pbo=402a000000000000 adr=3fbc6ff8f03cf1a5 co=5898 tx=1731 ar=0 ev=1512 ex=0 rj=0 ip=0 tl=0 pb=17310000000 cb=180492 et=41224f8000000000 sb=180492 fp=346 sk=0 st=0 al=0 cw=0 cd=0
";

const GOLDEN_BLOOMIMM_1PCT: &str = "trace l20 r0: tb=20 dv=20 dr=3ff0000000000000 ct=40f75c16189374bc abo=3fd699849f2344ed pbo=4000000000000000 adr=3fd199ac9e302669 co=199 tx=99 ar=3309 ev=0 ex=0 rj=0 ip=82 tl=0 pb=990000000 cb=57168 et=40f75c16189374bc sb=4224 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     trace l20 r1: tb=20 dv=20 dr=3ff0000000000000 ct=40f7629276c8b439 abo=3fd7bdeba79bc440 pbo=4000000000000000 adr=3fd843a0b5efca50 co=200 tx=119 ar=3574 ev=0 ex=0 rj=0 ip=97 tl=0 pb=1190000000 cb=61144 et=40f7629276c8b439 sb=3960 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l20 r0: tb=20 dv=20 dr=3ff0000000000000 ct=40e85abb0a3d70a4 abo=3fda99ad31c861b7 pbo=4000000000000000 adr=3fd8828ef2d3846b co=512 tx=133 ar=8041 ev=0 ex=0 rj=0 ip=112 tl=0 pb=1330000000 cb=135352 et=40e85abb0a3d70a4 sb=6696 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l20 r1: tb=20 dv=20 dr=3ff0000000000000 ct=40ee919d374bc6a8 abo=3fd5d7373f921de0 pbo=4000000000000000 adr=3fd07431a2604543 co=636 tx=146 ar=10279 ev=0 ex=0 rj=0 ip=137 tl=0 pb=1460000000 cb=172168 et=40ee919d374bc6a8 sb=7704 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     interval400 l20 r0: tb=20 dv=19 dr=3fee666666666666 ct=none abo=3fe0848a3286941d pbo=4000000000000000 adr=3fe419c10226dbf6 co=200 tx=577 ar=3263 ev=318 ex=0 rj=0 ip=241 tl=0 pb=5770000000 cb=61808 et=40b8802fdf3b645a sb=9600 fp=17 sk=0 st=0 al=0 cw=0 cd=0
\
     interval400 l20 r1: tb=20 dv=20 dr=3ff0000000000000 ct=409b65fdf3b645a2 abo=3fdf813f929a0182 pbo=4000000000000000 adr=3fcb282943148a42 co=60 tx=272 ar=59 ev=63 ex=0 rj=0 ip=28 tl=0 pb=2720000000 cb=3776 et=409b65fdf3b645a2 sb=2832 fp=2 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l130 r0: tb=130 dv=128 dr=3fef81f81f81f820 ct=none abo=3ff82b92e5bdeeb9 pbo=402a000000000000 adr=3fe348226b4d9d5f co=6219 tx=837 ar=1201916 ev=43 ex=0 rj=0 ip=774 tl=0 pb=8370000000 cb=19756844 et=41224f8000000000 sb=526188 fp=406 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l130 r1: tb=130 dv=127 dr=3fef42f42f42f42f ct=none abo=3ff82077ceb33264 pbo=402a000000000000 adr=3fe31a45e8708a9f co=5898 tx=741 ar=1157339 ev=0 ex=0 rj=0 ip=711 tl=0 pb=7410000000 cb=19015376 et=41224f8000000000 sb=497952 fp=647 sk=0 st=0 al=0 cw=0 cd=0
";

const GOLDEN_BLOOMIMM_10PCT: &str = "trace l20 r0: tb=20 dv=20 dr=3ff0000000000000 ct=40f75c16189374bc abo=3fd699849f2344ed pbo=4000000000000000 adr=3fd199ac9e302669 co=199 tx=99 ar=3309 ev=0 ex=0 rj=0 ip=82 tl=0 pb=990000000 cb=55056 et=40f75c16189374bc sb=2112 fp=0 sk=0 st=0 al=0 cw=0 cd=0
\
     trace l20 r1: tb=20 dv=19 dr=3fee666666666666 ct=none abo=3fd2eeac1a1d060f pbo=4000000000000000 adr=3fe9186759fab68d co=695 tx=122 ar=22361 ev=0 ex=0 rj=0 ip=112 tl=0 pb=1220000000 cb=365708 et=411ffe0800000000 sb=7932 fp=39 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l20 r0: tb=20 dv=19 dr=3fee666666666666 ct=none abo=3fd2bd5861fbe12e pbo=4000000000000000 adr=3febd74bac1a0773 co=6219 tx=139 ar=224875 ev=0 ex=0 rj=0 ip=129 tl=0 pb=1390000000 cb=3642652 et=41224f8000000000 sb=44652 fp=265 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l20 r1: tb=20 dv=19 dr=3fee666666666666 ct=none abo=3fd27ad8b6c1343b pbo=4000000000000000 adr=3feb5b4faf9d8b2f co=5898 tx=142 ar=210383 ev=0 ex=0 rj=0 ip=132 tl=0 pb=1420000000 cb=3407408 et=41224f8000000000 sb=41280 fp=270 sk=0 st=0 al=0 cw=0 cd=0
\
     interval400 l20 r0: tb=20 dv=17 dr=3feb333333333333 ct=none abo=3fe27c0336feb46e pbo=4000000000000000 adr=3fe29aa9e9142cf2 co=200 tx=573 ar=2983 ev=299 ex=0 rj=0 ip=220 tl=0 pb=5730000000 cb=52528 et=40b8802fdf3b645a sb=4800 fp=62 sk=0 st=0 al=0 cw=0 cd=0
\
     interval400 l20 r1: tb=20 dv=19 dr=3fee666666666666 ct=none abo=3fdba3c8fc121a90 pbo=4000000000000000 adr=3fe735a9085af25a co=200 tx=366 ar=4479 ev=102 ex=0 rj=0 ip=246 tl=0 pb=3660000000 cb=76440 et=40b94a9020c49ba6 sb=4776 fp=39 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l130 r0: tb=130 dv=118 dr=3fed0bd0bd0bd0bd ct=none abo=3ffe70b7886477e1 pbo=402a000000000000 adr=3fe09e6cff9e7ae4 co=6219 tx=1812 ar=1122456 ev=1061 ex=0 rj=0 ip=651 tl=0 pb=18120000000 cb=18165840 et=41224f8000000000 sb=206544 fp=1971 sk=0 st=0 al=0 cw=0 cd=0
\
     rwp l130 r1: tb=130 dv=119 dr=3fed4ad4ad4ad4ad ct=none abo=3ffe792b05e406c3 pbo=402a000000000000 adr=3fe2261bcd3b713a co=5898 tx=1593 ar=1093155 ev=903 ex=0 rj=0 ip=590 tl=0 pb=15930000000 cb=17691642 et=41224f8000000000 sb=201162 fp=2144 sk=0 st=0 al=0 cw=0 cd=0
";
