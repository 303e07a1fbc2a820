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
use dtn_experiments::{run_point_checked_cached, Mobility, SweepConfig, TraceCache};
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

/// Regenerator: prints the golden constants for all eight protocols.
#[test]
#[ignore = "regenerates the golden constants; run with --ignored --nocapture"]
fn print_goldens() {
    for p in protocols::all_protocols() {
        println!("// {}", p.name);
        print!("{}", protocol_fingerprint(&p));
        println!();
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
