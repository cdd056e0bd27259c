//! Q-many: 256 windowed queries rendered from four templates by the seed.
//!
//! The four templates have four event shapes and each is rendered at eight
//! window lengths, so the scheduler sees 32 compatibility groups of eight
//! members (four per tenant). Nine in ten queries are pinned to a host from
//! the Zipf tail and match well under 0.1% of events; every tenth watches
//! one of the four busiest hosts, in turn, and does most of the state work.
//! The seed chooses only the tail hosts, so the work is the same under every
//! seed.

use crate::gen::{SplitMix, HOSTS};

pub const TENANTS: [&str; 2] = ["t0", "t1"];
const WINDOWS_S: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const VARIANTS: usize = 4;

/// `(tenant, name, SAQL text)` for all 256 queries, in registration order.
pub fn render(seed: u64) -> Vec<(&'static str, String, String)> {
    let mut rng = SplitMix(seed ^ 0x51A9_1E5E_ED00_0001);
    let mut out: Vec<(&'static str, String, String)> = Vec::with_capacity(256);
    for tenant in TENANTS {
        for template in 0..4 {
            for w in WINDOWS_S {
                for v in 0..VARIANTS {
                    let r = rng.next_u64();
                    let host = if out.len().is_multiple_of(10) {
                        (out.len() as u64 / 10) % 4
                    } else {
                        50 + r % (HOSTS as u64 - 50)
                    };
                    // which hundred of the file pool template d reads: by
                    // variant, because the low hundreds are far busier
                    let digit = v;
                    let head = format!("agentid = \"host-{host:03}\"\n");
                    let (letter, body) = match template {
                        0 => (
                            'a',
                            format!(
                                "proc p write file f as evt #time({w} s)\n\
                                 state ss {{ amt := sum(evt.amount) }} group by p\n\
                                 alert ss.amt > {}\nreturn p, ss.amt\n",
                                500_000 * w
                            ),
                        ),
                        1 => (
                            'b',
                            format!(
                                "proc p read ip i as evt #time({w} s)\n\
                                 state ss {{ n := count() }} group by i.dstip\n\
                                 alert ss.n > {}\nreturn i.dstip, ss.n\n",
                                60 * w
                            ),
                        ),
                        2 => (
                            'c',
                            format!(
                                "proc p start proc c as evt #time({w} s)\n\
                                 state ss {{ kids := distinct_count(c.exe_name) }} group by p\n\
                                 alert ss.kids > 12\nreturn p, ss.kids\n"
                            ),
                        ),
                        _ => (
                            'd',
                            format!(
                                "proc p read file f[\"%f-0{digit}%\"] as evt #time({w} s)\n\
                                 state ss {{ amt := sum(evt.amount) }} group by p\n\
                                 alert ss.amt > {}\nreturn p, ss.amt\n",
                                200_000 * w
                            ),
                        ),
                    };
                    out.push((tenant, format!("{letter}-w{w}-v{v}"), head + &body));
                }
            }
        }
    }
    out
}
