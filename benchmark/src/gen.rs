//! The seeded load generator and its oracle.
//!
//! Events are rendered straight to JSONL in the public `saql_model::json`
//! schema from per-entity string templates; only `id`, `ts_ms`, `amount`,
//! ports and child pids are formatted per event, so generation stays a small
//! share of one core at every rate the workloads use.
//!
//! The stream is a pure function of the seed: event `i` (0-based) has
//! `id = i + 1` and `ts_ms = T0_MS + i / EVENTS_PER_MS`, injected events
//! included, so the first event at or after a trace time is computed, not
//! looked up. Background traffic never matches a rule query; every injected
//! attack carries its own pids, file names and attacker address so it joins
//! with nothing but itself, which makes the expected match-alert set exact.

use std::collections::BTreeMap;

/// Trace rate: events per trace-millisecond (25k per trace-second).
pub const EVENTS_PER_MS: u64 = 25;
/// Events per trace-second.
pub const EVENTS_PER_SEC: u64 = EVENTS_PER_MS * 1000;
/// Trace epoch; a multiple of every window length the queries use.
pub const T0_MS: u64 = 1_000_000;
pub const HOSTS: usize = 200;
pub const EXES: usize = 64;
const USERS: usize = 8;
const FILES: usize = 2048;
const DST_IPS: usize = 4096;
/// Complete attack sequences injected per trace-second, a third of each shape.
pub const ATTACKS_PER_SEC: u64 = 120;

/// Rule queries of Q-family, by attack shape (`attack number % 3`).
pub const RULE_QUERIES: [&str; 3] = ["rule-1step", "rule-2step", "rule-4step"];

/// `ts_ms` of the event at 0-based stream index `i`.
pub fn ts_of_index(i: u64) -> u64 {
    T0_MS + i / EVENTS_PER_MS
}

/// Index of the first event whose `ts_ms` is at least `ts_ms`.
pub fn first_index_at(ts_ms: u64) -> u64 {
    ts_ms.saturating_sub(T0_MS) * EVENTS_PER_MS
}

/// One match alert the program must raise: the rule query and the ids of the
/// contributing events in pattern order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExpectedMatch {
    pub query: &'static str,
    pub event_ids: Vec<u64>,
}

/// splitmix64: seeds the stream generator and renders Q-many.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Inverse-CDF lookup table for a Zipf(`s`) choice among `n` items:
/// `table[r & 0xFFFF]` is the item for 16 random bits `r`.
fn zipf_table(n: usize, s: f64) -> Vec<u16> {
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut table = Vec::with_capacity(1 << 16);
    let mut cum = 0.0;
    for (k, w) in weights.iter().enumerate() {
        cum += w / total;
        let upto = if k + 1 == n {
            1 << 16
        } else {
            (cum * 65536.0).round() as usize
        };
        while table.len() < upto {
            table.push(k as u16);
        }
    }
    table
}

fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

/// An injected event waiting for its stream position.
struct Injected {
    host: usize,
    /// `{"pid":..,"exe":..,"user":..}` of the subject.
    subject: String,
    op: &'static str,
    /// The rendered `object` value.
    object: String,
    amount: u64,
    /// `(attack number, step, steps)` when the event belongs to an attack.
    attack: Option<(u64, usize, usize)>,
}

struct Attack {
    number: u64,
    ids: Vec<u64>,
}

/// The deterministic event stream for one seed.
pub struct Generator {
    rng: u64,
    index: u64,
    host_zipf: Vec<u16>,
    exe_zipf: Vec<u16>,
    file_zipf: Vec<u16>,
    ip_zipf: Vec<u16>,
    /// `,"host":"host-017","ts_ms":` per host.
    host_seg: Vec<String>,
    /// `,"subject":{..},"op":"` per (host, exe).
    subject_seg: Vec<String>,
    /// `","object":{"kind":"process","pid":` … `,"exe":..,"user":..},"amount":0}` halves per exe.
    child_seg: Vec<String>,
    /// `","object":{"kind":"file","name":..},"amount":` per file.
    file_seg: Vec<String>,
    /// `","object":{"kind":"network","src_ip":..,"src_port":` per host.
    src_seg: Vec<String>,
    /// `,"dst_ip":..,"dst_port":` per destination.
    dst_seg: Vec<String>,
    /// Injected events by `(target index, scheduling order)`.
    pending: BTreeMap<(u64, u64), Injected>,
    pending_seq: u64,
    next_attack: u64,
    open_attacks: Vec<Attack>,
    matches: Vec<ExpectedMatch>,
}

fn host_name(h: usize) -> String {
    format!("host-{h:03}")
}

fn host_ip(h: usize) -> String {
    format!("10.0.{}.{}", h / 250, h % 250 + 1)
}

fn subject_json(pid: u64, exe: &str, user: &str) -> String {
    format!("{{\"pid\":{pid},\"exe\":\"{exe}\",\"user\":\"{user}\"}}")
}

fn net_object(src_ip: &str, src_port: u64, dst_ip: &str, dst_port: u64) -> String {
    format!(
        "{{\"kind\":\"network\",\"src_ip\":\"{src_ip}\",\"src_port\":{src_port},\
         \"dst_ip\":\"{dst_ip}\",\"dst_port\":{dst_port},\"protocol\":\"tcp\"}}"
    )
}

fn file_object(name: &str) -> String {
    format!("{{\"kind\":\"file\",\"name\":\"{name}\"}}")
}

fn proc_object(pid: u64, exe: &str, user: &str) -> String {
    format!("{{\"kind\":\"process\",\"pid\":{pid},\"exe\":\"{exe}\",\"user\":\"{user}\"}}")
}

/// The attacker address of attack `k`: unique for the first 62,500 attacks.
fn attacker_ip(k: u64) -> String {
    format!("172.16.{}.{}", (k / 250) % 250, k % 250 + 1)
}

impl Generator {
    pub fn new(seed: u64) -> Generator {
        let mut sm = SplitMix(seed);
        let rng = sm.next_u64() | 1;
        let users: Vec<String> = (0..USERS).map(|u| format!("u{u}")).collect();
        let exes: Vec<String> = (0..EXES).map(|e| format!("bg-{e:02}.exe")).collect();
        let mut subject_seg = Vec::with_capacity(HOSTS * EXES);
        for h in 0..HOSTS {
            for (e, exe) in exes.iter().enumerate() {
                let pid = 1000 + h * EXES + e;
                let user = &users[(h + e) % USERS];
                subject_seg.push(format!(
                    ",\"subject\":{},\"op\":\"",
                    subject_json(pid as u64, exe, user)
                ));
            }
        }
        Generator {
            rng,
            index: 0,
            host_zipf: zipf_table(HOSTS, 1.0),
            exe_zipf: zipf_table(EXES, 1.0),
            file_zipf: zipf_table(FILES, 1.0),
            ip_zipf: zipf_table(DST_IPS, 0.9),
            host_seg: (0..HOSTS)
                .map(|h| format!(",\"host\":\"{}\",\"ts_ms\":", host_name(h)))
                .collect(),
            subject_seg,
            child_seg: exes
                .iter()
                .enumerate()
                .map(|(e, exe)| {
                    format!(
                        ",\"exe\":\"{exe}\",\"user\":\"{}\"}},\"amount\":0}}\n",
                        users[e % USERS]
                    )
                })
                .collect(),
            file_seg: (0..FILES)
                .map(|f| {
                    format!(
                        "\",\"object\":{},\"amount\":",
                        file_object(&format!("/srv/data/f-{f:04}.dat"))
                    )
                })
                .collect(),
            src_seg: (0..HOSTS)
                .map(|h| {
                    format!(
                        "\",\"object\":{{\"kind\":\"network\",\"src_ip\":\"{}\",\"src_port\":",
                        host_ip(h)
                    )
                })
                .collect(),
            dst_seg: (0..DST_IPS)
                .map(|d| {
                    format!(
                        ",\"dst_ip\":\"10.{}.{}.{}\",\"dst_port\":",
                        1 + d / 62500,
                        (d / 250) % 250,
                        d % 250 + 1
                    )
                })
                .collect(),
            pending: BTreeMap::new(),
            pending_seq: 0,
            next_attack: 0,
            open_attacks: Vec::new(),
            matches: Vec::new(),
        }
    }

    /// Events generated so far (the index of the next event).
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The match alerts of every attack completed so far, in completion
    /// order: exactly what the rule queries must raise on the prefix.
    pub fn matches(&self) -> &[ExpectedMatch] {
        &self.matches
    }

    fn rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn schedule(&mut self, at: u64, event: Injected) {
        self.pending.insert((at, self.pending_seq), event);
        self.pending_seq += 1;
    }

    /// Append the next `n` events to `out`, one JSON line each.
    pub fn fill(&mut self, n: usize, out: &mut Vec<u8>) {
        for _ in 0..n {
            let i = self.index;
            if i.is_multiple_of(EVENTS_PER_SEC) {
                self.schedule_episodes(i);
            }
            while self.next_attack * EVENTS_PER_SEC / ATTACKS_PER_SEC <= i {
                self.schedule_attack(i);
            }
            match self.pending.first_key_value() {
                Some((&(at, _), _)) if at <= i => {
                    let (_, event) = self.pending.pop_first().expect("peeked entry");
                    self.emit_injected(i, event, out);
                }
                _ => self.emit_background(i, out),
            }
            self.index += 1;
        }
    }

    fn line_head(&self, i: u64, host: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"id\":");
        push_u64(out, i + 1);
        out.extend_from_slice(self.host_seg[host].as_bytes());
        push_u64(out, ts_of_index(i));
    }

    fn emit_background(&mut self, i: u64, out: &mut Vec<u8>) {
        let r = self.rand();
        let host = self.host_zipf[(r & 0xFFFF) as usize] as usize;
        let exe = self.exe_zipf[((r >> 16) & 0xFFFF) as usize] as usize;
        let pick = ((r >> 32) & 0xFFFF) as usize;
        let kind = (r >> 48) % 100;
        let write = (r >> 63) == 1;
        let r2 = self.rand();
        self.line_head(i, host, out);
        out.extend_from_slice(self.subject_seg[host * EXES + exe].as_bytes());
        if kind < 5 {
            // process start: the child is another background executable
            let child = self.exe_zipf[pick] as usize;
            out.extend_from_slice(b"start\",\"object\":{\"kind\":\"process\",\"pid\":");
            push_u64(out, 100_000 + (r2 & 0xFFFF));
            out.extend_from_slice(self.child_seg[child].as_bytes());
            return;
        }
        out.extend_from_slice(if write { b"write" } else { b"read" });
        if kind < 60 {
            out.extend_from_slice(self.file_seg[self.file_zipf[pick] as usize].as_bytes());
        } else {
            out.extend_from_slice(self.src_seg[host].as_bytes());
            push_u64(out, 32_768 + ((r2 >> 16) & 0x3FFF));
            out.extend_from_slice(self.dst_seg[self.ip_zipf[pick] as usize].as_bytes());
            push_u64(out, if (r2 >> 32) & 1 == 0 { 443 } else { 8080 });
            out.extend_from_slice(b",\"protocol\":\"tcp\"},\"amount\":");
        }
        push_u64(out, 64 + (r2 & 0xFFF) % 4032);
        out.extend_from_slice(b"}\n");
    }

    fn emit_injected(&mut self, i: u64, event: Injected, out: &mut Vec<u8>) {
        self.line_head(i, event.host, out);
        out.extend_from_slice(b",\"subject\":");
        out.extend_from_slice(event.subject.as_bytes());
        out.extend_from_slice(b",\"op\":\"");
        out.extend_from_slice(event.op.as_bytes());
        out.extend_from_slice(b"\",\"object\":");
        out.extend_from_slice(event.object.as_bytes());
        out.extend_from_slice(b",\"amount\":");
        push_u64(out, event.amount);
        out.extend_from_slice(b"}\n");
        let Some((number, step, steps)) = event.attack else {
            return;
        };
        let at = match self.open_attacks.iter().position(|a| a.number == number) {
            Some(at) => at,
            None => {
                self.open_attacks.push(Attack {
                    number,
                    ids: Vec::with_capacity(steps),
                });
                self.open_attacks.len() - 1
            }
        };
        debug_assert_eq!(self.open_attacks[at].ids.len(), step);
        self.open_attacks[at].ids.push(i + 1);
        if step + 1 == steps {
            let done = self.open_attacks.swap_remove(at);
            self.matches.push(ExpectedMatch {
                query: RULE_QUERIES[(number % 3) as usize],
                event_ids: done.ids,
            });
        }
    }

    /// One attack sequence (shaped like demo c1 / c2 / c5), its steps 2–10
    /// trace-ms apart so event time orders them even across a 2-source merge.
    fn schedule_attack(&mut self, now: u64) {
        let k = self.next_attack;
        self.next_attack += 1;
        let r = self.rand();
        let host = self.host_zipf[(r & 0xFFFF) as usize] as usize;
        let user = format!("u{}", (r >> 16) % USERS as u64);
        let pid = 1_000_000 + 4 * k;
        let first = now + (r >> 24) % 200;
        let mut at = first;
        let mut gap = move |r: u64| {
            at += 100 + r % 400;
            at
        };
        let ip = attacker_ip(k);
        let net = |pid_port: u64| net_object(&host_ip(host), 40_000 + pid_port % 20_000, &ip, 443);
        let steps: Vec<(u64, String, &'static str, String, u64)> = match k % 3 {
            0 => vec![(
                first,
                subject_json(pid, "mailer.exe", &user),
                "write",
                file_object(&format!("/home/{user}/inv-{k}.xlsm")),
                4096,
            )],
            1 => vec![
                (
                    first,
                    subject_json(pid, "sheet.exe", &user),
                    "start",
                    proc_object(pid + 1, "script.exe", &user),
                    0,
                ),
                (
                    gap(self.rand()),
                    subject_json(pid + 1, "script.exe", &user),
                    "write",
                    net(k),
                    512,
                ),
            ],
            _ => {
                let dump = file_object(&format!("/tmp/dump-{k}.dmp"));
                vec![
                    (
                        first,
                        subject_json(pid, "shell.exe", &user),
                        "start",
                        proc_object(pid + 1, "dumper.exe", &user),
                        0,
                    ),
                    (
                        gap(self.rand()),
                        subject_json(pid + 1, "dumper.exe", &user),
                        "write",
                        dump.clone(),
                        1 << 20,
                    ),
                    (
                        gap(self.rand()),
                        subject_json(pid + 2, "courier.exe", &user),
                        "read",
                        dump,
                        1 << 20,
                    ),
                    (
                        gap(self.rand()),
                        subject_json(pid + 2, "courier.exe", &user),
                        "write",
                        net(k),
                        512,
                    ),
                ]
            }
        };
        let n = steps.len();
        for (step, (at, subject, op, object, amount)) in steps.into_iter().enumerate() {
            self.schedule(
                at,
                Injected {
                    host,
                    subject,
                    op,
                    object,
                    amount,
                    attack: Some((k, step, n)),
                },
            );
        }
    }

    /// The per-trace-second episodes that make every windowed Q-family query
    /// alert in every window: a rotating network burst (time-series), a
    /// never-trained child process (invariant), one outlying peer among
    /// twelve steady ones (outlier, and the one heavy group of the
    /// high-cardinality aggregation), and four uploading hosts (pipeline).
    fn schedule_episodes(&mut self, now: u64) {
        let w = now / EVENTS_PER_SEC;
        let mut slot = now + 500;
        let mut next_slot = || {
            slot += 250;
            slot
        };
        let plain =
            |host: usize, subject: String, op: &'static str, object: String, amount: u64| {
                Injected {
                    host,
                    subject,
                    op,
                    object,
                    amount,
                    attack: None,
                }
            };
        for k in 0..4u64 {
            let amount = if w % 4 == k { 60_000 } else { 200 };
            for j in 0..8 {
                let at = next_slot();
                self.schedule(
                    at,
                    plain(
                        0,
                        subject_json(50 + k, &format!("burst-{k}.exe"), "svc"),
                        "write",
                        net_object(&host_ip(0), 20_000 + j, "10.200.0.1", 443),
                        amount,
                    ),
                );
            }
        }
        let mut children = vec!["child-a.exe".to_string(), "child-b.exe".to_string()];
        if w >= 4 {
            children.push(format!("rogue-{}.exe", w % 7));
        }
        for (j, child) in children.iter().enumerate() {
            let at = next_slot();
            self.schedule(
                at,
                plain(
                    1,
                    subject_json(60, "launcher.exe", "svc"),
                    "start",
                    proc_object(61 + j as u64, child, "svc"),
                    0,
                ),
            );
        }
        let db = subject_json(70, "dbsrv.exe", "svc");
        for peer in 0..12u64 {
            for j in 0..2 {
                let jitter = self.rand() % 100;
                let at = next_slot();
                self.schedule(
                    at,
                    plain(
                        2,
                        db.clone(),
                        if j == 0 { "read" } else { "write" },
                        net_object(
                            &host_ip(2),
                            1433,
                            &format!("10.210.0.{}", peer + 1),
                            50_000 + peer,
                        ),
                        5000 + jitter,
                    ),
                );
            }
        }
        let outlier = format!("10.250.0.{}", (w / 2) % 200 + 1);
        for _ in 0..5 {
            let at = next_slot();
            self.schedule(
                at,
                plain(
                    2,
                    db.clone(),
                    "read",
                    net_object(&host_ip(2), 1433, &outlier, 443),
                    5_000_000,
                ),
            );
        }
        for u in 0..4 {
            let host = ((w * 4 + u) % HOSTS as u64) as usize;
            for j in 0..25 {
                let at = next_slot();
                self.schedule(
                    at,
                    plain(
                        host,
                        subject_json(80, "uploader.exe", "svc"),
                        "write",
                        net_object(&host_ip(host), 30_000 + j, "10.220.0.1", 443),
                        1000,
                    ),
                );
            }
        }
    }
}

/// The whole stream prefix of `n` events as JSONL plus its expected match
/// alerts (tests and the in-process ladder; the workloads stream instead).
pub fn generate(seed: u64, n: u64) -> (Vec<u8>, Vec<ExpectedMatch>) {
    let mut g = Generator::new(seed);
    let mut out = Vec::with_capacity(n as usize * 210);
    g.fill(n as usize, &mut out);
    (out, g.matches().to_vec())
}
