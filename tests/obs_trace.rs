//! Observability suite: the JSON-lines trace and the metric registry
//! (`twoview_runtime::obs`) exercised through real engine fits.
//!
//! Properties proved here:
//!
//! * **schema** — every trace line parses as JSON, ids are unique,
//!   every non-root parent references a recorded span, spans carry
//!   `dur_us` and events do not;
//! * **determinism** — one worker thread and one executor produce the
//!   same span tree (names, kinds, parent structure, non-timing
//!   fields) on repeated runs, modulo timestamps and raw ids;
//! * **bit-identical models** — tracing on vs off never changes a fit;
//! * **one source of truth** — after a chaos storm, `EngineStats`, the
//!   registry snapshot deltas, and the trace's degradation, rejection,
//!   expiry and enqueue event counts all agree exactly;
//! * **snapshot spans** — a cold build with a snapshot directory saves
//!   under `persist.save` and a warm build loads under `persist.load`;
//! * **one empty-model state per engine** — neither a cold nor a
//!   snapshot-warm build emits `engine.empty.build`, and a mix of every
//!   fit kind and a score emits exactly one.
//!
//! The trace sink and fault registry are process-global, so every test
//! serialises on one mutex, uses snapshot *deltas* (the registry is
//! never reset), and uninstalls the sink before returning.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

mod chaos_storm;

use chaos_storm::JOIN_BOUND;
use twoview::data::synthetic::{self, StructureSpec, SyntheticSpec};
use twoview::prelude::*;
use twoview::runtime::faults;
use twoview::runtime::obs;

static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn lock_obs() -> std::sync::MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn corpus(n: usize, seed: u64) -> TwoViewDataset {
    let spec = SyntheticSpec {
        name: format!("obs-trace-{seed}"),
        n_transactions: n,
        n_left: 12,
        n_right: 10,
        density_left: 0.3,
        density_right: 0.3,
        structure: StructureSpec::strong(3),
        seed,
    };
    synthetic::generate(&spec).expect("valid spec").dataset
}

/// A `Write` sink backed by shared memory, so tests can read back what
/// the per-thread trace buffers drained.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn new() -> Self {
        SharedBuf(Arc::new(Mutex::new(Vec::new())))
    }

    fn contents(&self) -> String {
        let bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8(bytes.clone()).expect("trace output is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// A minimal JSON parser — enough to *strictly* validate trace lines
// without pulling in a dependency.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek().ok_or("unexpected end")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            let val = self.value()?;
            if map.insert(key, val).is_some() {
                return Err("duplicate key".into());
            }
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek().ok_or("bad escape")? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.i += 4;
                        }
                        c => return Err(format!("bad escape \\{}", c as char)),
                    }
                    self.i += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (trace output is UTF-8).
                    let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unexpected end")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }
}

/// One parsed trace record with the required envelope extracted.
struct Record {
    kind: String,
    id: u64,
    parent: u64,
    thread: u64,
    name: String,
    dur_us: Option<u64>,
    fields: BTreeMap<String, Json>,
}

fn parse_trace(text: &str) -> Vec<Record> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let Json::Obj(map) = Parser::parse(line).unwrap_or_else(|e| {
                panic!("trace line is not valid JSON ({e}): {line}");
            }) else {
                panic!("trace line is not an object: {line}");
            };
            let get_u64 = |key: &str| -> u64 {
                match map.get(key) {
                    Some(Json::Num(n)) => *n as u64,
                    other => panic!("{key} missing or non-numeric ({other:?}): {line}"),
                }
            };
            let get_str = |key: &str| -> String {
                match map.get(key) {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("{key} missing or non-string ({other:?}): {line}"),
                }
            };
            assert!(
                map.contains_key("start_us"),
                "record lacks start_us: {line}"
            );
            let fields = match map.get("fields") {
                Some(Json::Obj(f)) => f.clone(),
                None => BTreeMap::new(),
                other => panic!("fields is not an object ({other:?}): {line}"),
            };
            Record {
                kind: get_str("kind"),
                id: get_u64("id"),
                parent: get_u64("parent"),
                thread: get_u64("thread"),
                name: get_str("name"),
                dur_us: match map.get("dur_us") {
                    Some(Json::Num(n)) => Some(*n as u64),
                    None => None,
                    other => panic!("dur_us non-numeric ({other:?}): {line}"),
                },
                fields,
            }
        })
        .collect()
}

fn count_events(records: &[Record], name: &str) -> u64 {
    records
        .iter()
        .filter(|r| r.kind == "event" && r.name == name)
        .count() as u64
}

/// Runs one traced SELECT fit and returns the captured trace text.
fn traced_select_fit(d: &TwoViewDataset, k: usize) -> (TranslatorModel, String) {
    let buf = SharedBuf::new();
    obs::trace_to_writer(Box::new(buf.clone()));
    let engine = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .build()
        .unwrap();
    let cfg = SelectConfig::builder().k(k).minsup(2).build();
    let model = engine
        .fit(Algorithm::Select(cfg))
        .join_timeout(JOIN_BOUND)
        .expect("fit resolves")
        .expect("fit succeeds");
    drop(engine);
    obs::trace_off();
    (model, buf.contents())
}

/// Schema: every line parses, ids are unique, parents reference
/// recorded spans, spans (and only spans) carry `dur_us`, and the
/// lifecycle names we instrument all show up.
#[test]
fn trace_schema_parses_nests_and_has_unique_ids() {
    let _guard = lock_obs();
    faults::clear();
    let d = corpus(200, 11);

    let buf = SharedBuf::new();
    obs::trace_to_writer(Box::new(buf.clone()));
    let engine = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .build()
        .unwrap();
    let select_cfg = SelectConfig::builder().k(2).minsup(2).build();
    let greedy_cfg = GreedyConfig::builder().minsup(2).build();
    let h1 = engine.fit(Algorithm::Select(select_cfg));
    let h2 = engine.fit(Algorithm::Greedy(greedy_cfg));
    h1.join_timeout(JOIN_BOUND).unwrap().unwrap();
    h2.join_timeout(JOIN_BOUND).unwrap().unwrap();
    drop(engine);
    obs::trace_off();

    let records = parse_trace(&buf.contents());
    assert!(
        records.len() >= 8,
        "expected a build + two fits worth of records, got {}",
        records.len()
    );

    let mut seen_ids = std::collections::BTreeSet::new();
    let mut span_ids = std::collections::BTreeSet::new();
    for r in &records {
        assert!(
            r.kind == "span" || r.kind == "event",
            "unknown kind {:?}",
            r.kind
        );
        assert!(!r.name.is_empty(), "empty record name");
        assert!(r.thread >= 1, "thread ids start at 1");
        assert!(seen_ids.insert(r.id), "duplicate record id {}", r.id);
        match r.kind.as_str() {
            "span" => {
                assert!(r.dur_us.is_some(), "span {} lacks dur_us", r.name);
                span_ids.insert(r.id);
            }
            _ => assert!(r.dur_us.is_none(), "event {} carries dur_us", r.name),
        }
    }
    for r in &records {
        if r.parent != 0 {
            assert!(
                span_ids.contains(&r.parent),
                "{} {} has dangling parent {}",
                r.kind,
                r.name,
                r.parent
            );
        }
    }

    // Nesting: solver spans must sit under the job span, on its thread.
    let by_id: BTreeMap<u64, &Record> = records.iter().map(|r| (r.id, r)).collect();
    for r in &records {
        if r.name == "select.run" || r.name == "greedy.run" {
            let job = by_id
                .get(&r.parent)
                .unwrap_or_else(|| panic!("{} has no parent span", r.name));
            assert_eq!(job.name, "job.run", "{} must nest under job.run", r.name);
            assert_eq!(job.thread, r.thread, "child crossed threads");
        }
    }

    for expected in [
        "engine.build.mine",
        "engine.cache.warm",
        "mine.closed",
        "job.run",
        "select.run",
        "greedy.run",
    ] {
        assert!(
            records
                .iter()
                .any(|r| r.kind == "span" && r.name == expected),
            "missing span {expected}"
        );
    }
    assert!(
        count_events(&records, "job.enqueue") >= 2,
        "both fits must record an enqueue event"
    );
}

/// The `nets_computed` and `nets_reused` fields of every `greedy.run`
/// span in `records`.
fn greedy_nets(records: &[Record]) -> Vec<(u64, u64)> {
    let field = |r: &Record, key: &str| match r.fields.get(key) {
        Some(Json::Num(n)) => *n as u64,
        other => panic!("greedy.run lacks {key} ({other:?})"),
    };
    records
        .iter()
        .filter(|r| r.kind == "span" && r.name == "greedy.run")
        .map(|r| (field(r, "nets_computed"), field(r, "nets_reused")))
        .collect()
}

/// GREEDY's column-net memo reports its work per fit: every net of every
/// candidate it evaluates (`qub > 0`) is either computed or reused, the
/// split is the same whether the free function or the `Engine` (with its
/// shared seed tidsets) runs the fit, and the thread count moves neither.
#[test]
fn greedy_run_reports_computed_and_reused_nets() {
    let _guard = lock_obs();
    faults::clear();
    let d = corpus(300, 17);
    let cfg = |threads| GreedyConfig::builder().minsup(2).threads(threads).build();

    let traced = |fit: &dyn Fn() -> TranslatorModel| {
        let buf = SharedBuf::new();
        obs::trace_to_writer(Box::new(buf.clone()));
        let before = obs::snapshot();
        let model = fit();
        let after = obs::snapshot();
        obs::trace_off();
        let nets = greedy_nets(&parse_trace(&buf.contents()));
        assert_eq!(nets.len(), 1, "one greedy.run span per fit");
        let counted = |name: &str| after.counter(name) - before.counter(name);
        assert_eq!(
            (
                counted("greedy.nets_computed"),
                counted("greedy.nets_reused")
            ),
            nets[0],
            "the registry counters and the span fields agree"
        );
        (model, nets[0])
    };

    let (free, (computed, reused)) = traced(&|| translator_greedy(&d, &cfg(2)));
    let codes = CodeLengths::new(&d);
    let mined = mine_closed_twoview(&d, &MinerConfig::builder().minsup(2).build());
    let evaluated: u64 = mined
        .candidates
        .iter()
        .filter(|c| twoview::core::bounds::qub(&codes, &d, &c.left, &c.right) > 0.0)
        .map(|c| c.len() as u64)
        .sum();
    assert_eq!(computed + reused, evaluated, "one net per evaluated item");
    assert!(
        computed > 0 && reused > 0,
        "{computed} computed, {reused} reused"
    );

    let (one_thread, nets) = traced(&|| translator_greedy(&d, &cfg(1)));
    assert_eq!(nets, (computed, reused), "1 thread against 2");
    assert_eq!(one_thread.table, free.table);

    let engine = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .build()
        .unwrap();
    let (served, nets) = traced(&|| {
        engine
            .fit(Algorithm::Greedy(cfg(2)))
            .join_timeout(JOIN_BOUND)
            .expect("fit resolves")
            .expect("fit succeeds")
    });
    drop(engine);
    assert_eq!(nets, (computed, reused), "Engine against free function");
    assert_eq!(served.table, free.table);
    assert_eq!(served.score.l_total.to_bits(), free.score.l_total.to_bits());
}

/// Determinism: one worker thread + one executor ⇒ the same span tree
/// (kinds, names, parent structure, non-timing fields) every run, once
/// raw ids and thread ids are normalised by first appearance.
#[test]
fn span_tree_deterministic_with_one_thread() {
    let _guard = lock_obs();
    faults::clear();
    let d = corpus(150, 11);

    // Wall-clock-dependent fields are excluded from the comparison;
    // everything else (counts, flags, lanes) must be stable.
    const TIMING_FIELDS: &[&str] = &["queue_wait_us"];

    // (kind, name, normalised parent, normalised thread, stable fields).
    type Shape = (String, String, u64, u64, Vec<(String, Json)>);

    let shape = |_run: usize| -> Vec<Shape> {
        let buf = SharedBuf::new();
        obs::trace_to_writer(Box::new(buf.clone()));
        let engine = Engine::builder()
            .dataset(d.clone())
            .minsup(2)
            .threads(1)
            .job_executors(1)
            .build()
            .unwrap();
        let cfg = SelectConfig::builder().k(1).minsup(2).build();
        engine
            .fit(Algorithm::Select(cfg))
            .join_timeout(JOIN_BOUND)
            .unwrap()
            .unwrap();
        drop(engine);
        obs::trace_off();

        let records = parse_trace(&buf.contents());
        let mut id_norm = BTreeMap::new();
        let mut thread_norm = BTreeMap::new();
        records
            .iter()
            .map(|r| {
                let next_id = id_norm.len() as u64 + 1;
                let id = *id_norm.entry(r.id).or_insert(next_id);
                debug_assert!(id <= next_id);
                let next_thread = thread_norm.len() as u64 + 1;
                let thread = *thread_norm.entry(r.thread).or_insert(next_thread);
                let parent = id_norm.get(&r.parent).copied().unwrap_or(0);
                let fields: Vec<(String, Json)> = r
                    .fields
                    .iter()
                    .filter(|(k, _)| !TIMING_FIELDS.contains(&k.as_str()))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                (r.kind.clone(), r.name.clone(), parent, thread, fields)
            })
            .collect()
    };

    let first = shape(0);
    let second = shape(1);
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "single-threaded span tree must be identical modulo timestamps"
    );
}

/// The observer effect, bounded at zero: tracing on vs off yields
/// bit-identical models.
#[test]
fn models_bit_identical_with_tracing_on_and_off() {
    let _guard = lock_obs();
    faults::clear();
    let d = corpus(250, 13);

    obs::trace_off();
    let engine = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .build()
        .unwrap();
    let cfg = SelectConfig::builder().k(2).minsup(2).build();
    let plain = engine
        .fit(Algorithm::Select(cfg))
        .join_timeout(JOIN_BOUND)
        .unwrap()
        .unwrap();
    drop(engine);

    let (traced, trace) = traced_select_fit(&d, 2);
    assert!(!trace.is_empty(), "tracing was on; the sink must see data");
    assert_eq!(plain.table, traced.table, "tracing must not perturb fits");
    assert_eq!(
        plain.score.l_total.to_bits(),
        traced.score.l_total.to_bits(),
        "scores must match to the bit"
    );
}

/// One source of truth, proved three ways: after the `chaos_storm`
/// storm the `EngineStats` view, the registry snapshot delta, and the
/// trace's event counts agree exactly on degradations, rejections,
/// expiries and submissions, and the trace's `job.run` spans report
/// every contained panic.
#[test]
fn chaos_storm_trace_and_registry_and_stats_agree() {
    let _guard = lock_obs();
    faults::clear();
    let d = corpus(300, 11);

    let buf = SharedBuf::new();
    obs::trace_to_writer(Box::new(buf.clone()));
    let before = obs::snapshot();
    let (engine, tally) = chaos_storm::run(&d, chaos_storm::chaos_seed());
    let stats = engine.stats();
    tally.check(&stats);

    // View 1 vs view 2: EngineStats is a view over the same registry
    // cells the snapshot reads — the two must agree exactly.
    chaos_storm::check_registry(&before, &obs::snapshot(), &stats);

    // View 3: the trace. Dropping the engine joins its executors, which
    // drain their buffers on exit, so the sink then holds every event.
    drop(engine);
    obs::trace_off();
    let records = parse_trace(&buf.contents());
    for (event, counter) in [
        ("engine.degraded", stats.fits_degraded),
        ("job.reject", stats.jobs_rejected),
        ("job.timeout", stats.jobs_timed_out),
        ("job.enqueue", stats.jobs_submitted + tally.custom_jobs),
    ] {
        assert_eq!(
            count_events(&records, event),
            counter,
            "trace {event} events must match the counter"
        );
    }
    let panicked_runs = records
        .iter()
        .filter(|r| {
            r.name == "job.run" && r.fields.get("outcome") == Some(&Json::Str("panicked".into()))
        })
        .count() as u64;
    assert_eq!(panicked_runs, tally.panicked);
}

/// Snapshot I/O has its own spans: a cold build with a snapshot
/// directory saves under one `persist.save`, a warm build loads under one
/// `persist.load`, and both report the file's `bytes` and its
/// `seed_tidsets`.
#[test]
fn snapshot_save_and_load_emit_persist_spans() {
    let _guard = lock_obs();
    faults::clear();
    let d = corpus(200, 19);
    let dir = std::env::temp_dir().join(format!("twoview-obs-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let traced_build = || {
        let buf = SharedBuf::new();
        obs::trace_to_writer(Box::new(buf.clone()));
        let engine = Engine::builder()
            .dataset(d.clone())
            .minsup(2)
            .snapshot_dir(&dir)
            .build()
            .unwrap();
        let loaded = engine.stats().snapshots_loaded;
        drop(engine);
        obs::trace_off();
        (loaded, parse_trace(&buf.contents()))
    };
    let spans = |records: &[Record], name: &str| -> Vec<(u64, u64)> {
        let field = |r: &Record, key: &str| match r.fields.get(key) {
            Some(Json::Num(n)) => *n as u64,
            other => panic!("{name} lacks {key} ({other:?})"),
        };
        records
            .iter()
            .filter(|r| r.kind == "span" && r.name == name)
            .map(|r| (field(r, "bytes"), field(r, "seed_tidsets")))
            .collect()
    };

    let (loaded, cold) = traced_build();
    assert_eq!(loaded, 0, "the first build is cold");
    let file = dir.join(twoview::core::persist::ENGINE_SNAPSHOT_FILE);
    let file_bytes = std::fs::metadata(&file).unwrap().len();
    let saves = spans(&cold, "persist.save");
    assert_eq!(saves.len(), 1, "one save per cold build");
    assert_eq!(saves[0].0, file_bytes);
    assert!(saves[0].1 > 0, "the warmed seed sets are saved");
    assert!(spans(&cold, "persist.load").is_empty());

    let (loaded, warm) = traced_build();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(loaded, 1, "the second build is warm");
    assert_eq!(spans(&warm, "persist.load"), saves, "what was saved loads");
    assert!(spans(&warm, "persist.save").is_empty());
}

/// The empty model's state is data-only work the engine does once, in its
/// first job and never while it starts: a cold and a snapshot-warm
/// `Engine::build` each emit no `engine.empty.build` span, and each
/// engine emits exactly one across SELECT(1) at the base minsup,
/// SELECT(25) and GREEDY at twice the base, capped EXACT and `evaluate`,
/// submitted together.
#[test]
fn empty_state_is_built_once_per_engine_by_its_first_job() {
    let _guard = lock_obs();
    faults::clear();
    let d = corpus(300, 23);
    let base = 2;
    let dir = std::env::temp_dir().join(format!("twoview-obs-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let empty_spans = |buf: &SharedBuf| {
        parse_trace(&buf.contents())
            .iter()
            .filter(|r| r.kind == "span" && r.name == "engine.empty.build")
            .count()
    };
    for start in ["cold", "warm"] {
        let buf = SharedBuf::new();
        obs::trace_to_writer(Box::new(buf.clone()));
        let engine = Engine::builder()
            .dataset(d.clone())
            .minsup(base)
            .snapshot_dir(&dir)
            .build()
            .unwrap();
        obs::flush_trace();
        assert_eq!(
            engine.stats().snapshots_loaded,
            u64::from(start == "warm"),
            "{start} start"
        );
        assert_eq!(
            empty_spans(&buf),
            0,
            "{start} build emitted the empty state"
        );

        let fits = [
            Algorithm::Select(SelectConfig::builder().k(1).minsup(base).build()),
            Algorithm::Select(SelectConfig::builder().k(25).minsup(2 * base).build()),
            Algorithm::Greedy(GreedyConfig::builder().minsup(2 * base).build()),
            Algorithm::Exact(
                ExactConfig::builder()
                    .max_nodes(5_000)
                    .max_rules(2)
                    .seed_minsup(Some(base))
                    .build(),
            ),
        ];
        let handles: Vec<_> = fits.into_iter().map(|a| engine.fit(a)).collect();
        let score = engine.evaluate(TranslationTable::new());
        for handle in handles {
            handle
                .join_timeout(JOIN_BOUND)
                .expect("fit resolves")
                .expect("fit succeeds");
        }
        score
            .join_timeout(JOIN_BOUND)
            .expect("score resolves")
            .expect("score succeeds");
        // Dropping the engine joins its executors, which drain their
        // buffers, so the sink then holds every job's spans.
        drop(engine);
        obs::trace_off();
        assert_eq!(empty_spans(&buf), 1, "{start} engine's jobs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
