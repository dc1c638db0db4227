//! The `service` workload: the `dvicl batch`/`serve` request path, run in
//! process as a closed loop with one client and one request in flight.
//!
//! Each request is `graph6` parse → `Session::try_canonical_form`
//! (traces-like) → `Fingerprint::of_form` → index `lookup` or `insert`,
//! exactly the work of one protocol line. Every round starts from a
//! fresh `Session` and the same preloaded index, and replays the same
//! request stream, whose answers are known in advance (`Truth`).

use crate::gen::{self, relabel, Rng};
use crate::pass::{Passes, SetUps};
use crate::report::Report;
use crate::stats;
use crate::trace::{LayerAcc, Tracer};
use crate::{Opts, OP_DEADLINE};
use dvicl_canon::Config;
use dvicl_core::{Budget, DviclOptions, Session};
use dvicl_graph::{graph6, CanonForm, Fingerprint, Graph};
use dvicl_index::FingerprintIndex;

/// A request verb of the line protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// `lookup <GRAPH>`
    Lookup,
    /// `insert <GRAPH>`
    Insert,
}

/// A service answer, as the line protocol would print it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// `lookup: class=C members=M`
    Found { class: usize, members: u64 },
    /// `lookup: not-indexed`
    NotIndexed,
    /// `insert: class=C members=M fresh|known`
    Inserted {
        class: usize,
        members: u64,
        fresh: bool,
    },
    /// `error: ...`
    Error(String),
}

/// One request of the stream, with the answer it must get.
pub struct Request {
    /// The verb.
    pub verb: Verb,
    /// The query graph, relabeled, in graph6.
    pub g6: String,
    /// The ground-truth answer.
    pub expect: Answer,
}

/// Ground truth of the index state: the class each corpus member's first
/// insert got, and each class's member count. Corpus members are
/// pairwise non-isomorphic, so member ↔ class is one-to-one.
pub struct Truth {
    class_of: Vec<Option<usize>>,
    members: Vec<u64>,
}

impl Truth {
    /// Nothing indexed yet, for a corpus of `len` graphs.
    pub fn new(len: usize) -> Truth {
        Truth {
            class_of: vec![None; len],
            members: Vec::new(),
        }
    }

    /// The answer to inserting a relabeled copy of corpus member `m`,
    /// applied to the model.
    pub fn insert(&mut self, m: usize) -> Answer {
        match self.class_of[m] {
            Some(class) => {
                self.members[class] += 1;
                Answer::Inserted {
                    class,
                    members: self.members[class],
                    fresh: false,
                }
            }
            None => {
                let class = self.members.len();
                self.members.push(1);
                self.class_of[m] = Some(class);
                Answer::Inserted {
                    class,
                    members: 1,
                    fresh: true,
                }
            }
        }
    }

    /// The answer to looking up a relabeled copy of corpus member `m`, or
    /// of a graph isomorphic to no corpus member (`None`).
    pub fn lookup(&self, m: Option<usize>) -> Answer {
        match m.and_then(|m| self.class_of[m]) {
            Some(class) => Answer::Found {
                class,
                members: self.members[class],
            },
            None => Answer::NotIndexed,
        }
    }
}

/// Seeds the corpus; fixed, so the indexed graphs do not vary by seed.
const CORPUS_SEED: u64 = 0xD1C1;

/// Workload sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Corpus graphs.
    pub corpus: usize,
    /// Of which preloaded into the index before every round.
    pub preload: usize,
    /// Requests per round.
    pub requests: usize,
}

impl Sizes {
    /// The measured workload, or its `--smoke` shrink.
    pub fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                corpus: 200,
                preload: 150,
                requests: 1_200,
            }
        } else {
            Sizes {
                corpus: 2_000,
                preload: 1_500,
                requests: 12_000,
            }
        }
    }
}

/// The client side: corpus and request stream, with ground truth.
pub struct Plan {
    /// Pairwise non-isomorphic corpus graphs.
    pub corpus: Vec<Graph>,
    /// The request stream of every round.
    pub requests: Vec<Request>,
}

/// Makes the corpus and the request stream: 70% lookups of relabeled
/// indexed members, 20% inserts (a quarter of them try a member not yet
/// indexed), 10% lookups of odd-order graphs, which must miss.
///
/// The corpus, like the other workloads' item sets, is the same for every
/// seed; the seed draws the stream: which members are queried, their
/// relabelings, and the odd-order misses.
pub fn plan(seed: u64, sizes: Sizes) -> Plan {
    let corpus = gen::corpus(
        sizes.corpus,
        &mut Rng::stream(CORPUS_SEED, "service-corpus"),
    );
    let mut rng = Rng::stream(seed, "service");
    let mut truth = Truth::new(corpus.len());
    for m in 0..sizes.preload {
        truth.insert(m);
    }
    let mut indexed: Vec<usize> = (0..sizes.preload).collect();
    let mut held_out = sizes.preload..corpus.len();
    let mut requests = Vec::with_capacity(sizes.requests);
    for _ in 0..sizes.requests {
        let roll = rng.below(100);
        let (verb, g, expect) = if roll < 70 {
            let m = indexed[rng.below(indexed.len())];
            (
                Verb::Lookup,
                relabel(&corpus[m], &mut rng),
                truth.lookup(Some(m)),
            )
        } else if roll < 90 {
            let m = match (rng.below(4) == 0).then(|| held_out.next()).flatten() {
                Some(m) => {
                    indexed.push(m);
                    m
                }
                None => indexed[rng.below(indexed.len())],
            };
            (Verb::Insert, relabel(&corpus[m], &mut rng), truth.insert(m))
        } else {
            (Verb::Lookup, gen::odd_graph(&mut rng), truth.lookup(None))
        };
        requests.push(Request {
            verb,
            g6: graph6::to_graph6(&g),
            expect,
        });
    }
    Plan { corpus, requests }
}

fn session() -> Session {
    Session::new(DviclOptions {
        leaf_config: Config::traces_like(),
        ..DviclOptions::default()
    })
}

/// Answers one request through the service path, with a span around
/// each layer call.
fn respond(
    session: &mut Session,
    index: &mut FingerprintIndex,
    req: &Request,
    tracer: &mut Tracer,
    op: Option<u64>,
) -> Answer {
    let budget = Budget::with_deadline(OP_DEADLINE);
    let span = tracer.open("graph.parse", op);
    let parsed = graph6::from_graph6(&req.g6);
    tracer.close(span);
    let g = match parsed {
        Ok(g) => g,
        Err(e) => return Answer::Error(e.to_string()),
    };
    let span = tracer.open("core.build", op);
    let built = session.try_canonical_form(&g, &budget);
    tracer.close(span);
    let form = match built {
        Ok(form) => form,
        Err(e) => return Answer::Error(e.to_string()),
    };
    let span = tracer.open("graph.fingerprint", op);
    let fp = Fingerprint::of_form(&form);
    tracer.close(span);
    match req.verb {
        Verb::Lookup => {
            let span = tracer.open("index.lookup", op);
            let hit = index.lookup(fp, &form);
            tracer.close(span);
            match hit {
                Some(class) => Answer::Found {
                    class,
                    members: index.classes()[class].members,
                },
                None => Answer::NotIndexed,
            }
        }
        Verb::Insert => {
            let span = tracer.open("index.insert", op);
            let out = index.insert(fp, form, false);
            tracer.close(span);
            match out {
                Ok(o) => Answer::Inserted {
                    class: o.class,
                    members: o.members,
                    fresh: o.fresh,
                },
                Err(e) => Answer::Error(e.to_string()),
            }
        }
    }
}

/// Canonicalizes the preloaded members and checks that each opens its
/// own class, in order. Returns the `(fingerprint, form)` pairs every
/// round's index is rebuilt from.
fn preload(corpus: &[Graph], sizes: Sizes, report: &mut Report) -> Vec<(Fingerprint, CanonForm)> {
    let mut session = session();
    let mut index = FingerprintIndex::new();
    let mut pairs = Vec::with_capacity(sizes.preload);
    for (m, g) in corpus[..sizes.preload].iter().enumerate() {
        let keyed = session
            .try_canonical_form(g, &Budget::with_deadline(OP_DEADLINE))
            .map(|form| (Fingerprint::of_form(&form), form));
        let (fp, form) = match keyed {
            Ok(k) => k,
            Err(e) => {
                report.fail(format!("preloading member {m}: {e}"));
                continue;
            }
        };
        match index.insert(fp, form.clone(), false) {
            Ok(o) if o.fresh && o.class == m => {}
            other => report.fail(format!("preloading member {m} gave {other:?}")),
        }
        pairs.push((fp, form));
    }
    pairs
}

/// Runs the `service` workload.
pub fn run(opts: &Opts) -> Report {
    let sizes = Sizes::new(opts.smoke);
    let mut report = Report::new("service");
    let mut tracer = Tracer::new();
    tracer.set(opts.trace);
    let make = |tracer: &mut Tracer| {
        let span = tracer.open("data.generate", None);
        let p = plan(opts.seed, sizes);
        tracer.close(span);
        let mut check = Report::new("service");
        let pairs = preload(&p.corpus, sizes, &mut check);
        (p.requests, pairs, check)
    };
    let (mut setups, (requests, pairs, preload_check)) = SetUps::first(|| make(&mut tracer));
    for problem in preload_check.problems() {
        report.fail(problem.clone());
    }

    let mut passes = Passes::new(requests.len());
    let mut layers = LayerAcc::new();
    let mut round = 0;
    loop {
        let mut session = session();
        let mut index = FingerprintIndex::new();
        for (fp, form) in &pairs {
            if let Err(e) = index.insert(*fp, form.clone(), false) {
                report.fail(format!("rebuilding the preloaded index: {e}"));
            }
        }
        let tracing = passes.begin(opts, &mut tracer);
        // Nothing but requests runs in the round, so one probe around it
        // attributes the program's counters and phase times exactly.
        let probe = tracing.then(LayerAcc::begin);
        for (j, req) in requests.iter().enumerate() {
            let op = report.attempted;
            report.attempted += 1;
            let span = tracer.open("service.request", Some(op));
            let answer = passes.time(tracing, j, || {
                respond(&mut session, &mut index, req, &mut tracer, Some(op))
            });
            tracer.close(span);
            if answer != req.expect {
                report.fail(format!(
                    "round {round} request {j} ({:?}): expected {:?}, got {answer:?}",
                    req.verb, req.expect
                ));
            }
        }
        if let Some(p) = probe {
            layers.end(p);
        }
        drop((session, index));
        round += 1;
        let more = passes.end(tracing, opts, &mut tracer);
        setups.after_pass(opts, passes.elapsed(), !more, || make(&mut tracer));
        if !more {
            break;
        }
    }
    report.set("setup_s", setups.median());
    report.set(
        "data.generate_ms",
        stats::median(&tracer.durations("data.generate")) / 1e6,
    );

    let verb_best = |verb: Verb| -> Vec<f64> {
        requests
            .iter()
            .zip(passes.best())
            .filter(|(r, _)| r.verb == verb)
            .map(|(_, &t)| t * 1e6)
            .collect()
    };
    let (lookups, inserts) = (verb_best(Verb::Lookup), verb_best(Verb::Insert));
    report.info("requests", requests.len() as f64, "count");
    report.info("lookups", lookups.len() as f64, "count");
    report.info("inserts", inserts.len() as f64, "count");
    report.set("service.lookup_p50_us", stats::median(&lookups));
    report.set("service.lookup_p99_us", stats::quantile(&lookups, 990));
    report.set("service.insert_p50_us", stats::median(&inserts));
    report.set("service.insert_p99_us", stats::quantile(&inserts, 990));
    if opts.trace {
        layers.report_into(&mut report, passes.traced_passes());
        let p50_us = |name: &str| stats::median(&tracer.durations(name)) / 1e3;
        report.set("graph.parse_us", p50_us("graph.parse"));
        report.set("graph.fingerprint_us", p50_us("graph.fingerprint"));
        report.set("index.lookup_us", p50_us("index.lookup"));
        report.set("index.insert_us", p50_us("index.insert"));
        let traced = passes.traced_passes() as f64;
        report.set(
            "core.build_ms",
            tracer.total_ns("core.build") / traced / 1e6,
        );
    }
    passes.report(&mut report, &tracer, opts);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tracks_classes_and_member_counts() {
        let mut t = Truth::new(3);
        assert_eq!(t.lookup(Some(0)), Answer::NotIndexed);
        assert_eq!(
            t.insert(0),
            Answer::Inserted {
                class: 0,
                members: 1,
                fresh: true
            }
        );
        assert_eq!(
            t.insert(2),
            Answer::Inserted {
                class: 1,
                members: 1,
                fresh: true
            }
        );
        assert_eq!(
            t.insert(0),
            Answer::Inserted {
                class: 0,
                members: 2,
                fresh: false
            }
        );
        assert_eq!(
            t.lookup(Some(0)),
            Answer::Found {
                class: 0,
                members: 2
            }
        );
        assert_eq!(
            t.lookup(Some(2)),
            Answer::Found {
                class: 1,
                members: 1
            }
        );
        assert_eq!(t.lookup(Some(1)), Answer::NotIndexed);
        assert_eq!(t.lookup(None), Answer::NotIndexed);
    }

    #[test]
    fn plan_is_deterministic_per_seed_and_has_the_stated_mix() {
        let sizes = Sizes {
            corpus: 60,
            preload: 45,
            requests: 2_000,
        };
        let a = plan(1, sizes);
        let b = plan(1, sizes);
        let c = plan(2, sizes);
        let g6 = |p: &Plan| p.requests.iter().map(|r| r.g6.clone()).collect::<Vec<_>>();
        assert_eq!(g6(&a), g6(&b));
        assert_ne!(g6(&a), g6(&c));
        let count = |f: &dyn Fn(&Request) -> bool| a.requests.iter().filter(|r| f(r)).count();
        let misses = count(&|r| r.expect == Answer::NotIndexed);
        let inserts = count(&|r| r.verb == Verb::Insert);
        let fresh = count(&|r| matches!(r.expect, Answer::Inserted { fresh: true, .. }));
        assert!((150..250).contains(&misses), "{misses} misses");
        assert!((320..480).contains(&inserts), "{inserts} inserts");
        // Every held-out member gets its first insert well before the end.
        assert_eq!(fresh, sizes.corpus - sizes.preload);
        // Misses are exactly the odd-order queries.
        for r in &a.requests {
            let n = graph6::from_graph6(&r.g6).expect("valid graph6").n();
            assert_eq!(n % 2 == 1, r.expect == Answer::NotIndexed);
        }
    }

    #[test]
    fn the_service_path_answers_as_the_truth_says() {
        let sizes = Sizes {
            corpus: 40,
            preload: 30,
            requests: 300,
        };
        let p = plan(5, sizes);
        let mut report = Report::new("service");
        let pairs = preload(&p.corpus, sizes, &mut report);
        assert!(report.correct(), "{:?}", report.problems());
        let mut index = FingerprintIndex::new();
        for (fp, form) in &pairs {
            index.insert(*fp, form.clone(), false).expect("preload");
        }
        let mut s = session();
        let mut tracer = Tracer::new();
        for req in &p.requests {
            assert_eq!(
                respond(&mut s, &mut index, req, &mut tracer, None),
                req.expect
            );
        }
        // A wrong expectation is caught: the same request against a
        // corrupted truth must disagree.
        let first = &p.requests[0];
        let wrong = Request {
            verb: first.verb,
            g6: first.g6.clone(),
            expect: Answer::Found {
                class: usize::MAX,
                members: 0,
            },
        };
        assert_ne!(
            respond(&mut s, &mut index, &wrong, &mut tracer, None),
            wrong.expect
        );
    }
}
