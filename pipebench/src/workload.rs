//! The three workloads: input size, the design search's query mix and
//! transformation set, the timed query mix, the lookup loop and the load
//! policy.

use legodb_core::search::SearchConfig;
use legodb_core::transform::TransformationSet;
use legodb_core::workload::Workload;
use legodb_imdb::queries::QUERIES;
use legodb_xquery::parse_xquery;

/// Figure 5's queries (§2), with the `c2`/`c4` constants left as
/// placeholders for [`query_text`] to bind. Same text as
/// `legodb_imdb::fig5_queries`, which exposes only the parsed form.
const FIG5: [(&str, &str); 4] = [
    (
        "FQ1",
        r#"FOR $v IN document("imdbdata")/imdb/show, $r IN $v/review
           WHERE $v/year = 1999
           RETURN $v/title, $v/year, $r/nyt"#,
    ),
    (
        "FQ2",
        r#"FOR $v IN document("imdbdata")/imdb/show RETURN $v"#,
    ),
    (
        "FQ3",
        r#"FOR $v IN document("imdbdata")/imdb/show
           WHERE $v/title = c2
           RETURN $v/description"#,
    ),
    (
        "FQ4",
        r#"FOR $v IN document("imdbdata")/imdb/show
           RETURN <result>
             $v/title $v/year
             FOR $v/episode $e WHERE $e/guest_director = c4 RETURN $e
           </result>"#,
    ),
];

/// Narrow-projection scans for the analytic side of the `publish` mix.
const SCANS: [(&str, &str); 3] = [
    (
        "S1",
        r#"FOR $v IN document("imdbdata")/imdb/show RETURN $v/year"#,
    ),
    (
        "S2",
        r#"FOR $v IN document("imdbdata")/imdb/show
           WHERE $v/year = 1999
           RETURN $v/title, $v/year"#,
    ),
    (
        "S3",
        r#"FOR $v IN document("imdbdata")/imdb/actor RETURN $v/name"#,
    ),
];

/// What kind of constant a query's placeholder takes; the input generator
/// draws each kind from the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key {
    None,
    AnyTitle,
    /// Q4/FQ3 return a description, which only TV shows have.
    TvTitle,
    /// Q5 returns a box office, which only movies have.
    MovieTitle,
    ActorName,
    /// An actor who also directs (Q14 then always has rows).
    ActingDirector,
    DirectorName,
    Birthday,
    Character,
    GuestDirector,
}

pub fn key_of(query: &str) -> Key {
    match query {
        "Q1" | "Q2" | "Q19" => Key::AnyTitle,
        "Q4" | "FQ3" => Key::TvTitle,
        "Q5" => Key::MovieTitle,
        "Q8" | "Q18" => Key::ActorName,
        "Q14" => Key::ActingDirector,
        "Q20" => Key::DirectorName,
        "Q9" | "Q10" => Key::Birthday,
        "Q11" => Key::Character,
        "Q7" | "FQ4" => Key::GuestDirector,
        _ => Key::None,
    }
}

fn query_source(query: &str) -> &'static str {
    QUERIES
        .iter()
        .chain(FIG5.iter())
        .chain(SCANS.iter())
        .find(|(n, _)| *n == query)
        .map(|(_, s)| *s)
        .unwrap_or_else(|| panic!("unknown query {query}"))
}

/// The query source with its placeholder bound to `constant`.
pub fn query_text(query: &str, constant: &str) -> String {
    let literal = format!("= \"{constant}\"");
    query_source(query)
        .replace("= c1", &literal)
        .replace("= c2", &literal)
        .replace("= c4", &literal)
}

/// The point-lookup shapes of the closed loop, in round-robin order.
/// Q6 is left out: its answer depends on the mapping (README).
pub const LOOKUP_SHAPES: [&str; 12] = [
    "Q1", "Q2", "Q4", "Q5", "Q19", "Q8", "Q18", "Q20", "Q9", "Q10", "Q11", "Q7",
];

/// One lookup cycle (one lookup per shape) in ten asks for keys the
/// document does not hold.
pub const ABSENT_EVERY: usize = 10;

/// Timed lookups per round: whole cycles over the shapes, a multiple of
/// `ABSENT_EVERY` cycles, and at least 1000, so the p99 has ten samples
/// beyond it.
pub const LOOKUPS: usize = LOOKUP_SHAPES.len() * ABSENT_EVERY * 9;

pub struct Spec {
    pub name: &'static str,
    /// Generator scale: 0.01 is Appendix A at 1/100 (1×, ~1.6 MB).
    pub scale: f64,
    /// The queries the design search is tuned on, and whose timed pass is
    /// `query_mix_s`.
    pub mix: &'static [&'static str],
    /// The search may use every transformation kind (layout flips,
    /// union-to-options, ...); otherwise it makes outline moves from the
    /// all-inlined start, the paper's greedy-si.
    pub all_transformations: bool,
    /// Rows per `insert_batch` (one WAL frame, one fsync each).
    pub batch_rows: usize,
    /// Checkpoint once half the rows are in.
    pub checkpoint_halfway: bool,
    /// Slices per round: each loads the input afresh and runs its share
    /// of the lookups (README "What one run does").
    pub slices: usize,
    /// Slices (from the first) that start with a design search. A search
    /// is one sample of `search_s`; where it is short, one sample is at
    /// the mercy of the machine's drift, so every slice repeats it.
    pub searches: usize,
    /// Query-mix passes per slice, for the same reason: a pass of a light
    /// mix lasts tens of milliseconds.
    pub mix_passes: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "lookup",
        scale: 0.1,
        mix: &["Q8", "Q9", "Q11", "Q12", "Q13"],
        all_transformations: false,
        batch_rows: 8192,
        checkpoint_halfway: false,
        slices: 3,
        searches: 1,
        mix_passes: 2,
    },
    Spec {
        name: "publish",
        scale: 0.03,
        mix: &[
            "Q11", "Q12", "Q13", "Q14", "Q15", "Q16", "Q17", "S1", "S2", "S3",
        ],
        all_transformations: true,
        batch_rows: 8192,
        checkpoint_halfway: false,
        slices: 4,
        searches: 1,
        mix_passes: 2,
    },
    Spec {
        name: "ingest",
        scale: 0.1,
        mix: &["FQ1", "FQ2", "FQ3", "FQ4"],
        all_transformations: false,
        batch_rows: 1024,
        checkpoint_halfway: true,
        slices: 4,
        searches: 4,
        mix_passes: 8,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The search workload: the mix at equal weights, the placeholders
    /// left unbound (the cost model only sees their selectivity).
    pub fn search_workload(&self) -> Workload {
        let mut w = Workload::new();
        for q in self.mix {
            let parsed =
                parse_xquery(query_source(q)).unwrap_or_else(|e| panic!("{q} parses: {e}"));
            w.push(*q, parsed, 1.0 / self.mix.len() as f64);
        }
        w
    }

    pub fn search_config(&self) -> SearchConfig {
        SearchConfig {
            parallel: true,
            transformations: self
                .all_transformations
                .then(|| TransformationSet::all(vec!["nyt".to_string()])),
            ..SearchConfig::default()
        }
    }
}
