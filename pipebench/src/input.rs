//! Seeded inputs and their reference answers.
//!
//! Set-up runs in a child process (`--setup`), so the generator's DOM
//! never counts toward the measured process's peak memory. The child
//! writes two files: the XML text the program loads, and `expected.tsv`
//! with the lookup schedule, the query-mix constants and every expected
//! answer. The measured process reads only those.

use crate::reference::{document_digest, path_counts, Fingerprint, Reference};
use crate::workload::{key_of, Key, Spec, ABSENT_EVERY, LOOKUPS, LOOKUP_SHAPES};
use legodb_imdb::{generate_imdb, ScaleConfig};
use legodb_util::{Rng, StdRng};
use legodb_xml::{Document, Element, Node};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::Path;

const XML_FILE: &str = "input.xml";
const EXPECTED_FILE: &str = "expected.tsv";

/// One director in this many takes the name of a distinct actor and
/// directs a title that actor played, so Q12–Q14 have rows to return.
/// (`generate_imdb` alone never gives a director an actor's name.)
const ACTING_DIRECTOR_EVERY: usize = 10;

/// Salt separating the constant draws from the generator's own stream.
const DRAW_SALT: u64 = 0x5eed_c0de_0000_0001;

fn set_leaf(e: &mut Element, child: &str, text: &str) -> bool {
    for node in e.children.iter_mut() {
        if let Node::Element(c) = node {
            if c.name == child {
                c.children = vec![Node::Text(text.to_string())];
                return true;
            }
        }
    }
    false
}

fn text_of(e: &Element, path: &[&str]) -> Option<String> {
    match path.split_first() {
        None => Some(e.text()),
        Some((first, rest)) => text_of(e.first_child(first)?, rest),
    }
}

/// The seeded IMDB document: `generate_imdb` at `scale`, then every
/// tenth director turned into an acting director.
fn generate(scale: f64, seed: u64) -> Document {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut doc = generate_imdb(&mut rng, &ScaleConfig::at_scale(scale));
    let actors: Vec<(String, Option<String>)> = doc
        .root
        .children_named("actor")
        .map(|a| {
            (
                text_of(a, &["name"]).unwrap_or_default(),
                text_of(a, &["played", "title"]),
            )
        })
        .collect();
    let mut taken = BTreeSet::new();
    let mut seen = 0usize;
    for node in doc.root.children.iter_mut() {
        let Node::Element(d) = node else { continue };
        if d.name != "director" {
            continue;
        }
        seen += 1;
        if !seen.is_multiple_of(ACTING_DIRECTOR_EVERY) || taken.len() == actors.len() {
            continue;
        }
        let mut j = rng.gen_range(0..actors.len());
        while !taken.insert(j) {
            j = (j + 1) % actors.len();
        }
        let (name, title) = &actors[j];
        set_leaf(d, "name", name);
        if let Some(title) = title {
            for c in d.children.iter_mut() {
                if let Node::Element(directed) = c {
                    if directed.name == "directed" && set_leaf(directed, "title", title) {
                        break;
                    }
                }
            }
        }
    }
    doc
}

/// Values each kind of constant is drawn from.
struct Pools(HashMap<Key, Vec<String>>);

impl Pools {
    fn new(root: &Element) -> Pools {
        let mut pools: HashMap<Key, Vec<String>> = HashMap::new();
        let mut push = |k: Key, v: Option<String>| {
            if let Some(v) = v {
                pools.entry(k).or_default().push(v);
            }
        };
        let actor_names: BTreeSet<String> = root
            .children_named("actor")
            .filter_map(|a| text_of(a, &["name"]))
            .collect();
        for e in root.child_elements() {
            match e.name.as_str() {
                "show" => {
                    let title = text_of(e, &["title"]);
                    push(Key::AnyTitle, title.clone());
                    if e.first_child("description").is_some() {
                        push(Key::TvTitle, title.clone());
                    }
                    if e.first_child("box_office").is_some() {
                        push(Key::MovieTitle, title);
                    }
                    for ep in e.children_named("episode") {
                        push(Key::GuestDirector, text_of(ep, &["guest_director"]));
                    }
                }
                "director" => {
                    let name = text_of(e, &["name"]);
                    if name.as_ref().is_some_and(|n| actor_names.contains(n)) {
                        push(Key::ActingDirector, name.clone());
                    }
                    push(Key::DirectorName, name);
                }
                "actor" => {
                    push(Key::ActorName, text_of(e, &["name"]));
                    push(Key::Birthday, text_of(e, &["biography", "birthday"]));
                    for p in e.children_named("played") {
                        push(Key::Character, text_of(p, &["character"]));
                    }
                }
                _ => {}
            }
        }
        Pools(pools)
    }

    fn draw(&self, key: Key, rng: &mut StdRng) -> String {
        if key == Key::None {
            return String::new();
        }
        let values = self
            .0
            .get(&key)
            .unwrap_or_else(|| panic!("the document has no {key:?} to draw from"));
        values[rng.gen_range(0..values.len())].clone()
    }
}

/// A query with its bound constant and expected answer.
#[derive(Debug, Clone)]
pub struct Expected {
    pub query: String,
    pub constant: String,
    pub answer: Fingerprint,
}

/// What the measured process reads back.
pub struct Input {
    pub xml: String,
    pub lookups: Vec<Expected>,
    pub mix: Vec<Expected>,
    /// Element counts per label path.
    pub counts: HashMap<String, u64>,
    /// Order-sensitive digest of the document and its node count.
    pub digest: (u64, u64),
}

/// Generate the input for `spec` and `seed` and write it to `dir`.
/// Returns a digest of both files, so repeated set-ups can be checked to
/// produce the same bytes.
pub fn prepare(spec: &Spec, seed: u64, dir: &Path) -> io::Result<u64> {
    let doc = generate(spec.scale, seed);
    let xml = doc.to_xml();
    let reference = Reference::new(&doc.root);
    let pools = Pools::new(&doc.root);
    let mut rng = StdRng::seed_from_u64(seed ^ DRAW_SALT);
    let mut out = String::new();
    for (path, n) in path_counts(&doc.root) {
        out.push_str(&format!("count\t{path}\t{n}\n"));
    }
    let (h, n) = document_digest(&doc.root);
    out.push_str(&format!("digest\t{h:016x}\t{n}\n"));
    let mut line = |kind: &str, query: &str, constant: &str| {
        let answer = reference
            .answer(query, constant)
            .unwrap_or_else(|| panic!("no reference for {query}"));
        out.push_str(&format!(
            "{kind}\t{query}\t{constant}\t{}\n",
            answer.render()
        ));
    };
    for i in 0..LOOKUPS {
        let shape = LOOKUP_SHAPES[i % LOOKUP_SHAPES.len()];
        let absent = (i / LOOKUP_SHAPES.len()) % ABSENT_EVERY == ABSENT_EVERY - 1;
        let constant = if absent {
            format!("absent_{i}")
        } else {
            pools.draw(key_of(shape), &mut rng)
        };
        line("lookup", shape, &constant);
    }
    for q in spec.mix {
        let constant = pools.draw(key_of(q), &mut rng);
        line("mix", q, &constant);
    }
    std::fs::write(dir.join(XML_FILE), &xml)?;
    std::fs::write(dir.join(EXPECTED_FILE), &out)?;
    let mut digest = Fingerprint::default();
    digest.add(&[xml.as_str(), out.as_str()]);
    Ok(digest.sum1)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{EXPECTED_FILE}: {what}"),
    )
}

/// Read back what [`prepare`] wrote.
pub fn load(dir: &Path) -> io::Result<Input> {
    let xml = std::fs::read_to_string(dir.join(XML_FILE))?;
    let text = std::fs::read_to_string(dir.join(EXPECTED_FILE))?;
    let mut input = Input {
        xml,
        lookups: Vec::new(),
        mix: Vec::new(),
        counts: HashMap::new(),
        digest: (0, 0),
    };
    for l in text.lines() {
        let f: Vec<&str> = l.split('\t').collect();
        match f.as_slice() {
            ["count", path, n] => {
                let n = n.parse().map_err(|_| bad("count"))?;
                input.counts.insert(path.to_string(), n);
            }
            ["digest", h, n] => {
                let h = u64::from_str_radix(h, 16).map_err(|_| bad("digest"))?;
                input.digest = (h, n.parse().map_err(|_| bad("digest"))?);
            }
            [kind @ ("lookup" | "mix"), query, constant, answer] => {
                let e = Expected {
                    query: query.to_string(),
                    constant: constant.to_string(),
                    answer: Fingerprint::parse(answer).ok_or_else(|| bad("answer"))?,
                };
                if *kind == "lookup" {
                    input.lookups.push(e);
                } else {
                    input.mix.push(e);
                }
            }
            _ => return Err(bad(l)),
        }
    }
    Ok(input)
}
