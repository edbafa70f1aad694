//! The independent evaluator: every expected answer is computed here by
//! walking the generated document's tree, without the program's
//! translator, optimizer or executor.
//!
//! Semantics (README "Reference semantics"):
//! - A `RETURN` list of paths is a sequence: one row per binding, holding
//!   the text of every node each path reaches, in order. A path that
//!   reaches nothing adds nothing, so an absent optional leaves no value
//!   and an empty row is no row.
//! - Nested `FOR` clauses in a `RETURN` keep only the outer bindings that
//!   have a matching inner binding (Appendix C: Q7 keeps only shows that
//!   have such an episode).
//! - `RETURN $v` of a whole element publishes every attribute value and
//!   every leaf text of its subtree, each as one item; wildcard tag names
//!   are structure, not values.
//! - Text is trimmed, as `Element::text` documents.
//!
//! Answers are compared as multisets through an order-insensitive
//! [`Fingerprint`].

use legodb_xml::{Element, Node};
use std::collections::HashMap;

/// An order-insensitive fingerprint of a multiset of answer items (each
/// item a short sequence of strings): the item count plus two wrapping
/// sums of independent 64-bit item hashes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub count: u64,
    pub sum1: u64,
    pub sum2: u64,
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over length-prefixed strings, then a splitmix finaliser.
struct ItemHasher(u64);

impl ItemHasher {
    fn feed(&mut self, s: &[u8]) {
        for &b in (s.len() as u64).to_le_bytes().iter().chain(s) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const BASIS1: u64 = 0xcbf2_9ce4_8422_2325;
const BASIS2: u64 = 0x9e37_79b9_7f4a_7c15;

fn item_hash<S: AsRef<str>>(item: &[S], basis: u64) -> u64 {
    let mut h = ItemHasher(basis);
    for s in item {
        h.feed(s.as_ref().as_bytes());
    }
    mix64(h.0)
}

impl Fingerprint {
    pub fn add<S: AsRef<str>>(&mut self, item: &[S]) {
        self.add_with(|feed| {
            for s in item {
                feed(s.as_ref().as_bytes());
            }
        });
    }

    /// Add one item given as a stream of parts, without building it.
    pub fn add_with(&mut self, parts: impl Fn(&mut dyn FnMut(&[u8]))) {
        let (mut h1, mut h2) = (ItemHasher(BASIS1), ItemHasher(BASIS2));
        parts(&mut |p| {
            h1.feed(p);
            h2.feed(p);
        });
        self.count += 1;
        self.sum1 = self.sum1.wrapping_add(mix64(h1.0));
        self.sum2 = self.sum2.wrapping_add(mix64(h2.0));
    }

    pub fn render(&self) -> String {
        format!("{}:{:016x}:{:016x}", self.count, self.sum1, self.sum2)
    }

    pub fn parse(s: &str) -> Option<Fingerprint> {
        let mut parts = s.split(':');
        let count = parts.next()?.parse().ok()?;
        let sum1 = u64::from_str_radix(parts.next()?, 16).ok()?;
        let sum2 = u64::from_str_radix(parts.next()?, 16).ok()?;
        Some(Fingerprint { count, sum1, sum2 })
    }
}

/// An order-sensitive digest of a document: start tags with their
/// attributes, trimmed non-empty text, end tags, in document order.
pub fn document_digest(root: &Element) -> (u64, u64) {
    fn feed(state: &mut (u64, u64), parts: &[&str]) {
        state.0 = mix64(state.0 ^ item_hash(parts, 0x5151_5151_5151_5151));
        state.1 += 1;
    }
    fn walk(e: &Element, state: &mut (u64, u64)) {
        feed(state, &["<", &e.name]);
        for a in &e.attributes {
            feed(state, &["@", &a.name, &a.value]);
        }
        for child in &e.children {
            match child {
                Node::Element(c) => walk(c, state),
                Node::Text(t) => {
                    let t = t.trim();
                    if !t.is_empty() {
                        feed(state, &["#", t]);
                    }
                }
            }
        }
        feed(state, &[">", &e.name]);
    }
    let mut state = (0u64, 0u64);
    walk(root, &mut state);
    state
}

/// Element counts per label path (`imdb/show/aka`), for the per-table row
/// count check after a reopen.
pub fn path_counts(root: &Element) -> Vec<(String, u64)> {
    fn walk(e: &Element, path: &mut String, out: &mut HashMap<String, u64>) {
        let len = path.len();
        if !path.is_empty() {
            path.push('/');
        }
        path.push_str(&e.name);
        *out.entry(path.clone()).or_default() += 1;
        for c in e.child_elements() {
            walk(c, path, out);
        }
        path.truncate(len);
    }
    let mut out = HashMap::new();
    walk(root, &mut String::new(), &mut out);
    let mut v: Vec<(String, u64)> = out.into_iter().collect();
    v.sort();
    v
}

fn texts<'a>(e: &'a Element, child: &'a str) -> impl Iterator<Item = String> + 'a {
    e.children_named(child).map(Element::text)
}

fn first_text(e: &Element, child: &str) -> Option<String> {
    e.first_child(child).map(Element::text)
}

/// The sequence of texts reached by `$v/p1, $v/p2, ...` (one-step paths).
fn seq_row(e: &Element, paths: &[&str]) -> Vec<String> {
    paths.iter().flat_map(|p| texts(e, p)).collect()
}

/// Every attribute value and leaf text of a subtree, one item each.
fn subtree_values(e: &Element, fp: &mut Fingerprint) {
    for a in &e.attributes {
        fp.add(&[a.value.as_str()]);
    }
    if e.is_leaf() {
        let t = e.text();
        if !t.is_empty() {
            fp.add(&[t]);
        }
        return;
    }
    for c in e.child_elements() {
        subtree_values(c, fp);
    }
}

fn add_row(fp: &mut Fingerprint, row: Vec<String>) {
    if !row.is_empty() {
        fp.add(&row);
    }
}

/// Indexes over one document, built once; answers are computed per query
/// from them.
pub struct Reference<'a> {
    shows: Vec<&'a Element>,
    directors: Vec<&'a Element>,
    actors: Vec<&'a Element>,
    show_by_title: HashMap<String, Vec<usize>>,
    actor_by_name: HashMap<String, Vec<usize>>,
    director_by_name: HashMap<String, Vec<usize>>,
    /// (actor, biography) by birthday, (actor, played) by character,
    /// (show, episode) by guest director: the bindings whose leaf
    /// equals the key, in document order.
    biography_by_birthday: Pairs<'a>,
    played_by_character: Pairs<'a>,
    episode_by_guest: Pairs<'a>,
}

type Pairs<'a> = HashMap<String, Vec<(&'a Element, &'a Element)>>;

/// Index the `child` elements of each item by the text of their `leaf`.
fn pairs<'a>(items: &[&'a Element], child: &'a str, leaf: &'a str) -> Pairs<'a> {
    let mut m: Pairs<'a> = HashMap::new();
    for &e in items {
        for c in e.children_named(child) {
            for k in texts(c, leaf) {
                m.entry(k).or_default().push((e, c));
            }
        }
    }
    m
}

impl<'a> Reference<'a> {
    pub fn new(root: &'a Element) -> Reference<'a> {
        let pick = |name: &str| -> Vec<&'a Element> {
            root.child_elements().filter(|e| e.name == name).collect()
        };
        let shows = pick("show");
        let directors = pick("director");
        let actors = pick("actor");
        let by = |items: &[&Element], key: &str| {
            let mut m: HashMap<String, Vec<usize>> = HashMap::new();
            for (i, e) in items.iter().enumerate() {
                for k in texts(e, key) {
                    m.entry(k).or_default().push(i);
                }
            }
            m
        };
        Reference {
            biography_by_birthday: pairs(&actors, "biography", "birthday"),
            played_by_character: pairs(&actors, "played", "character"),
            episode_by_guest: pairs(&shows, "episode", "guest_director"),
            show_by_title: by(&shows, "title"),
            actor_by_name: by(&actors, "name"),
            director_by_name: by(&directors, "name"),
            shows,
            directors,
            actors,
        }
    }

    fn matching<'s>(
        &'s self,
        index: &'s HashMap<String, Vec<usize>>,
        items: &'s [&'a Element],
        key: &str,
    ) -> impl Iterator<Item = &'a Element> + 's {
        index.get(key).into_iter().flatten().map(move |&i| items[i])
    }

    /// The expected answer of a query (`Q1`–`Q20`, `FQ1`–`FQ4`, or one of
    /// the narrow scans `S1`–`S3`) with constant `c` (unused by queries
    /// without one). `None` for a query this evaluator does not know.
    pub fn answer(&self, query: &str, c: &str) -> Option<Fingerprint> {
        let mut fp = Fingerprint::default();
        match query {
            // Show lookups by title: a sequence of one-step paths. Q1's
            // `$v/type` names a child element no show has (`type` is an
            // attribute), so it adds nothing.
            "Q1" | "Q2" | "Q4" | "Q5" | "Q6" => {
                let paths: &[&str] = match query {
                    "Q1" => &["title", "year", "type"],
                    "Q2" => &["title", "year"],
                    "Q4" => &["title", "year", "description"],
                    "Q5" => &["title", "year", "box_office"],
                    _ => &["title", "year", "box_office", "description"],
                };
                for s in self.matching(&self.show_by_title, &self.shows, c) {
                    add_row(&mut fp, seq_row(s, paths));
                }
            }
            "Q3" | "S2" => {
                for s in &self.shows {
                    if texts(s, "year").any(|y| y == "1999") {
                        add_row(&mut fp, seq_row(s, &["title", "year"]));
                    }
                }
            }
            "Q7" => {
                for (s, e) in self.episode_by_guest.get(c).into_iter().flatten() {
                    let mut row = seq_row(s, &["title", "year"]);
                    row.extend(texts(e, "guest_director"));
                    add_row(&mut fp, row);
                }
            }
            "Q8" => {
                for a in self.matching(&self.actor_by_name, &self.actors, c) {
                    for b in a.children_named("biography") {
                        add_row(&mut fp, texts(b, "birthday").collect());
                    }
                }
            }
            "Q9" | "Q10" => {
                let paths: &[&str] = if query == "Q9" {
                    &["text"]
                } else {
                    &["text", "birthday"]
                };
                for (a, b) in self.biography_by_birthday.get(c).into_iter().flatten() {
                    let mut row: Vec<String> = texts(a, "name").collect();
                    row.extend(seq_row(b, paths));
                    add_row(&mut fp, row);
                }
            }
            "Q11" => {
                for (a, p) in self.played_by_character.get(c).into_iter().flatten() {
                    let mut row: Vec<String> = texts(a, "name").collect();
                    row.extend(texts(p, "order_of_appearance"));
                    add_row(&mut fp, row);
                }
            }
            "Q12" | "Q13" => {
                // People who acted in and directed the same title; Q13
                // adds each alternate title of the show with that title.
                for a in &self.actors {
                    let Some(name) = first_text(a, "name") else {
                        continue;
                    };
                    for d in self.matching(&self.director_by_name, &self.directors, &name) {
                        for m1 in a.children_named("played") {
                            let Some(title) = first_text(m1, "title") else {
                                continue;
                            };
                            let directed = d
                                .children_named("directed")
                                .filter(|m2| texts(m2, "title").any(|t| t == title))
                                .count();
                            for _ in 0..directed {
                                let row = vec![
                                    name.clone(),
                                    title.clone(),
                                    first_text(m1, "year").unwrap_or_default(),
                                ];
                                if query == "Q12" {
                                    add_row(&mut fp, row);
                                    continue;
                                }
                                for s in self.matching(&self.show_by_title, &self.shows, &title) {
                                    for aka in texts(s, "aka") {
                                        let mut r = row.clone();
                                        r.push(aka);
                                        add_row(&mut fp, r);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            "Q14" => {
                for a in self.matching(&self.actor_by_name, &self.actors, c) {
                    for m1 in a.children_named("played") {
                        let Some(title) = first_text(m1, "title") else {
                            continue;
                        };
                        for d in &self.directors {
                            for m2 in d.children_named("directed") {
                                if texts(m2, "title").any(|t| t == title) {
                                    let mut row: Vec<String> = texts(d, "name").collect();
                                    row.push(title.clone());
                                    row.extend(texts(m1, "year"));
                                    add_row(&mut fp, row);
                                }
                            }
                        }
                    }
                }
            }
            "Q15" => self.actors.iter().for_each(|e| subtree_values(e, &mut fp)),
            "Q16" | "FQ2" => self.shows.iter().for_each(|e| subtree_values(e, &mut fp)),
            "Q17" => self
                .directors
                .iter()
                .for_each(|e| subtree_values(e, &mut fp)),
            "Q18" => self
                .matching(&self.actor_by_name, &self.actors, c)
                .for_each(|e| subtree_values(e, &mut fp)),
            "Q19" => self
                .matching(&self.show_by_title, &self.shows, c)
                .for_each(|e| subtree_values(e, &mut fp)),
            "Q20" => self
                .matching(&self.director_by_name, &self.directors, c)
                .for_each(|e| subtree_values(e, &mut fp)),
            "S1" => {
                for s in &self.shows {
                    add_row(&mut fp, texts(s, "year").collect());
                }
            }
            "S3" => {
                for a in &self.actors {
                    add_row(&mut fp, texts(a, "name").collect());
                }
            }
            "FQ1" => {
                for s in &self.shows {
                    if !texts(s, "year").any(|y| y == "1999") {
                        continue;
                    }
                    for r in s.children_named("review") {
                        for nyt in texts(r, "nyt") {
                            let mut row = seq_row(s, &["title", "year"]);
                            row.push(nyt);
                            add_row(&mut fp, row);
                        }
                    }
                }
            }
            "FQ3" => {
                for s in self.matching(&self.show_by_title, &self.shows, c) {
                    add_row(&mut fp, texts(s, "description").collect());
                }
            }
            "FQ4" => {
                // A row of title and year per matching episode, plus the
                // published episode subtree.
                for (s, e) in self.episode_by_guest.get(c).into_iter().flatten() {
                    add_row(&mut fp, seq_row(s, &["title", "year"]));
                    subtree_values(e, &mut fp);
                }
            }
            _ => return None,
        }
        Some(fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legodb_xml::parse;

    /// Two shows, one director who also acts, two actors; every answer
    /// below is worked out by hand from this text.
    const TINY: &str = r#"<imdb>
      <show type="Movie"><title>T1</title><year>1999</year><aka>A1</aka><aka>A2</aka>
        <review><nyt>good</nyt></review><box_office>10</box_office><video_sales>20</video_sales></show>
      <show type="TV series"><title>T2</title><year>2001</year><seasons>3</seasons>
        <description>D2</description>
        <episode><name>E1</name><guest_director>Dan</guest_director></episode>
        <episode><name>E2</name><guest_director>Eve</guest_director></episode></show>
      <director><name>Ann</name><directed><title>T1</title><year>1999</year></directed></director>
      <actor><name>Ann</name>
        <played><title>T1</title><year>1999</year><character>Cat</character><order_of_appearance>1</order_of_appearance></played>
        <biography><birthday>1970-01-02</birthday><text>bio</text></biography></actor>
      <actor><name>Bob</name>
        <played><title>T2</title><year>2001</year><character>Dog</character><order_of_appearance>2</order_of_appearance></played></actor>
    </imdb>"#;

    fn fp_of(rows: &[&[&str]]) -> Fingerprint {
        let mut fp = Fingerprint::default();
        for r in rows {
            fp.add(r);
        }
        fp
    }

    fn answer(q: &str, c: &str) -> Fingerprint {
        let doc = parse(TINY).expect("tiny document parses");
        Reference::new(&doc.root).answer(q, c).expect("known query")
    }

    #[test]
    fn lookups_by_title_follow_sequence_semantics() {
        assert_eq!(answer("Q1", "T1"), fp_of(&[&["T1", "1999"]]));
        assert_eq!(answer("Q4", "T2"), fp_of(&[&["T2", "2001", "D2"]]));
        assert_eq!(answer("Q5", "T1"), fp_of(&[&["T1", "1999", "10"]]));
        assert_eq!(answer("Q2", "absent"), Fingerprint::default());
    }

    #[test]
    fn nested_for_keeps_only_matching_bindings() {
        assert_eq!(answer("Q7", "Eve"), fp_of(&[&["T2", "2001", "Eve"]]));
        assert_eq!(answer("Q9", "1970-01-02"), fp_of(&[&["Ann", "bio"]]));
        assert_eq!(answer("Q11", "Dog"), fp_of(&[&["Bob", "2"]]));
        // Bob has no biography: no row, not an empty one.
        assert_eq!(answer("Q8", "Bob"), Fingerprint::default());
    }

    #[test]
    fn joins_match_people_who_act_and_direct() {
        assert_eq!(answer("Q12", ""), fp_of(&[&["Ann", "T1", "1999"]]));
        assert_eq!(
            answer("Q13", ""),
            fp_of(&[&["Ann", "T1", "1999", "A1"], &["Ann", "T1", "1999", "A2"]])
        );
        assert_eq!(answer("Q14", "Ann"), fp_of(&[&["Ann", "T1", "1999"]]));
    }

    #[test]
    fn publishing_lists_every_value_of_the_subtree() {
        assert_eq!(answer("Q20", "Ann"), fp_of(&[&["Ann"], &["T1"], &["1999"]]));
        assert_eq!(
            answer("Q19", "T1"),
            fp_of(&[
                &["Movie"],
                &["T1"],
                &["1999"],
                &["A1"],
                &["A2"],
                &["good"],
                &["10"],
                &["20"]
            ])
        );
        assert_eq!(
            answer("FQ4", "Dan"),
            fp_of(&[&["T2", "2001"], &["E1"], &["Dan"]])
        );
    }

    #[test]
    fn a_perturbed_answer_is_told_apart() {
        let truth = answer("Q12", "");
        // One value changed, one row doubled, one row dropped: each must
        // move the fingerprint.
        assert_ne!(truth, fp_of(&[&["Ann", "T1", "2000"]]));
        assert_ne!(
            truth,
            fp_of(&[&["Ann", "T1", "1999"], &["Ann", "T1", "1999"]])
        );
        assert_ne!(truth, Fingerprint::default());
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn a_wrong_expectation_fails() {
        assert_eq!(answer("Q11", "Cat"), fp_of(&[&["Ann", "2"]]));
    }

    #[test]
    fn order_does_not_matter_but_content_does() {
        assert_eq!(fp_of(&[&["a"], &["b", "c"]]), fp_of(&[&["b", "c"], &["a"]]));
        assert_ne!(fp_of(&[&["a", "b"]]), fp_of(&[&["ab"]]));
        assert_ne!(fp_of(&[&["a", "b"]]), fp_of(&[&["b", "a"]]));
        let fp = answer("Q16", "");
        assert_eq!(Fingerprint::parse(&fp.render()), Some(fp));
    }

    #[test]
    fn digests_see_a_doubled_element() {
        let doc = parse(TINY).expect("tiny document parses");
        let mut bad = doc.clone();
        let director = bad
            .root
            .children
            .iter_mut()
            .find_map(|n| match n {
                Node::Element(e) if e.name == "director" => Some(e),
                _ => None,
            })
            .expect("tiny has a director");
        let directed = director
            .children
            .iter_mut()
            .find_map(|n| match n {
                Node::Element(e) if e.name == "directed" => Some(e),
                _ => None,
            })
            .expect("the director directed");
        directed
            .children
            .push(Node::Element(Element::text_leaf("title", "T1")));
        assert_ne!(document_digest(&doc.root), document_digest(&bad.root));
        let counts: HashMap<String, u64> = path_counts(&doc.root).into_iter().collect();
        assert_eq!(counts["imdb/director/directed/title"], 1);
        assert_eq!(counts["imdb/show"], 2);
    }
}
