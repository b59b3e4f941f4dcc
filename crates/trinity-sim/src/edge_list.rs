//! Text edge-list + label-file persistence.
//!
//! Format (whitespace separated, `#`-prefixed comment lines ignored):
//!
//! * label file: `vertex_id label_string` per line;
//! * edge file:  `src_id dst_id` per line.
//!
//! This mirrors the Pajek-style files the paper's real datasets (US Patents,
//! WordNet) are distributed in, so the same loader can ingest either the real
//! downloads or our synthetic stand-ins.

use crate::builder::GraphBuilder;
use crate::error::TrinityError;
use crate::ids::VertexId;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Parses a label file from a reader, adding vertices to the builder.
fn read_labels<R: BufRead>(reader: R, builder: &mut GraphBuilder) -> Result<usize, TrinityError> {
    let mut count = 0usize;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let id = parse_id(parts.next(), lineno)?;
        let label = parts.next().ok_or_else(|| TrinityError::Parse {
            line: lineno + 1,
            message: "missing label".to_string(),
        })?;
        builder.add_vertex(VertexId(id), label);
        count += 1;
    }
    Ok(count)
}

/// Parses an edge file from a reader, adding edges to the builder.
fn read_edges<R: BufRead>(reader: R, builder: &mut GraphBuilder) -> Result<usize, TrinityError> {
    let mut count = 0usize;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u = parse_id(parts.next(), lineno)?;
        let v = parse_id(parts.next(), lineno)?;
        builder.add_edge(VertexId(u), VertexId(v));
        count += 1;
    }
    Ok(count)
}

fn parse_id(token: Option<&str>, lineno: usize) -> Result<u64, TrinityError> {
    let token = token.ok_or_else(|| TrinityError::Parse {
        line: lineno + 1,
        message: "missing vertex id".to_string(),
    })?;
    token.parse::<u64>().map_err(|e| TrinityError::Parse {
        line: lineno + 1,
        message: format!("invalid vertex id `{token}`: {e}"),
    })
}

/// Loads a graph from a label file and an edge file on disk.
pub fn load_graph_files(label_path: &Path, edge_path: &Path) -> Result<GraphBuilder, TrinityError> {
    let mut builder = GraphBuilder::default();
    let labels = std::fs::File::open(label_path)?;
    read_labels(std::io::BufReader::new(labels), &mut builder)?;
    let edges = std::fs::File::open(edge_path)?;
    read_edges(std::io::BufReader::new(edges), &mut builder)?;
    Ok(builder)
}

/// Writes the vertices and edges of a builder back to label/edge files.
/// Primarily used to persist generated synthetic datasets.
pub fn save_graph_files(
    builder_vertices: &[(VertexId, String)],
    builder_edges: &[(VertexId, VertexId)],
    label_path: &Path,
    edge_path: &Path,
) -> Result<(), TrinityError> {
    let mut lw = BufWriter::new(std::fs::File::create(label_path)?);
    writeln!(lw, "# vertex_id label")?;
    for (v, l) in builder_vertices {
        writeln!(lw, "{} {}", v.raw(), l)?;
    }
    let mut ew = BufWriter::new(std::fs::File::create(edge_path)?);
    writeln!(ew, "# src dst")?;
    for (u, v) in builder_edges {
        writeln!(ew, "{} {}", u.raw(), v.raw())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CostModel;
    use std::io::Cursor;

    #[test]
    fn parse_labels_and_edges() {
        let labels = "# comment\n1 a\n2 b\n\n3 c\n";
        let edges = "1 2\n2 3\n# trailing comment\n";
        let mut b = GraphBuilder::default();
        assert_eq!(read_labels(Cursor::new(labels), &mut b).unwrap(), 3);
        assert_eq!(read_edges(Cursor::new(edges), &mut b).unwrap(), 2);
        let cloud = b.build(1, CostModel::free());
        assert_eq!(cloud.num_vertices(), 3);
        assert_eq!(cloud.num_edges(), 2);
    }

    #[test]
    fn malformed_label_line_is_an_error() {
        let labels = "1\n";
        let mut b = GraphBuilder::default();
        let err = read_labels(Cursor::new(labels), &mut b).unwrap_err();
        assert!(matches!(err, TrinityError::Parse { line: 1, .. }));
    }

    #[test]
    fn malformed_edge_line_is_an_error() {
        let edges = "1 x\n";
        let mut b = GraphBuilder::default();
        let err = read_edges(Cursor::new(edges), &mut b).unwrap_err();
        assert!(matches!(err, TrinityError::Parse { line: 1, .. }));
    }

    #[test]
    fn roundtrip_through_files() {
        let dir = std::env::temp_dir().join("trinity_sim_edge_list_test");
        std::fs::create_dir_all(&dir).unwrap();
        let label_path = dir.join("labels.txt");
        let edge_path = dir.join("edges.txt");
        let vertices = vec![
            (VertexId(1), "a".to_string()),
            (VertexId(2), "b".to_string()),
        ];
        let edges = vec![(VertexId(1), VertexId(2))];
        save_graph_files(&vertices, &edges, &label_path, &edge_path).unwrap();
        let builder = load_graph_files(&label_path, &edge_path).unwrap();
        let cloud = builder.build(1, CostModel::free());
        assert_eq!(cloud.num_vertices(), 2);
        assert_eq!(cloud.num_edges(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_graph_files(
            Path::new("/nonexistent/labels.txt"),
            Path::new("/nonexistent/edges.txt"),
        )
        .unwrap_err();
        assert!(matches!(err, TrinityError::Io(_)));
    }
}
