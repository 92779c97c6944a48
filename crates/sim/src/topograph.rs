//! Custom-topology ingestion and routing for the simulator (DESIGN.md
//! §14): parses user-supplied graphs from JSON and a pragmatic DOT
//! subset into validated [`CustomGraph`]s, resolves the `custom:*` spec
//! source forms (files and seeded generators), and adapts the certified
//! up*/down* routing synthesizer into [`MulticastRouter`]s.
//!
//! ## JSON graph format
//!
//! ```json
//! {
//!   "name": "my-net",
//!   "nodes": ["a", "b", "c"],
//!   "duplex": true,
//!   "edges": [["a", "b"], ["b", "c", 2], [0, 2]]
//! }
//! ```
//!
//! `nodes` is either a list of names or a count (anonymous `n0..nK`);
//! edge entries are `[from, to]` or `[from, to, latency]` with
//! endpoints by name or index; `duplex: true` (the default) expands
//! each entry into both directions.
//!
//! ## DOT subset
//!
//! `graph name { a -- b [latency=2]; b -- c; }` — `graph`/`digraph`
//! headers, edge statements with `--` (duplex pair) or `->` (one
//! directed channel), an optional `[latency=N]` attribute, bare node
//! statements, and `//`/`#` comments. Everything else is rejected with
//! a typed parse error.

use std::sync::Arc;

use mcast_core::model::{MulticastSet, TreeRoute};
use mcast_obs::json::Json;
use mcast_topology::topograph::generators;
use mcast_topology::topograph::synth::{synthesize, CertifiedRouting};
use mcast_topology::{CustomGraph, NodeId, TopographError};

use crate::plan::{ClassChoice, DeliveryPlan, PlanArena};
use crate::routers::MulticastRouter;

/// A typed ingestion failure: every malformed input is one of these —
/// the parsers never panic on user data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The text is not a graph in the supported JSON/DOT subset.
    Parse {
        /// What was wrong, with enough context to fix the input.
        reason: String,
    },
    /// The text parsed but the graph failed validation (or routing
    /// synthesis failed certification).
    Graph(TopographError),
    /// The graph file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The OS error.
        reason: String,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Parse { reason } => write!(f, "{reason}"),
            IngestError::Graph(e) => write!(f, "{e}"),
            IngestError::Io { path, reason } => write!(f, "cannot read {path}: {reason}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<TopographError> for IngestError {
    fn from(e: TopographError) -> Self {
        IngestError::Graph(e)
    }
}

fn parse_err(reason: impl Into<String>) -> IngestError {
    IngestError::Parse {
        reason: reason.into(),
    }
}

/// Resolves a node reference (name or index) against the node table.
fn resolve_node(v: &Json, names: &[String]) -> Result<NodeId, IngestError> {
    if let Some(s) = v.as_str() {
        return names
            .iter()
            .position(|n| n == s)
            .ok_or_else(|| parse_err(format!("unknown node name {s:?} in edges")));
    }
    if let Some(x) = v.as_num() {
        if x.fract() == 0.0 && x >= 0.0 && x < names.len() as f64 {
            return Ok(x as NodeId);
        }
        return Err(parse_err(format!(
            "node index {x} out of range (graph has {} nodes)",
            names.len()
        )));
    }
    Err(parse_err("edge endpoints must be node names or indices"))
}

/// Parses a graph from the JSON format described in the module docs.
pub fn parse_graph_json(text: &str) -> Result<CustomGraph, IngestError> {
    let doc = Json::parse(text).map_err(|e| parse_err(format!("invalid JSON: {e}")))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(parse_err("top-level JSON value must be an object"));
    }
    for key in doc.keys() {
        if !["name", "nodes", "duplex", "edges"].contains(&key) {
            return Err(parse_err(format!(
                "unknown key {key:?} (expected name, nodes, duplex, edges)"
            )));
        }
    }
    let name = match doc.get("name") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| parse_err("\"name\" must be a string"))?
            .to_string(),
        None => "custom".to_string(),
    };
    let nodes = doc
        .get("nodes")
        .ok_or_else(|| parse_err("missing \"nodes\""))?;
    let node_names: Vec<String> = if let Some(items) = nodes.as_arr() {
        let names: Vec<String> = items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| parse_err("\"nodes\" entries must be strings"))
            })
            .collect::<Result<_, _>>()?;
        for (i, n) in names.iter().enumerate() {
            if names[..i].contains(n) {
                return Err(parse_err(format!("duplicate node name {n:?}")));
            }
        }
        names
    } else if let Some(x) = nodes.as_num() {
        if x.fract() != 0.0 || !(0.0..=100_000.0).contains(&x) {
            return Err(parse_err(format!("bad node count {x}")));
        }
        CustomGraph::anon_names(x as usize)
    } else {
        return Err(parse_err("\"nodes\" must be a name list or a count"));
    };
    let duplex = match doc.get("duplex") {
        Some(v) => v
            .as_bool()
            .ok_or_else(|| parse_err("\"duplex\" must be a boolean"))?,
        None => true,
    };
    let entries = doc
        .get("edges")
        .and_then(|e| e.as_arr())
        .ok_or_else(|| parse_err("missing \"edges\" array"))?;
    let mut edges = Vec::new();
    for entry in entries {
        let parts = entry
            .as_arr()
            .ok_or_else(|| parse_err("each edge must be [from, to] or [from, to, latency]"))?;
        if parts.len() < 2 || parts.len() > 3 {
            return Err(parse_err(format!(
                "each edge must be [from, to] or [from, to, latency], got {} fields",
                parts.len()
            )));
        }
        let from = resolve_node(&parts[0], &node_names)?;
        let to = resolve_node(&parts[1], &node_names)?;
        let latency = match parts.get(2) {
            None => 1,
            Some(v) => {
                let x = v
                    .as_num()
                    .ok_or_else(|| parse_err("edge latency must be a number"))?;
                if x.fract() != 0.0 || !(0.0..=1e12).contains(&x) {
                    return Err(parse_err(format!("bad edge latency {x}")));
                }
                x as u64
            }
        };
        edges.push((from, to, latency));
        if duplex {
            edges.push((to, from, latency));
        }
    }
    Ok(CustomGraph::build(name, node_names, &edges)?)
}

/// Tokenizer for the DOT subset: identifiers, `{ } ; , = [ ]`, and the
/// edge operators `--` / `->`. Comments (`//`, `#`) run to end of line.
fn dot_tokens(text: &str) -> Result<Vec<String>, IngestError> {
    let mut tokens = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '#' {
            for c in chars.by_ref() {
                if c == '\n' {
                    break;
                }
            }
        } else if c == '/' {
            chars.next();
            if chars.peek() == Some(&'/') {
                for c in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            } else {
                return Err(parse_err("stray '/' (only // comments are supported)"));
            }
        } else if c == '-' {
            chars.next();
            match chars.next() {
                Some('-') => tokens.push("--".to_string()),
                Some('>') => tokens.push("->".to_string()),
                other => {
                    return Err(parse_err(format!(
                        "expected -- or -> after '-', got {other:?}"
                    )))
                }
            }
        } else if "{};,=[]".contains(c) {
            chars.next();
            tokens.push(c.to_string());
        } else if c.is_alphanumeric() || c == '_' || c == '.' {
            let mut ident = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_alphanumeric() || c == '_' || c == '.' {
                    ident.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            tokens.push(ident);
        } else {
            return Err(parse_err(format!("unexpected character {c:?}")));
        }
    }
    Ok(tokens)
}

/// Parses a graph from the pragmatic DOT subset described in the
/// module docs.
pub fn parse_graph_dot(text: &str) -> Result<CustomGraph, IngestError> {
    let tokens = dot_tokens(text)?;
    let mut it = tokens.iter().peekable();
    let header = it
        .next()
        .ok_or_else(|| parse_err("empty input (expected graph/digraph)"))?;
    if header != "graph" && header != "digraph" {
        return Err(parse_err(format!(
            "expected graph or digraph, got {header:?}"
        )));
    }
    let mut name = "dot".to_string();
    match it.next() {
        Some(t) if t == "{" => {}
        Some(t) => {
            name = t.clone();
            if it.next().map(String::as_str) != Some("{") {
                return Err(parse_err("expected '{' after the graph name"));
            }
        }
        None => return Err(parse_err("truncated input: expected '{'")),
    }
    let mut node_names: Vec<String> = Vec::new();
    let mut edges: Vec<(NodeId, NodeId, u64)> = Vec::new();
    let node_id = |names: &mut Vec<String>, ident: &str| -> NodeId {
        match names.iter().position(|n| n == ident) {
            Some(i) => i,
            None => {
                names.push(ident.to_string());
                names.len() - 1
            }
        }
    };
    let mut closed = false;
    while let Some(tok) = it.next() {
        if tok == "}" {
            closed = true;
            break;
        }
        if tok == ";" {
            continue;
        }
        if ["{", "=", "[", "]", ",", "--", "->"].contains(&tok.as_str()) {
            return Err(parse_err(format!(
                "unexpected {tok:?} (expected a node id)"
            )));
        }
        // A statement: node id, then an optional chain of edges.
        let mut prev = node_id(&mut node_names, tok);
        let mut chain: Vec<(NodeId, NodeId, bool)> = Vec::new();
        while matches!(it.peek().map(|t| t.as_str()), Some("--") | Some("->")) {
            let op = it.next().expect("peeked");
            let target = it
                .next()
                .ok_or_else(|| parse_err("truncated edge: missing target node"))?;
            if ["{", "}", ";", "=", "[", "]", ",", "--", "->"].contains(&target.as_str()) {
                return Err(parse_err(format!(
                    "expected a node id after {op:?}, got {target:?}"
                )));
            }
            let t = node_id(&mut node_names, target);
            chain.push((prev, t, op == "--"));
            prev = t;
        }
        // Optional attribute list, applying to the whole chain.
        let mut latency = 1;
        if it.peek().map(|t| t.as_str()) == Some("[") {
            if chain.is_empty() {
                return Err(parse_err("node attributes are not supported"));
            }
            it.next();
            loop {
                let key = it
                    .next()
                    .ok_or_else(|| parse_err("truncated attribute list"))?;
                if key == "]" {
                    break;
                }
                if key == "," {
                    continue;
                }
                if it.next().map(String::as_str) != Some("=") {
                    return Err(parse_err(format!("expected = after attribute {key:?}")));
                }
                let value = it
                    .next()
                    .ok_or_else(|| parse_err("truncated attribute value"))?;
                if key == "latency" {
                    latency = value
                        .parse::<u64>()
                        .map_err(|_| parse_err(format!("bad latency {value:?}")))?;
                } else {
                    return Err(parse_err(format!(
                        "unsupported edge attribute {key:?} (only latency)"
                    )));
                }
            }
        }
        for (a, b, duplex) in chain {
            edges.push((a, b, latency));
            if duplex {
                edges.push((b, a, latency));
            }
        }
    }
    if !closed {
        return Err(parse_err("truncated input: missing closing '}'"));
    }
    if it.next().is_some() {
        return Err(parse_err("trailing tokens after closing '}'"));
    }
    Ok(CustomGraph::build(name, node_names, &edges)?)
}

/// Parses the `<w>x<h>[x<d>]`-style numeric tail of a generator form.
fn gen_fields(rest: &str, want: usize, form: &str) -> Result<Vec<u64>, IngestError> {
    let parts: Vec<u64> = rest
        .split('x')
        .map(|p| {
            p.parse::<u64>()
                .map_err(|_| parse_err(format!("bad field {p:?} in custom:{form}")))
        })
        .collect::<Result<_, _>>()?;
    if parts.len() != want {
        return Err(parse_err(format!(
            "custom:{form} takes {want} x-separated fields, got {}",
            parts.len()
        )));
    }
    Ok(parts)
}

/// Resolves a `custom:` topology source into a validated graph.
///
/// Generator forms need no file system and are what specs should use
/// when they must work from any directory:
///
/// * `rand:<nodes>x<seed>` — random connected graph;
/// * `lmesh:<w>x<h>x<seed>` — lesioned mesh;
/// * `ftree:<k>x<seed>` — two-level fat-tree sample.
///
/// Anything ending in `.json`, `.dot` or `.gv` is read as a graph
/// file, relative to the current directory.
pub fn load_custom(source: &str) -> Result<CustomGraph, IngestError> {
    if let Some(rest) = source.strip_prefix("rand:") {
        let f = gen_fields(rest, 2, "rand:<nodes>x<seed>")?;
        return Ok(generators::random_connected(f[0] as usize, f[1]));
    }
    if let Some(rest) = source.strip_prefix("lmesh:") {
        let f = gen_fields(rest, 3, "lmesh:<w>x<h>x<seed>")?;
        return Ok(generators::lesioned_mesh(
            f[0] as usize,
            f[1] as usize,
            f[2],
        ));
    }
    if let Some(rest) = source.strip_prefix("ftree:") {
        let f = gen_fields(rest, 2, "ftree:<k>x<seed>")?;
        return Ok(generators::fat_tree_ish(f[0] as usize, f[1]));
    }
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| IngestError::Io {
            path: path.to_string(),
            reason: e.to_string(),
        })
    };
    if source.ends_with(".json") {
        return parse_graph_json(&read(source)?);
    }
    if source.ends_with(".dot") || source.ends_with(".gv") {
        return parse_graph_dot(&read(source)?);
    }
    Err(parse_err(format!(
        "unrecognized custom topology source {source:?}: expected rand:NxS, \
         lmesh:WxHxS, ftree:KxS, or a .json/.dot graph file"
    )))
}

/// Like [`load_custom`], wrapped in an `Arc` for [`crate::registry::TopoSpec::Custom`].
pub fn load_custom_arc(source: &str) -> Result<Arc<CustomGraph>, IngestError> {
    load_custom(source).map(Arc::new)
}

/// Software multicast over the synthesized unicast routes: one path
/// worm per destination, each following the certified up*/down* (or
/// shortest-path) route. Deadlock-free — every worm's channel sequence
/// is a path through the certified acyclic CDG.
pub struct UpDownMulticastRouter {
    routing: CertifiedRouting,
}

impl UpDownMulticastRouter {
    /// Synthesizes and certifies routing for `graph`; fails with the
    /// witness cycle if no certified function is found.
    pub fn new(graph: &CustomGraph) -> Result<Self, TopographError> {
        Ok(UpDownMulticastRouter {
            routing: synthesize(graph)?,
        })
    }
}

impl MulticastRouter for UpDownMulticastRouter {
    fn name(&self) -> &'static str {
        "updown-mc"
    }

    fn plan_into(&self, mc: &MulticastSet, arena: &mut PlanArena, out: &mut DeliveryPlan) {
        arena.begin(mc, out);
        for &d in &mc.destinations {
            arena.push_path(out, self.routing.path(mc.source, d), ClassChoice::Any);
        }
    }
}

/// The tree baseline on custom graphs: merges the per-destination
/// certified unicast routes into one lock-step replication tree (the
/// same construction as the hypercube `ecube-tree`). Like the other
/// tree schemes it is *not* claimed deadlock-free under strict
/// single-flit wormhole replication.
pub struct UpDownTreeRouter {
    routing: CertifiedRouting,
}

impl UpDownTreeRouter {
    /// Synthesizes and certifies routing for `graph`.
    pub fn new(graph: &CustomGraph) -> Result<Self, TopographError> {
        Ok(UpDownTreeRouter {
            routing: synthesize(graph)?,
        })
    }
}

impl MulticastRouter for UpDownTreeRouter {
    fn name(&self) -> &'static str {
        "updown-tree"
    }

    fn plan_into(&self, mc: &MulticastSet, arena: &mut PlanArena, out: &mut DeliveryPlan) {
        let mut tree = TreeRoute::new(mc.source);
        for &d in &mc.destinations {
            let path = self.routing.path(mc.source, d);
            for w in path.windows(2) {
                if !tree.contains(w[1]) {
                    tree.attach(w[0], w[1]);
                }
            }
        }
        arena.begin(mc, out);
        arena.push_tree(out, &tree, |_, _| ClassChoice::Any);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_topology::topograph::generators::SplitMix64;
    use mcast_topology::Topology;

    const JSON_TRIANGLE: &str = r#"{
  "name": "tri",
  "nodes": ["a", "b", "c"],
  "edges": [["a", "b"], ["b", "c", 2], ["a", "c"]]
}"#;

    const DOT_SQUARE: &str = "graph square {\n  // a 4-cycle with one slow side\n  n0 -- n1 [latency=3];\n  n1 -- n2;\n  n2 -- n3;\n  n3 -- n0;\n}\n";

    #[test]
    fn json_graph_parses_with_names_indices_and_latencies() {
        let g = parse_graph_json(JSON_TRIANGLE).unwrap();
        assert_eq!(g.name(), "tri");
        assert_eq!(g.num_nodes(), 3);
        assert!(g.is_duplex());
        assert_eq!(g.latency(1, 2), Some(2));
        assert_eq!(g.latency(2, 1), Some(2));
        assert_eq!(g.node_name(0), "a");
        // Non-duplex with numeric indices.
        let g = parse_graph_json(
            r#"{"nodes": 3, "duplex": false,
                "edges": [[0,1],[1,0],[1,2],[2,1],[0,2],[2,0]]}"#,
        )
        .unwrap();
        assert!(g.is_duplex()); // both directions listed explicitly
        assert_eq!(g.node_name(0), "n0");
    }

    #[test]
    fn json_rejections_are_typed() {
        let cases: &[(&str, &str)] = &[
            ("{", "invalid JSON"),
            ("[1, 2]", "must be an object"),
            (r#"{"nodes": 2, "edges": [], "extra": 1}"#, "unknown key"),
            (r#"{"edges": []}"#, "missing \"nodes\""),
            (r#"{"nodes": 2}"#, "missing \"edges\""),
            (r#"{"nodes": 2.5, "edges": []}"#, "bad node count"),
            (
                r#"{"nodes": ["a", "a"], "edges": []}"#,
                "duplicate node name",
            ),
            (r#"{"nodes": 3, "edges": [[0]]}"#, "each edge"),
            (r#"{"nodes": 3, "edges": [[0, 7]]}"#, "out of range"),
            (
                r#"{"nodes": ["a","b"], "edges": [["a","z"]]}"#,
                "unknown node name",
            ),
            (
                r#"{"nodes": 3, "edges": [[0, 1, 1.5]]}"#,
                "bad edge latency",
            ),
            (
                r#"{"nodes": 2, "duplex": 1, "edges": []}"#,
                "must be a boolean",
            ),
        ];
        for (text, needle) in cases {
            match parse_graph_json(text) {
                Err(IngestError::Parse { reason }) => {
                    assert!(reason.contains(needle), "{text}: {reason}")
                }
                other => panic!("{text}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn structural_rejections_surface_the_graph_error() {
        let self_loop = r#"{"nodes": 2, "edges": [[0, 0], [0, 1]]}"#;
        assert!(matches!(
            parse_graph_json(self_loop),
            Err(IngestError::Graph(TopographError::SelfLoop { node: 0 }))
        ));
        let dup = r#"{"nodes": 2, "duplex": false, "edges": [[0, 1], [0, 1], [1, 0]]}"#;
        assert!(matches!(
            parse_graph_json(dup),
            Err(IngestError::Graph(TopographError::DuplicateEdge { .. }))
        ));
        let zero = r#"{"nodes": 2, "edges": [[0, 1, 0]]}"#;
        assert!(matches!(
            parse_graph_json(zero),
            Err(IngestError::Graph(TopographError::ZeroLatency { .. }))
        ));
        let disconnected = r#"{"nodes": 4, "edges": [[0, 1], [2, 3]]}"#;
        assert!(matches!(
            parse_graph_json(disconnected),
            Err(IngestError::Graph(TopographError::NotConnected { .. }))
        ));
    }

    #[test]
    fn dot_graph_parses_edges_chains_and_comments() {
        let g = parse_graph_dot(DOT_SQUARE).unwrap();
        assert_eq!(g.name(), "square");
        assert_eq!(g.num_nodes(), 4);
        assert!(g.is_duplex());
        assert_eq!(g.latency(0, 1), Some(3));
        assert_eq!(g.latency(1, 2), Some(1));
        // Chains and digraph arrows; `--` still adds both directions.
        let g = parse_graph_dot("digraph { a -> b -> c; c -> a; c -- d; }").unwrap();
        assert!(!g.is_duplex());
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.latency(0, 1), Some(1));
        assert_eq!(g.latency(1, 0), None);
        assert_eq!(g.latency(2, 3), Some(1));
        assert_eq!(g.latency(3, 2), Some(1));
    }

    #[test]
    fn dot_rejections_are_typed() {
        let cases: &[(&str, &str)] = &[
            ("", "empty input"),
            ("strict graph {}", "expected graph or digraph"),
            ("graph g", "expected '{'"),
            ("graph g { a -- b; ", "missing closing '}'"),
            ("graph g { a -- ; }", "expected a node id"),
            ("graph g { a -- b [latency=x]; }", "bad latency"),
            (
                "graph g { a -- b [weight=2]; }",
                "unsupported edge attribute",
            ),
            ("graph g { a [shape=box]; }", "node attributes"),
            ("graph g { a -- b; } trailing", "trailing tokens"),
            ("graph g { a - b; }", "expected -- or ->"),
            ("graph g { a -- b @ }", "unexpected character"),
        ];
        for (text, needle) in cases {
            match parse_graph_dot(text) {
                Err(IngestError::Parse { reason }) => {
                    assert!(reason.contains(needle), "{text}: {reason}")
                }
                other => panic!("{text}: expected parse error, got {other:?}"),
            }
        }
        // A one-node DOT graph parses but fails graph validation.
        assert!(matches!(
            parse_graph_dot("graph g { a; }"),
            Err(IngestError::Graph(TopographError::TooFewNodes { nodes: 1 }))
        ));
    }

    /// Satellite: seeded fuzz over the ingestion path — random
    /// truncations and single-character corruptions of valid inputs
    /// must produce `Ok` or a typed `IngestError`, never a panic.
    #[test]
    fn ingestion_fuzz_never_panics() {
        type Parser = fn(&str) -> Result<CustomGraph, IngestError>;
        let seeds: Vec<(Parser, &str)> = vec![
            (parse_graph_json, JSON_TRIANGLE),
            (parse_graph_dot, DOT_SQUARE),
        ];
        let mut rng = SplitMix64::new(0xF022);
        for (parse, base) in seeds {
            // Every prefix truncation (at char boundaries).
            for end in 0..base.len() {
                if base.is_char_boundary(end) {
                    let _ = parse(&base[..end]);
                }
            }
            // Random single-character corruptions.
            let corruptions = b"{}[]=,;x0-\"";
            for _ in 0..500 {
                let mut bytes = base.as_bytes().to_vec();
                let at = rng.below(bytes.len());
                bytes[at] = corruptions[rng.below(corruptions.len())];
                if let Ok(s) = std::str::from_utf8(&bytes) {
                    let _ = parse(s);
                }
            }
            // Random line duplications / deletions.
            for _ in 0..100 {
                let mut lines: Vec<&str> = base.lines().collect();
                let at = rng.below(lines.len());
                if rng.below(2) == 0 {
                    lines.remove(at);
                } else {
                    let l = lines[at];
                    lines.insert(at, l);
                }
                let _ = parse(&lines.join("\n"));
            }
        }
    }

    #[test]
    fn load_custom_resolves_generator_forms() {
        let g = load_custom("rand:10x3").unwrap();
        assert_eq!(g.num_nodes(), 10);
        let g = load_custom("lmesh:4x4x2").unwrap();
        assert_eq!(g.num_nodes(), 16);
        let g = load_custom("ftree:2x1").unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert!(matches!(
            load_custom("rand:10"),
            Err(IngestError::Parse { .. })
        ));
        assert!(matches!(
            load_custom("nonsense"),
            Err(IngestError::Parse { .. })
        ));
        assert!(matches!(
            load_custom("no/such/file.json"),
            Err(IngestError::Io { .. })
        ));
    }

    #[test]
    fn custom_routers_cover_destinations() {
        let g = generators::lesioned_mesh(4, 4, 7);
        let mc = MulticastSet::new(3, [0, 5, 10, 15]);
        let mcr = UpDownMulticastRouter::new(&g).unwrap();
        let plan = mcr.plan(&mc);
        assert_eq!(plan.source, 3);
        assert_eq!(plan.worms.len(), 4);
        let tree = UpDownTreeRouter::new(&g).unwrap();
        let plan = tree.plan(&mc);
        assert_eq!(plan.source, 3);
        assert!(!plan.worms.is_empty());
    }
}
