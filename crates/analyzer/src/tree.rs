//! The query-block tree of Figure 2.
//!
//! A nested query is "a multi-way tree whose nodes are query blocks, where
//! the outermost query block … is the root" (Section 9.1). This module
//! builds that tree with each edge labelled by the nesting type of the child
//! block, and renders it in the style of the paper's figure.

use crate::classify::{classify_inner, NestingType};
use crate::resolve::Analyzed;
use nsql_sql::QueryBlock;

/// A node of the query tree: a label (`A`, `B`, … in preorder like the
/// figure) and its nested children with edge labels.
#[derive(Debug, Clone)]
pub struct QueryTree {
    /// Preorder label, `A` for the root.
    pub label: String,
    /// Children: (nesting type of the edge, subtree).
    pub children: Vec<(NestingType, QueryTree)>,
}

impl QueryTree {
    /// Total number of query blocks in the tree.
    pub fn block_count(&self) -> usize {
        1 + self.children.iter().map(|(_, c)| c.block_count()).sum::<usize>()
    }

    /// Maximum nesting depth (a flat query has depth 0).
    pub fn depth(&self) -> usize {
        self.children.iter().map(|(_, c)| c.depth() + 1).max().unwrap_or(0)
    }

    /// Whether any edge in the tree is of the given type.
    pub fn contains(&self, ty: NestingType) -> bool {
        self.children.iter().any(|(t, c)| *t == ty || c.contains(ty))
    }

    /// Render as an ASCII tree, one node per line, edges labelled like
    /// Figure 2.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, "", None);
        out
    }

    fn render_into(&self, out: &mut String, prefix: &str, edge: Option<NestingType>) {
        match edge {
            None => out.push_str(&format!("{}{}\n", prefix, self.label)),
            Some(t) => out.push_str(&format!("{}{} [{}]\n", prefix, self.label, t)),
        }
        for (i, (t, child)) in self.children.iter().enumerate() {
            let last = i + 1 == self.children.len();
            let connector = if last { "└── " } else { "├── " };
            let child_prefix = format!("{}{}", prefix, connector);
            let cont_prefix = format!("{}{}", prefix, if last { "    " } else { "│   " });
            child.render_into_with(out, &child_prefix, &cont_prefix, Some(*t));
        }
    }

    fn render_into_with(
        &self,
        out: &mut String,
        head_prefix: &str,
        cont_prefix: &str,
        edge: Option<NestingType>,
    ) {
        match edge {
            None => out.push_str(&format!("{}{}\n", head_prefix, self.label)),
            Some(t) => out.push_str(&format!("{}{} [{}]\n", head_prefix, self.label, t)),
        }
        for (i, (t, child)) in self.children.iter().enumerate() {
            let last = i + 1 == self.children.len();
            let connector = if last { "└── " } else { "├── " };
            let child_head = format!("{}{}", cont_prefix, connector);
            let child_cont = format!("{}{}", cont_prefix, if last { "    " } else { "│   " });
            child.render_into_with(out, &child_head, &child_cont, Some(*t));
        }
    }
}

/// Build the query tree of an analyzed statement, labelling blocks `A`,
/// `B`, … in preorder and classifying every edge.
pub fn query_tree(root: &Analyzed) -> QueryTree {
    build(root.block(), &mut 0)
}

fn label_for(i: usize) -> String {
    // A, B, …, Z, AA, AB, … — enough for any sane query.
    let mut s = String::new();
    let mut n = i;
    loop {
        s.insert(0, (b'A' + (n % 26) as u8) as char);
        if n < 26 {
            break;
        }
        n = n / 26 - 1;
    }
    s
}

fn build(block: &QueryBlock, counter: &mut usize) -> QueryTree {
    let label = label_for(*counter);
    *counter += 1;
    let children =
        block.child_blocks().into_iter().map(|inner| (classify_inner(inner), build(inner, counter)));
    QueryTree { label, children: children.collect() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::test_catalog::PaperCatalog;
    use nsql_sql::parse_query;

    fn tree(src: &str) -> QueryTree {
        query_tree(&crate::analyze(&PaperCatalog::new(), &parse_query(src).unwrap()).unwrap())
    }

    #[test]
    fn flat_query_is_single_node() {
        let t = tree("SELECT SNO FROM SP");
        assert_eq!(t.block_count(), 1);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.label, "A");
    }

    #[test]
    fn figure_2_shape() {
        // A with children B and D; B with children C; C with child E is the
        // figure's shape — build an analogous query: A(B(C(E)), D).
        let t = tree(
            "SELECT SNAME FROM S WHERE \
               SNO IN (SELECT SNO FROM SP WHERE \
                         QTY = (SELECT MAX(WEIGHT) FROM P WHERE \
                                  PNO IN (SELECT PNO FROM SP X WHERE X.ORIGIN = S.CITY))) \
               AND CITY IN (SELECT CITY FROM P)",
        );
        assert_eq!(t.block_count(), 5);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.children.len(), 2);
        let labels: Vec<&str> = t.children.iter().map(|(_, c)| c.label.as_str()).collect();
        assert_eq!(labels, vec!["B", "E"]);
        // B's child chain: C then D.
        let b = &t.children[0].1;
        assert_eq!(b.children[0].1.label, "C");
        assert_eq!(b.children[0].1.children[0].1.label, "D");
        let rendered = t.render();
        assert!(rendered.contains("└── E"), "{rendered}");
        assert!(rendered.contains("type-"), "{rendered}");
    }

    #[test]
    fn edge_types_match_classification() {
        let t = tree(
            "SELECT PNAME FROM P WHERE PNO = (SELECT MAX(PNO) FROM SP WHERE SP.ORIGIN = P.CITY)",
        );
        assert_eq!(t.children[0].0, NestingType::TypeJA);
        assert!(t.contains(NestingType::TypeJA));
        assert!(!t.contains(NestingType::TypeN));
    }

    #[test]
    fn labels_go_past_z() {
        assert_eq!(label_for(0), "A");
        assert_eq!(label_for(25), "Z");
        assert_eq!(label_for(26), "AA");
        assert_eq!(label_for(27), "AB");
    }
}
