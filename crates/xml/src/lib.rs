#![warn(missing_docs)]
//! # xfd-xml
//!
//! XML substrate for the DiscoverXFD system (Yu & Jagadish, VLDB 2006):
//! a from-scratch XML parser, an arena-based data tree implementing the
//! paper's Definition 2 (*rooted labeled tree with node keys, parent-child
//! edges and value assignments*), XPath-style path expressions restricted to
//! the steps the paper uses (`/a/b`, `./x`, `../y`, `@attr`), and
//! node-value / path-value equality (Definitions 3 and 4) computed via
//! bottom-up hash-consing into equality classes.
//!
//! Design notes (mirroring Section 2.1 of the paper):
//!
//! * attributes and elements are treated uniformly; an attribute `a="v"` on
//!   element `e` becomes a child node of `e` labeled `@a` with value `v`;
//! * a mixed-content element with exactly one textual chunk stores that text
//!   under a distinct `@text` child; other textual chunks of mixed-content
//!   elements are ignored;
//! * element order among siblings is recorded (document order) but all value
//!   equality is *unordered* (multiset) equality, per Section 3.1 Remark 4.
//!
//! The crate has no dependencies and is usable on its own:
//!
//! ```
//! use xfd_xml::{parse, Path};
//! let tree = parse("<a><b x='1'>hi</b><b x='2'>ho</b></a>").unwrap();
//! // Nodes: a, b, @x, @text, b, @x, @text
//! assert_eq!(tree.node_count(), 7);
//! let p: Path = "/a/b/@x".parse().unwrap();
//! assert_eq!(p.resolve_all(&tree).len(), 2);
//! ```

pub mod builder;
pub mod error;
pub mod escape;
pub mod intern;
pub mod path;
pub mod query;
pub mod reader;
pub mod serialize;
pub mod tokenizer;
pub mod tree;
pub mod value_eq;

mod parser;

pub use builder::TreeBuilder;
pub use error::{ParseError, ParseErrorKind, Position};
pub use intern::{Interner, Symbol};
pub use parser::{parse, parse_with_options, ParseOptions};
pub use path::{Path, Step};
pub use query::Query;
pub use reader::{parse_reader, parse_reader_with_options, ReadError};
pub use serialize::{to_xml_string, to_xml_string_with, SerializeOptions};
pub use tree::{DataTree, NodeId, TreeStats};
pub use value_eq::{
    canonical_form, node_value_eq_cross, path_value_eq, preorder_of, CanonicalValue, EqClasses,
    OrderMode, Shape, ShapeCons, ValueClassId,
};

/// Label given to the synthetic child that stores the single textual chunk
/// of a mixed-content element (paper Section 2.1).
pub const TEXT_LABEL: &str = "@text";

/// Prefix that distinguishes attribute-derived nodes from element nodes.
pub const ATTR_PREFIX: char = '@';
