//! `TreeTuple` segments: a compact binary codec for [`DataTree`]s.
//!
//! The corpus store persists each ingested document as one *segment*: a
//! self-contained block holding a local string table (the document's
//! value-dictionary delta — exactly the distinct labels and values it
//! uses, in first-use order) followed by the tree tuples, one fixed-width
//! record per node in pre-order. Decoding replays the records through
//! [`DataTree::add_child`], which reassigns the same sequential pre-order
//! node keys, so `decode(encode(t))` reproduces `t` exactly: labels,
//! values, parent edges, sibling order and node ids.
//!
//! Layout (all integers little-endian `u32`):
//!
//! ```text
//! magic "XTT1"
//! n_strings, then per string: byte length + UTF-8 bytes
//! n_nodes,   then per node:   label index | parent id (!0 for the root)
//!                             | value index (!0 for "no value")
//! ```
//!
//! The format is strict: bad magic, out-of-range indices, a non-root
//! parent that does not precede its child, or trailing bytes are all
//! decode errors — a torn or corrupted segment never yields a tree.

use xfd_hash::codec::{put_bytes, put_u32, CodecError, Reader};
use xfd_hash::FxHashMap;
use xfd_xml::{DataTree, NodeId};

/// Magic prefix of every segment ("XML tree tuples, version 1").
pub const TREETUPLE_MAGIC: [u8; 4] = *b"XTT1";

/// Sentinel index meaning "absent" (no parent / no value).
const NONE: u32 = u32::MAX;

/// Encode `tree` into a self-contained segment block.
pub fn encode_tree(tree: &DataTree) -> Vec<u8> {
    // First-use-order local string table over labels and values.
    fn intern<'a>(
        table: &mut Vec<&'a str>,
        index: &mut FxHashMap<&'a str, u32>,
        s: &'a str,
    ) -> u32 {
        if let Some(&i) = index.get(s) {
            return i;
        }
        let i = table.len() as u32;
        table.push(s);
        index.insert(s, i);
        i
    }
    let mut table: Vec<&str> = Vec::new();
    let mut index: FxHashMap<&str, u32> = FxHashMap::default();
    struct Record {
        label: u32,
        parent: u32,
        value: u32,
    }
    let mut records: Vec<Record> = Vec::with_capacity(tree.node_count());
    for node in tree.all_nodes() {
        records.push(Record {
            label: intern(&mut table, &mut index, tree.label(node)),
            parent: tree.parent(node).map_or(NONE, |p| p.0),
            value: tree
                .value(node)
                .map_or(NONE, |v| intern(&mut table, &mut index, v)),
        });
    }

    let mut out = Vec::with_capacity(16 + table.len() * 8 + records.len() * 12);
    out.extend_from_slice(&TREETUPLE_MAGIC);
    put_u32(&mut out, table.len() as u32);
    for s in &table {
        put_bytes(&mut out, s.as_bytes());
    }
    put_u32(&mut out, records.len() as u32);
    for r in &records {
        put_u32(&mut out, r.label);
        put_u32(&mut out, r.parent);
        put_u32(&mut out, r.value);
    }
    out
}

/// Decode a segment block back into the [`DataTree`] it encodes.
pub fn decode_tree(bytes: &[u8]) -> Result<DataTree, CodecError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != TREETUPLE_MAGIC {
        return Err(CodecError::BadMagic);
    }
    // Each string needs at least its 4-byte length.
    let n_strings = r.count_u32(4)?;
    let mut table: Vec<&str> = Vec::with_capacity(n_strings);
    for _ in 0..n_strings {
        table.push(r.str()?);
    }
    let string_at = |i: u32| -> Result<&str, CodecError> {
        table
            .get(i as usize)
            .copied()
            .ok_or(CodecError::BadValue("string index"))
    };

    let n_nodes = r.count_u32(12)?;
    if n_nodes == 0 {
        return Err(CodecError::BadValue("node count"));
    }
    let mut tree: Option<DataTree> = None;
    for id in 0..n_nodes as u32 {
        let label = r.u32()?;
        let parent = r.u32()?;
        let value = r.u32()?;
        let node = match (&mut tree, parent) {
            (None, NONE) => {
                tree = Some(DataTree::with_root(string_at(label)?));
                NodeId(0)
            }
            (None, _) => return Err(CodecError::BadValue("root parent")),
            (Some(_), NONE) => return Err(CodecError::BadValue("second root")),
            (Some(t), p) => {
                // Pre-order: a parent always precedes its children.
                if p >= id {
                    return Err(CodecError::BadValue("parent id"));
                }
                t.add_child(NodeId(p), string_at(label)?)
            }
        };
        if value != NONE {
            let v = string_at(value)?;
            match tree.as_mut() {
                Some(t) => t.set_value(node, v),
                // Every arm above either installed a root or returned.
                None => return Err(CodecError::BadValue("value before root")),
            }
        }
    }
    r.finish()?;
    tree.ok_or(CodecError::BadValue("node count"))
}

/// Structural equality of two trees: same nodes in the same pre-order with
/// the same labels, values and parent edges. (`DataTree` deliberately does
/// not implement `PartialEq`; interner internals may differ.)
pub fn trees_equal(a: &DataTree, b: &DataTree) -> bool {
    if a.node_count() != b.node_count() {
        return false;
    }
    a.all_nodes().zip(b.all_nodes()).all(|(x, y)| {
        a.label(x) == b.label(y)
            && a.value(x) == b.value(y)
            && a.parent(x).map(|p| p.0) == b.parent(y).map(|p| p.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfd_hash::codec::check_garbled;
    use xfd_xml::parse;

    fn roundtrip(xml: &str) {
        let t = parse(xml).unwrap();
        let bytes = encode_tree(&t);
        let back = decode_tree(&bytes).unwrap();
        assert!(trees_equal(&t, &back), "round-trip mismatch for {xml}");
    }

    #[test]
    fn encodes_and_decodes_small_documents() {
        roundtrip("<r/>");
        roundtrip("<r><a>1</a><a>1</a><b x='y'>2</b></r>");
        roundtrip("<w><s><n>WA</n><b><i>1</i></b></s><s><n>KY</n></s></w>");
    }

    #[test]
    fn string_table_deduplicates_repeated_values() {
        let t = parse("<r><a>dup</a><a>dup</a><a>dup</a></r>").unwrap();
        let bytes = encode_tree(&t);
        // "dup" must appear exactly once in the block.
        let needle = b"dup";
        let count = bytes.windows(needle.len()).filter(|w| w == needle).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert_eq!(decode_tree(b"nope").err(), Some(CodecError::BadMagic));
        for xml in [
            "<r/>",
            "<r><a>1</a></r>",
            "<w><s><n>WA</n><b><i>1</i></b></s><s><n>KY</n></s></w>",
        ] {
            let bytes = encode_tree(&parse(xml).unwrap());
            assert_eq!(check_garbled(&bytes, decode_tree), Ok(()), "{xml}");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let t = parse("<r/>").unwrap();
        let mut bytes = encode_tree(&t);
        bytes.push(0);
        assert_eq!(decode_tree(&bytes).err(), Some(CodecError::TrailingBytes));
    }

    #[test]
    fn decoded_tree_preserves_preorder_node_keys() {
        let t = parse("<w><s><n>WA</n></s><s><n>KY</n></s></w>").unwrap();
        let back = decode_tree(&encode_tree(&t)).unwrap();
        for (a, b) in t.all_nodes().zip(back.all_nodes()) {
            assert_eq!(a, b);
            assert_eq!(t.children(a), back.children(b));
        }
    }
}
