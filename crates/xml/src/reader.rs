//! Reader-based streaming parse: build a [`DataTree`] from any
//! [`std::io::Read`] without buffering the whole document.
//!
//! [`parse_reader`] pulls fixed-size chunks, tokenizes every *complete*
//! token in the accumulated tail and feeds it to the same token → tree
//! state machine the in-memory parser uses, so the result is identical to
//! `parse(&whole_input)` byte for byte. Memory held at any moment is
//! O(chunk + largest single token + tree built so far) — the raw document
//! text is never resident at once. This is what lets the HTTP serving mode
//! parse request bodies straight off the socket.
//!
//! A token is *complete* when the tokenizer consumed it without reaching
//! the end of the accumulated buffer (tags are self-delimiting; a text run
//! touching the buffer end may continue in the next chunk, so it is held
//! back until more input arrives or EOF proves it finished). Tokenizer
//! errors while more input remains are treated as "need more data" and
//! retried — a truncated `&amp;` or `<![CDATA[` only fails once EOF makes
//! the truncation real.

use std::io::Read;

use crate::error::{ParseError, ParseErrorKind, Position};
use crate::parser::TreeAssembler;
use crate::tokenizer::{Token, Tokenizer};
use crate::tree::DataTree;

/// Bytes requested from the reader per refill.
const CHUNK: usize = 64 * 1024;

/// Failure of a streaming parse: the transport broke, or the XML is bad.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The document is not well-formed XML (positions are absolute within
    /// the stream).
    Parse(ParseError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "read error: {e}"),
            ReadError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<ParseError> for ReadError {
    fn from(e: ParseError) -> Self {
        ReadError::Parse(e)
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Parse a document from a reader. A leading UTF-8 BOM is skipped,
/// matching [`crate::parse`].
pub fn parse_reader<R: Read>(mut reader: R) -> Result<DataTree, ReadError> {
    let mut assembler = TreeAssembler::new();
    // Unconsumed, valid-UTF-8 input; `base` is the absolute position of
    // `buf[0]` in the stream, used to rebase token/error positions.
    let mut buf = String::new();
    let mut base = Position::start();
    // Bytes read but not yet validated as UTF-8 (a multi-byte character
    // may straddle a chunk boundary).
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; CHUNK];
    let mut at_start = true;
    let mut eof = false;

    loop {
        if !eof {
            let n = read_retrying(&mut reader, &mut chunk)?;
            if n == 0 {
                eof = true;
                if !pending.is_empty() {
                    // The stream ended inside a multi-byte character.
                    return Err(illegal_utf8(&buf, base).into());
                }
            } else {
                pending.extend_from_slice(&chunk[..n]);
                append_valid_utf8(&mut buf, &mut pending, base)?;
                if at_start && !buf.is_empty() {
                    if let Some(rest) = buf.strip_prefix('\u{FEFF}') {
                        buf = rest.to_string();
                    }
                    at_start = false;
                }
            }
        }

        let mut tokens = Tokenizer::new(&buf);
        let mut consumed = 0usize;
        let mut finished = false;
        loop {
            match tokens.next_token() {
                Ok(Some(tok)) => {
                    let after = tokens.position().offset;
                    if !eof && after >= buf.len() && matches!(tok, Token::Text { .. }) {
                        // The run may continue in the next chunk; emitting
                        // it now could split one text run into two.
                        break;
                    }
                    assembler.push(rebase_token(tok, base))?;
                    consumed = after;
                }
                Ok(None) => {
                    finished = true;
                    break;
                }
                Err(e) => {
                    if eof {
                        return Err(ReadError::Parse(rebase_error(e, base)));
                    }
                    // Possibly a token truncated at the buffer end; fetch
                    // more input and retry from the last complete token.
                    break;
                }
            }
        }

        if consumed > 0 {
            base = advance_position(base, &buf[..consumed]);
            buf.drain(..consumed);
        }
        if eof && finished {
            return Ok(assembler.finish(advance_position(base, &buf))?);
        }
        // !eof: fetch more input. (At EOF the inner loop always either
        // finishes cleanly or returns the tokenizer's error.)
    }
}

/// `read` with `Interrupted` retries.
fn read_retrying<R: Read>(reader: &mut R, chunk: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match reader.read(chunk) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Move the longest valid-UTF-8 prefix of `pending` onto `buf`; keep an
/// (at most 3-byte) incomplete trailing character for the next chunk.
fn append_valid_utf8(
    buf: &mut String,
    pending: &mut Vec<u8>,
    base: Position,
) -> Result<(), ParseError> {
    match std::str::from_utf8(pending) {
        Ok(s) => {
            buf.push_str(s);
            pending.clear();
            Ok(())
        }
        Err(e) => {
            let valid = e.valid_up_to();
            buf.push_str(std::str::from_utf8(&pending[..valid]).expect("validated prefix"));
            if e.error_len().is_some() {
                // Genuinely invalid bytes, not a split character.
                return Err(illegal_utf8(buf, base));
            }
            pending.drain(..valid);
            Ok(())
        }
    }
}

fn illegal_utf8(buf: &str, base: Position) -> ParseError {
    ParseError::new(
        ParseErrorKind::IllegalCharacter(0xFFFD),
        advance_position(base, buf),
    )
}

/// Position of `base + consumed` (tokenizer convention: lines split on
/// `\n`, columns count characters, not continuation bytes).
fn advance_position(mut base: Position, consumed: &str) -> Position {
    base.offset += consumed.len();
    for &b in consumed.as_bytes() {
        if b == b'\n' {
            base.line += 1;
            base.column = 1;
        } else if b & 0xC0 != 0x80 {
            base.column += 1;
        }
    }
    base
}

/// Translate a buffer-relative position to a stream-absolute one.
fn rebase(pos: Position, base: Position) -> Position {
    Position {
        offset: base.offset + pos.offset,
        line: base.line + pos.line - 1,
        column: if pos.line == 1 {
            base.column + pos.column - 1
        } else {
            pos.column
        },
    }
}

fn rebase_token(tok: Token, base: Position) -> Token {
    match tok {
        Token::StartTag {
            name,
            attrs,
            self_closing,
            pos,
        } => Token::StartTag {
            name,
            attrs,
            self_closing,
            pos: rebase(pos, base),
        },
        Token::EndTag { name, pos } => Token::EndTag {
            name,
            pos: rebase(pos, base),
        },
        Token::Text { text, pos } => Token::Text {
            text,
            pos: rebase(pos, base),
        },
        Token::CData { text, pos } => Token::CData {
            text,
            pos: rebase(pos, base),
        },
    }
}

fn rebase_error(mut e: ParseError, base: Position) -> ParseError {
    e.position = rebase(e.position, base);
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// A reader delivering at most `step` bytes per `read` call — forces
    /// every possible token split.
    struct Trickle<'a> {
        data: &'a [u8],
        at: usize,
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len() - self.at);
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    const CORPUS: &[&str] = &[
        "<a/>",
        "<a>hi</a>",
        "<a x='1' y=\"two\"><b>text</b><c/><c/></a>",
        "<w><book><i>1</i><t>A&amp;B</t></book><book><i>2</i></book></w>",
        "<a>\n  multi\n  line\n</a>",
        "<?xml version='1.0'?><!-- c --><a><![CDATA[1 < 2]]></a>",
        "<p>hello <b>world</b></p>",
        "<caf\u{e9}>\u{e9}l\u{e9}ment</caf\u{e9}>",
        "\u{FEFF}<a>bom</a>",
        "<r><s>  padded  </s><t>a&#65;b</t></r>",
    ];

    #[test]
    fn equivalent_to_in_memory_parse_at_every_split() {
        for xml in CORPUS {
            let whole = parse(xml).unwrap();
            for step in [1, 2, 3, 5, 7, 64 * 1024] {
                let streamed = parse_reader(Trickle {
                    data: xml.as_bytes(),
                    at: 0,
                    step,
                })
                .unwrap_or_else(|e| panic!("step {step} on {xml:?}: {e}"));
                assert_eq!(
                    crate::to_xml_string(&streamed),
                    crate::to_xml_string(&whole),
                    "step {step} on {xml:?}"
                );
            }
        }
    }

    #[test]
    fn errors_match_in_memory_parse() {
        for bad in [
            "<a><b></a></b>",
            "</a>",
            "<a>",
            "",
            "<a/><b/>",
            "<a/>junk",
            "<a>&bogus;</a>",
            "<!-- never closed",
        ] {
            for step in [1, 3, 4096] {
                let streamed = parse_reader(Trickle {
                    data: bad.as_bytes(),
                    at: 0,
                    step,
                });
                assert!(streamed.is_err(), "step {step} accepted {bad:?}");
                assert!(parse(bad).is_err(), "{bad:?}");
            }
        }
    }

    #[test]
    fn error_positions_are_stream_absolute() {
        // The mismatched close tag sits on line 3.
        let bad = "<a>\n<b>x</b>\n</wrong>";
        let err = match parse_reader(Trickle {
            data: bad.as_bytes(),
            at: 0,
            step: 2,
        }) {
            Err(ReadError::Parse(e)) => e,
            other => panic!("expected parse error, got {other:?}"),
        };
        let whole = parse(bad).unwrap_err();
        assert_eq!(err.position, whole.position);
        assert_eq!(err.position.line, 3);
    }

    #[test]
    fn split_multibyte_characters_reassemble() {
        let xml = "<a>\u{1F600}\u{1F680}</a>"; // 4-byte scalars
        for step in 1..6 {
            let t = parse_reader(Trickle {
                data: xml.as_bytes(),
                at: 0,
                step,
            })
            .unwrap();
            assert_eq!(t.value(t.root()), Some("\u{1F600}\u{1F680}"));
        }
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let bytes: &[u8] = b"<a>\xFF\xFE</a>";
        let res = parse_reader(Trickle {
            data: bytes,
            at: 0,
            step: 1,
        });
        assert!(matches!(res, Err(ReadError::Parse(_))), "{res:?}");
    }

    #[test]
    fn truncated_multibyte_at_eof_is_rejected() {
        let bytes: &[u8] = b"<a>caf\xC3"; // é missing its continuation byte
        let res = parse_reader(Trickle {
            data: bytes,
            at: 0,
            step: 3,
        });
        assert!(res.is_err());
    }

    #[test]
    fn io_errors_propagate() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("boom"))
            }
        }
        assert!(matches!(parse_reader(Failing), Err(ReadError::Io(_))));
    }

    #[test]
    fn large_document_streams() {
        let mut xml = String::from("<r>");
        for i in 0..2_000 {
            xml.push_str(&format!("<b><i>{}</i><t>title {}</t></b>", i % 97, i % 97));
        }
        xml.push_str("</r>");
        let streamed = parse_reader(Trickle {
            data: xml.as_bytes(),
            at: 0,
            step: 1713, // prime, lands splits everywhere
        })
        .unwrap();
        assert_eq!(
            crate::to_xml_string(&streamed),
            crate::to_xml_string(&parse(&xml).unwrap())
        );
    }
}
