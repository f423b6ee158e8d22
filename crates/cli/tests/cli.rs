//! End-to-end tests of the `discoverxfd` binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_discoverxfd"))
}

fn write_warehouse() -> tempfile_lite::TempPath {
    let gen = bin().args(["gen", "warehouse"]).output().expect("gen runs");
    assert!(gen.status.success());
    tempfile_lite::write("discoverxfd-cli-test.xml", &gen.stdout)
}

/// A tiny self-contained temp-file helper (std-only; avoids a dependency).
mod tempfile_lite {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// Tests run on parallel threads of one process; each file gets its
    /// own name so one test's `Drop` never deletes another's input.
    static NEXT: AtomicUsize = AtomicUsize::new(0);

    pub fn write(name: &str, contents: &[u8]) -> TempPath {
        let mut p = std::env::temp_dir();
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        p.push(format!("{}-{n}-{}", std::process::id(), name));
        std::fs::write(&p, contents).expect("temp write");
        TempPath(p)
    }
}

#[test]
fn gen_produces_parseable_xml() {
    let out = bin().args(["gen", "warehouse"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("<warehouse>"));
    xfd_xml::parse(&text).expect("generated XML parses");
}

#[test]
fn discover_reports_the_paper_fds() {
    let file = write_warehouse();
    let out = bin()
        .args(["discover", file.0.to_str().unwrap(), "--suggest"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("{./ISBN} -> ./title w.r.t. C_book"), "{text}");
    assert!(
        text.contains("{./ISBN} -> ./author w.r.t. C_book"),
        "{text}"
    );
    assert!(text.contains("# Redundancies"), "{text}");
    assert!(text.contains("# Refinement suggestions"), "{text}");
}

#[test]
fn schema_subcommand_prints_figure_2() {
    let file = write_warehouse();
    let out = bin()
        .args(["schema", file.0.to_str().unwrap()])
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("author: SetOf str"), "{text}");
    assert!(text.contains("store: SetOf Rcd"), "{text}");
}

#[test]
fn flat_subcommand_runs() {
    let file = write_warehouse();
    let out = bin()
        .args(["flat", file.0.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("# Flat relation: 7 rows"), "{text}");
}

#[test]
fn approx_flag_reports_errors() {
    let file = write_warehouse();
    let out = bin()
        .args(["discover", file.0.to_str().unwrap(), "--approx", "0.5"])
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("# Approximate FDs"), "{text}");
    assert!(
        text.contains("error 0.0000"),
        "exact FDs appear with zero error: {text}"
    );
}

#[test]
fn check_subcommand_verifies_fds() {
    let file = write_warehouse();
    let holds = bin()
        .args([
            "check",
            file.0.to_str().unwrap(),
            "{./ISBN} -> ./title w.r.t. C_book",
        ])
        .output()
        .unwrap();
    let text = String::from_utf8(holds.stdout).unwrap();
    assert!(text.contains("HOLDS"), "{text}");
    assert!(text.contains("NOT a key"), "{text}");

    let violated = bin()
        .args([
            "check",
            file.0.to_str().unwrap(),
            "{./ISBN} -> ./price w.r.t. C_book",
        ])
        .output()
        .unwrap();
    let text = String::from_utf8(violated.stdout).unwrap();
    assert!(text.contains("VIOLATED"), "{text}");
}

/// `check` on a failing inter-relation FD prints its witnesses in a fixed
/// order (LHS groups by first member, then members ascending); the bytes
/// are pinned in the workspace's `tests/golden/`.
#[test]
fn check_witnesses_match_golden() {
    let gen = bin()
        .args(["gen", "warehouse", "--seed", "1"])
        .output()
        .expect("gen runs");
    assert!(gen.status.success());
    let file = tempfile_lite::write("discoverxfd-cli-golden.xml", &gen.stdout);
    let out = bin()
        .args([
            "check",
            file.0.to_str().unwrap(),
            "{../../name} -> ./price w.r.t. C_book",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        include_str!("../../../tests/golden/warehouse_check.txt")
    );
}

#[test]
fn select_subcommand_queries_documents() {
    let file = write_warehouse();
    let out = bin()
        .args([
            "select",
            file.0.to_str().unwrap(),
            "//store[contact/name='Borders']/book/title",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 3, "{text}");
    assert!(text.contains("\"DBMS\""), "{text}");
}

#[test]
fn diff_subcommand_reports_drift() {
    let file = write_warehouse();
    let out = bin()
        .args(["diff", file.0.to_str().unwrap(), file.0.to_str().unwrap()])
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("no constraint drift"), "{text}");
}

#[test]
fn json_output_is_emitted() {
    let file = write_warehouse();
    let out = bin()
        .args(["discover", file.0.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.trim_start().starts_with('{'), "{text}");
    assert!(text.contains("\"fds\""), "{text}");
    assert!(
        !text.contains("# Schema"),
        "json mode suppresses text output"
    );
}

#[test]
fn cover_flag_reduces_the_fd_list() {
    let file = write_warehouse();
    let out = bin()
        .args(["discover", file.0.to_str().unwrap(), "--cover"])
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("# Canonical covers"), "{text}");
    // The cover for C_book is smaller than the full minimal-FD list
    // (e.g. title→author follows from title→ISBN and ISBN→author).
    let full = text
        .lines()
        .skip_while(|l| !l.starts_with("# Interesting"))
        .take_while(|l| !l.starts_with("# XML Keys"))
        .filter(|l| l.contains("w.r.t. C_book"))
        .count();
    let cover = text
        .lines()
        .skip_while(|l| !l.starts_with("# Canonical covers"))
        .filter(|l| l.contains("w.r.t. C_book"))
        .count();
    assert!(cover > 0, "{text}");
    assert!(cover < full, "cover {cover} !< full {full}:\n{text}");
}

#[test]
fn dot_subcommand_renders_graphs() {
    let file = write_warehouse();
    let forest = bin()
        .args(["dot", file.0.to_str().unwrap()])
        .output()
        .unwrap();
    let text = String::from_utf8(forest.stdout).unwrap();
    assert!(text.starts_with("digraph forest"), "{text}");
    let fds = bin()
        .args(["dot", file.0.to_str().unwrap(), "--fds"])
        .output()
        .unwrap();
    let text = String::from_utf8(fds.stdout).unwrap();
    assert!(text.starts_with("digraph fds"), "{text}");
}

#[test]
fn normalize_subcommand_emits_refactored_xml() {
    let file = write_warehouse();
    let out = bin()
        .args(["normalize", file.0.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let xml = String::from_utf8(out.stdout).unwrap();
    let log = String::from_utf8(out.stderr).unwrap();
    assert!(log.contains("applied:"), "{log}");
    let tree = xfd_xml::parse(&xml).expect("normalized output parses");
    assert!(
        "/warehouse/book_info"
            .parse::<xfd_xml::Path>()
            .unwrap()
            .resolve_all(&tree)
            .len()
            >= 2,
        "extracted book_info elements expected:\n{xml}"
    );
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = bin().args(["bogus"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = bin()
        .args(["discover", "/nonexistent/x.xml"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn unknown_flag_is_a_clean_error() {
    let file = write_warehouse();
    for args in [
        vec!["discover", file.0.to_str().unwrap(), "--bogus"],
        vec!["schema", file.0.to_str().unwrap(), "--max-lhs"],
        vec!["serve", "--no-such-option"],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error: unknown option"), "{args:?}: {err}");
    }
}

/// The materializing partition kernel is a test oracle of
/// `discover_intra`, not a product option: no discovery job takes the old
/// escape hatch.
#[test]
fn the_old_kernel_flag_is_an_unknown_option() {
    let file = write_warehouse();
    for args in [
        vec!["discover", file.0.to_str().unwrap()],
        vec!["corpus", "discover", "c"],
        vec!["cluster", "discover", "c"],
    ] {
        let out = bin()
            .args(&args)
            .arg("--no-error-only-kernel")
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.starts_with("error: unknown option \"--no-error-only-kernel\""),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn corpus_rejects_unknown_flags_and_excess_positionals() {
    // Single-dash spellings used to be swallowed as positionals; every
    // malformed invocation must be a one-line hard error, never a no-op.
    for (args, want) in [
        (vec!["corpus", "list", "-root"], "unknown option"),
        (vec!["corpus", "create", "c", "-v"], "unknown option"),
        (vec!["corpus", "status", "c", "--bogus"], "unknown option"),
        (vec!["corpus", "create", "a", "b"], "unexpected argument"),
        (vec!["corpus", "list", "stray"], "unexpected argument"),
        (
            vec!["corpus", "discover", "c", "extra", "--json"],
            "unexpected argument",
        ),
        (vec!["corpus", "create"], "missing corpus name"),
        (vec!["corpus", "add", "c"], "missing xml file"),
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8(out.stderr).unwrap();
        let first = err.lines().next().unwrap_or("");
        assert!(
            first.starts_with("error:") && first.contains(want),
            "{args:?}: {first}"
        );
    }
}

#[test]
fn bad_flag_value_is_a_clean_error() {
    let file = write_warehouse();
    let out = bin()
        .args(["discover", file.0.to_str().unwrap(), "--max-lhs", "many"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("invalid value for --max-lhs"), "{err}");

    let dangling = bin()
        .args(["discover", file.0.to_str().unwrap(), "--max-lhs"])
        .output()
        .unwrap();
    assert!(!dangling.status.success());
    let err = String::from_utf8(dangling.stderr).unwrap();
    assert!(err.contains("--max-lhs requires a value"), "{err}");
}

#[test]
fn serve_with_unbindable_address_fails_fast() {
    let out = bin()
        .args(["serve", "--addr", "256.0.0.1:1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot bind"), "{err}");
}

#[test]
fn serve_answers_requests_and_drains_on_sigterm() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::process::Stdio;

    let mut child = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    // One round-trip through the daemon.
    let body = "<shop><book><isbn>1</isbn><t>A</t></book>\
                <book><isbn>1</isbn><t>A</t></book></shop>";
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(
            format!(
                "POST /v1/discover HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("\"fds\""), "{response}");

    // SIGTERM must drain and exit cleanly (status 0).
    let kill = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve did not exit after SIGTERM"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(status.success(), "clean exit after drain: {status:?}");
}
