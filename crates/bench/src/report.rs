//! What an experiment hands back, and how it gets into EXPERIMENTS.md.
//!
//! An experiment returns a [`Table`]; [`Table::markdown`] is, byte for
//! byte, what EXPERIMENTS.md holds between that experiment's
//! `<!-- generated:<name> -->` / `<!-- /generated:<name> -->` markers.
//! [`splice`] puts it there, [`check`] says whether it already is. Prose
//! outside the markers is never read or written.

use feisu_common::{FeisuError, Result};

/// One regenerated table or figure series.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// One line under the table: the measured summary next to the shape
    /// the paper reports (the experiment has already asserted it).
    pub note: String,
}

impl Table {
    pub fn new(title: &str, header: &[&str], rows: Vec<Vec<String>>, note: String) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows,
            note,
        }
    }

    /// The generated block's text, ending in a newline.
    pub fn markdown(&self) -> String {
        let mut out = format!("**{}**\n\n", self.title);
        let mut line = |cells: &[String]| {
            out.push_str("| ");
            out.push_str(&cells.join(" | "));
            out.push_str(" |\n");
        };
        line(&self.header);
        line(&vec!["---".to_string(); self.header.len()]);
        self.rows.iter().for_each(|row| line(row));
        out.push_str(&format!("\n{}\n", self.note));
        out
    }
}

/// The marker line that opens `name`'s generated block.
pub fn open_marker(name: &str) -> String {
    format!("<!-- generated:{name} -->\n")
}

/// The marker that closes it.
pub fn close_marker(name: &str) -> String {
    format!("<!-- /generated:{name} -->")
}

/// Byte range of the text between `name`'s markers.
fn locate(doc: &str, name: &str) -> Result<std::ops::Range<usize>> {
    let open = open_marker(name);
    let missing = |what: &str| FeisuError::Config(format!("{what} marker of `{name}` not found"));
    let start = doc.find(&open).ok_or_else(|| missing("opening"))? + open.len();
    let len = doc[start..]
        .find(&close_marker(name))
        .ok_or_else(|| missing("closing"))?;
    Ok(start..start + len)
}

/// `doc` with the text between `name`'s markers replaced by `body`.
pub fn splice(doc: &str, name: &str, body: &str) -> Result<String> {
    let at = locate(doc, name)?;
    Ok([&doc[..at.start], body, &doc[at.end..]].concat())
}

/// `None` when `doc` already holds exactly `body` between `name`'s
/// markers; otherwise the lines that differ, `-` what the document has
/// and `+` what the experiment produced.
pub fn check(doc: &str, name: &str, body: &str) -> Result<Option<String>> {
    let held = &doc[locate(doc, name)?];
    if held == body {
        return Ok(None);
    }
    let (held, body): (Vec<&str>, Vec<&str>) = (held.lines().collect(), body.lines().collect());
    // Lines the two share at either end stay out of the diff.
    let head = held.iter().zip(&body).take_while(|(a, b)| a == b).count();
    let tail = held[head..]
        .iter()
        .rev()
        .zip(body[head..].iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    let mut diff = format!("--- EXPERIMENTS.md generated:{name}\n+++ experiments {name}\n");
    for (sign, lines) in [('-', &held), ('+', &body)] {
        for line in &lines[head..lines.len() - tail] {
            diff.push_str(&format!("{sign}{line}\n"));
        }
    }
    Ok(Some(diff))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(cell: &str) -> Table {
        Table::new(
            "T",
            &["a", "b"],
            vec![vec!["1".into(), cell.into()], vec!["3".into(), "4".into()]],
            "note".into(),
        )
    }

    const DOC: &str =
        "# Doc\n\nprose 1.0\n\n<!-- generated:t -->\nold\n<!-- /generated:t -->\n\nmore prose\n";

    #[test]
    fn markdown_is_a_titled_table_with_its_note() {
        assert_eq!(
            table("2").markdown(),
            "**T**\n\n| a | b |\n| --- | --- |\n| 1 | 2 |\n| 3 | 4 |\n\nnote\n"
        );
    }

    #[test]
    fn a_document_just_written_checks_clean_and_one_digit_fails_it() {
        let body = table("2.50").markdown();
        let written = splice(DOC, "t", &body).unwrap();
        assert_eq!(check(&written, "t", &body).unwrap(), None);
        // Writing again changes nothing.
        assert_eq!(splice(&written, "t", &body).unwrap(), written);

        let tampered = written.replace("2.50", "2.51");
        let diff = check(&tampered, "t", &body).unwrap().expect("stale");
        assert!(diff.contains("-| 1 | 2.51 |\n+| 1 | 2.50 |\n"), "{diff}");
        assert!(
            !diff.contains("| 3 | 4 |"),
            "unchanged rows stay out: {diff}"
        );
    }

    #[test]
    fn prose_outside_the_markers_is_neither_checked_nor_rewritten() {
        let body = table("2").markdown();
        let written = splice(DOC, "t", &body).unwrap();
        assert!(written.starts_with("# Doc\n\nprose 1.0\n\n<!-- generated:t -->\n**T**"));
        assert!(written.ends_with("note\n<!-- /generated:t -->\n\nmore prose\n"));
        let edited = written.replace("prose 1.0", "prose 9.9");
        assert_eq!(check(&edited, "t", &body).unwrap(), None);
    }

    #[test]
    fn a_missing_or_unclosed_marker_is_an_error() {
        let body = table("2").markdown();
        for broken in [
            "# Doc\n\nno markers\n".to_string(),
            DOC.replace("<!-- /generated:t -->", ""),
            DOC.replace("generated:t", "generated:other"),
        ] {
            assert!(matches!(
                splice(&broken, "t", &body),
                Err(FeisuError::Config(_))
            ));
            assert!(matches!(
                check(&broken, "t", &body),
                Err(FeisuError::Config(_))
            ));
        }
    }
}
