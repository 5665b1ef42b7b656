use std::error::Error;
use std::fmt;
use std::io;

/// Where in a Bookshelf file a parse error occurred.
///
/// `line` and `col` are 1-based; 0 means "not applicable" (e.g. a
/// file-level complaint such as a missing section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLoc {
    /// File the error occurred in.
    pub file: String,
    /// 1-based line number (0 = whole file).
    pub line: usize,
    /// 1-based column within the line's content (0 = whole line).
    pub col: usize,
}

impl fmt::Display for ParseLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)?;
        if self.col > 0 {
            write!(f, ":{}", self.col)?;
        }
        Ok(())
    }
}

/// A syntactic or semantic problem in a Bookshelf bundle, carrying the
/// offending location and (when one exists) the token that triggered it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line did not have the expected shape.
    Expected {
        /// Location of the problem.
        loc: ParseLoc,
        /// What the grammar wanted here.
        wanted: String,
        /// What was actually found (empty if the line simply ended).
        found: String,
    },
    /// A token failed numeric conversion.
    BadNumber {
        /// Location of the problem.
        loc: ParseLoc,
        /// What the number describes (`width`, `Coordinate`, …).
        what: String,
        /// The token that failed to parse.
        token: String,
    },
    /// A number parsed but lies outside its field's documented range.
    OutOfRange {
        /// Location of the problem.
        loc: ParseLoc,
        /// What the number describes (`width`, `Coordinate`, …).
        what: String,
        /// The offending token.
        token: String,
        /// The accepted range, e.g. `(0, 1e9]`.
        range: String,
    },
    /// A net or row body ended before its declared contents.
    Truncated {
        /// Location of the problem.
        loc: ParseLoc,
        /// What was being read when input ran out.
        what: String,
    },
    /// A pin or placement line referenced an undeclared cell.
    UnknownCell {
        /// Location of the problem.
        loc: ParseLoc,
        /// The unresolved cell name.
        name: String,
    },
    /// A required section or file reference was absent.
    Missing {
        /// Location of the problem (line 0 = whole file).
        loc: ParseLoc,
        /// What was missing.
        what: String,
    },
}

impl ParseError {
    /// The location the error points at.
    pub fn loc(&self) -> &ParseLoc {
        match self {
            ParseError::Expected { loc, .. }
            | ParseError::BadNumber { loc, .. }
            | ParseError::OutOfRange { loc, .. }
            | ParseError::Truncated { loc, .. }
            | ParseError::UnknownCell { loc, .. }
            | ParseError::Missing { loc, .. } => loc,
        }
    }

    /// The offending token, when the error is about one.
    pub fn token(&self) -> Option<&str> {
        match self {
            ParseError::Expected { found, .. } if !found.is_empty() => Some(found),
            ParseError::BadNumber { token, .. } | ParseError::OutOfRange { token, .. } => {
                Some(token)
            }
            ParseError::UnknownCell { name, .. } => Some(name),
            _ => None,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Expected { loc, wanted, found } => {
                if found.is_empty() {
                    write!(f, "{loc}: expected {wanted}")
                } else {
                    write!(f, "{loc}: expected {wanted}, found `{found}`")
                }
            }
            ParseError::BadNumber { loc, what, token } => {
                write!(f, "{loc}: bad {what} `{token}`")
            }
            ParseError::OutOfRange {
                loc,
                what,
                token,
                range,
            } => write!(f, "{loc}: {what} `{token}` is outside {range}"),
            ParseError::Truncated { loc, what } => write!(f, "{loc}: truncated {what}"),
            ParseError::UnknownCell { loc, name } => {
                write!(f, "{loc}: unknown cell `{name}`")
            }
            ParseError::Missing { loc, what } => write!(f, "{loc}: missing {what}"),
        }
    }
}

/// Errors produced while building, validating, or (de)serializing netlists.
#[derive(Debug)]
pub enum NetlistError {
    /// Two cells (or two nets) were declared with the same name.
    DuplicateName(String),
    /// A net referenced a cell name that does not exist.
    UnknownCell(String),
    /// A net has fewer than the minimum number of pins.
    DegenerateNet {
        /// Net name.
        net: String,
        /// Number of pins it has.
        pins: usize,
    },
    /// A Bookshelf file was syntactically malformed.
    Parse(ParseError),
    /// An underlying I/O failure.
    Io(io::Error),
    /// The netlist failed a consistency check.
    Inconsistent(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            NetlistError::UnknownCell(n) => write!(f, "unknown cell `{n}`"),
            NetlistError::DegenerateNet { net, pins } => {
                write!(f, "net `{net}` has only {pins} pin(s)")
            }
            NetlistError::Parse(p) => write!(f, "parse error in {p}"),
            NetlistError::Io(e) => write!(f, "i/o error: {e}"),
            NetlistError::Inconsistent(msg) => write!(f, "inconsistent netlist: {msg}"),
        }
    }
}

impl Error for NetlistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetlistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetlistError {
    fn from(e: io::Error) -> Self {
        NetlistError::Io(e)
    }
}

impl From<ParseError> for NetlistError {
    fn from(e: ParseError) -> Self {
        NetlistError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(line: usize, col: usize) -> ParseLoc {
        ParseLoc {
            file: "a.nodes".into(),
            line,
            col,
        }
    }

    #[test]
    fn display_messages() {
        assert_eq!(
            NetlistError::DuplicateName("u1".into()).to_string(),
            "duplicate name `u1`"
        );
        assert!(NetlistError::DegenerateNet {
            net: "n0".into(),
            pins: 1
        }
        .to_string()
        .contains("1 pin"));
    }

    #[test]
    fn parse_error_display_carries_line_col_and_token() {
        let p = NetlistError::Parse(ParseError::BadNumber {
            loc: loc(7, 4),
            what: "width".into(),
            token: "wat".into(),
        });
        assert_eq!(p.to_string(), "parse error in a.nodes:7:4: bad width `wat`");

        let r = ParseError::OutOfRange {
            loc: loc(5, 14),
            what: "width".into(),
            token: "NaN".into(),
            range: "(0, 1e9]".into(),
        };
        assert_eq!(
            r.to_string(),
            "a.nodes:5:14: width `NaN` is outside (0, 1e9]"
        );
        assert_eq!(r.token(), Some("NaN"));

        let e = ParseError::Expected {
            loc: loc(3, 1),
            wanted: "`name width height`".into(),
            found: "only_one_token".into(),
        };
        assert_eq!(
            e.to_string(),
            "a.nodes:3:1: expected `name width height`, found `only_one_token`"
        );
        assert_eq!(e.token(), Some("only_one_token"));
        assert_eq!(e.loc().line, 3);

        // col 0 is suppressed in the rendered location.
        let m = ParseError::Missing {
            loc: loc(0, 0),
            what: "core rows".into(),
        };
        assert_eq!(m.to_string(), "a.nodes:0: missing core rows");
        assert_eq!(m.token(), None);
    }

    #[test]
    fn io_source_chain() {
        let e: NetlistError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}
