"""Text frontend for `.oks` model files.

One statement per line; `#` starts a comment; blank lines are ignored.
Lines end at LF, CRLF or a lone CR, the breaks `Path.read_text` also
translates.  Other characters that `str.splitlines` would break at (form
feed, U+0085, U+2028 and the like) stay inside their line: whitespace
between tokens, and plain text inside a comment.  Statement forms:

    concept N [specializes P1, P2, ...]
    concept N = Type and FormalRole
    role N = data of R
    role N = result of R
    relation N [particularizes P] signature (C1[, C2...]) [temporal]
    disjoint A B
    label PRIMITIVE N at NAT
    annotate N rigidity rigid|anti-rigid|semi-rigid
    annotate N identity carries|none
    annotate N dependence dependent|independent
    instance i : C1[, C2...]
    fact R(a1, ..., an[, NAT])

Signature positions may be unions written `A|B`.  Identifiers are ASCII
letters, digits and underscores, starting with a letter, case-sensitive.
Parsing recovers at line boundaries, so one file can report several
syntax errors; every error carries the column of the offending token.
Time points have at most 4,300 digits (`MAX_TIME_DIGITS`); a longer
numeral is a syntax error, the same on every Python version, and so is
one longer than a lowered int() digit limit (`PYTHONINTMAXSTRDIGITS`).

Each line takes one of two paths.  The accept path, which builds every
declaration, matches the line against one anchored regular expression per
statement form, chosen by the leading keyword, and builds the record from
the match groups.  A line it declines (blank, comment-only or malformed,
or well-formed but spaced in a way its patterns do not read) goes to the
token parser.  That parser checks the line's tokens against the grammar
and words each syntax error (P1); a line the grammar accepts it hands back
to the accept path as its tokens joined by single spaces.  So the accept
path must build the same record whatever the whitespace and comments of a
line, and it must accept every joined line that the grammar accepts.  A
declaration holds its line number, not a span: a finding on it takes its
span from the line when the finding is made (`model.SourceText`).  The
accept path builds each record positionally with one `tuple.__new__`
call, so it relies on the records' field order; `test_statement_forms`
pins that order against records built by keyword.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Optional

from .model import (
    ANNOTATION_VALUES,
    AnnotationDecl,
    ConceptDecl,
    Conjunction,
    Declaration,
    Diagnostic,
    DisjointDecl,
    Fact,
    InstanceDecl,
    LABEL_FAMILY,
    MetaLabel,
    Ontology,
    RelationDecl,
    RoleDefinition,
    Severity,
    SourceSpan,
    _record,
    source_lines,
)

_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT + r"\Z")
# A match's kind is its `lastgroup`.  Only whitespace (`\s`, as `str.isspace`)
# starts none, so `finditer` skips it; a `#` where a token would start ends the line.
_TOKEN_RE = re.compile(
    r"(?P<word>[A-Za-z][A-Za-z0-9_-]*)|(?P<nat>[0-9]+)"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)|(?P<colon>:)|(?P<equals>=)|(?P<pipe>\|)"
    r"|(?P<comment>#.*)|(?P<bad>[^\s(),:=|]+)", re.S)

MAX_TIME_DIGITS = 4300  # CPython's default limit on int() of a decimal string


@_record
class Token(NamedTuple):
    kind: str  # word | nat | lparen | rparen | comma | colon | equals | pipe | bad | eol
    text: str
    column: int


class _SyntaxError(Exception):
    def __init__(self, message: str, token: Token):
        super().__init__(message)
        self.message = message
        self.token = token


def _tokenize_line(text: str) -> list[Token]:
    tokens = [Token(m.lastgroup, m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(text)]
    return tokens[:-1] if tokens and tokens[-1].kind == "comment" else tokens


class _LineParser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.eol = Token("eol", "", tokens[-1].column + len(tokens[-1].text))

    def peek(self) -> Token:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else self.eol

    def next(self) -> Token:
        tok = self.peek()
        if self.pos < len(self.tokens):
            self.pos += 1
        return tok

    def skip(self, text: str) -> bool:
        """Consume the next token if it reads `text`."""
        if self.peek().text != text:
            return False
        self.pos += 1
        return True

    def expect_keyword(self, word: str) -> None:
        tok = self.next()
        if tok.text != word:
            raise _SyntaxError(f"expected '{word}'", tok)

    def expect_identifier(self, what: str = "identifier") -> None:
        tok = self.next()
        if tok.kind != "word" or not _IDENT_RE.match(tok.text):
            raise _SyntaxError(f"expected {what}", tok)

    def expect_kind(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise _SyntaxError(f"expected {what}", tok)
        return tok

    def expect_end(self) -> None:
        if self.pos < len(self.tokens):
            raise _SyntaxError("unexpected trailing input", self.peek())

    def identifier_list(self) -> None:
        self.expect_identifier()
        while self.skip(","):
            self.expect_identifier()


def _check_time(tok: Token) -> None:
    if _time_value(tok.text) is None:
        raise _SyntaxError("time point too large", tok)


def _time_value(numeral: str) -> Optional[int]:
    """The numeral's value, or None when it has more than MAX_TIME_DIGITS
    digits or more than the interpreter's int() limit allows."""
    try:
        return int(numeral) if len(numeral) <= MAX_TIME_DIGITS else None
    except ValueError:  # sys.set_int_max_str_digits below MAX_TIME_DIGITS
        return None


def _parse_tokens(line: str, line_no: int, filename: str) -> Declaration | Diagnostic | None:
    """The token parser: a declaration, a P1 diagnostic, or None for no statement."""
    tokens = _tokenize_line(line)
    if not tokens:
        return None
    parser = _LineParser(tokens)
    head = parser.next()
    try:
        form = _FORMS.get(head.text)  # a keyword is read only as a word token
        if form is None:
            raise _SyntaxError("unknown statement keyword", head)
        form[2](parser)
        parser.expect_end()
    except _SyntaxError as err:
        return Diagnostic(Severity.ERROR, "P1", err.message,
                          SourceSpan(filename, line_no, err.token.column))
    return _accept(" ".join(t.text for t in tokens), line_no)


def _accept(line: str, line_no: int) -> Optional[Declaration]:
    """The declaration on a well-formed line, or None to defer to the token parser."""
    head = line.split(None, 1)
    form = _FORMS.get(head[0]) if head else None
    if form is None:
        return None
    pattern, build, _ = form
    m = pattern.fullmatch(line)
    if m is None:
        return None
    return build(m, line_no)


def parse(text: str, filename: str) -> tuple[list[Declaration], list[Diagnostic]]:
    """Parse source text into declarations plus syntax diagnostics."""
    decls: list[Declaration] = []
    diags: list[Diagnostic] = []
    for line_no, line in enumerate(source_lines(text), start=1):
        result = _accept(line, line_no) or _parse_tokens(line, line_no, filename)
        if type(result) is Diagnostic:
            diags.append(result)
        elif result is not None:
            decls.append(result)
    return decls, diags  # at most one P1 per line, in line order


# --- grammar checks: each raises the line's first syntax error -------------


def _check_concept(p: _LineParser) -> None:
    p.expect_identifier("concept name")
    if p.skip("specializes"):
        p.identifier_list()
    elif p.skip("="):
        p.expect_identifier("type concept")
        p.expect_keyword("and")
        p.expect_identifier("formal role")


def _check_role(p: _LineParser) -> None:
    p.expect_identifier("role name")
    p.expect_kind("equals", "'='")
    mode_tok = p.next()
    if mode_tok.text not in ("data", "result"):
        raise _SyntaxError("expected 'data' or 'result'", mode_tok)
    p.expect_keyword("of")
    p.expect_identifier("reasoning concept")


def _check_relation(p: _LineParser) -> None:
    p.expect_identifier("relation name")
    if p.skip("particularizes"):
        p.expect_identifier("parent relation")
    p.expect_keyword("signature")
    p.expect_kind("lparen", "'('")
    while True:
        p.expect_identifier("concept")
        while p.skip("|"):
            p.expect_identifier("concept")
        tok = p.next()
        if tok.kind == "rparen":
            break
        if tok.kind != "comma":
            raise _SyntaxError("expected ',' or ')'", tok)
    p.skip("temporal")


def _check_disjoint(p: _LineParser) -> None:
    p.expect_identifier()
    p.expect_identifier()


def _check_label(p: _LineParser) -> None:
    prim_tok = p.next()
    if prim_tok.text not in LABEL_FAMILY:
        raise _SyntaxError("unknown modeling primitive", prim_tok)
    p.expect_identifier("concept")
    p.expect_keyword("at")
    _check_time(p.expect_kind("nat", "time point"))


def _check_annotate(p: _LineParser) -> None:
    p.expect_identifier("concept")
    axis_tok = p.next()
    if axis_tok.text not in ANNOTATION_VALUES:
        raise _SyntaxError("expected 'rigidity', 'identity' or 'dependence'", axis_tok)
    value_tok = p.next()
    if value_tok.text not in ANNOTATION_VALUES[axis_tok.text]:
        allowed = "|".join(ANNOTATION_VALUES[axis_tok.text])
        raise _SyntaxError(f"expected {allowed}", value_tok)


def _check_instance(p: _LineParser) -> None:
    p.expect_identifier("instance name")
    p.expect_kind("colon", "':'")
    p.identifier_list()


def _check_fact(p: _LineParser) -> None:
    p.expect_identifier("relation name")
    p.expect_kind("lparen", "'('")
    if p.peek().kind == "rparen":
        raise _SyntaxError("fact needs at least one argument", p.peek())
    while True:
        tok = p.next()
        if tok.kind == "nat":
            _check_time(tok)
            p.expect_kind("rparen", "')' after time point")
            break
        if tok.kind != "word" or not _IDENT_RE.match(tok.text):
            raise _SyntaxError("expected instance name or time point", tok)
        tok = p.next()
        if tok.kind == "rparen":
            break
        if tok.kind != "comma":
            raise _SyntaxError("expected ',' or ')'", tok)


# --- accept path: one anchored pattern per statement form -----------------
#
# Only spaces and tabs separate tokens here, and two words always need one
# between them, as the tokenizer would otherwise read a single word.

_WORD = r"[A-Za-z][A-Za-z0-9_-]*"
_TIME = rf"[0-9]{{1,{MAX_TIME_DIGITS}}}"
_NAMES = rf"{_IDENT}(?:[ \t]*,[ \t]*{_IDENT})*"
_findall_names = re.compile(_IDENT).findall
_new = tuple.__new__  # one C call per record: no NamedTuple __new__ frame


def _form(keyword: str, body: str) -> re.Pattern:
    return re.compile(rf"[ \t]*{keyword}[ \t]+{body}[ \t]*(?:#.*)?")


def _accept_concept(m: re.Match, line: int) -> ConceptDecl:
    name, parents, type_concept, formal_role = m.group(1, 2, 3, 4)
    parents = () if parents is None else tuple(_findall_names(parents))
    definition = None if type_concept is None else _new(Conjunction, (type_concept, formal_role))
    return _new(ConceptDecl, (name, parents, definition, line))


def _accept_role(m: re.Match, line: int) -> ConceptDecl:
    name, mode, reasoning = m.group(1, 2, 3)
    return _new(ConceptDecl, (name, (), _new(RoleDefinition, (mode, reasoning)), line))


def _accept_relation(m: re.Match, line: int) -> RelationDecl:
    name, particularizes, signature, temporal = m.group(1, 2, 3, 4)
    positions = tuple(tuple(sorted(_findall_names(p))) for p in signature.split(","))
    return _new(RelationDecl, (name, positions, temporal is not None, particularizes, line))


def _accept_disjoint(m: re.Match, line: int) -> DisjointDecl:
    return _new(DisjointDecl, (*m.group(1, 2), line))


def _accept_label(m: re.Match, line: int) -> Optional[MetaLabel]:
    primitive, concept, time = m.group(1, 2, 3)
    value = _time_value(time)
    if primitive not in LABEL_FAMILY or value is None:
        return None
    return _new(MetaLabel, (primitive, concept, value, line))


def _accept_annotate(m: re.Match, line: int) -> Optional[AnnotationDecl]:
    concept, axis, value = m.group(1, 2, 3)
    if value not in ANNOTATION_VALUES.get(axis, ()):
        return None
    return _new(AnnotationDecl, (concept, axis, value, line))


def _accept_instance(m: re.Match, line: int) -> InstanceDecl:
    name, concepts = m.group(1, 2)
    return _new(InstanceDecl, (name, tuple(_findall_names(concepts)), line))


def _accept_fact(m: re.Match, line: int) -> Optional[Fact]:
    relation, args, time, time_only = m.group(1, 2, 3, 4)
    time = time or time_only
    value = None if time is None else _time_value(time)
    if time is not None and value is None:
        return None
    return _new(Fact, (relation, tuple(_findall_names(args or "")), value, line))


_Builder = Callable[[re.Match, int], Optional[Declaration]]

# One row per statement form, by its keyword: the accept path's pattern and
# builder, and the token parser's grammar check.
_FORMS: dict[str, tuple[re.Pattern, _Builder, Callable[[_LineParser], None]]] = {
    keyword: (_form(keyword, body), build, check) for keyword, body, build, check in (
        ("concept", rf"({_IDENT})(?:[ \t]+specializes[ \t]+({_NAMES})"
                    rf"|[ \t]*=[ \t]*({_IDENT})[ \t]+and[ \t]+({_IDENT}))?",
         _accept_concept, _check_concept),
        ("role", rf"({_IDENT})[ \t]*=[ \t]*(data|result)[ \t]+of[ \t]+({_IDENT})",
         _accept_role, _check_role),
        ("relation", rf"({_IDENT})(?:[ \t]+particularizes[ \t]+({_IDENT}))?"
                     rf"[ \t]+signature[ \t]*\([ \t]*({_IDENT}(?:[ \t]*[,|][ \t]*{_IDENT})*)"
                     rf"[ \t]*\)(?:[ \t]*(temporal))?", _accept_relation, _check_relation),
        ("disjoint", rf"({_IDENT})[ \t]+({_IDENT})", _accept_disjoint, _check_disjoint),
        ("label", rf"({_WORD})[ \t]+({_IDENT})[ \t]+at[ \t]+({_TIME})",
         _accept_label, _check_label),
        ("annotate", rf"({_IDENT})[ \t]+({_WORD})[ \t]+({_WORD})",
         _accept_annotate, _check_annotate),
        ("instance", rf"({_IDENT})[ \t]*:[ \t]*({_NAMES})", _accept_instance, _check_instance),
        ("fact", rf"({_IDENT})[ \t]*\([ \t]*(?:({_NAMES})(?:[ \t]*,[ \t]*({_TIME}))?|({_TIME}))"
                 rf"[ \t]*\)", _accept_fact, _check_fact),
    )
}


# --- rendering --------------------------------------------------------------


def _render_concept(c: ConceptDecl) -> str:
    if isinstance(c.definition, RoleDefinition):
        return f"role {c.name} = {c.definition.mode} of {c.definition.reasoning_concept}"
    if isinstance(c.definition, Conjunction):
        return f"concept {c.name} = {c.definition.type_concept} and {c.definition.formal_role}"
    if c.parents:
        return f"concept {c.name} specializes {', '.join(sorted(c.parents))}"
    return f"concept {c.name}"


def _render_relation(r: RelationDecl) -> str:
    parts = [f"relation {r.name}"]
    if r.particularizes:
        parts.append(f"particularizes {r.particularizes}")
    positions = ", ".join("|".join(u) for u in r.signature)
    parts.append(f"signature ({positions})")
    if r.temporal:
        parts.append("temporal")
    return " ".join(parts)


def render(ontology: Ontology) -> str:
    """Canonical text for an ontology; parse(render(o)) loads back to o."""
    sections: list[list[str]] = [
        sorted(_render_concept(c) for c in ontology.concepts.values()),
        sorted(_render_relation(r) for r in ontology.relations.values()),
        sorted(f"disjoint {a} {b}" for a, b in ontology.disjoints),
        sorted(f"annotate {a.concept} {a.axis} {a.value}"
               for per in ontology.annotations.values() for a in per.values()),
        sorted(f"instance {i.name} : {', '.join(sorted(i.concepts))}"
               for i in ontology.instances.values()),
        sorted(f"fact {g.render()}" for g in ontology.facts),
        sorted(f"label {lb.primitive} {lb.concept} at {lb.time}"
               for lb in ontology.labels.values()),
    ]
    lines = [line for section in sections if section for line in section + [""]]
    return "\n".join(lines) if lines else ""
