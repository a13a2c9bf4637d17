"""Parser and printer for the ``.efa`` modeling language.

The language is a small automata format: event declarations, plant and
requirement automata with discrete variables, guarded/updating edges,
input variables, state/event invariants, and component-level
initialization and marker predicates.  ``parse_spec`` builds a
:mod:`efasynth.model` tree; ``unparse`` renders one back to concrete
syntax such that parsing the result reproduces the same tree.

Operator precedence, loosest to tightest::

    or  <  and  <  comparisons  <  + -  <  mod  <  not, unary -

``#`` starts a comment running to end of line.
"""

from __future__ import annotations

import re

from .model import (
    Automaton, BinaryOp, BoolDomain, BoolLit, Diagnostic, Edge, EnumDomain,
    EnumLit, Event, Expr, IntDomain, IntLit, Invariant, LocRef, Location,
    Span, Specification, UnaryOp, VarRef, Variable, fold_expr, map_leaves,
)

__all__ = ["ParseError", "parse_spec", "parse_file", "unparse"]

_KEYWORDS = {
    "controllable", "uncontrollable", "input", "bool", "int", "enum",
    "plant", "requirement", "supervisor", "disc", "alphabet", "location",
    "initial", "marked", "edge", "when", "do", "goto", "invariant",
    "needs", "disables", "and", "or", "not", "mod", "true", "false",
}

_SYMBOLS = (
    ":=", "..", "!=", "<=", ">=",  # two-character first
    "{", "}", "[", "]", "(", ")", ";", ",", ":", ".", "=", "<", ">",
    "+", "-",
)

# One alternative per lexeme, tried in order, so a two-character symbol
# wins over its first character.  ``\d`` is ``str.isdecimal`` and ``\w`` is
# ``str.isalnum`` plus ``_``, so names and numbers may be in any script;
# ``_tokenize`` refuses a word that does not start with a letter or ``_``.
_LEXEME = re.compile(
    r"(?P<skip>[ \t\r]+|#[^\n]*)|(?P<newline>\n)|(?P<nat>\d+)|(?P<ident>\w+)"
    r"|(?P<symbol>" + "|".join(map(re.escape, _SYMBOLS)) + r")|(?P<other>.)"
)


# Binding strength of the binary operators, for parsing and printing alike;
# all of them associate to the left.
_PREC = {
    "or": 1, "and": 2,
    "=": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4, "mod": 5,
}
_PREFIX = 6  # 'not' and unary '-' bind tighter than any binary operator


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class _Token:
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: Span):
        self.kind = kind  # 'ident' | 'nat' | exact keyword/symbol | 'eof'
        self.text = text
        self.span = span


def _expected(what: str, tok: _Token) -> ParseError:
    """The error for finding ``tok`` where ``what`` should stand."""
    shown = tok.text or "end of file"
    return ParseError(Diagnostic(f"expected {what}, found '{shown}'", tok.span))


def _tokenize(text: str, filename: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0  # line_start: offset where the current line starts
    for match in _LEXEME.finditer(text):
        kind, word = match.lastgroup, match.group()
        if kind == "skip":
            continue
        if kind == "newline":
            line, line_start = line + 1, match.end()
            continue
        col = match.start() - line_start + 1
        # ², ½ and Ⅻ are word characters, but neither letters nor decimal digits
        if kind == "other" or kind == "ident" and not (word[0].isalpha() or word[0] == "_"):
            span = Span(filename, line, col, 1)
            raise ParseError(Diagnostic(f"unexpected character {word[0]!r}", span))
        if kind == "symbol" or word in _KEYWORDS:
            kind = word
        tokens.append(_Token(kind, word, Span(filename, line, col, len(word))))
    tokens.append(_Token("eof", "", Span(filename, line, len(text) - line_start + 1, 0)))
    return tokens


def _reduce(operands: list[Expr], pending: list, bound: int) -> None:
    """Apply the pending operators that bind at least ``bound``."""
    while pending and pending[-1][0] >= bound:
        prec, tok = pending.pop()
        if prec == _PREFIX:
            operands[-1] = UnaryOp(tok.kind, operands[-1], span=tok.span)
        else:
            right = operands.pop()
            operands[-1] = BinaryOp(tok.kind, operands[-1], right, span=tok.span)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def accept(self, kind: str):
        if self.at(kind):
            return self.advance()
        return None

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise _expected(f"'{kind}'", tok)
        return self.advance()

    def ident(self) -> _Token:
        return self.expect("ident")

    # -- toplevel

    def spec(self) -> Specification:
        spec = Specification()
        while not self.at("eof"):
            tok = self.peek()
            if tok.kind in ("controllable", "uncontrollable"):
                self.event_decl(spec)
            elif tok.kind == "input":
                self.input_var(spec)
            elif tok.kind in ("plant", "requirement", "supervisor"):
                if self.peek(1).kind == "invariant":
                    self.invariant(spec)
                else:
                    self.automaton(spec)
            elif tok.kind == "initial":
                self.advance()
                spec.init_preds.append(self.expr())
                self.expect(";")
            elif tok.kind == "marked":
                self.advance()
                spec.marker_preds.append(self.expr())
                self.expect(";")
            else:
                raise _expected("a declaration", tok)
        return spec

    def event_decl(self, spec: Specification) -> None:
        controllable = self.advance().kind == "controllable"
        while True:
            name = self.ident()
            spec.events.append(Event(name.text, controllable, span=name.span))
            if not self.accept(","):
                break
        self.expect(";")

    def typename(self):
        tok = self.advance()
        if tok.kind == "bool":
            return BoolDomain()
        if tok.kind == "int":
            self.expect("[")
            lo = int(self.expect("nat").text)
            self.expect("..")
            hi = int(self.expect("nat").text)
            self.expect("]")
            return IntDomain(lo, hi)
        if tok.kind == "enum":
            self.expect("{")
            literals = [self.ident().text]
            while self.accept(","):
                literals.append(self.ident().text)
            self.expect("}")
            return EnumDomain(tuple(literals))
        raise _expected("a type", tok)

    def input_var(self, spec: Specification) -> None:
        self.advance()
        domain = self.typename()
        name = self.ident()
        self.expect(";")
        spec.input_vars.append(
            Variable(name.text, domain, kind="input", span=name.span)
        )

    def literal(self):
        tok = self.advance()
        if tok.kind == "true":
            return True
        if tok.kind == "false":
            return False
        if tok.kind == "nat":
            return int(tok.text)
        if tok.kind == "ident":
            return tok.text
        raise _expected("a literal", tok)

    def automaton(self, spec: Specification) -> None:
        kind = self.advance().kind
        name = self.ident()
        aut = Automaton(name.text, kind, span=name.span)
        self.expect("{")
        while not self.at("}"):
            tok = self.peek()
            if tok.kind == "disc":
                self.var_decl(aut)
            elif tok.kind == "alphabet":
                self.advance()
                names = [self.ident().text]
                while self.accept(","):
                    names.append(self.ident().text)
                self.expect(";")
                aut.alphabet = names if aut.alphabet is None else aut.alphabet + names
            elif tok.kind == "location":
                self.location(aut)
            else:
                raise _expected("'disc', 'alphabet', or 'location'", tok)
        self.expect("}")
        spec.automata.append(aut)

    def var_decl(self, aut: Automaton) -> None:
        self.advance()
        domain = self.typename()
        name = self.ident()
        initial = None
        if self.accept("="):
            initial = [self.literal()]
            while self.accept(","):
                initial.append(self.literal())
            initial = tuple(initial)
        self.expect(";")
        aut.variables.append(
            Variable(name.text, domain, kind="disc", initial=initial,
                     owner=aut.name, span=name.span)
        )

    def location(self, aut: Automaton) -> None:
        self.advance()
        name = self.ident()
        self.expect(":")
        loc = Location(name.text, span=name.span)
        if self.at("initial"):
            self.advance()
            loc.initial = self.expr() if self.accept("when") else True
            self.expect(";")
        if self.at("marked"):
            self.advance()
            loc.marked = self.expr() if self.accept("when") else True
            self.expect(";")
        aut.locations.append(loc)
        while self.at("edge"):
            self.edge(aut, loc.name)

    def edge(self, aut: Automaton, source: str) -> None:
        start = self.advance()
        events = [self.ident().text]
        while self.accept(","):
            events.append(self.ident().text)
        guard = self.expr() if self.accept("when") else None
        updates = []
        if self.accept("do"):
            while True:
                var = self.ident()
                self.expect(":=")
                updates.append((var.text, self.expr()))
                if not self.accept(","):
                    break
        target = self.ident().text if self.accept("goto") else None
        self.expect(";")
        aut.edges.append(
            Edge(source, events, guard, updates, target, span=start.span)
        )

    def invariant(self, spec: Specification) -> None:
        side = self.advance().kind
        self.expect("invariant")
        start = self.peek()
        # 'event needs pred' begins with a bare identifier followed by the
        # keyword; everything else is an expression.
        if start.kind == "ident" and self.peek(1).kind == "needs":
            event = self.advance().text
            self.advance()
            pred = self.expr()
            inv = Invariant("needs", side, pred, event, span=start.span)
        else:
            pred = self.expr()
            if self.accept("disables"):
                event = self.ident().text
                inv = Invariant("disables", side, pred, event, span=start.span)
            else:
                inv = Invariant("state", side, pred, span=start.span)
        self.expect(";")
        spec.invariants.append(inv)

    # -- expressions

    def expr(self) -> Expr:
        """An expression, read with an operand stack and a stack of pending
        operators, so that nesting has no depth limit.  A pending entry is
        its binding strength and token: 0 for '(' and _PREFIX for a prefix
        operator, since a '-' token alone does not tell which it is."""
        operands: list[Expr] = []
        pending: list[tuple[int, _Token]] = []
        while True:
            while self.at("not", "-", "("):
                tok = self.advance()
                pending.append((0 if tok.kind == "(" else _PREFIX, tok))
            operands.append(self.atom())
            while self.peek().kind not in _PREC:
                _reduce(operands, pending, 1)
                if not pending:
                    return operands[0]
                self.expect(")")
                pending.pop()
            tok = self.advance()
            _reduce(operands, pending, _PREC[tok.kind])
            pending.append((_PREC[tok.kind], tok))

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "nat":
            return IntLit(int(tok.text), span=tok.span)
        if tok.kind == "true":
            return BoolLit(True, span=tok.span)
        if tok.kind == "false":
            return BoolLit(False, span=tok.span)
        if tok.kind == "ident":
            if self.accept("."):
                loc = self.ident()
                return LocRef(tok.text, loc.text, span=tok.span)
            return VarRef(tok.text, span=tok.span)
        raise _expected("an expression", tok)


# ----------------------------------------------------------------------
# name resolution: bare identifiers default to variables at parse time;
# turn the ones naming enumeration literals into literal nodes.


def _resolve_spec(spec: Specification) -> None:
    literals = {
        lit
        for v in spec.variables()
        if isinstance(v.domain, EnumDomain)
        for lit in v.domain.literals
    } - {v.name for v in spec.variables()}

    def resolve(node: Expr) -> Expr:
        if isinstance(node, VarRef) and node.name in literals:
            return EnumLit(node.name, span=node.span)
        return node

    def fix(expr):
        return None if expr is None else map_leaves(expr, resolve)

    for aut in spec.automata:
        for loc in aut.locations:
            if loc.initial not in (None, True):
                loc.initial = fix(loc.initial)
            if loc.marked not in (None, True):
                loc.marked = fix(loc.marked)
        for edge in aut.edges:
            edge.guard = fix(edge.guard)
            edge.updates = [(name, fix(rhs)) for name, rhs in edge.updates]
    for inv in spec.invariants:
        inv.predicate = fix(inv.predicate)
    spec.init_preds = [fix(p) for p in spec.init_preds]
    spec.marker_preds = [fix(p) for p in spec.marker_preds]


def parse_spec(text: str, filename: str = "<string>") -> Specification:
    """Parse model text; raises :class:`ParseError` on the first syntax error."""
    spec = _Parser(_tokenize(text, filename)).spec()
    _resolve_spec(spec)
    return spec


def parse_file(path) -> Specification:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spec(handle.read(), str(path))


# ----------------------------------------------------------------------
# printing

# Leaves and prefix operators never need parentheses.
_TIGHT = _PREFIX + 1


def _wrap(printed: tuple[str, int], bound: int) -> str:
    text, prec = printed
    return f"({text})" if prec < bound else text


def _format_leaf(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, (IntLit, BoolLit)):
        return _format_literal(expr.value), _TIGHT
    if isinstance(expr, LocRef):
        return f"{expr.automaton}.{expr.location}", _TIGHT
    return expr.name, _TIGHT


def _format_unary(expr: UnaryOp, operand) -> tuple[str, int]:
    inner = _wrap(operand, _TIGHT)
    return (f"not {inner}" if expr.op == "not" else f"-{inner}"), _TIGHT


def _format_binary(expr: BinaryOp, left, right) -> tuple[str, int]:
    # left-associative: a right operand at the same strength needs parens
    prec = _PREC[expr.op]
    return f"{_wrap(left, prec)} {expr.op} {_wrap(right, prec + 1)}", prec


def format_expr(expr: Expr) -> str:
    """Model text for ``expr``, with the fewest parentheses that parse back
    to the same tree."""
    return fold_expr(expr, _format_leaf, _format_unary, _format_binary)[0]


def _format_domain(domain) -> str:
    if isinstance(domain, BoolDomain):
        return "bool"
    if isinstance(domain, IntDomain):
        return f"int[{domain.lo}..{domain.hi}]"
    return "enum{" + ", ".join(domain.literals) + "}"


def _format_literal(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def unparse(spec: Specification) -> str:
    """Render a specification as model text.

    Declarations are grouped by kind (events, input variables, automata,
    predicates, invariants) preserving order within each kind; the result
    parses back to an equal tree.
    """
    out: list[str] = []
    idx = 0
    while idx < len(spec.events):
        run = [spec.events[idx]]
        while (
            idx + len(run) < len(spec.events)
            and spec.events[idx + len(run)].controllable == run[0].controllable
        ):
            run.append(spec.events[idx + len(run)])
        word = "controllable" if run[0].controllable else "uncontrollable"
        out.append(f"{word} {', '.join(ev.name for ev in run)};")
        idx += len(run)
    for var in spec.input_vars:
        out.append(f"input {_format_domain(var.domain)} {var.name};")
    for aut in spec.automata:
        if out:
            out.append("")
        out.append(f"{aut.kind} {aut.name} {{")
        if aut.alphabet is not None:
            out.append(f"  alphabet {', '.join(aut.alphabet)};")
        for var in aut.variables:
            decl = f"  disc {_format_domain(var.domain)} {var.name}"
            if var.initial:
                decl += " = " + ", ".join(_format_literal(v) for v in var.initial)
            out.append(decl + ";")
        for loc in aut.locations:
            out.append(f"  location {loc.name}:")
            if loc.initial is True:
                out.append("    initial;")
            elif loc.initial is not None:
                out.append(f"    initial when {format_expr(loc.initial)};")
            if loc.marked is True:
                out.append("    marked;")
            elif loc.marked is not None:
                out.append(f"    marked when {format_expr(loc.marked)};")
            for edge in aut.edges:
                if edge.source != loc.name:
                    continue
                line = f"    edge {', '.join(edge.events)}"
                if edge.guard is not None:
                    line += f" when {format_expr(edge.guard)}"
                if edge.updates:
                    line += " do " + ", ".join(
                        f"{name} := {format_expr(rhs)}" for name, rhs in edge.updates
                    )
                if edge.target is not None:
                    line += f" goto {edge.target}"
                out.append(line + ";")
        out.append("}")
    for pred in spec.init_preds:
        out.append(f"initial {format_expr(pred)};")
    for pred in spec.marker_preds:
        out.append(f"marked {format_expr(pred)};")
    for inv in spec.invariants:
        if inv.kind == "state":
            body = format_expr(inv.predicate)
        elif inv.kind == "needs":
            body = f"{inv.event} needs {format_expr(inv.predicate)}"
        else:
            body = f"{format_expr(inv.predicate)} disables {inv.event}"
        out.append(f"{inv.side} invariant {body};")
    return "\n".join(out) + "\n"
