#!/usr/bin/env python3
"""Option census: list option fields that are constants in disguise.

For every `struct *Config` / `*Options` declared under src/, a data
member S::f is a live option only when both hold:

  set   Something outside its default gives it a value: an assignment
        (`.f =`, `->f =`, `.f{`, or a sub-field `.f.g =`) in tests/,
        bench/, perfbench/ or examples/ (a test or bench tells its
        values apart), or assignments in src/ that are not all the same
        constant (a run-time expression, or two different constants:
        two callers that want different values).
  read  Some code under src/ reads it.

One exception: a field that nothing reads but that a file under one of
BENCHMARK.json's `paths` assigns cannot go without changing the
benchmark, so it is listed as a note and does not fail the census; it
fails as soon as the benchmark stops assigning it.

Accesses are keyed on struct and field, not on the field name alone:
the object expression before `.f` (`opts.engine.f`, `config_.f`,
`Type{.f = ...}`) is resolved by its nearest declaration in the same
file or in the file's header, and walked member by member. An access
whose object does not resolve (a call result, an `auto` variable, an
array element) falls back to every struct that has a field named f, so
an unresolved access can hide a dead field but never flags a live one;
`--verbose` lists those accesses.

Prints each failing field as `file:line Struct::field: reason` and exits
1 if there is any, 0 otherwise. Run from anywhere:

    python3 scripts/option_census.py [--verbose]
"""
import collections
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "bench", "perfbench", "examples")
SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}
STRUCT_RE = re.compile(r"\b(?:struct|class)\s+(\w+)\s*(?:final\s*)?(?::[^{;]*)?\{")
ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=\s*(?:\w+::)*(\w+)\s*;")
# An out-of-line member function definition, starting a line.
DEF_RE = re.compile(r"^(?:[\w:<>*&]+\s+)*(\w+)::~?\w+\s*\(", re.M)
OPTION_RE = re.compile(r"(?:Config|Options)$")
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
STRING_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"')
ACCESS_RE = re.compile(r"\b(?:public|private|protected)\s*:")
# A right-hand side that is the same value on every run.
CONSTANT_RE = re.compile(
    r"[-+]?[\d.']+[a-zA-Z]*|true|false|nullptr|\{\s*\}|(?:\w+::)*k[A-Z]\w*"
    r"|(?:\w+::)*(?:nanoseconds|microseconds|milliseconds|seconds|minutes)\(\s*[\d.']+\s*\)")
NOT_TYPES = {"return", "auto", "const", "else", "case", "new", "delete", "throw", "co_return",
             "sizeof", "decltype", "typename", "struct", "class", "void", "this"}


def sources():
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*")):
            if path.suffix in SUFFIXES and path.is_file():
                yield path


def blank(text):
    """Blanks comments and string literals, keeping offsets (and so line
    numbers) intact."""
    text = COMMENT_RE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)
    return STRING_RE.sub(lambda m: '"' + " " * (len(m.group(0)) - 2) + '"', text)


def member_statements(text, open_brace):
    """Yields (offset, statement) for the struct body's top level;
    nested blocks (function bodies, brace initialisers) read as `{}`."""
    depth, flat = 1, []
    i = open_brace + 1
    while depth and i < len(text):
        c = text[i]
        if c == "{":
            if depth == 1:
                flat.append((i, "{"))
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 1:
                flat.append((i, "}"))
        elif depth == 1:
            flat.append((i, c))
        i += 1
    if flat:
        flat.pop()  # the struct's own closing brace
    chars = "".join(c for _, c in flat)
    stmt, stmt_at = [], None
    for k, (pos, c) in enumerate(flat):
        if stmt_at is None and not c.isspace():
            stmt_at = pos
        stmt.append(c)
        # A `{}` not followed by `;` closes a function body.
        ends_body = c == "}" and not chars[k + 1:].lstrip().startswith(";")
        if c == ";" or ends_body:
            yield stmt_at, "".join(stmt)
            stmt, stmt_at = [], None


def block_end(text, open_brace):
    depth = 0
    for i in range(open_brace, len(text)):
        depth += (text[i] == "{") - (text[i] == "}")
        if depth == 0:
            return i
    return len(text)


def declaration(stmt):
    """(type, name, default) of a data-member statement, else None. The
    type is the last identifier outside template arguments."""
    stmt = ACCESS_RE.sub(" ", stmt).strip().rstrip(";").strip()
    if not stmt or re.match(r"(static|using|friend|enum|struct|class|typedef|template)\b", stmt):
        return None
    angle, decl, default = 0, [], ""
    for k, c in enumerate(stmt):
        if c == "<":
            angle += 1
        elif c == ">":
            angle -= 1
        elif angle == 0 and c in "={":
            default = stmt[k + 1:] if c == "=" else stmt[k:]
            break
        elif angle == 0 and c == "(":
            return None  # a member function
        decl.append(c)
    decl = "".join(decl)
    m = re.search(r"(\w+)\s*(\[[^\]]*\])?\s*$", decl)
    if not m:
        return None
    outer = re.sub(r"<[^<>]*>", "", re.sub(r"<[^<>]*>", "", decl[:m.start()]))
    types = [t for t in re.findall(r"\w+", outer) if t not in ("const", "mutable")]
    return (types[-1] if types else None), m.group(1), default.strip()


class Census:
    def __init__(self):
        self.texts = {p: blank(p.read_text(errors="replace")) for p in sources()}
        self.members = {}   # struct -> {field: type}
        self.options = []   # (path, line, struct, field, default)
        for path, text in self.texts.items():
            if not path.is_relative_to(ROOT / "src"):
                continue
            for m in STRUCT_RE.finditer(text):
                fields = self.members.setdefault(m.group(1), {})
                local = {}  # the class's own `using Config = OpcConnectionConfig;`
                for at, stmt in member_statements(text, m.end() - 1):
                    alias = ALIAS_RE.search(ACCESS_RE.sub(" ", stmt))
                    if alias:
                        local[alias.group(1)] = alias.group(2)
                    decl = declaration(stmt)
                    if decl is None:
                        continue
                    ftype, name, default = decl
                    fields[name] = local.get(ftype, ftype)
                    if OPTION_RE.search(m.group(1)):
                        line = text.count("\n", 0, at) + 1
                        self.options.append((path, line, m.group(1), name, default))
        # Elsewhere an alias names the struct unless two of that name disagree.
        aliases = collections.defaultdict(set)
        for text in self.texts.values():
            for m in ALIAS_RE.finditer(text):
                aliases[m.group(1)].add(m.group(2))
        for alias, targets in aliases.items():
            if len(targets) == 1 and alias not in self.members and min(targets) in self.members:
                self.members[alias] = self.members[min(targets)]
        self.owners = collections.defaultdict(set)
        for struct, fields in self.members.items():
            for name in fields:
                self.owners[name].add(struct)
        self.unresolved = []
        self.scopes = {}  # path -> (class bodies, out-of-line member definitions)
        self.notes = []
        bench = ROOT / "BENCHMARK.json"
        self.pinned_trees = ([ROOT / p for p in json.loads(bench.read_text()).get("paths", [])]
                             if bench.is_file() else [])

    def enclosing_class(self, path, text, at):
        """The class whose body (or out-of-line member function, the
        last `Class::name(` before `at`) holds offset `at`."""
        if path not in self.scopes:
            bodies = [(m.end() - 1, block_end(text, m.end() - 1), m.group(1))
                      for m in STRUCT_RE.finditer(text)]
            defs = [(m.start(), m.group(1)) for m in DEF_RE.finditer(text)
                    if m.group(1) in self.members]
            self.scopes[path] = bodies, defs
        bodies, defs = self.scopes[path]
        inside = [(start, name) for start, end, name in bodies if start < at < end]
        if inside:
            return max(inside)[1]
        before = [name for start, name in defs if start < at]
        return before[-1] if before else None

    def declared_type(self, path, text, name, before):
        """Type of variable `name`: a member of the enclosing class, else
        its nearest declaration before `before` in this file, else the
        nearest one after it, else one in the header beside the file."""
        member = self.members.get(self.enclosing_class(path, text, before), {}).get(name)
        if member:
            return member
        decl = re.compile(r"\b(\w+)\s*(?:<[^;{}()]*>)?\s*(?:const\s*)?[&*]*\s*\b" + re.escape(name)
                          + r"\b\s*(?=[;=,){\[(:])")
        found = [m for m in decl.finditer(text)
                 if m.group(1) not in NOT_TYPES and not m.group(1).isdigit()]
        earlier = [m.group(1) for m in found if m.start() < before]
        if earlier:
            return earlier[-1]
        if found:
            return found[0].group(1)
        header = path.with_suffix(".h")
        if header != path and header in self.texts:
            found = [m.group(1) for m in decl.finditer(self.texts[header])
                     if m.group(1) not in NOT_TYPES and not m.group(1).isdigit()]
            if found:
                return found[0]
        return None

    def chain_before(self, text, at):
        """The object expression ending at `at` (just before `.f` /
        `->f`) as [root, member, ...]; root None when there is none or
        it is not a plain name."""
        chain = []
        i = at
        while True:
            m = re.search(r"(\w+)\s*$", text[max(0, i - 200):i])
            if not m:
                return [None] + chain
            chain.insert(0, m.group(1))
            i -= len(m.group(0))
            sep = re.search(r"(?:\.|->)\s*$", text[max(0, i - 8):i])
            if not sep:
                return chain[1:] if chain[0] == "this" and len(chain) > 1 else chain
            i -= len(sep.group(0))

    def designated_type(self, text, at):
        """`Type{.a = 1, .f = 2}`: the Type before the enclosing brace."""
        depth, i = 0, at - 1
        while i >= 0:
            c = text[i]
            if c in ")]}":
                depth += 1
            elif c in "([":
                if depth == 0:
                    return None
                depth -= 1
            elif c == "{":
                if depth == 0:
                    m = re.search(r"(\w+)\s*$", text[max(0, i - 200):i])
                    return m.group(1) if m else None
                depth -= 1
            elif c == ";" and depth == 0:
                return None
            i -= 1
        return None

    def resolve(self, path, text, at, field):
        """Struct owning the `.field` access at `at`: its name, "" when
        the object is of a known type without such a field (a method
        call, another struct's member), None when it does not resolve."""
        chain = self.chain_before(text, at)
        if chain[0] is None:
            if len(chain) == 1 and re.search(r"[{,]\s*$", text[max(0, at - 200):at]):
                struct = self.designated_type(text, at)
            else:
                return None
        else:
            struct = self.declared_type(path, text, chain[0], at)
            for member in chain[1:]:
                struct = self.members.get(struct, {}).get(member)
        if struct not in self.members:
            return None
        return struct if field in self.members[struct] else ""

    def accesses(self):
        """Yields (path, struct set, field, kind, rhs) for every access
        of an option field: kind is "set", "sub" (a sub-field set) or
        "read"; rhs is the assigned text of a "set"."""
        names = {f for _, _, _, f, _ in self.options}
        pattern = re.compile(r"(?:\.|->)\s*(" + "|".join(sorted(names)) + r")\b")
        for path, text in self.texts.items():
            for m in pattern.finditer(text):
                field = m.group(1)
                struct = self.resolve(path, text, m.start(), field)
                if struct == "":
                    continue
                if struct is None:
                    structs = self.owners[field]
                    if len(structs) > 1:
                        line = text.count("\n", 0, m.start()) + 1
                        self.unresolved.append(f"{path.relative_to(ROOT)}:{line} .{field}")
                else:
                    structs = {struct}
                tail = text[m.end():m.end() + 400]
                sub = re.match(r"(?:\s*\.\s*\w+)+\s*(?:=(?!=)|\{)", tail)
                assign = re.match(r"\s*(=(?!=)|\{)", tail)
                if assign:
                    yield path, structs, field, "set", rhs(tail[assign.end(1) - 1:])
                elif sub:
                    yield path, structs, field, "sub", None
                else:
                    yield path, structs, field, "read", None

    def verdicts(self):
        outside = collections.defaultdict(bool)
        src_values = collections.defaultdict(set)
        read = collections.defaultdict(bool)
        pinned = {}
        for path, structs, field, kind, value in self.accesses():
            in_src = path.is_relative_to(ROOT / "src")
            for struct in structs:
                key = (struct, field)
                if kind == "read":
                    read[key] |= in_src
                elif not in_src:
                    outside[key] = True
                    if any(path.is_relative_to(t) for t in self.pinned_trees):
                        pinned.setdefault(key, path.relative_to(ROOT))
                elif kind == "sub" or not CONSTANT_RE.fullmatch(value):
                    src_values[key].add(None)  # a run-time value
                else:
                    src_values[key].add(value)
        for path, line, struct, field, _ in self.options:
            key = (struct, field)
            values = src_values[key]
            reason = None
            if not outside[key] and None not in values and len(values) < 2:
                reason = ("never set" if not values
                          else f"src/ only ever sets it to {next(iter(values))}")
            elif not read[key] and key in pinned:
                self.notes.append(f"{path.relative_to(ROOT)}:{line} {struct}::{field}: nothing in "
                                  f"src/ reads it; kept while benchmark file {pinned[key]} "
                                  "assigns it")
            elif not read[key]:
                reason = "nothing in src/ reads it"
            if reason:
                yield f"{path.relative_to(ROOT)}:{line} {struct}::{field}: {reason}"


def rhs(text):
    """The assigned expression: up to the first top-level `;` or `,`, or
    the brace initialiser itself."""
    if text.startswith("{"):
        depth = 0
        for k, c in enumerate(text):
            depth += (c == "{") - (c == "}")
            if depth == 0:
                return re.sub(r"\s+", " ", text[:k + 1])
        return text
    depth = 0
    for k, c in enumerate(text[1:], 1):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            if depth == 0:
                return re.sub(r"\s+", " ", text[1:k].strip())
            depth -= 1
        elif c in ";," and depth == 0:
            return re.sub(r"\s+", " ", text[1:k].strip())
    return text[1:].strip()


def main():
    census = Census()
    failing = list(census.verdicts())
    for entry in failing:
        print(entry)
    for entry in census.notes:
        print(f"note: {entry}", file=sys.stderr)
    if "--verbose" in sys.argv[1:]:
        for entry in census.unresolved:
            print(f"unresolved (counted for every struct with this field): {entry}",
                  file=sys.stderr)
    if failing:
        print(f"option census: {len(failing)} option field(s) that are constants; "
              "make each a constant next to its reader", file=sys.stderr)
        return 1
    print(f"option census: all {len(census.options)} option fields are set and read",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
