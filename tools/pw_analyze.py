#!/usr/bin/env python3
"""pw_analyze — AST-grade static analysis for the politewifi tree.

Where tools/pw_lint.py is a token linter (fast, zero context), this tool
understands structure: the include/decl-use graph between modules, the
types behind range-for statements, and the transitive call graph under
hot-path roots. Four checks:

  layering             Module dependencies must follow the DAG below
                       (ALLOWED_DEPS), derived from both #include edges
                       and qualified-name (decl-use) edges. The
                       allowlist ships empty: violations get fixed, or
                       carry an inline justification.
  unordered-iteration  Type-aware replacement for the retired pw_lint
                       regex rule: a range-for whose range expression
                       *resolves* (through auto, typedefs, members,
                       find()-iterators, ->second) to an unordered
                       container is flagged. Hash order must never feed
                       the deterministic event stream.
  hot-purity           Functions marked PW_HOT (common/annotations.h)
                       are roots of a transitive call-graph walk; heap
                       allocation (hot-new), throw (hot-throw), lock
                       acquisition (hot-lock) and wall-clock reads
                       (hot-clock) anywhere under them are violations.
  guarded-by           Portable shadow of clang -Wthread-safety: a
                       member function touching a PW_GUARDED_BY(m)
                       field must hold m (a lock constructed on m in
                       the body, or the function annotated
                       PW_REQUIRES(m)). The clang CI job is the
                       authoritative gate; this keeps GCC-only
                       environments honest.
  design-sync          DESIGN.md's mermaid layering diagram must match
                       ALLOWED_DEPS edge-for-edge (only runs when the
                       analysis root has a DESIGN.md).

Backends: `--backend builtin` (default) is a dependency-free C++
scanner — scope-tracking tokenizer, good enough for this codebase and
the fixture suite, runs under plain python3. `--backend libclang` uses
clang.cindex over compile_commands.json (-p BUILDDIR) for exact AST
facts; CI's analyze job runs it. Both feed the same check logic.

Suppressions: `// pw-analyze: allow(rule): justification` on the
offending line or in the comment block directly above it — the
justification text is mandatory. File-level entries live in
tools/pw_analyze_allowlist.txt (same `path:rule  # why` format as the
pw_lint allowlist; unused entries are errors, so it only shrinks).

Usage:
  python3 tools/pw_analyze.py                      # whole tree, builtin
  python3 tools/pw_analyze.py -p build --backend=libclang
  python3 tools/pw_analyze.py --root tests/analyze/fixtures/clean
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# --- The enforced layering DAG -----------------------------------------
# Keys are modules (directories under src/); values are the modules each
# may depend on *directly* (self and std/system headers are implicit).
# obs sits at tier 1 as the instrumentation rail: PW_COUNT/PW_TIMEIT
# must be usable from phy/frames/mac/sim, so obs may depend only on
# common and everything above may depend on obs. DESIGN.md's layering
# diagram mirrors this table edge-for-edge (the design-sync check
# enforces that), and runtime is the composition root.
ALLOWED_DEPS = {
    "common": [],
    "obs": ["common"],
    "phy": ["common", "obs"],
    "frames": ["common", "obs"],
    "crypto": ["common", "frames"],
    "mac": ["common", "obs", "phy", "frames", "crypto"],
    "sim": ["common", "obs", "phy", "frames", "crypto", "mac"],
    "sensing": ["common", "phy"],
    "scenario": ["common", "phy", "mac", "sim"],
    "defense": ["common", "frames", "sim"],
    "core": ["common", "phy", "frames", "mac", "sim", "scenario"],
    "runtime": [
        "common", "obs", "phy", "frames", "crypto", "mac", "sim",
        "sensing", "scenario", "defense", "core",
    ],
}

MODULES = set(ALLOWED_DEPS)

RULES = {
    "layering",
    "unordered-iteration",
    "hot-new",
    "hot-throw",
    "hot-lock",
    "hot-clock",
    "guarded-by",
    "design-sync",
}

KEYWORDS = {
    "if", "for", "while", "switch", "do", "else", "return", "sizeof",
    "decltype", "alignof", "alignas", "static_assert", "new", "delete",
    "throw", "catch", "case", "default", "break", "continue", "goto",
    "co_await", "co_return", "co_yield", "noexcept", "typeid", "const",
    "constexpr", "consteval", "constinit", "static", "inline", "virtual",
    "explicit", "friend", "mutable", "volatile", "register", "extern",
    "typename", "template", "using", "typedef", "operator", "public",
    "private", "protected", "class", "struct", "union", "enum",
    "namespace", "auto", "void", "bool", "char", "short", "int", "long",
    "float", "double", "signed", "unsigned", "true", "false", "nullptr",
    "this", "try", "requires", "concept", "final", "override",
}

ALLOC_CALLEES = {
    "make_unique", "make_shared", "malloc", "calloc", "realloc", "free",
    "strdup", "aligned_alloc",
}
LOCK_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock",
              "MutexLock"}
LOCK_METHODS = {"lock", "unlock", "try_lock", "lock_shared",
                "unlock_shared"}
CLOCK_TOKENS = {"steady_clock", "system_clock", "high_resolution_clock",
                "clock_gettime", "gettimeofday", "PW_TIMEIT"}

ALLOW_RE = re.compile(r"//\s*pw-analyze:\s*allow\(([\w-]+)\)\s*[:—-]?\s*(.*)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

_TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&|^!~<>=.,;:?(){}\[\]#\\'\"@$`]"
)


def strip_comments_and_strings(text):
    """Replaces comments and string/char literal *contents* with spaces,
    preserving line structure so token positions stay accurate. The
    comment text is lost here; allow-markers are read from raw lines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            # Raw strings R"tag( ... )tag"
            if quote == '"' and i > 0 and text[i - 1] == "R":
                m = re.match(r'R"([^(]*)\(', text[i - 1:])
                if m:
                    end = text.find(")" + m.group(1) + '"', i)
                    j = n if end == -1 else end + len(m.group(1)) + 2
                    chunk = text[i:j]
                    out.append('"' + "".join(
                        "\n" if ch == "\n" else " " for ch in chunk[1:-1]) +
                        '"' if len(chunk) >= 2 else chunk)
                    i = j
                    continue
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                if text[j] == "\n":
                    break
                j += 1
            j = min(j + 1, n)
            out.append(quote + " " * max(0, j - i - 2) +
                       (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def tokenize(code):
    """Yields (token, line) over comment/string-stripped code."""
    toks = []
    line = 1
    pos = 0
    for m in _TOKEN_RE.finditer(code):
        line += code.count("\n", pos, m.start())
        pos = m.start()
        toks.append((m.group(0), line))
    return toks


class FunctionFact:
    def __init__(self, path, module, cls, name, line):
        self.path = path
        self.module = module
        self.cls = cls          # enclosing or explicit class name, or None
        self.name = name
        self.line = line
        self.is_hot = False
        self.requires = set()   # capability names from PW_REQUIRES
        self.ret_type = ""
        self.params_text = ""
        self.body_text = ""
        self.body_line = line
        self.events = []        # (rule, line, detail)
        self.calls = []         # (receiver_token|None, qualifier|None, name, line)
        self.ranges = []        # (range_expr_tokens_text, line)

    @property
    def qual(self):
        return f"{self.cls}::{self.name}" if self.cls else self.name


class ClassFact:
    def __init__(self, path, module, name):
        self.path = path
        self.module = module
        self.name = name
        self.members = {}        # name -> type string
        self.guards = {}         # member name -> capability name
        self.aliases = {}        # using X = Y;
        self.method_requires = {}  # method name -> set(capabilities)


class FileFacts:
    def __init__(self, path, module):
        self.path = path
        self.module = module
        self.includes = []       # (line, target_module, header)
        self.decl_uses = []      # (line, target_module)
        self.functions = []
        self.classes = []
        self.aliases = {}        # file-scope using aliases
        self.globals_text = ""   # namespace-scope text for decl lookup


# ----------------------------------------------------------------------
# Builtin extractor: a forward scanner with a scope stack. Not a C++
# parser — a disciplined heuristic tuned to this codebase's (clang-
# format enforced) style, with libclang as the exact backend in CI.
# ----------------------------------------------------------------------

def _chunk_is_class(toks):
    depth = 0
    for t, _ in toks:
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
        elif depth == 0 and t in ("class", "struct", "union"):
            return True
        elif depth == 0 and t == "enum":
            return False
        elif depth == 0 and t == "=":
            return False
    return False


def _class_name(toks):
    """Name of the class introduced by this chunk: the last plain
    identifier before the base-clause colon / end, skipping attribute
    macros like PW_CAPABILITY("mutex")."""
    seen = None
    i = 0
    n = len(toks)
    started = False
    while i < n:
        t = toks[i][0]
        if t in ("class", "struct", "union"):
            started = True
            i += 1
            continue
        if not started:
            i += 1
            continue
        if t == ":":
            break
        if re.match(r"[A-Za-z_]\w*$", t) and t not in KEYWORDS:
            if i + 1 < n and toks[i + 1][0] == "(":
                depth = 0
                while i < n:  # skip macro-call group
                    if toks[i][0] == "(":
                        depth += 1
                    elif toks[i][0] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    i += 1
            else:
                seen = t
        i += 1
    return seen


def _function_from_chunk(toks, path, module, enclosing_class):
    """If the chunk (tokens between the last boundary and a '{') looks
    like a function definition header, returns (FunctionFact, name_idx);
    else None. Recognizes `Ret Cls::name(args) quals [: init-list]`."""
    depth = 0
    name_idx = None
    for i, (t, _line) in enumerate(toks):
        if t == "(":
            if depth == 0 and i > 0:
                j = i - 1
                name = toks[j][0]
                if name == "]":  # lambda at namespace scope: not tracked
                    return None
                if name in (">", ")"):
                    continue
                if not re.match(r"[A-Za-z_]\w*$", name):
                    depth += 1
                    continue
                if name in KEYWORDS and name != "operator":
                    depth += 1
                    continue
                # operator overloads: name token is the symbol after
                # 'operator'; normalize.
                if j > 0 and toks[j - 1][0] == "operator":
                    name = "operator" + name
                    j -= 1
                elif name == "operator":
                    return None
                # All-caps idents followed by '(' at chunk level are
                # macro invocations (PW_*, GTEST...), unless qualified.
                if (re.fullmatch(r"[A-Z][A-Z0-9_]+", name)
                        and (j == 0 or toks[j - 1][0] != "::")):
                    depth += 1
                    continue
                name_idx = j
                break
            depth += 1
        elif t == ")":
            depth -= 1
    if name_idx is None:
        return None
    # '=' before the name at depth 0 → a variable initialization.
    d = 0
    for t, _line in toks[:name_idx]:
        if t == "(":
            d += 1
        elif t == ")":
            d -= 1
        elif d == 0 and t == "=":
            return None
    # Explicit class qualifier: Cls::name
    cls = enclosing_class
    k = name_idx
    while k >= 2 and toks[k - 1][0] == "::":
        cls = toks[k - 2][0]
        k -= 2
    raw_name = toks[name_idx][0]
    if raw_name.startswith("operator") is False and toks[name_idx][0] != raw_name:
        raw_name = toks[name_idx][0]
    fn = FunctionFact(path, module, cls, raw_name, toks[name_idx][1])
    if name_idx > 0 and toks[name_idx - 1][0] == "operator":
        fn.name = "operator" + raw_name
    chunk_tokens = [t for t, _ in toks]
    fn.is_hot = "PW_HOT" in chunk_tokens
    # Return type: tokens before the (possibly qualified) name, minus
    # specifiers and template intros.
    rt = []
    stop = k
    skip_depth = 0
    for t, _line in toks[:stop]:
        if t == "<":
            skip_depth += 1
        elif t == ">":
            skip_depth = max(0, skip_depth - 1)
        if skip_depth:
            rt.append(t)
            continue
        if t in ("template", "typename", "static", "inline", "virtual",
                 "explicit", "constexpr", "friend", "PW_HOT", "const"):
            continue
        rt.append(t)
    fn.ret_type = " ".join(rt).replace(" :: ", "::").strip()
    # PW_REQUIRES on the definition (usually only on declarations).
    fn.requires |= _parse_requires(toks)
    return fn


def _parse_requires(toks):
    caps = set()
    for i, (t, _line) in enumerate(toks):
        if t in ("PW_REQUIRES", "PW_REQUIRES_SHARED") and \
                i + 1 < len(toks) and toks[i + 1][0] == "(":
            depth = 0
            for t2, _l in toks[i + 1:]:
                if t2 == "(":
                    depth += 1
                elif t2 == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif depth == 1 and re.match(r"[A-Za-z_]\w*$", t2):
                    caps.add(t2)
    return caps


_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+|inline\s+)*"
    r"(?P<type>[A-Za-z_][\w:]*(?:\s*<.*>)?)\s*[&*]*\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*"
    r"(?:PW_GUARDED_BY\s*\(\s*(?P<guard>[A-Za-z_]\w*)\s*\))?\s*"
    r"(?:=[^;]*|\{[^;]*\})?\s*;\s*$")

_USING_RE = re.compile(
    r"^\s*using\s+([A-Za-z_]\w*)\s*=\s*([^;]+);", re.MULTILINE)


def _scan_member_decl(stmt_text, cls, toks):
    """Parses one class-scope statement: member variable (with optional
    guard), alias, or method declaration carrying PW_REQUIRES."""
    # The first statement after an access label arrives as one chunk
    # ("private : Type name ;") — peel the label off before matching.
    stmt_text = re.sub(
        r"^\s*(?:public|private|protected)\s*:\s*", "", stmt_text)
    m = _USING_RE.match(stmt_text.strip())
    if m:
        cls.aliases[m.group(1)] = m.group(2).strip()
        return
    m = _MEMBER_RE.match(stmt_text.replace("\n", " "))
    if m and m.group("type") not in ("return", "using", "namespace"):
        cls.members[m.group("name")] = m.group("type").strip()
        if m.group("guard"):
            cls.guards[m.group("name")] = m.group("guard")
        return
    if "(" in stmt_text:
        # Method declaration: record PW_REQUIRES against the name.
        caps = _parse_requires(toks)
        if caps:
            for i, (t, _l) in enumerate(toks):
                if t == "(" and i > 0 and \
                        re.match(r"[A-Za-z_]\w*$", toks[i - 1][0]) and \
                        toks[i - 1][0] not in KEYWORDS and \
                        not re.fullmatch(r"PW_\w+", toks[i - 1][0]):
                    cls.method_requires.setdefault(
                        toks[i - 1][0], set()).update(caps)
                    break


def _extract_body_facts(fn, toks, code_text):
    """Records purity events, calls, and range-fors from body tokens."""
    n = len(toks)
    i = 0
    while i < n:
        t, line = toks[i][0], toks[i][1]
        prev = toks[i - 1][0] if i > 0 else ""
        nxt = toks[i + 1][0] if i + 1 < n else ""
        if t == "new" and prev != "operator":
            fn.events.append(("hot-new", line, "operator new"))
        elif t in ALLOC_CALLEES and nxt == "<":
            # make_unique<T>(...): the template arguments hide the call.
            fn.events.append(("hot-new", line, t))
        elif t == "delete" and prev not in ("=", "operator") and \
                nxt not in (";", ",", ")"):
            fn.events.append(("hot-new", line, "operator delete"))
        elif t == "throw" and prev != "operator":
            fn.events.append(("hot-throw", line, "throw"))
        elif t in LOCK_TYPES:
            fn.events.append(("hot-lock", line, t))
        elif t in CLOCK_TOKENS:
            fn.events.append(("hot-clock", line, t))
        elif t == "for" and nxt == "(":
            j = i + 1
            depth = 0
            inner = []
            while j < n:
                if toks[j][0] == "(":
                    depth += 1
                elif toks[j][0] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                if depth >= 1 and not (depth == 1 and toks[j][0] in "()"):
                    inner.append(toks[j])
                j += 1
            semis = [k for k, (tt, _l) in enumerate(inner)
                     if tt == ";" ]
            if not semis:
                colon = None
                d2 = 0
                for k, (tt, _l) in enumerate(inner):
                    if tt in ("(", "<", "["):
                        d2 += 1
                    elif tt in (")", ">", "]"):
                        d2 -= 1
                    elif tt == ":" and d2 <= 0 and \
                            (k == 0 or inner[k - 1][0] != ":") and \
                            (k + 1 >= len(inner) or inner[k + 1][0] != ":"):
                        colon = k
                if colon is not None:
                    rng = inner[colon + 1:]
                    fn.ranges.append((rng, line))
            i = j
            continue
        if re.match(r"[A-Za-z_]\w*$", t) and nxt == "(" and t not in KEYWORDS:
            if prev in (".", "->"):
                recv = toks[i - 2][0] if i >= 2 else None
                if recv is not None and not re.match(r"[A-Za-z_]\w*$", recv):
                    recv = None
                if t in LOCK_METHODS:
                    fn.events.append(("hot-lock", line, f".{t}()"))
                else:
                    fn.calls.append((recv, None, t, line))
            elif prev == "::":
                qual = toks[i - 2][0] if i >= 2 else None
                if t == "lock":
                    fn.events.append(("hot-lock", line, "std::lock"))
                elif t == "time" and qual == "std":
                    fn.events.append(("hot-clock", line, "std::time"))
                else:
                    fn.calls.append((None, qual, t, line))
            else:
                # `Type name(args)` is a declaration, not a call: the
                # token before the name is an identifier (or a closing
                # template '>'), never an operator.
                if (re.match(r"[A-Za-z_]\w*$", prev)
                        and prev not in KEYWORDS) or prev == ">":
                    i += 1
                    continue
                if t in ALLOC_CALLEES:
                    fn.events.append(("hot-new", line, t))
                else:
                    fn.calls.append((None, None, t, line))
        i += 1
    # Callee names reached via member/qualified calls can also allocate.
    for recv, qual, name, line in fn.calls:
        if name in ALLOC_CALLEES:
            fn.events.append(("hot-new", line, name))


def extract_file_builtin(path, root):
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    module = rel.split("/")[1] if rel.startswith("src/") and \
        len(rel.split("/")) > 2 else None
    raw = open(path, encoding="utf-8", errors="replace").read()
    code = strip_comments_and_strings(raw)
    facts = FileFacts(rel, module)

    # Includes (raw text: the include line survives stripping anyway).
    pos = 0
    for m in INCLUDE_RE.finditer(raw):
        line = raw.count("\n", 0, m.start()) + 1
        header = m.group(1)
        first = header.split("/")[0]
        if first in MODULES:
            facts.includes.append((line, first, header))

    # Decl-use: qualified-name references to other modules.
    for m in re.finditer(r"\b(" + "|".join(MODULES) + r")\s*::", code):
        line = code.count("\n", 0, m.start()) + 1
        facts.decl_uses.append((line, m.group(1)))

    for m in _USING_RE.finditer(code):
        facts.aliases[m.group(1)] = m.group(2).strip()

    toks = tokenize(code)
    n = len(toks)
    i = 0
    chunk_start = 0
    scope = []  # list of (kind, name_or_ClassFact)

    def enclosing_class():
        for kind, obj in reversed(scope):
            if kind == "class":
                return obj
        return None

    globals_parts = []
    while i < n:
        t, line = toks[i]
        if t == "{":
            chunk = toks[chunk_start:i]
            cls = enclosing_class()
            if any(tt == "namespace" for tt, _l in chunk):
                scope.append(("namespace", None))
                chunk_start = i + 1
                i += 1
                continue
            if _chunk_is_class(chunk):
                name = _class_name(chunk) or "<anon>"
                cf = ClassFact(rel, module, name)
                facts.classes.append(cf)
                scope.append(("class", cf))
                chunk_start = i + 1
                i += 1
                continue
            fn = _function_from_chunk(
                chunk, rel, module,
                cls.name if cls is not None else None)
            if fn is not None:
                # Capture params text for decl-type lookup.
                sig_line_start = chunk[0][1] if chunk else line
                fn.params_text = " ".join(tt for tt, _l in chunk)
                if cls is not None and fn.name in cls.method_requires:
                    fn.requires |= cls.method_requires[fn.name]
                # Consume the whole body.
                depth = 0
                j = i
                body = []
                while j < n:
                    if toks[j][0] == "{":
                        depth += 1
                    elif toks[j][0] == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    if depth >= 1:
                        body.append(toks[j])
                    j += 1
                fn.body_line = line
                fn.body_text = " ".join(tt for tt, _l in body)
                _extract_body_facts(fn, body[1:] if body else [], code)
                facts.functions.append(fn)
                if cls is not None:
                    cls.members.setdefault  # no-op; methods aren't members
                i = j + 1
                chunk_start = i
                continue
            scope.append(("other", None))
            chunk_start = i + 1
        elif t == "}":
            if scope:
                scope.pop()
            chunk_start = i + 1
        elif t == ";":
            chunk = toks[chunk_start:i + 1]
            cls = enclosing_class()
            stmt = " ".join(tt for tt, _l in chunk)
            if cls is not None:
                _scan_member_decl(stmt.replace(" :: ", "::"), cls, chunk)
            else:
                globals_parts.append(stmt.replace(" :: ", "::"))
            chunk_start = i + 1
        i += 1
    facts.globals_text = "\n".join(globals_parts)
    return facts


# ----------------------------------------------------------------------
# libclang extractor (CI): exact facts from the AST.
# ----------------------------------------------------------------------

def extract_tree_libclang(root, build_dir, files):
    from clang import cindex  # noqa: imported only for this backend

    index = cindex.Index.create()
    try:
        db = cindex.CompilationDatabase.fromDirectory(build_dir)
    except cindex.CompilationDatabaseError:
        sys.exit(f"pw_analyze: no compile_commands.json in {build_dir}")

    def module_of(path):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        parts = rel.split("/")
        return (rel, parts[1]) if parts[0] == "src" and len(parts) > 2 \
            else (rel, None)

    all_facts = {}

    def facts_for(rel, module):
        if rel not in all_facts:
            all_facts[rel] = FileFacts(rel, module)
        return all_facts[rel]

    UNORDERED_RE = re.compile(r"unordered_(map|set|multimap|multiset)")

    def qual_name(cursor):
        parts = []
        c = cursor
        while c is not None and c.kind != cindex.CursorKind.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def fn_cls(cursor):
        p = cursor.semantic_parent
        if p is not None and p.kind in (
                cindex.CursorKind.CLASS_DECL, cindex.CursorKind.STRUCT_DECL,
                cindex.CursorKind.CLASS_TEMPLATE):
            return p.spelling
        return None

    tus = [f for f in files if f.endswith(".cpp")]
    for src in tus:
        cmds = db.getCompileCommands(src)
        if not cmds:
            continue
        args = list(cmds[0].arguments)[1:]
        clean = []
        skip = False
        for a in args:
            if skip:
                skip = False
                continue
            if a in ("-c", "-o"):
                skip = (a == "-o")
                continue
            if a == src or a.endswith(os.path.basename(src)):
                continue
            clean.append(a)
        try:
            tu = index.parse(src, args=clean)
        except cindex.TranslationUnitLoadError as e:
            sys.exit(f"pw_analyze: failed to parse {src}: {e}")
        fatal = [d for d in tu.diagnostics if d.severity >= 4]
        if fatal:
            sys.exit(f"pw_analyze: {src}: {fatal[0].spelling}")

        def in_tree(cursor):
            loc = cursor.location
            return loc.file is not None and \
                os.path.abspath(loc.file.name).startswith(
                    os.path.join(root, "src"))

        def walk_fn(cursor, fn):
            for ch in cursor.get_children():
                k = ch.kind
                line = ch.location.line
                if k == cindex.CursorKind.CXX_NEW_EXPR:
                    fn.events.append(("hot-new", line, "operator new"))
                elif k == cindex.CursorKind.CXX_DELETE_EXPR:
                    fn.events.append(("hot-new", line, "operator delete"))
                elif k == cindex.CursorKind.CXX_THROW_EXPR:
                    fn.events.append(("hot-throw", line, "throw"))
                elif k == cindex.CursorKind.VAR_DECL:
                    ts = ch.type.spelling
                    if any(lt in ts for lt in LOCK_TYPES):
                        fn.events.append(("hot-lock", line, ts))
                elif k == cindex.CursorKind.CALL_EXPR:
                    ref = ch.referenced
                    if ref is not None:
                        qn = qual_name(ref)
                        base = ref.spelling
                        if base in LOCK_METHODS and "std" not in qn:
                            fn.events.append(("hot-lock", line, qn))
                        elif base in ALLOC_CALLEES:
                            fn.events.append(("hot-new", line, base))
                        elif "chrono" in qn and base == "now":
                            fn.events.append(("hot-clock", line, qn))
                        else:
                            fn.calls.append(
                                (None, fn_cls(ref), base, line))
                elif k == cindex.CursorKind.DECL_REF_EXPR:
                    qn = qual_name(ch.referenced) if ch.referenced else ""
                    if any(ct in qn for ct in CLOCK_TOKENS):
                        fn.events.append(("hot-clock", line, qn))
                elif k == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                    kids = list(ch.get_children())
                    if len(kids) >= 2:
                        rng = kids[-2]
                        ts = rng.type.get_canonical().spelling
                        if UNORDERED_RE.search(ts):
                            fn.ranges.append(
                                ([("<unordered>", ch.location.line)],
                                 ch.location.line))
                            fn.events.append(
                                ("unordered-iteration", ch.location.line,
                                 ts))
                walk_fn(ch, fn)

        def visit(cursor):
            for ch in cursor.get_children():
                if not in_tree(ch):
                    continue
                rel, module = module_of(
                    os.path.abspath(ch.location.file.name))
                k = ch.kind
                if k in (cindex.CursorKind.CXX_METHOD,
                         cindex.CursorKind.FUNCTION_DECL,
                         cindex.CursorKind.CONSTRUCTOR,
                         cindex.CursorKind.DESTRUCTOR) and \
                        ch.is_definition():
                    ff = facts_for(rel, module)
                    fn = FunctionFact(rel, module, fn_cls(ch),
                                      ch.spelling, ch.location.line)
                    for a in ch.get_children():
                        if a.kind == cindex.CursorKind.ANNOTATE_ATTR and \
                                a.spelling == "pw_hot":
                            fn.is_hot = True
                    walk_fn(ch, fn)
                    ff.functions.append(fn)
                elif k in (cindex.CursorKind.CLASS_DECL,
                           cindex.CursorKind.STRUCT_DECL) and \
                        ch.is_definition():
                    ff = facts_for(rel, module)
                    cf = ClassFact(rel, module, ch.spelling)
                    for f in ch.get_children():
                        if f.kind == cindex.CursorKind.FIELD_DECL:
                            cf.members[f.spelling] = f.type.spelling
                    ff.classes.append(cf)
                    visit(ch)
                else:
                    visit(ch)

        visit(tu.cursor)

    # Includes and decl-use stay textual (exact enough, and libclang's
    # preprocessing record is noisy across headers).
    for f in files:
        rel, module = module_of(f)
        ff = facts_for(rel, module)
        builtin = extract_file_builtin(f, root)
        ff.includes = builtin.includes
        ff.decl_uses = builtin.decl_uses
        # Guards/aliases come from the builtin scan too: annotate
        # attributes on fields are macro-expanded identically.
        for c in builtin.classes:
            ff.classes.append(c)
        ff.aliases.update(builtin.aliases)
        # Unordered-iteration events were attached inline above; also
        # reuse the builtin range resolution for headers (libclang only
        # parsed .cpp TUs).
        if f.endswith(".h"):
            ff.functions.extend(builtin.functions)
    return list(all_facts.values())


# ----------------------------------------------------------------------
# Suppression bookkeeping
# ----------------------------------------------------------------------

class Suppressions:
    def __init__(self, root, allowlist_path):
        self.root = root
        self.inline = {}        # path -> {line: (rule, has_reason)}
        self.file_rules = {}    # (path, rule) -> justification
        self.used = set()
        self.errors = []
        if allowlist_path and os.path.exists(allowlist_path):
            for ln, line in enumerate(
                    open(allowlist_path, encoding="utf-8"), 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                m = re.match(r"([^\s:]+):([\w-]+)\s+#\s*(.+)", stripped)
                if not m:
                    self.errors.append(
                        f"{allowlist_path}:{ln}: [allowlist-syntax] "
                        f"expected 'path:rule  # justification'")
                    continue
                self.file_rules[(m.group(1), m.group(2))] = m.group(3)

    def load_file(self, path, rel):
        lines = {}
        for ln, line in enumerate(open(path, encoding="utf-8",
                                       errors="replace"), 1):
            m = ALLOW_RE.search(line)
            if m:
                rule, reason = m.group(1), m.group(2).strip()
                if not reason:
                    self.errors.append(
                        f"{rel}:{ln}: [allow-missing-justification] inline "
                        f"allow({rule}) must say why")
                lines[ln] = rule
        self.inline[rel] = lines

    def allows(self, rel, line, rule, raw_lines=None):
        if (rel, rule) in self.file_rules:
            self.used.add((rel, rule))
            return True
        marks = self.inline.get(rel, {})
        # Same line, or the contiguous comment block directly above.
        if marks.get(line) == rule:
            return True
        ln = line - 1
        while ln > 0:
            if marks.get(ln) == rule:
                return True
            text = (raw_lines[ln - 1].strip() if raw_lines and
                    ln - 1 < len(raw_lines) else "")
            if not (text.startswith("//") or text == ""):
                break
            if text == "":
                break
            ln -= 1
        return False

    def unused_entries(self):
        return [(p, r, why) for (p, r), why in self.file_rules.items()
                if (p, r) not in self.used]


# ----------------------------------------------------------------------
# Type resolution for the unordered-iteration check (builtin facts)
# ----------------------------------------------------------------------

UNORDERED_TYPE_RE = re.compile(r"\bunordered_(map|set|multimap|multiset)\b")


class Resolver:
    def __init__(self, files):
        self.files = {f.path: f for f in files}
        self.classes = {}
        self.funcs_by_name = {}
        self.global_aliases = {}
        for f in files:
            for c in f.classes:
                self.classes.setdefault(c.name, []).append(c)
                for a, ty in c.aliases.items():
                    self.global_aliases.setdefault(a, ty)
            for a, ty in f.aliases.items():
                self.global_aliases.setdefault(a, ty)
            for fn in f.functions:
                self.funcs_by_name.setdefault(fn.name, []).append(fn)
        # PW_REQUIRES usually sits on the in-class declaration (the
        # header); fold it onto out-of-line definitions.
        for f in files:
            for fn in f.functions:
                if fn.cls is None:
                    continue
                for c in self.classes.get(fn.cls, []):
                    fn.requires |= c.method_requires.get(fn.name, set())

    # -- helpers --

    def expand(self, type_str, fn):
        """Expands using-aliases until fixpoint (bounded)."""
        if not type_str:
            return type_str
        for _ in range(8):
            t = type_str.strip()
            t = re.sub(r"^(const|typename|mutable|static)\s+", "", t)
            t = t.rstrip("&* ")
            base = t.split("<")[0].strip()
            last = base.split("::")[-1].strip()
            repl = None
            cls = self._class_of_fn(fn)
            if cls is not None and last in cls.aliases:
                repl = cls.aliases[last]
            elif last in self.global_aliases:
                repl = self.global_aliases[last]
            if repl is None or repl.split("<")[0].strip().split("::")[-1] \
                    == last:
                return t
            type_str = repl
        return type_str

    def _class_of_fn(self, fn):
        if fn is None or fn.cls is None:
            return None
        cands = self.classes.get(fn.cls, [])
        for c in cands:
            if c.module == fn.module:
                return c
        return cands[0] if cands else None

    def _find_decl_type(self, name, fn):
        """Searches body, params, class members, then file globals for a
        declaration of `name`, returning its type string."""
        texts = []
        if fn is not None:
            texts.append(fn.body_text)
            texts.append(fn.params_text)
        cls = self._class_of_fn(fn)
        if cls is not None and name in cls.members:
            return cls.members[name]
        ffile = self.files.get(fn.path) if fn is not None else None
        if ffile is not None:
            texts.append(ffile.globals_text)
        for text in texts:
            ty = _decl_type_in_text(text, name)
            if ty == "auto" and fn is not None:
                rhs = _auto_rhs(fn.body_text, name)
                if rhs:
                    return self.resolve_expr_text(rhs, fn)
                return None
            if ty:
                return ty
        # Structured binding in a range-for: `[k, v] : container` binds
        # k to the key type and v to the mapped type.
        if fn is not None:
            for pat, pick in (
                    (r"\[\s*\w+\s*,\s*" + re.escape(name) +
                     r"\s*\]\s*:\s*([^)]+?)\)", _map_mapped_type),
                    (r"\[\s*" + re.escape(name) +
                     r"\s*,\s*\w+\s*\]\s*:\s*([^)]+?)\)", _map_key_type)):
                m = re.search(pat, fn.body_text)
                if m:
                    cont = self.resolve_expr_text(m.group(1), fn)
                    if cont:
                        return pick(self.expand(cont, fn))
        return None

    def _method_ret(self, cls_name, method, fn):
        for cand in self.funcs_by_name.get(method, []):
            if cls_name is None or cand.cls == cls_name:
                if cand.ret_type and cand.ret_type != "auto":
                    return cand.ret_type
        # Method declared in a class body but defined elsewhere: search
        # the class's member-decl text? Skipped: best-effort.
        return None

    def resolve_expr_text(self, expr, fn):
        toks = [t for t in _TOKEN_RE.findall(expr)]
        return self.resolve_expr(toks, fn)

    def resolve_expr(self, toks, fn):
        """Resolves a postfix expression's type; None when unknown."""
        toks = [t for t in toks if t not in ("const", "&", "*")]
        if not toks:
            return None
        i = 0
        # Primary: ident or qualified path or this
        if toks[0] == "this":
            cls = self._class_of_fn(fn)
            cur = cls.name if cls else None
            i = 1
        else:
            path = [toks[0]]
            i = 1
            while i + 1 < len(toks) and toks[i] == "::":
                path.append(toks[i + 1])
                i += 2
            name = path[-1]
            if i < len(toks) and toks[i] == "(":
                depth = 0
                while i < len(toks):
                    if toks[i] == "(":
                        depth += 1
                    elif toks[i] == ")":
                        depth -= 1
                        if depth == 0:
                            i += 1
                            break
                    i += 1
                cur = self._method_ret(
                    path[-2] if len(path) > 1 else
                    (fn.cls if fn else None), name, fn) or \
                    self._method_ret(None, name, fn)
            else:
                cur = self._find_decl_type(name, fn)
        # Postfix chain
        while i < len(toks) and cur is not None:
            t = toks[i]
            if t in (".", "->"):
                if i + 1 >= len(toks):
                    break
                member = toks[i + 1]
                is_call = i + 2 < len(toks) and toks[i + 2] == "("
                cur_exp = self.expand(cur, fn)
                if is_call:
                    if member == "find":
                        cur = f"__iter__<{cur_exp}>"
                    elif member in ("at",):
                        cur = _map_mapped_type(cur_exp) or \
                            _seq_value_type(cur_exp)
                    elif member in ("begin", "end", "cbegin", "cend"):
                        cur = f"__iter__<{cur_exp}>"
                    else:
                        cls_name = _type_class_name(cur_exp)
                        cur = self._method_ret(cls_name, member, fn)
                    i += 2
                    depth = 0
                    while i < len(toks):
                        if toks[i] == "(":
                            depth += 1
                        elif toks[i] == ")":
                            depth -= 1
                            if depth == 0:
                                i += 1
                                break
                        i += 1
                    continue
                if member == "second":
                    inner = _iter_inner(cur_exp) or cur_exp
                    cur = _map_mapped_type(self.expand(inner, fn))
                elif member == "first":
                    inner = _iter_inner(cur_exp) or cur_exp
                    cur = _map_key_type(self.expand(inner, fn))
                else:
                    inner = _iter_inner(cur_exp)
                    host = _type_class_name(inner or cur_exp)
                    cls = None
                    for cand in self.classes.get(host or "", []):
                        cls = cand
                        break
                    cur = cls.members.get(member) if cls else None
                i += 2
            elif t == "[":
                depth = 0
                while i < len(toks):
                    if toks[i] == "[":
                        depth += 1
                    elif toks[i] == "]":
                        depth -= 1
                        if depth == 0:
                            i += 1
                            break
                    i += 1
                cur_exp = self.expand(cur, fn)
                cur = _map_mapped_type(cur_exp) or _seq_value_type(cur_exp)
            else:
                break
        return cur

    def range_is_unordered(self, rng_toks, fn):
        text_toks = [t for t, _l in rng_toks]
        if text_toks and text_toks[0] == "<unordered>":
            return True  # pre-resolved by the libclang backend
        ty = self.resolve_expr(text_toks, fn)
        if ty is None:
            return False
        ty = self.expand(ty, fn)
        if ty is None:
            return False
        inner = _iter_inner(ty)
        if inner:
            ty = self.expand(inner, fn)
        return bool(ty and UNORDERED_TYPE_RE.search(ty))


def _decl_type_in_text(text, name):
    """Finds `Type name` declarations in flattened statement text."""
    if not text:
        return None
    for m in re.finditer(r"\b" + re.escape(name) + r"\b", text):
        after = text[m.end():].lstrip()
        if not after or after[0] not in "=;,)([{:":
            continue
        before = text[:m.start()]
        seg = before[_stmt_start(before):].strip()
        ty = _trailing_type(seg)
        if ty:
            return ty
    return None


def _stmt_start(before):
    """Index where the current declaration starts: the last ; { } ( or
    comma, skipping separators nested inside template angle brackets or
    call parentheses (scanning backward)."""
    angle = 0
    paren = 0
    for i in range(len(before) - 1, -1, -1):
        c = before[i]
        if c == ">":
            angle += 1
        elif c == "<":
            angle = max(0, angle - 1)
        elif c == ")":
            paren += 1
        elif c == "(":
            if paren == 0:
                return i + 1
            paren -= 1
        elif angle == 0 and paren == 0 and c in ";{},":
            return i + 1
    return 0


def _auto_rhs(body_text, name):
    m = re.search(r"\bauto\s*[&*]*\s*" + re.escape(name) +
                  r"\s*=\s*([^;]+);", body_text)
    return m.group(1).strip() if m else None


def _trailing_type(seg):
    """Extracts the trailing type from 'const std::map<K,V>&' etc."""
    seg = seg.strip()
    while seg and seg[-1] in "&*":
        seg = seg[:-1].strip()
    if not seg:
        return None
    if seg.endswith(">"):
        depth = 0
        for i in range(len(seg) - 1, -1, -1):
            if seg[i] == ">":
                depth += 1
            elif seg[i] == "<":
                depth -= 1
                if depth == 0:
                    head = seg[:i].strip()
                    m = re.search(r"([A-Za-z_][\w:]*)$", head)
                    if m:
                        ty = m.group(1) + seg[i:]
                        if m.group(1).split("::")[-1] == "auto":
                            return "auto"
                        return ty
                    return None
        return None
    m = re.search(r"([A-Za-z_][\w:]*)$", seg)
    if not m:
        return None
    ty = m.group(1)
    last = ty.split("::")[-1]
    if last in KEYWORDS and last != "auto":
        if last in ("bool", "char", "short", "int", "long", "float",
                    "double", "unsigned", "signed", "void"):
            return last
        return None
    return ty


def _split_template_args(ty):
    lt = ty.find("<")
    if lt == -1 or not ty.rstrip().endswith(">"):
        return None
    inner = ty[lt + 1:ty.rstrip().rfind(">")]
    args, depth, cur = [], 0, []
    for ch in inner:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        args.append("".join(cur).strip())
    return args


def _type_class_name(ty):
    if not ty:
        return None
    return ty.split("<")[0].strip().split("::")[-1].strip("&* ")


def _map_mapped_type(ty):
    if ty and re.search(r"\b(map|unordered_map|multimap)\s*<", ty or ""):
        args = _split_template_args(ty)
        if args and len(args) >= 2:
            return args[1]
    return None


def _map_key_type(ty):
    if ty and re.search(r"\b(map|unordered_map|multimap|set|unordered_set)"
                        r"\s*<", ty or ""):
        args = _split_template_args(ty)
        if args:
            return args[0]
    return None


def _seq_value_type(ty):
    if ty and re.search(r"\b(vector|array|span|deque)\s*<", ty or ""):
        args = _split_template_args(ty)
        if args:
            return args[0]
    return None


def _iter_inner(ty):
    if ty and ty.startswith("__iter__<") and ty.endswith(">"):
        return ty[len("__iter__<"):-1]
    return None


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def check_layering(files, sup, raw_lines, out):
    for f in files:
        if f.module is None or f.module not in MODULES:
            continue
        allowed = set(ALLOWED_DEPS[f.module]) | {f.module}
        seen_decl = set()
        for line, target, header in f.includes:
            if target not in allowed:
                if sup.allows(f.path, line, "layering",
                              raw_lines.get(f.path)):
                    continue
                out.append(
                    f"{f.path}:{line}: [layering] {f.module} must not "
                    f"include \"{header}\" ({f.module} → {target} is not "
                    f"an edge of the DAG; allowed: "
                    f"{', '.join(sorted(allowed - {f.module})) or 'none'})")
        for line, target in f.decl_uses:
            if target not in allowed and (target, line) not in seen_decl:
                seen_decl.add((target, line))
                if sup.allows(f.path, line, "layering",
                              raw_lines.get(f.path)):
                    continue
                out.append(
                    f"{f.path}:{line}: [layering] {f.module} must not "
                    f"name {target}:: ({f.module} → {target} is not an "
                    f"edge of the DAG)")


def check_unordered(files, resolver, sup, raw_lines, out):
    for f in files:
        for fn in f.functions:
            for rng, line in fn.ranges:
                if resolver.range_is_unordered(rng, fn):
                    if sup.allows(f.path, line, "unordered-iteration",
                                  raw_lines.get(f.path)):
                        continue
                    expr = " ".join(t for t, _l in rng)
                    out.append(
                        f"{f.path}:{line}: [unordered-iteration] range-for "
                        f"over an unordered container ('{expr}'): hash "
                        f"order must not feed the deterministic event "
                        f"stream — copy + sort, or iterate an ordered "
                        f"mirror")
            # The libclang backend records pre-resolved events too.
            for rule, line, detail in fn.events:
                if rule != "unordered-iteration":
                    continue
                if sup.allows(f.path, line, "unordered-iteration",
                              raw_lines.get(f.path)):
                    continue
                out.append(
                    f"{f.path}:{line}: [unordered-iteration] range-for "
                    f"over {detail}")


# Functions whose calls terminate the walk: the contract-failure path is
# [[noreturn]] and may allocate while formatting its one last message.
PURITY_EXEMPT = {"fail", "fail_op", "PW_CHECK", "PW_DCHECK",
                 "PW_UNREACHABLE"}


def check_hot_purity(files, resolver, sup, raw_lines, out):
    roots = [fn for f in files for fn in f.functions if fn.is_hot]
    reported = set()
    for root in roots:
        visited = set()
        stack = [(root, [root.qual])]
        while stack:
            fn, chain = stack.pop()
            key = (fn.path, fn.qual, fn.line)
            if key in visited:
                continue
            visited.add(key)
            for rule, line, detail in fn.events:
                if rule == "unordered-iteration":
                    continue
                if (fn.path, line, rule) in reported:
                    continue
                if sup.allows(fn.path, line, rule,
                              raw_lines.get(fn.path)):
                    continue
                reported.add((fn.path, line, rule))
                via = " → ".join(chain)
                out.append(
                    f"{fn.path}:{line}: [{rule}] {detail} reachable from "
                    f"PW_HOT root {root.qual} (via {via})")
            for recv, qual, name, _line in fn.calls:
                if name in PURITY_EXEMPT or name.startswith("PW_"):
                    continue
                cands = resolver.funcs_by_name.get(name, [])
                if not cands:
                    continue
                picked = _pick_callees(fn, recv, qual, name, cands,
                                       resolver)
                for callee in picked:
                    stack.append((callee, chain + [callee.qual]))


def _pick_callees(fn, recv, qual, name, cands, resolver):
    """Narrows name-matched candidates using receiver/qualifier type
    info; falls back to every candidate when ambiguous (conservative),
    unless the name is so generic that following it would be noise."""
    if qual is not None:
        scoped = [c for c in cands if c.cls == qual]
        if scoped:
            return scoped
        modscoped = [c for c in cands if c.module == qual]
        if modscoped:
            return modscoped
    if recv is not None:
        ty = resolver._find_decl_type(recv, fn)
        if ty:
            cls_name = _type_class_name(resolver.expand(ty, fn))
            scoped = [c for c in cands if c.cls == cls_name]
            if scoped:
                return scoped
            return []  # typed receiver, no project method: std type
    same_cls = [c for c in cands if fn.cls and c.cls == fn.cls]
    if same_cls:
        return same_cls
    free = [c for c in cands if c.cls is None and c.module == fn.module]
    if free:
        return free
    if len(cands) > 4:
        return []
    return cands


def check_guarded_by(files, resolver, sup, raw_lines, out):
    guarded = {}  # class name -> {field: cap}
    for f in files:
        for c in f.classes:
            if c.guards:
                guarded.setdefault(c.name, {}).update(c.guards)
    if not guarded:
        return
    for f in files:
        for fn in f.functions:
            if fn.cls not in guarded:
                continue
            fields = guarded[fn.cls]
            body = fn.body_text
            for field, cap in fields.items():
                if not re.search(r"\b" + re.escape(field) + r"\b", body):
                    continue
                if cap in fn.requires:
                    continue
                if _body_locks(body, cap):
                    continue
                line = fn.body_line
                if sup.allows(f.path, line, "guarded-by",
                              raw_lines.get(f.path)):
                    continue
                out.append(
                    f"{f.path}:{line}: [guarded-by] {fn.qual} touches "
                    f"'{field}' (PW_GUARDED_BY({cap})) without holding "
                    f"{cap}: take a lock on {cap} or annotate the "
                    f"function PW_REQUIRES({cap})")


def _body_locks(body, cap):
    lock_ctor = r"(?:MutexLock|lock_guard|unique_lock|scoped_lock|" \
                r"shared_lock)\s*(?:<[^>]*>)?\s+\w+\s*[({]\s*" + \
                re.escape(cap) + r"\b"
    if re.search(lock_ctor, body):
        return True
    if re.search(re.escape(cap) + r"\s*\.\s*lock\s*\(", body):
        return True
    return False


def check_design_sync(root, out):
    design = os.path.join(root, "DESIGN.md")
    if not os.path.exists(design):
        return
    text = open(design, encoding="utf-8").read()
    blocks = re.findall(r"```mermaid\n(.*?)```", text, re.DOTALL)
    edges = set()
    found_block = False
    for b in blocks:
        if "-->" not in b:
            continue
        found_block = True
        for m in re.finditer(r"^\s*(\w+)\s*-->\s*(\w+)\s*$", b,
                             re.MULTILINE):
            edges.add((m.group(1), m.group(2)))
    if not found_block:
        out.append(
            "DESIGN.md:1: [design-sync] no mermaid layering diagram "
            "found (a ```mermaid block with module --> dep edges must "
            "mirror pw_analyze's ALLOWED_DEPS)")
        return
    expected = {(mod, dep) for mod, deps in ALLOWED_DEPS.items()
                for dep in deps}
    for mod, dep in sorted(expected - edges):
        out.append(
            f"DESIGN.md:1: [design-sync] diagram is missing the edge "
            f"{mod} --> {dep} (present in ALLOWED_DEPS)")
    for mod, dep in sorted(edges - expected):
        out.append(
            f"DESIGN.md:1: [design-sync] diagram has extra edge "
            f"{mod} --> {dep} (not in ALLOWED_DEPS — the diagram must "
            f"match the enforced DAG edge-for-edge)")


def _check_dag_acyclic():
    state = {}

    def visit(m, path):
        if state.get(m) == "done":
            return
        if state.get(m) == "open":
            sys.exit(f"pw_analyze: ALLOWED_DEPS has a cycle: "
                     f"{' → '.join(path + [m])}")
        state[m] = "open"
        for d in ALLOWED_DEPS[m]:
            visit(d, path + [m])
        state[m] = "done"

    for m in ALLOWED_DEPS:
        visit(m, [])


# ----------------------------------------------------------------------

def discover_files(root):
    files = []
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith((".h", ".cpp")):
                files.append(os.path.join(dirpath, name))
    return sorted(files)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="restrict to these files (default: root/src/**)")
    ap.add_argument("--root", default=REPO_ROOT,
                    help="analysis root (default: the repository)")
    ap.add_argument("-p", "--build-dir", default=None,
                    help="build dir with compile_commands.json "
                         "(required for --backend=libclang)")
    ap.add_argument("--backend", choices=["auto", "builtin", "libclang"],
                    default="auto")
    ap.add_argument("--checks", default="all",
                    help="comma list: layering,unordered-iteration,"
                         "hot-purity,guarded-by,design-sync (default all)")
    ap.add_argument("--allowlist", default=None,
                    help="override the allowlist path (tests)")
    args = ap.parse_args(argv)

    _check_dag_acyclic()

    root = os.path.abspath(args.root)
    files = [os.path.abspath(f) for f in args.files] or discover_files(root)
    if not files:
        sys.exit(f"pw_analyze: no sources under {root}/src")

    backend = args.backend
    if backend == "auto":
        try:
            import clang.cindex  # noqa: F401
            backend = "libclang" if args.build_dir else "builtin"
        except ImportError:
            backend = "builtin"
    if backend == "libclang" and not args.build_dir:
        sys.exit("pw_analyze: --backend=libclang needs -p BUILD_DIR")

    allowlist = args.allowlist
    if allowlist is None:
        default_allow = os.path.join(REPO_ROOT, "tools",
                                     "pw_analyze_allowlist.txt")
        allowlist = default_allow if root == REPO_ROOT else None
    sup = Suppressions(root, allowlist)

    raw_lines = {}
    facts = []
    if backend == "libclang":
        facts = extract_tree_libclang(root, args.build_dir, files)
    else:
        for f in files:
            facts.append(extract_file_builtin(f, root))
    for f in files:
        rel = os.path.relpath(f, root).replace(os.sep, "/")
        sup.load_file(f, rel)
        raw_lines[rel] = open(f, encoding="utf-8",
                              errors="replace").read().splitlines()

    checks = set(c.strip() for c in args.checks.split(","))
    if "all" in checks:
        checks = {"layering", "unordered-iteration", "hot-purity",
                  "guarded-by", "design-sync"}

    resolver = Resolver(facts)
    out = []
    if "layering" in checks:
        check_layering(facts, sup, raw_lines, out)
    if "unordered-iteration" in checks:
        check_unordered(facts, resolver, sup, raw_lines, out)
    if "hot-purity" in checks:
        check_hot_purity(facts, resolver, sup, raw_lines, out)
    if "guarded-by" in checks:
        check_guarded_by(facts, resolver, sup, raw_lines, out)
    if "design-sync" in checks:
        check_design_sync(root, out)

    for path, rule, why in sup.unused_entries():
        out.append(
            f"{allowlist}: [unused-allowlist-entry] '{path}:{rule}' no "
            f"longer matches any violation — delete it (was: {why})")
    out.extend(sup.errors)

    out = sorted(set(out))
    for line in out:
        print(line)
    n_fns = sum(len(f.functions) for f in facts)
    n_hot = sum(1 for f in facts for fn in f.functions if fn.is_hot)
    print(f"pw_analyze[{backend}]: {len(files)} files, {n_fns} functions "
          f"({n_hot} PW_HOT roots), {len(out)} finding(s)", file=sys.stderr)
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main())
