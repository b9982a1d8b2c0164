#!/usr/bin/env python3
"""deep_lint.py -- semantic analyzer for the sqlledger tree.

A token-level parser tuned to this repo's idiom builds an intermediate
representation (classes and their member types, functions, call sites,
lock acquisitions); three checker families run over it:

  env-bypass      raw POSIX/stdio/std::filesystem I/O reached from src/
                  outside the Env abstraction (src/storage/env.{cc,h}),
                  reported with the full call chain
  lock-order      interprocedural acquired-while-held lock graph, diffed
                  against the declared hierarchy (scripts/lock_hierarchy.txt);
                  cycles and undeclared edges fail the build
  digest-hygiene  memcmp/std::equal/raw-array == on digest/MAC byte buffers
                  that dodge util/constant_time.h::ConstantTimeEqual

A call whose receiver type the parser cannot resolve reaches no callee,
so it adds no lock-graph edge: the analysis does not guess.

Escape hatch: `// lint: allow(<rule>): <justification>` on the offending
line or the line above, matched by lint.py's parse_allow/allow_line, so
both tools read it alike.  The justification after the colon is mandatory
here; an allow() without one is itself a finding.

Exit codes: 0 clean, 1 findings, 2 infrastructure error.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
try:
    import lint  # the shared allow matcher, and lint.py's rule names
finally:
    sys.path.pop(0)

RULES = {
    "env-bypass",
    "lock-order",
    "digest-hygiene",
    "allow-without-justification",
}


def lint_py_rules():
    """The rules of scripts/lint.py, which shares the `// lint: allow(...)`
    escape hatch: an allow naming one of them is not an unknown rule here
    (it still needs a justification)."""
    return {rule for rule, *_ in lint.CHECKS + lint.REPO_CHECKS}

# RAII guard types from util/thread_annotations.h.
GUARD_TYPES = {"MutexLock", "ReaderMutexLock", "WriterMutexLock"}
LOCK_METHODS = {"Lock", "LockShared", "TryLock"}
UNLOCK_METHODS = {"Unlock", "UnlockShared"}
MUTEX_TYPES = {"Mutex", "SharedMutex"}
# Thread-safety annotations that may trail a data member's name.
MEMBER_ANNOTATIONS = {"GUARDED_BY", "PT_GUARDED_BY", "ACQUIRED_BEFORE",
                      "ACQUIRED_AFTER"}

# Free-function POSIX / stdio calls that must only appear inside the Env
# implementation.  Matched only as free calls (no '.'/'->' receiver), so
# repo methods like file->Close() never collide.
BANNED_POSIX = {
    "open", "openat", "creat", "fopen", "freopen", "fdopen",
    "close", "fclose",
    "read", "pread", "fread", "fgets", "fscanf",
    "write", "pwrite", "fwrite", "fputs", "fputc",
    "fsync", "fdatasync", "syncfs", "fflush",
    "rename", "renameat", "unlink", "unlinkat",
    "mkdir", "mkdirat", "rmdir",
    "truncate", "ftruncate",
    "chmod", "fchmod", "stat", "fstat", "lstat", "access",
    "opendir", "readdir", "closedir",
    "link", "symlink", "realpath", "tmpfile", "mkstemp",
}

# Token-level bans: these identifiers appearing at all in non-sanctioned
# src/ files are bypasses (stream I/O and std::filesystem dodge Env).
BANNED_TOKENS = {"ifstream", "ofstream", "fstream", "filesystem"}

SANCTIONED = {"src/storage/env.cc", "src/storage/env.h"}
EXCLUDED = {"src/util/thread_annotations.h"}

DIGEST_ARG_RE = re.compile(
    r"(?i)(hash|digest|hmac|\bmac\b|signature|fingerprint|tag\b|\broot\b)")
DIGEST_EXEMPT_RE = re.compile(r"(?i)(magic|header)")

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "else", "do", "case", "new", "delete", "throw", "static_assert",
    "alignas", "alignof", "decltype",
}

TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|::|->|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||"
    r"\+=|-=|\*=|/=|%=|&=|\|=|\^=|\.\.\.|[0-9][0-9a-fA-FxX.uUlL']*|.")


class Finding:
    def __init__(self, rule, file, line, msg, chain=None):
        self.rule = rule
        self.file = file
        self.line = line
        self.msg = msg
        self.chain = chain or []

    def render(self):
        out = "%s:%d: [%s] %s" % (self.file, self.line, self.rule, self.msg)
        for step in self.chain:
            out += "\n    via %s" % step
        return out


class Func:
    """One function definition: ordered lock/call ops plus raw I/O sites."""

    def __init__(self, key, cls, name, file, line):
        self.key = key      # "Class::name" or "name"
        self.cls = cls      # enclosing class name or None
        self.name = name
        self.file = file
        self.line = line
        self.params = {}    # var name -> type name
        self.locals = {}
        # ops: ("acq", lock, line) / ("rel", lock, line) /
        #      ("call", callee, recv_type_or_None, line)
        self.ops = []
        self.raw_calls = []  # (posix name, line)


class ClassInfo:
    def __init__(self, name):
        self.name = name
        self.bases = []
        self.members = {}   # member name -> type name


class Model:
    """The IR the parser builds and every checker reads."""

    def __init__(self):
        self.functions = {}   # key -> Func (overloads merged: over-approx)
        self.classes = {}     # name -> ClassInfo
        self.subclasses = {}  # base -> set of derived
        self.allow = {}       # file -> {line: (set(rules), has_justification)}
        self.token_hits = {}  # file -> [(line, token)] banned token usage

    def get_func(self, key, cls, name, file, line):
        if key not in self.functions:
            self.functions[key] = Func(key, cls, name, file, line)
        return self.functions[key]

    def member_type(self, cls, field):
        seen = set()
        stack = [cls]
        while stack:
            c = stack.pop()
            if c in seen or c not in self.classes:
                continue
            seen.add(c)
            info = self.classes[c]
            if field in info.members:
                return info.members[field], c
            stack.extend(info.bases)
        return None, None

    def descendants(self, cls):
        out = set()
        stack = [cls]
        while stack:
            c = stack.pop()
            for d in self.subclasses.get(c, ()):
                if d not in out:
                    out.add(d)
                    stack.append(d)
        return out


def scan_allow_comments(text):
    """Map line -> (rules, has_justification) for lint: allow comments."""
    out = {}
    for i, line in enumerate(text.splitlines(), start=1):
        entry = lint.parse_allow(line)
        if entry:
            out[i] = entry
    return out


def strip_code(text):
    """Removes comments, string/char literals and preprocessor lines while
    preserving the newline structure (so token line numbers survive)."""
    out = []
    i, n = 0, len(text)
    line_start = True
    while i < n:
        c = text[i]
        if line_start and c == "#":
            # Preprocessor line (with continuations).
            while i < n and text[i] != "\n":
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    out.append("\n")
                    i += 2
                    continue
                i += 1
            continue
        if c == "\n":
            out.append("\n")
            line_start = True
            i += 1
            continue
        if c not in " \t":
            line_start = False
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
            continue
        if c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
            out.append('""' if quote == '"' else "'x'")
            continue
        out.append(c)
        i += 1
    return "".join(out)


def tokenize(code):
    """-> list of (token_text, line_number)."""
    toks = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(code):
        line += code.count("\n", pos, m.start())
        pos = m.start()
        t = m.group(0)
        if not t.isspace():
            toks.append((t, line))
    return toks


# ---------------------------------------------------------------------------
# Token-level parser tuned to this repo's idiom.
# ---------------------------------------------------------------------------

def match_paren(toks, i):
    """toks[i] == '(' -> index of matching ')', or len(toks)."""
    depth = 0
    while i < len(toks):
        t = toks[i][0]
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks)


def classify_head(head):
    """Classify the statement head preceding a '{' at namespace/class scope.

    Returns ("namespace", name) / ("class", name, bases) /
            ("function", cls_or_None, name, param_range) / ("block",).
    `head` is a list of (tok, line); param_range indexes into head.
    """
    texts = [t for t, _ in head]
    if not texts:
        return ("block",)
    if "namespace" in texts:
        idx = texts.index("namespace")
        name = texts[idx + 1] if idx + 1 < len(texts) and \
            texts[idx + 1].replace("_", "a").isalnum() else ""
        return ("namespace", name)
    if "enum" in texts or "union" in texts:
        return ("block",)
    for kw in ("class", "struct"):
        if kw in texts:
            idx = texts.index(kw)
            # Skip attribute macros like CAPABILITY("mutex"); the class name
            # is the last plain identifier before ':' (bases) or end of head.
            j = idx + 1
            name = None
            while j < len(texts) and texts[j] != ":":
                t = texts[j]
                if re.fullmatch(r"[A-Za-z_]\w*", t):
                    if j + 1 < len(texts) and texts[j + 1] == "(":
                        j = next((k for k, (x, _) in enumerate(head[j:], j)
                                  if x == ")"), len(texts)) + 1
                        continue
                    if t not in ("final", "alignas"):
                        name = t
                j += 1
            if name is None:
                return ("block",)
            bases = []
            if j < len(texts) and texts[j] == ":":
                k = j + 1
                while k < len(texts):
                    t = texts[k]
                    if re.fullmatch(r"[A-Za-z_]\w*", t) and t not in (
                            "public", "private", "protected", "virtual"):
                        # take the last component of qualified bases
                        if k + 1 >= len(texts) or texts[k + 1] != "::":
                            bases.append(t)
                    k += 1
            return ("class", name, bases)
    # Function?  Find the first '(' preceded by a callable name.
    if "(" not in texts:
        return ("block",)
    if "=" in texts and texts.index("=") < texts.index("("):
        return ("block",)
    pidx = texts.index("(")
    if pidx == 0:
        return ("block",)
    prev = texts[pidx - 1]
    name = None
    if re.fullmatch(r"[A-Za-z_]\w*", prev) and prev not in CONTROL_KEYWORDS:
        name = prev
        nidx = pidx - 1
    elif pidx >= 2 and texts[pidx - 2] == "operator":
        name = "operator" + prev
        nidx = pidx - 2
    else:
        return ("block",)
    cls = None
    if nidx >= 2 and texts[nidx - 1] == "::" and \
            re.fullmatch(r"[A-Za-z_]\w*", texts[nidx - 2]):
        cls = texts[nidx - 2]
    pend = None
    depth = 0
    for k in range(pidx, len(texts)):
        if texts[k] == "(":
            depth += 1
        elif texts[k] == ")":
            depth -= 1
            if depth == 0:
                pend = k
                break
    if pend is None:
        return ("block",)
    return ("function", cls, name, (pidx, pend))


def split_params(texts):
    """Parameter list tokens (no outer parens) -> {name: type}."""
    out = {}
    depth = 0
    cur = []
    groups = []
    for t in texts:
        if t in "(<[{":
            depth += 1
        elif t in ")>]}":
            depth -= 1
        if t == "," and depth == 0:
            groups.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        groups.append(cur)
    for g in groups:
        idents = [t for t in g if re.fullmatch(r"[A-Za-z_]\w*", t)
                  and t not in ("const", "struct", "unsigned", "signed",
                                "volatile", "mutable")]
        if len(idents) >= 2:
            out[idents[-1]] = unwrap_type(g, idents[-2])
    return out


def unwrap_type(tokens, fallback):
    """Best-effort element type: unique_ptr<T>/shared_ptr<T> -> T,
    A::B -> B, otherwise `fallback`."""
    text = "".join(t for t in tokens if isinstance(t, str))
    m = re.search(r"(?:unique_ptr|shared_ptr)<([\w:]+)", text)
    if m:
        return m.group(1).split("::")[-1]
    return fallback.split("::")[-1] if fallback else fallback


def parse_file(model, root, rel):
    path = os.path.join(root, rel)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        raise RuntimeError("cannot read %s: %s" % (path, e))
    model.allow[rel] = scan_allow_comments(text)
    code = strip_code(text)
    toks = tokenize(code)

    # Banned-token sweep (stream I/O, std::filesystem) for env-bypass.
    hits = []
    for i, (t, ln) in enumerate(toks):
        if t in BANNED_TOKENS:
            if t == "filesystem" and not (i >= 2 and toks[i - 1][0] == "::"
                                          and toks[i - 2][0] == "std"):
                continue
            hits.append((ln, t))
    if hits:
        model.token_hits[rel] = hits

    # Structure pass: walk braces, classify scopes, record class members and
    # function body token ranges.
    scope = []            # list of dicts {kind, name, head_start}
    head_start = 0
    functions = []        # (Func, param_range, body_start, body_end)
    stmt_start = 0
    i = 0
    while i < len(toks):
        t, ln = toks[i]
        if t == "{":
            kind = scope[-1]["kind"] if scope else "namespace"
            if kind in ("namespace", "class"):
                head = toks[head_start:i]
                info = classify_head(head)
            else:
                info = ("block",)
            entry = {"kind": info[0], "body_start": i + 1, "line": ln}
            if info[0] == "class":
                entry["name"] = info[1]
                ci = model.classes.setdefault(info[1], ClassInfo(info[1]))
                ci.bases = info[2] or ci.bases
                for b in info[2]:
                    model.subclasses.setdefault(b, set()).add(info[1])
            elif info[0] == "function":
                cls = info[1]
                if cls is None:
                    for s in reversed(scope):
                        if s["kind"] == "class":
                            cls = s["name"]
                            break
                key = "%s::%s" % (cls, info[2]) if cls else info[2]
                fn = model.get_func(key, cls, info[2], rel, ln)
                head = toks[head_start:i]
                ps, pe = info[3]
                fn.params.update(split_params([x for x, _ in head[ps + 1:pe]]))
                entry["func"] = fn
            elif info[0] == "namespace":
                entry["name"] = info[1]
            scope.append(entry)
            head_start = i + 1
            stmt_start = i + 1
        elif t == "}":
            if scope:
                entry = scope.pop()
                if entry.get("func") is not None:
                    functions.append((entry["func"], entry["body_start"], i))
            head_start = i + 1
            stmt_start = i + 1
        elif t == ";":
            # Member declarations directly inside a class body.
            if scope and scope[-1]["kind"] == "class":
                record_member(model, scope[-1]["name"],
                              toks[stmt_start:i])
            head_start = i + 1
            stmt_start = i + 1
        i += 1

    for fn, bs, be in functions:
        extract_ops(model, fn, toks, bs, be)


def strip_annotations(stmt):
    """Drops `GUARDED_BY(mu_)`-style annotations and their arguments, so
    `Store* store_ PT_GUARDED_BY(mu_)` reads as a plain member."""
    out = []
    k = 0
    while k < len(stmt):
        if stmt[k][0] in MEMBER_ANNOTATIONS and k + 1 < len(stmt) and \
                stmt[k + 1][0] == "(":
            k = match_paren(stmt, k + 1) + 1
            continue
        out.append(stmt[k])
        k += 1
    return out


def record_member(model, cls, stmt):
    texts = [t for t, _ in strip_annotations(stmt)]
    while len(texts) >= 2 and texts[0] in ("public", "private",
                                           "protected") and texts[1] == ":":
        texts = texts[2:]
    if not texts or texts[0] in ("using", "typedef", "friend", "template"):
        return
    idents = []
    depth = 0
    for k, t in enumerate(texts):
        if t in ("(", "<"):
            depth += 1
        elif t in (")", ">"):
            depth -= 1
        elif t == ">>":  # closes two template argument lists
            depth -= 2
        if t == "=":
            break
        if depth == 0 and re.fullmatch(r"[A-Za-z_]\w*", t):
            nxt = texts[k + 1] if k + 1 < len(texts) else ""
            idents.append((t, nxt))
    idents = [(t, nxt) for t, nxt in idents
              if t not in ("const", "static", "mutable", "virtual",
                           "constexpr", "explicit", "inline", "override",
                           "final", "volatile", "unsigned", "signed")]
    if len(idents) < 2:
        return
    name, nxt = idents[-1]
    if nxt == "(":  # method declaration, not a data member
        return
    ty = idents[-2][0]
    model.classes.setdefault(cls, ClassInfo(cls)).members[name] = \
        unwrap_type(texts, ty)


def resolve_receiver_type(model, fn, recv):
    """Receiver expression tokens (e.g. ['db'], ['this']) -> type name."""
    if not recv:
        return None
    if recv == ["this"]:
        return fn.cls
    if len(recv) == 1:
        name = recv[0]
        if name in fn.locals:
            return fn.locals[name]
        if name in fn.params:
            return fn.params[name]
        if fn.cls:
            ty, _ = model.member_type(fn.cls, name)
            if ty:
                return ty
        if name in model.classes:   # static call: Type::Method()
            return name
    return None


def canon_lock(model, fn, expr):
    """Lock expression tokens -> canonical 'Owner::member' name.

    ['mu_'] in a LedgerDatabase method -> 'LedgerDatabase::mu_' (or the
    base class that declares it); ['db', '->', 'verify_mu_'] resolves the
    receiver via param/local/member type maps.  Unresolvable expressions
    return None so no speculative graph edges appear.
    """
    expr = [t for t in expr if t not in ("(", ")")]
    if not expr:
        return None
    if len(expr) == 1 or (expr[0] == "this" and expr[1] in (".", "->")):
        if expr[0] == "this":
            expr = expr[2:]
    if len(expr) == 1:
        name = expr[0]
        if fn.cls:
            ty, owner = model.member_type(fn.cls, name)
            if ty in MUTEX_TYPES:
                return "%s::%s" % (owner, name)
        if name in fn.locals and fn.locals[name] in MUTEX_TYPES:
            return "%s(local)::%s" % (fn.key, name)
        if name in fn.params:
            # A mutex passed by pointer/reference: name it by its type if
            # known, otherwise leave unresolved.
            return None
        if fn.cls is None and name.endswith("_"):
            return None
        return None
    # member access: recv ('.'|'->') field [('.'|'->') field ...]
    if expr[-2] in (".", "->"):
        field = expr[-1]
        recv = expr[:-2]
        rt = resolve_receiver_type(model, fn, recv)
        if rt:
            ty, owner = model.member_type(rt, field)
            if ty in MUTEX_TYPES:
                return "%s::%s" % (owner or rt, field)
            if owner:
                return "%s::%s" % (owner, field)
            return "%s::%s" % (rt, field)
    return None


VAR_DECL_RE = re.compile(
    r"^(?:const\s+)?([A-Za-z_][\w:]*)(?:<[\w:,\s*&]*>)?\s*[*&]*\s*"
    r"(?:const\s+)?([a-z_]\w*)\s*($|=|\(|\{)")


def extract_ops(model, fn, toks, bs, be):
    """Scan a function body token range for locals, lock ops and calls."""
    # First pass: locals, from statement-leading declarations.
    stmt = []
    depth = 0
    for k in range(bs, be):
        t = toks[k][0]
        if t in ("{",):
            depth += 1
            stmt = []
            continue
        if t == "}":
            depth -= 1
            stmt = []
            continue
        if t == ";":
            stmt = []
            continue
        stmt.append(t)
        if len(stmt) <= 8 and t in ("=", "(", "{"):
            m = VAR_DECL_RE.match(" ".join(stmt))
            if m:
                ty = unwrap_type(stmt, m.group(1))
                name = m.group(2)
                if ty and (ty in model.classes or ty in MUTEX_TYPES
                           or ty[0].isupper()):
                    fn.locals.setdefault(name, ty)

    # Second pass: ordered ops.  RAII guards release when their enclosing
    # brace depth closes; manual Lock()/Unlock() are tracked linearly.
    guards = []   # (depth, lock) -- RAII, release at scope exit
    manual = []   # (depth, lock) -- explicit Lock(), release at Unlock()
    depth = 0
    k = bs
    while k < be:
        t, ln = toks[k]
        if t == "[":
            nk = skip_lambda(toks, k, be)
            if nk is not None:
                k = nk
                continue
        if t in ("break", "continue", "return", "goto") and depth > 0:
            # Control leaves the enclosing block: manual locks taken inside
            # this block are not held on the fall-through path the linear
            # scan continues along (e.g. `if (x) { mu_.Lock(); break; }`).
            while manual and manual[-1][0] >= depth:
                _, lk = manual.pop()
                fn.ops.append(("rel", lk, ln))
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            while guards and guards[-1][0] > depth:
                _, lk = guards.pop()
                fn.ops.append(("rel", lk, ln))
        elif t in GUARD_TYPES and k + 2 < be and \
                re.fullmatch(r"[A-Za-z_]\w*", toks[k + 1][0]) and \
                toks[k + 2][0] == "(":
            close = match_paren(toks, k + 2)
            expr = [x for x, _ in toks[k + 3:close]]
            if expr and expr[0] == "&":
                expr = expr[1:]
            lk = canon_lock(model, fn, expr)
            if lk is None and expr:
                lk = "~" + "".join(expr)
            if lk:
                fn.ops.append(("acq", lk, ln))
                guards.append((depth, lk))
            k = close
        elif t in LOCK_METHODS | UNLOCK_METHODS and k >= 2 and \
                toks[k - 1][0] in (".", "->") and k + 2 < len(toks) and \
                toks[k + 1][0] == "(" and toks[k + 2][0] == ")":
            # expr.Lock() / expr->Unlock() with EMPTY parens: a mutex op
            # (LockManager::Lock(txn, ...) always has arguments).
            recv = collect_receiver(toks, k - 2, bs)
            lk = canon_lock(model, fn, recv) if recv else None
            if lk:
                if t in LOCK_METHODS:
                    fn.ops.append(("acq", lk, ln))
                    manual.append((depth, lk))
                else:
                    fn.ops.append(("rel", lk, ln))
                    for mi in range(len(manual) - 1, -1, -1):
                        if manual[mi][1] == lk:
                            manual.pop(mi)
                            break
            k += 2
        elif re.fullmatch(r"[A-Za-z_]\w*", t) and k + 1 < be and \
                toks[k + 1][0] == "(" and t not in CONTROL_KEYWORDS and \
                t not in GUARD_TYPES:
            prev = toks[k - 1][0] if k > bs else ""
            if prev in (".", "->"):
                recv = collect_receiver(toks, k - 2, bs)
                rt = resolve_receiver_type(model, fn, recv)
                # An explicit receiver that we cannot type must NOT fall
                # back to same-class resolution (false self-recursion);
                # "?" matches no candidates.
                fn.ops.append(("call", t, rt if rt else "?", ln))
            elif prev == "::":
                qual = toks[k - 2][0] if k >= 2 else ""
                if re.fullmatch(r"[A-Za-z_]\w*", qual) and \
                        qual not in CONTROL_KEYWORDS:
                    if qual == "std" or qual == "fs":
                        pass  # std::move etc.; std::filesystem via tokens
                    else:
                        fn.ops.append(("call", t, qual, ln))
                elif t in BANNED_POSIX:
                    fn.raw_calls.append((t, ln))  # ::open(...) global call
            else:
                if t in BANNED_POSIX:
                    fn.raw_calls.append((t, ln))
                else:
                    fn.ops.append(("call", t, None, ln))
        k += 1
    while guards:
        _, lk = guards.pop()
        fn.ops.append(("rel", lk, be and toks[be - 1][1] or fn.line))


def skip_lambda(toks, k, be):
    """toks[k] == '['.  If this starts a lambda with a braced body, return
    the index just past the body's closing '}'; else None.  Deferred
    lambda bodies must not inherit the enclosing function's held locks
    (thread bodies, pool submissions); they are simply not analyzed."""
    j = k
    depth = 0
    while j < be:
        t = toks[j][0]
        if t == "[":
            depth += 1
        elif t == "]":
            depth -= 1
            if depth == 0:
                break
        j += 1
    if j >= be:
        return None
    j += 1
    if j < be and toks[j][0] == "(":
        j = match_paren(toks, j) + 1
    while j < be and toks[j][0] in ("mutable", "noexcept", "constexpr"):
        j += 1
    if j < be and toks[j][0] == "->":  # trailing return type
        while j < be and toks[j][0] != "{":
            j += 1
    if j >= be or toks[j][0] != "{":
        return None
    depth = 0
    while j < be:
        t = toks[j][0]
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return j + 1
        j += 1
    return None


def collect_receiver(toks, k, lo):
    """Walk backwards from index k collecting an `a->b.c` chain."""
    out = []
    expect_ident = True
    while k >= lo:
        t = toks[k][0]
        if expect_ident and (re.fullmatch(r"[A-Za-z_]\w*", t) or t == "this"):
            out.append(t)
            expect_ident = False
            k -= 1
        elif not expect_ident and t in (".", "->"):
            out.append(t)
            expect_ident = True
            k -= 1
        else:
            break
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Checkers (operate on the Model IR).
# ---------------------------------------------------------------------------

def resolve_call(model, fn, callee, recv_type):
    """-> list of Func keys a call may dispatch to (virtuals included)."""
    out = []
    if recv_type == "?":
        return out
    if recv_type:
        cands = [recv_type] + sorted(model.descendants(recv_type))
        # also walk up: the static type may inherit the method
        info = model.classes.get(recv_type)
        if info:
            cands += info.bases
        for c in cands:
            key = "%s::%s" % (c, callee)
            if key in model.functions:
                out.append(key)
        return out
    if fn.cls:
        # Unqualified call inside a method: same class or its bases first.
        stack = [fn.cls]
        seen = set()
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            key = "%s::%s" % (c, callee)
            if key in model.functions:
                out.append(key)
                # virtual dispatch may land in a derived override
                for d in model.descendants(c):
                    dk = "%s::%s" % (d, callee)
                    if dk in model.functions:
                        out.append(dk)
                return out
            stack.extend(model.classes.get(c, ClassInfo(c)).bases)
    if callee in model.functions:
        out.append(callee)
    return out


def compute_acquires_star(model):
    """key -> set of locks the function may acquire, transitively."""
    memo = {}
    on_stack = set()

    def go(key):
        if key in memo:
            return memo[key]
        if key in on_stack:
            return set()
        on_stack.add(key)
        fn = model.functions[key]
        acc = set()
        for op in fn.ops:
            if op[0] == "acq":
                acc.add(op[1])
            elif op[0] == "call":
                for t in resolve_call(model, fn, op[1], op[2]):
                    acc |= go(t)
        on_stack.discard(key)
        memo[key] = acc
        return acc

    for key in model.functions:
        go(key)
    return memo


def compute_lock_edges(model):
    """-> dict (held, acquired) -> list of (file, line, description)."""
    acq_star = compute_acquires_star(model)
    edges = {}

    def add(h, l, f, ln, desc):
        edges.setdefault((h, l), []).append((f, ln, desc))

    for fn in model.functions.values():
        held = []
        for op in fn.ops:
            kind = op[0]
            if kind == "acq":
                lk, ln = op[1], op[2]
                for h in held:
                    add(h, lk, fn.file, ln, "%s acquires %s while holding %s"
                        % (fn.key, lk, h))
                held.append(lk)
            elif kind == "rel":
                lk = op[1]
                if lk in held:
                    held.reverse()
                    held.remove(lk)
                    held.reverse()
            elif kind == "call" and held:
                for t in resolve_call(model, fn, op[1], op[2]):
                    for lk in acq_star.get(t, ()):
                        for h in held:
                            add(h, lk, fn.file, op[3],
                                "%s -> %s() may acquire %s while %s "
                                "holds %s" % (fn.key, t, lk, fn.key, h))
        # unbalanced manual locks simply leave `held` non-empty; harmless.
    return edges


def parse_hierarchy(path):
    """Parse `A -> B` lines.  Returns (declared_edges, errors)."""
    declared = []
    errors = []
    if not os.path.exists(path):
        return declared, ["lock hierarchy file not found: %s" % path]
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            m = re.fullmatch(r"(\S+)\s*->\s*(\S+)", line)
            if not m:
                errors.append("%s:%d: unparsable hierarchy line: %r"
                              % (path, i, line))
                continue
            declared.append((m.group(1), m.group(2)))
    return declared, errors


def transitive_closure(edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
    closure = set()
    for a in adj:
        stack = list(adj[a])
        seen = set()
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            closure.add((a, b))
            stack.extend(adj.get(b, ()))
    return closure


def find_cycle(edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    parent = {}

    def dfs(u):
        color[u] = GRAY
        for v in adj.get(u, ()):
            if color.get(v, WHITE) == GRAY:
                cyc = [v, u]
                w = u
                while w != v and w in parent:
                    w = parent[w]
                    cyc.append(w)
                return list(reversed(cyc))
            if color.get(v, WHITE) == WHITE:
                parent[v] = u
                r = dfs(v)
                if r:
                    return r
        color[u] = BLACK
        return None

    for u in list(adj):
        if color.get(u, WHITE) == WHITE:
            r = dfs(u)
            if r:
                return r
    return None


def check_lock_order(model, hierarchy_path, dot_path=None, list_edges=False):
    findings = []
    observed = compute_lock_edges(model)
    declared, errors = parse_hierarchy(hierarchy_path)
    for e in errors:
        findings.append(Finding("lock-order", hierarchy_path, 0, e))
    closure = transitive_closure(declared)
    declared_set = set(declared)

    if list_edges:
        for (h, l), sites in sorted(observed.items()):
            f, ln, desc = sites[0]
            print("edge: %s -> %s   (%s:%d %s; %d site%s)"
                  % (h, l, f, ln, desc, len(sites),
                     "s" if len(sites) > 1 else ""))

    declared_nonself = [(a, b) for a, b in declared if a != b]
    cyc = find_cycle(declared_nonself)
    if cyc:
        findings.append(Finding(
            "lock-order", hierarchy_path, 0,
            "declared hierarchy contains a cycle: %s" % " -> ".join(cyc)))

    for (h, l), sites in sorted(observed.items()):
        if h == l:
            if (h, l) in declared_set:
                continue
            f, ln, desc = sites[0]
            findings.append(Finding(
                "lock-order", f, ln,
                "self-edge on %s (recursive acquisition): %s" % (h, desc)))
            continue
        if (h, l) in closure:
            continue
        f, ln, desc = sites[0]
        findings.append(Finding(
            "lock-order", f, ln,
            "undeclared lock edge %s -> %s (not implied by %s): %s"
            % (h, l, os.path.basename(hierarchy_path), desc)))

    nonself = {(a, b) for a, b in observed if a != b}
    cyc = find_cycle(nonself | set(declared_nonself))
    if cyc and not find_cycle(declared_nonself):
        findings.append(Finding(
            "lock-order", "<graph>", 0,
            "observed lock graph contains a cycle: %s" % " -> ".join(cyc)))

    if dot_path:
        emit_dot(dot_path, observed, declared, closure)
    return findings


def emit_dot(path, observed, declared, closure):
    lines = ["digraph lock_order {",
             '  rankdir=TB;',
             '  node [shape=box, fontname="monospace"];']
    nodes = set()
    for h, l in list(observed) + declared:
        nodes.add(h)
        nodes.add(l)
    for n in sorted(nodes):
        lines.append('  "%s";' % n)
    drawn = set()
    for h, l in sorted(observed):
        ok = (h, l) in closure or (h == l and (h, l) in set(declared))
        style = "solid" if ok else "solid, color=red, penwidth=2"
        lines.append('  "%s" -> "%s" [style="%s"];  // observed%s'
                     % (h, l, style, "" if ok else " UNDECLARED"))
        drawn.add((h, l))
    for h, l in declared:
        if (h, l) not in drawn:
            lines.append('  "%s" -> "%s" [style=dashed, color=gray50];'
                         '  // declared, not (yet) observed' % (h, l))
    lines.append("}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def check_env_bypass(model):
    findings = []
    # Reverse call graph for chain reporting.
    callers = {}
    for fn in model.functions.values():
        for op in fn.ops:
            if op[0] == "call":
                for t in resolve_call(model, fn, op[1], op[2]):
                    callers.setdefault(t, set()).add(fn.key)

    def chain_for(key):
        """Shortest caller chain ending at `key` (BFS up the call graph)."""
        best = [key]
        seen = {key}
        frontier = [[key]]
        while frontier:
            nxt = []
            for path in frontier:
                for c in callers.get(path[0], ()):
                    if c in seen:
                        continue
                    seen.add(c)
                    nxt.append([c] + path)
            if not nxt:
                break
            best = max(nxt, key=len)
            frontier = nxt
            if len(best) >= 6:
                break
        return best

    for fn in model.functions.values():
        if not in_scope(fn.file):
            continue
        for name, ln in fn.raw_calls:
            ch = chain_for(fn.key)
            findings.append(Finding(
                "env-bypass", fn.file, ln,
                "raw %s() call outside the Env abstraction (in %s); route "
                "through storage/env.h" % (name, fn.key),
                chain=["call chain: %s" % " -> ".join(ch)] if len(ch) > 1
                else []))
    for rel, hits in sorted(model.token_hits.items()):
        if not in_scope(rel):
            continue
        for ln, tok in hits:
            what = ("std::filesystem" if tok == "filesystem"
                    else "std::%s" % tok)
            findings.append(Finding(
                "env-bypass", rel, ln,
                "%s usage bypasses the Env abstraction; route through "
                "storage/env.h" % what))
    return findings


def in_scope(rel):
    rel = rel.replace(os.sep, "/")
    return (rel.startswith("src/") and rel not in SANCTIONED
            and rel not in EXCLUDED)


def check_digest_hygiene(root, files):
    """Line-level scan: digest/MAC byte-buffer comparisons must go through
    util/constant_time.h::ConstantTimeEqual.  Magic-number / file-header
    comparisons are exempt (their operands name magic/header)."""
    findings = []
    cmp_re = re.compile(r"\b(memcmp|bcmp)\s*\(|std\s*::\s*equal\s*\(")
    bytes_cmp_re = re.compile(r"\.bytes\s*(==|!=)")
    for rel in files:
        if not in_scope(rel):
            continue
        path = os.path.join(root, rel)
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            code = strip_code(f.read())
        lines = code.splitlines()
        for i, line in enumerate(lines, start=1):
            m = cmp_re.search(line)
            if m:
                # Args may continue on the next line; grab a 2-line window.
                window = line[m.start():] + " " + \
                    (lines[i] if i < len(lines) else "")
                if DIGEST_ARG_RE.search(window) and \
                        not DIGEST_EXEMPT_RE.search(window):
                    fn = m.group(1) or "std::equal"
                    findings.append(Finding(
                        "digest-hygiene", rel, i,
                        "%s on digest/MAC-named buffer leaks a timing "
                        "oracle; use ConstantTimeEqual from "
                        "util/constant_time.h" % fn))
            if bytes_cmp_re.search(line):
                findings.append(Finding(
                    "digest-hygiene", rel, i,
                    "raw .bytes array comparison bypasses the "
                    "constant-time Hash256 operator==; compare the "
                    "Hash256 objects or use ConstantTimeEqual"))
    return findings


def apply_allows(findings, model):
    """Suppress findings covered by `// lint: allow(rule)` on the same or
    preceding line; flag allows that lack a justification or name an
    unknown rule."""
    out = []
    used = set()
    for f in findings:
        hit = lint.allow_line(model.allow.get(f.file, {}).get, f.line,
                              f.rule)
        if hit is not None:
            used.add((f.file, hit))
            continue
        out.append(f)
    known = RULES | lint_py_rules()
    for rel, entries in sorted(model.allow.items()):
        for ln, (rules, has_just) in sorted(entries.items()):
            for r in rules:
                if r not in known:
                    out.append(Finding(
                        "allow-without-justification", rel, ln,
                        "allow() names unknown rule %r (known: %s)"
                        % (r, ", ".join(sorted(RULES)))))
            if not has_just:
                out.append(Finding(
                    "allow-without-justification", rel, ln,
                    "lint: allow(%s) has no justification; write "
                    "`// lint: allow(%s): <why this is safe>`"
                    % (",".join(sorted(rules)), ",".join(sorted(rules)))))
    return out


def discover_files(root):
    out = []
    src = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src):
        for n in sorted(names):
            if n.endswith((".cc", ".h")):
                rel = os.path.relpath(os.path.join(dirpath, n), root)
                rel = rel.replace(os.sep, "/")
                if rel not in EXCLUDED:
                    out.append(rel)
    return sorted(out)


def build_model(root, files):
    model = Model()
    # Headers first so class members/bases are known when bodies parse;
    # order is otherwise irrelevant (resolution happens after the full
    # model is built).
    for rel in sorted(files, key=lambda r: (not r.endswith(".h"), r)):
        parse_file(model, root, rel)
    return model


def analyze(root, hierarchy_path, dot_path=None, list_edges=False):
    files = discover_files(root)
    model = build_model(root, files)
    findings = []
    findings += check_env_bypass(model)
    findings += check_lock_order(model, hierarchy_path, dot_path, list_edges)
    findings += check_digest_hygiene(root, files)
    findings = apply_allows(findings, model)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings, model


# ---------------------------------------------------------------------------
# Self-test: seeded violations under scripts/deep_lint_fixtures/.
# ---------------------------------------------------------------------------

def run_self_test(script_dir):
    fixroot = os.path.join(script_dir, "deep_lint_fixtures")
    hierarchy = os.path.join(fixroot, "lock_hierarchy.txt")
    if not os.path.isdir(fixroot):
        print("deep_lint: self-test fixtures missing: %s" % fixroot,
              file=sys.stderr)
        return 2
    try:
        findings, _ = analyze(fixroot, hierarchy)
    except RuntimeError as e:
        print("deep_lint: self-test: analyze failed: %s" % e, file=sys.stderr)
        return 2

    def fired(rule, file_sub, msg_sub=None):
        for f in findings:
            if f.rule == rule and file_sub in f.file:
                if msg_sub is None or msg_sub in f.render():
                    return True
        return False

    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    expect(fired("env-bypass", "env_bypass_direct.cc", "fopen"),
           "env-bypass must fire on direct fopen()")
    expect(fired("env-bypass", "env_bypass_transitive.cc", "open"),
           "env-bypass must fire on transitive raw open()")
    expect(fired("env-bypass", "env_bypass_transitive.cc", "TransEntry"),
           "transitive env-bypass must report the caller chain")
    expect(fired("env-bypass", "env_bypass_stream.cc"),
           "env-bypass must fire on std::ofstream usage")
    expect(not fired("env-bypass", "src/storage/env.cc"),
           "sanctioned src/storage/env.cc must NOT fire env-bypass")
    expect(fired("lock-order", "lock_inversion.cc"),
           "lock-order must fire on the error-path lock inversion")
    expect(fired("lock-order", "lock_undeclared.cc", "undeclared"),
           "lock-order must fire on an undeclared edge")
    expect(any(f.rule == "lock-order" and "cycle" in f.msg
               for f in findings),
           "lock-order must report the observed cycle")
    expect(fired("lock-order", "lock_annotated.cc",
                 "Ann::mu_ -> Store::latch_"),
           "lock-order must see an edge through a PT_GUARDED_BY member")
    expect(fired("lock-order", "lock_annotated.cc",
                 "Ann::mu_ -> Sink::mu_"),
           "lock-order must see an edge through a member typed `...>>`")
    expect(not fired("lock-order", "lock_clean.cc"),
           "declared-order locking must NOT fire lock-order")
    expect(fired("digest-hygiene", "digest_memcmp.cc", "memcmp"),
           "digest-hygiene must fire on memcmp of hashes")
    expect(fired("digest-hygiene", "digest_memcmp.cc", ".bytes"),
           "digest-hygiene must fire on raw .bytes comparison")
    expect(not fired("digest-hygiene", "digest_magic_ok.cc"),
           "magic-number memcmp must NOT fire digest-hygiene")
    expect(not fired("env-bypass", "allow_cases.cc", "justified_fopen"),
           "a justified allow() must suppress the finding")
    expect(fired("allow-without-justification", "allow_cases.cc",
                 "no justification"),
           "allow() without justification must be flagged")
    expect(fired("allow-without-justification", "allow_cases.cc",
                 "unknown rule 'made-up-rule'"),
           "allow() naming an unknown rule must be flagged")
    expect(not fired("allow-without-justification", "allow_cases.cc",
                     "unknown rule 'commit-sync'"),
           "allow() naming a lint.py rule must NOT be flagged as unknown")
    print("deep_lint: self-test: %d findings over fixtures" % len(findings))
    if os.environ.get("DEEP_LINT_SELF_TEST_VERBOSE"):
        print("\n".join(f.render() for f in findings))
    if failures:
        print("deep_lint: SELF-TEST FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print("deep_lint: self-test OK")
    return 0


def main(argv=None):
    script_dir = os.path.dirname(os.path.abspath(__file__))
    default_root = os.path.dirname(script_dir)
    p = argparse.ArgumentParser(
        description="semantic lints: env-bypass, lock-order, digest-hygiene")
    p.add_argument("--root", default=default_root,
                   help="repo root (default: parent of scripts/)")
    p.add_argument("--hierarchy", default=None,
                   help="declared lock hierarchy file "
                        "(default: ROOT/scripts/lock_hierarchy.txt)")
    p.add_argument("--dot", default=None,
                   help="write the lock-order graph as Graphviz DOT")
    p.add_argument("--list-edges", action="store_true",
                   help="print every observed acquired-while-held edge")
    p.add_argument("--self-test", action="store_true",
                   help="run the seeded-violation fixture suite")
    args = p.parse_args(argv)

    if args.self_test:
        return run_self_test(script_dir)

    hierarchy = args.hierarchy or os.path.join(
        args.root, "scripts", "lock_hierarchy.txt")
    try:
        findings, model = analyze(args.root, hierarchy, dot_path=args.dot,
                                  list_edges=args.list_edges)
    except RuntimeError as e:
        print("deep_lint: error: %s" % e, file=sys.stderr)
        return 2
    for f in findings:
        print(f.render())
    n = len(findings)
    print("deep_lint: %d finding%s across %d function%s"
          % (n, "" if n == 1 else "s",
             len(model.functions),
             "" if len(model.functions) == 1 else "s"))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
