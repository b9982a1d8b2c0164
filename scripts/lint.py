#!/usr/bin/env python3
"""Repo-specific lint pass for sqlledger.

Fast, regex-based checks for invariants the compiler cannot (or will not)
enforce for us. Run from anywhere inside the repo:

    python3 scripts/lint.py            # lint the tree, exit non-zero on findings
    python3 scripts/lint.py --self-test  # verify each rule fires on a seeded violation

Rules (each one has a # lint-off escape hatch: append `// lint: allow(<rule>)`
to the offending line — use sparingly and say why on an adjacent comment):

  determinism     rand()/srand()/std::random_device/time(NULL) outside
                  src/util/random.*. Everything that needs randomness or a
                  clock must go through util/random.h (seedable, replayable:
                  the deterministic simulator depends on it).
  raw-sha         SHA-256 compression primitives (Sha256Compress*, direct
                  Sha256Kernel construction) referenced outside src/crypto/.
                  All hashing goes through crypto/sha256.h so kernel dispatch
                  and the hashing pipeline stay in one place.
  raw-sync        std::mutex / std::shared_mutex / std::condition_variable /
                  std::lock_guard / std::unique_lock / std::scoped_lock /
                  std::shared_lock in src/ outside util/thread_annotations.h.
                  Use the annotated Mutex/SharedMutex/CondVar wrappers so
                  Clang -Wthread-safety sees every lock.
  tsa-escape      NO_THREAD_SAFETY_ANALYSIS without an explanatory comment on
                  the same or an adjacent line. Every analysis opt-out must
                  say why it is sound.
  void-discard    `(void)` discard of an expression with no trailing comment.
                  Status and Result are [[nodiscard]]; a silenced discard must
                  justify itself (e.g. `// best-effort cleanup`).
  commit-sync     a direct `Sync()` call inside a `commit_mu_` critical
                  section in src/. The group-commit pipeline (DESIGN.md §10)
                  amortises exactly one fsync per commit group via
                  Wal::AppendBatch; an extra per-call fsync on the commit
                  path silently undoes the batching and the Figure-7 numbers.
  metric-naming   a string literal passed to GetCounter/GetGauge/
                  GetHistogram that does not follow the `subsystem.noun_unit`
                  convention (DESIGN.md §13): lowercase subsystem, one dot,
                  lowercase_underscore noun ending in a known unit token
                  (micros/bytes/total/count/size/depth/ratio/state). Mirrors
                  IsValidMetricName in src/util/metrics.cc.
  digest-decorator-coverage
                  (repo-level) every class in src/ deriving from DigestStore —
                  store implementations and fault-injecting decorators alike —
                  must be exercised by at least one tier1 test (named in a
                  source listed in tests/CMakeLists.txt SL_TEST_SOURCES). A
                  decorator nobody tests silently stops injecting the faults
                  the robustness suite depends on.

Runtime budget: the whole pass must stay under 10 seconds (it runs as a CI
job and as a pre-commit habit); it is pure stdlib + regex over a few hundred
files, typically < 1s.
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories scanned per rule. Tests and benches get a pass on some rules
# (they may poke internals deliberately) but not on determinism.
SRC_DIRS = ["src"]
ALL_CODE_DIRS = ["src", "tests", "bench", "examples"]

CPP_EXT = (".cc", ".h")

ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
LINE_COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


class Finding:
    def __init__(self, rule, path, lineno, message):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.message = message

    def __str__(self):
        rel = os.path.relpath(self.path, REPO_ROOT)
        return f"{rel}:{self.lineno}: [{self.rule}] {self.message}"


def iter_files(dirs):
    for d in dirs:
        base = os.path.join(REPO_ROOT, d)
        for root, _dirs, files in os.walk(base):
            for f in sorted(files):
                if f.endswith(CPP_EXT):
                    yield os.path.join(root, f)


def strip_noise(line):
    """Removes string literals and // comments so patterns in either don't
    produce false positives. Keeps character count irrelevant (we only need
    line numbers)."""
    line = STRING_RE.sub('""', line)
    return LINE_COMMENT_RE.sub("", line)


def allowed(line, rule):
    m = ALLOW_RE.search(line)
    if not m:
        return False
    rules = [r.strip() for r in m.group(1).split(",")]
    return rule in rules


# ---------------------------------------------------------------------------
# Rule: determinism
# ---------------------------------------------------------------------------

DETERMINISM_RE = re.compile(
    r"(?<![\w:])(?:"
    r"rand\s*\(\s*\)"
    r"|srand\s*\("
    r"|std::random_device"
    r"|random_device\s+\w"
    r"|time\s*\(\s*(?:NULL|nullptr|0)\s*\)"
    r")"
)


def check_determinism(path, lines, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    if rel.startswith(os.path.join("src", "util", "random")):
        return
    for i, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        if DETERMINISM_RE.search(line):
            if allowed(raw, "determinism"):
                continue
            findings.append(Finding(
                "determinism", path, i,
                "raw randomness/clock source; use util/random.h "
                "(seedable — the deterministic simulator replays seeds)"))


# ---------------------------------------------------------------------------
# Rule: raw-sha
# ---------------------------------------------------------------------------

RAW_SHA_RE = re.compile(
    r"Sha256Compress(?:Scalar|ShaNi|Armv8|Fn)?\b|struct\s+Sha256Kernel\b"
)


def check_raw_sha(path, lines, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    # The crypto subsystem owns the primitives; its tests/benches may
    # exercise individual kernels directly.
    if rel.startswith(os.path.join("src", "crypto")):
        return
    if os.path.basename(path) in ("sha256_kernel_test.cc", "crypto_test.cc",
                                  "bench_hashing_smoke.cc"):
        return
    for i, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        if RAW_SHA_RE.search(line):
            if allowed(raw, "raw-sha"):
                continue
            findings.append(Finding(
                "raw-sha", path, i,
                "raw SHA-256 primitive outside src/crypto/; "
                "use crypto/sha256.h (Sha256::Digest / hashing pipeline)"))


# ---------------------------------------------------------------------------
# Rule: raw-sync
# ---------------------------------------------------------------------------

RAW_SYNC_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)


def check_raw_sync(path, lines, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith("src" + os.sep):
        return  # tests may use raw primitives to build race scaffolding
    if rel == os.path.join("src", "util", "thread_annotations.h"):
        return  # the one place allowed to wrap the std primitives
    for i, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        m = RAW_SYNC_RE.search(line)
        if m:
            if allowed(raw, "raw-sync"):
                continue
            findings.append(Finding(
                "raw-sync", path, i,
                f"raw {m.group(0)} in src/; use the annotated wrappers in "
                "util/thread_annotations.h so -Wthread-safety sees the lock"))


# ---------------------------------------------------------------------------
# Rule: tsa-escape
# ---------------------------------------------------------------------------


def check_tsa_escape(path, lines, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith("src" + os.sep):
        return
    if rel == os.path.join("src", "util", "thread_annotations.h"):
        return  # the macro definition itself
    for i, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        if "NO_THREAD_SAFETY_ANALYSIS" not in line:
            continue
        if allowed(raw, "tsa-escape"):
            continue
        # Look for an explanatory comment on this line or within the two
        # lines above (the repo convention is a justification block comment
        # directly above the escape).
        context = lines[max(0, i - 3):i]
        if any("//" in c for c in context):
            continue
        findings.append(Finding(
            "tsa-escape", path, i,
            "NO_THREAD_SAFETY_ANALYSIS without an adjacent comment "
            "explaining why the opt-out is sound"))


# ---------------------------------------------------------------------------
# Rule: void-discard
# ---------------------------------------------------------------------------

# Only flag discards of *call* expressions — `(void)param;` is the
# unused-parameter idiom and carries no Status/Result.
VOID_DISCARD_RE = re.compile(r"^\s*\(void\)\s*[\w:.\->]+\s*\(")


def check_void_discard(path, lines, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith("src" + os.sep):
        return
    for i, raw in enumerate(lines, 1):
        if not VOID_DISCARD_RE.search(raw):
            continue
        if allowed(raw, "void-discard"):
            continue
        # A justification comment may trail the statement (possibly on the
        # line where the statement ends) or sit up to two lines above it —
        # one block comment may cover a pair of adjacent discards.
        context = lines[max(0, i - 3):min(len(lines), i + 2)]
        if any("//" in c for c in context):
            continue
        findings.append(Finding(
            "void-discard", path, i,
            "silenced [[nodiscard]] value without a justification comment "
            "(say why ignoring the Status/Result is safe)"))


# ---------------------------------------------------------------------------
# Rule: commit-sync
# ---------------------------------------------------------------------------

COMMIT_LOCK_RE = re.compile(
    r"MutexLock\s+\w+\s*\(\s*&\s*commit_mu_\s*\)|commit_mu_\s*\.\s*Lock\s*\(")
COMMIT_UNLOCK_RE = re.compile(r"commit_mu_\s*\.\s*Unlock\s*\(")
# A bare Sync() token: matches `file_->Sync()`, `wal_->Sync()`, `Sync();`
# but not `sync_count()` or `SyncDir(...)`.
SYNC_CALL_RE = re.compile(r"\bSync\s*\(\s*\)")


def check_commit_sync(path, lines, findings):
    """Tracks `MutexLock x(&commit_mu_)` scopes by brace depth (plus manual
    commit_mu_.Lock()/Unlock() pairs) and flags any Sync() call site within.
    Brace counting on noise-stripped lines is approximate but sufficient for
    the repo's clang-format style (no braces smuggled into strings/comments).
    """
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith("src" + os.sep):
        return
    depth = 0
    lock_depths = []       # brace depth of each live MutexLock on commit_mu_
    manual_locked = False  # commit_mu_.Lock() without RAII
    for i, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        if COMMIT_LOCK_RE.search(line):
            if "MutexLock" in line:
                lock_depths.append(depth)
            else:
                manual_locked = True
        if COMMIT_UNLOCK_RE.search(line):
            manual_locked = False
        if (lock_depths or manual_locked) and SYNC_CALL_RE.search(line):
            if not allowed(raw, "commit-sync"):
                findings.append(Finding(
                    "commit-sync", path, i,
                    "Sync() inside a commit_mu_ critical section; the group "
                    "commit pipeline owns the fsync (one per group, via "
                    "Wal::AppendBatch) — a direct Sync() here re-serialises "
                    "commits"))
        depth += line.count("{") - line.count("}")
        while lock_depths and lock_depths[-1] > depth:
            lock_depths.pop()


# ---------------------------------------------------------------------------
# Rule: metric-naming
# ---------------------------------------------------------------------------

# Metric names live in string literals, so this rule scans RAW lines (most
# rules strip literals first). Only literal arguments are checked; a name
# built at runtime is rare and gets a free pass.
METRIC_GET_RE = re.compile(r'\bGet(?:Counter|Gauge|Histogram)\s*\(\s*"([^"]*)"')

METRIC_UNITS = {"micros", "bytes", "total", "count", "size", "depth",
                "ratio", "state"}
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9]*\.[a-z][a-z0-9_]*$")


def is_valid_metric_name(name):
    """Python mirror of IsValidMetricName (src/util/metrics.cc): lowercase
    subsystem '.' lowercase_underscore noun whose final '_'-separated token
    is a known unit."""
    if not METRIC_NAME_RE.match(name):
        return False
    noun = name.split(".", 1)[1]
    return noun.rsplit("_", 1)[-1] in METRIC_UNITS


def check_metric_naming(path, lines, findings):
    for i, raw in enumerate(lines, 1):
        for m in METRIC_GET_RE.finditer(raw):
            name = m.group(1)
            if is_valid_metric_name(name):
                continue
            if allowed(raw, "metric-naming"):
                continue
            findings.append(Finding(
                "metric-naming", path, i,
                f'metric name "{name}" violates the subsystem.noun_unit '
                "convention (lowercase subsystem, one dot, noun ending in "
                f"one of {sorted(METRIC_UNITS)}); see DESIGN.md §13"))


# ---------------------------------------------------------------------------
# Rule: digest-decorator-coverage (repo-level)
# ---------------------------------------------------------------------------

DIGEST_STORE_CLASS_RE = re.compile(
    r"\bclass\s+(\w+)\s*(?:final\s*)?:\s*(?:public\s+)?DigestStore\b")
SL_TEST_SOURCES_RE = re.compile(r"set\s*\(\s*SL_TEST_SOURCES(.*?)\)", re.DOTALL)


def check_digest_decorator_coverage(findings, root=None):
    """Repo-level check: collects every DigestStore subclass declared in src/
    and requires its name to appear in at least one tier1 test source."""
    root = root or REPO_ROOT
    classes = {}  # name -> (path, lineno)
    base = os.path.join(root, "src")
    for dirpath, _dirs, files in os.walk(base):
        for f in sorted(files):
            if not f.endswith(CPP_EXT):
                continue
            path = os.path.join(dirpath, f)
            try:
                with open(path, encoding="utf-8", errors="replace") as fh:
                    lines = fh.readlines()
            except OSError:
                continue
            for i, raw in enumerate(lines, 1):
                m = DIGEST_STORE_CLASS_RE.search(strip_noise(raw))
                if m and not allowed(raw, "digest-decorator-coverage"):
                    classes[m.group(1)] = (path, i)
    if not classes:
        return

    cmake_path = os.path.join(root, "tests", "CMakeLists.txt")
    try:
        with open(cmake_path, encoding="utf-8") as fh:
            cmake = fh.read()
    except OSError:
        findings.append(Finding(
            "digest-decorator-coverage", cmake_path, 1,
            "cannot read tests/CMakeLists.txt to resolve tier1 sources"))
        return
    m = SL_TEST_SOURCES_RE.search(cmake)
    if not m:
        findings.append(Finding(
            "digest-decorator-coverage", cmake_path, 1,
            "no set(SL_TEST_SOURCES ...) block found"))
        return
    tier1_text = ""
    for token in m.group(1).split():
        if not token.endswith(".cc"):
            continue
        test_path = os.path.join(root, "tests", token)
        try:
            with open(test_path, encoding="utf-8", errors="replace") as fh:
                tier1_text += fh.read()
        except OSError:
            continue

    for name, (path, lineno) in sorted(classes.items()):
        if name not in tier1_text:
            findings.append(Finding(
                "digest-decorator-coverage", path, lineno,
                f"DigestStore subclass {name} is not exercised by any tier1 "
                "test (no mention in the SL_TEST_SOURCES files); add one so "
                "its injected faults/contract stay covered"))


CHECKS = [
    ("determinism", ALL_CODE_DIRS, check_determinism),
    ("raw-sha", ALL_CODE_DIRS, check_raw_sha),
    ("raw-sync", SRC_DIRS, check_raw_sync),
    ("tsa-escape", SRC_DIRS, check_tsa_escape),
    ("void-discard", SRC_DIRS, check_void_discard),
    ("commit-sync", SRC_DIRS, check_commit_sync),
    ("metric-naming", ALL_CODE_DIRS, check_metric_naming),
]

# Checks that look at the whole tree at once rather than one file at a time.
REPO_CHECKS = [
    ("digest-decorator-coverage", check_digest_decorator_coverage),
]


def run_lint():
    findings = []
    # One pass per directory set; file contents cached so each file is read
    # once even when several rules scan it.
    cache = {}
    for _rule, dirs, check in CHECKS:
        for path in iter_files(dirs):
            if path not in cache:
                try:
                    with open(path, encoding="utf-8", errors="replace") as f:
                        cache[path] = f.readlines()
                except OSError as e:
                    print(f"lint.py: cannot read {path}: {e}", file=sys.stderr)
                    return 2
            check(path, cache[path], findings)
    for _rule, check in REPO_CHECKS:
        check(findings)
    findings.sort(key=lambda f: (f.path, f.lineno, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"\nlint.py: {len(findings)} finding(s).", file=sys.stderr)
        return 1
    print("lint.py: clean.")
    return 0


# ---------------------------------------------------------------------------
# Self test: each rule must fire on a seeded violation and stay quiet on the
# compliant twin. Exercised by the CI lint job so a silently-dead regex is
# caught the moment it dies.
# ---------------------------------------------------------------------------

SELF_TEST_CASES = [
    # (rule, dir-relative path, bad line, good line)
    ("determinism", "src/ledger/x_selftest.cc",
     "int r = rand();",
     "Random rng(seed); int r = rng.Next();"),
    ("determinism", "src/ledger/x_selftest.cc",
     "uint64_t t = time(NULL);",
     "uint64_t t = clock->NowMicros();"),
    ("raw-sha", "src/ledger/x_selftest.cc",
     "Sha256CompressScalar(state, data, 1);",
     "Hash256 h = Sha256::Digest(data);"),
    ("raw-sync", "src/ledger/x_selftest.cc",
     "std::mutex mu;",
     "Mutex mu;"),
    ("raw-sync", "src/ledger/x_selftest.cc",
     "std::lock_guard<std::mutex> lock(mu);",
     "MutexLock lock(&mu);"),
    ("tsa-escape", "src/ledger/x_selftest.h",
     "void Get() const NO_THREAD_SAFETY_ANALYSIS;",
     "// Unlatched by contract: snapshot reads only.\n"
     "void Get() const NO_THREAD_SAFETY_ANALYSIS;"),
    ("void-discard", "src/ledger/x_selftest.cc",
     "(void)env->RemoveFile(path);",
     "(void)env->RemoveFile(path);  // best-effort cleanup"),
    ("void-discard", "src/ledger/x_selftest.cc",
     "(void)st.Update(env->RemoveFile(path));",
     "(void)unused_param;"),
    ("commit-sync", "src/ledger/x_selftest.cc",
     "void F() {\n"
     "  MutexLock lock(&commit_mu_);\n"
     "  file_->Sync();\n"
     "}",
     "void F() {\n"
     "  {\n"
     "    MutexLock lock(&commit_mu_);\n"
     "    wal_->AppendBatch(payloads);\n"
     "  }\n"
     "  file_->Sync();\n"
     "}"),
    ("commit-sync", "src/ledger/x_selftest.cc",
     "commit_mu_.Lock();\n"
     "wal_->Sync();\n"
     "commit_mu_.Unlock();",
     "commit_mu_.Lock();\n"
     "commit_mu_.Unlock();\n"
     "wal_->Sync();"),
    ("metric-naming", "src/ledger/x_selftest.cc",
     'Counter* c = metrics->GetCounter("walSyncs");',
     'Counter* c = metrics->GetCounter("wal.syncs_total");'),
    ("metric-naming", "src/ledger/x_selftest.cc",
     'Histogram* h = registry.GetHistogram("wal.sync_seconds");',
     'Histogram* h = registry.GetHistogram("wal.sync_micros");'),
]


def self_test_digest_decorator_coverage():
    """The repo-level rule needs a whole miniature tree, not a single file:
    fire when a DigestStore subclass is absent from every tier1 source, stay
    quiet once a listed test names it."""
    failures = 0
    for variant, test_body, expect_fire in (
            ("bad", "TEST(X, Y) { InMemoryDigestStore s; }", True),
            ("good", "TEST(X, Y) { GhostDigestStore s; }", False)):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "src", "ledger")
            tests = os.path.join(tmp, "tests")
            os.makedirs(src)
            os.makedirs(tests)
            with open(os.path.join(src, "ghost_store.h"), "w",
                      encoding="utf-8") as f:
                f.write("class GhostDigestStore : public DigestStore {};\n")
            with open(os.path.join(tests, "CMakeLists.txt"), "w",
                      encoding="utf-8") as f:
                f.write("set(SL_TEST_SOURCES\n  ghost_test.cc\n)\n")
            with open(os.path.join(tests, "ghost_test.cc"), "w",
                      encoding="utf-8") as f:
                f.write(test_body + "\n")
            findings = []
            check_digest_decorator_coverage(findings, root=tmp)
            fired = any(f.rule == "digest-decorator-coverage"
                        for f in findings)
            if fired != expect_fire:
                failures += 1
                print(f"SELF-TEST FAIL [digest-decorator-coverage/{variant}]:"
                      f" {'did not fire' if expect_fire else 'fired'}",
                      file=sys.stderr)
    return failures


def run_self_test():
    global REPO_ROOT
    real_root = REPO_ROOT
    failures = 0
    failures += self_test_digest_decorator_coverage()
    for rule, rel, bad, good in SELF_TEST_CASES:
        for variant, text, expect_fire in (("bad", bad, True),
                                           ("good", good, False)):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text + "\n")
                REPO_ROOT = tmp
                try:
                    findings = []
                    lines = open(path, encoding="utf-8").readlines()
                    for r, _dirs, check in CHECKS:
                        if r == rule:
                            check(path, lines, findings)
                    fired = any(f.rule == rule for f in findings)
                finally:
                    REPO_ROOT = real_root
                if fired != expect_fire:
                    failures += 1
                    print(f"SELF-TEST FAIL [{rule}/{variant}]: "
                          f"{'did not fire on' if expect_fire else 'fired on'}"
                          f" {text!r}", file=sys.stderr)
    if failures:
        print(f"lint.py --self-test: {failures} failure(s).", file=sys.stderr)
        return 1
    print(f"lint.py --self-test: all {len(SELF_TEST_CASES) + 2} cases pass "
          "(each rule fires on its seeded violation, stays quiet on the fix).")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on a seeded violation")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    return run_lint()


if __name__ == "__main__":
    sys.exit(main())
