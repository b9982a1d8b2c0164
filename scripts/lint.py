#!/usr/bin/env python3
"""Repo-specific lint pass for sqlledger.

Fast, regex-based checks for invariants the compiler cannot (or will not)
enforce for us. Run from anywhere inside the repo:

    python3 scripts/lint.py            # lint the tree, exit non-zero on findings
    python3 scripts/lint.py --self-test  # verify each rule fires on a seeded violation

Rules (each one has an escape hatch: `// lint: allow(<rule>): <why>` on the
offending line or the line above it, the grammar deep_lint.py shares through
parse_allow/allow_line below — use sparingly):

  determinism     rand()/srand()/std::random_device/time(NULL) outside
                  src/util/random.*. Everything that needs randomness or a
                  clock must go through util/random.h (seedable, replayable:
                  the deterministic simulator depends on it).
  raw-sha         SHA-256 compression primitives (Sha256Compress*, direct
                  Sha256Kernel construction) referenced outside src/crypto/.
                  All hashing goes through crypto/sha256.h so kernel dispatch
                  and the hashing pipeline stay in one place.
  raw-crc         CRC-32C instructions (_mm_crc32_*, __builtin_ia32_crc32*)
                  or individual CRC-32C kernels (Crc32cExtendTable/Sse42,
                  Crc32cExtendFn, the Crc32cKernel definition) referenced
                  outside the kernel files (src/util/crc32c_*) and their
                  test (tests/util_test.cc). Every checksum goes through
                  Crc32c/Crc32cExtend in util/coding.h, so one dispatch
                  picks the kernel.
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
  definition-apply
                  a call that changes a table store's definition —
                  mutable_schema(), ExtendRows(, set_name(, or CreateIndex(/
                  DropIndex( on anything but the database facade (db/db_) —
                  or the making of a CatalogEntry or TableStore (make_unique/
                  make_shared, new, or a named object), in src/ outside the
                  store itself (src/storage/table_store.{h,cc}) and
                  src/ledger/table_definition.cc. Every DDL, the bootstrap,
                  checkpoint load and WAL replay make and change stores
                  through ApplyTableDefinition (the Database Ledger's two
                  through BuildSystemStores, in the same file), so a
                  statement, its replay and a reload cannot drift apart
                  (DESIGN.md §4).
  one-uploader    a call of Upload( on a receiver (`->Upload(`, `.Upload(`)
                  in src/ outside src/ledger/digest_pipeline.cc and the
                  store implementations (src/ledger/digest_store.cc,
                  src/ledger/faulty_digest_store.cc). DigestUploadPipeline
                  is the one uploader: its chain check (fork detection,
                  paper §3.3.1) must see every digest before a store does
                  (DESIGN.md §9).
  one-digest-issuer
                  a call of the ledger-level GenerateDigest( with arguments
                  on a receiver (`ledger_->GenerateDigest(id, create_time)`)
                  in src/ outside src/ledger/ledger_database.cc and
                  src/ledger/database_ledger.cc. LedgerDatabase::
                  GenerateDigest() is the one digest issuer: the SQL
                  GENERATE DIGEST, truncation and the upload pipeline all
                  reach it, so no digest bypasses its §3.6 geo gate
                  (DESIGN.md §9).
  stamp-once      a CellRef assignment to a ledger version's stamp cell
                  (`row[t.start_txn_ord] = ...`, likewise start_seq_ord,
                  end_txn_ord, end_seq_ord) in src/ outside src/sim/. A
                  stamp changes its cell's width, so a write through CellRef
                  repacks the row: a malloc and a copy per version. Stamps
                  go in when the version is packed, by Schema::PadRow
                  (start) and Row::With in RetireVersion (end) (DESIGN.md
                  §3). The simulator's reference model keeps its own.
  one-key-type    a value vector (`std::vector<Value>`) in src/storage/ or
                  src/txn/. A key there is a Row of its key cells
                  (KeyTuple, catalog/row.h), with one comparator
                  (CompareKeys), one codec (EncodeRow/DecodeRow) and one
                  projection (Row::Project); a second tuple type brings
                  its own copies of all three back (DESIGN.md §3).
  pinned-plan     a read of a table's layout outside its compiled plan
                  (TablePlan, DESIGN.md §3): a call of schema() on a store
                  in src/sql/, or a VisibleOrdinals( call in src/ outside
                  the plan builder (src/ledger/table_definition.cc) and
                  the simulator's reference model (src/sim/model.cc). The
                  SQL session reads the plan it pinned for its statement,
                  and DML, replay, views and truncation read the entry's
                  plan under a table lock, so no reader sees a schema that
                  a DDL rewrites under it (DESIGN.md §8).
  one-row-codec   a call of the cell codec — Cell::EncodeTo on a cell (a
                  name declared a Cell, CellRef or Value, an indexed row
                  cell, or a dereferenced Row::Iterator), EncodePayloadTo,
                  DecimalOf (a DOUBLE's decimal form), DecodeDecimal (its
                  payload), DecodeView, DecodePayloadView or
                  Value::DecodeFrom — in src/ outside
                  src/catalog/. Persisted rows are encoded and
                  decoded by EncodeRow/DecodeRow alone, against their
                  predecessor (DESIGN.md §4); a cell written or read on its
                  own elsewhere is a second row format.
  one-record-header
                  a call of the chained commit-record header encoder
                  (`.EncodeChainedHeader(`, `->EncodeChainedHeader(`) in
                  src/ outside the body of LedgerDatabase::ProcessGroup. A
                  record's header is encoded against the header of the
                  record before it in the log, so only the group commit
                  leader, which appends under commit_mu_, may encode one; a
                  second writer would break the chain and the log would not
                  replay (DESIGN.md §4, §10).
  one-truncation-apply
                  a call of DatabaseLedger::TruncateBelow( in src/ outside
                  the body of LedgerDatabase::ApplyTruncation. A truncation
                  is durable through its logged audit row alone, and
                  recovery re-derives its deletes through ApplyTruncation;
                  a delete made anywhere else has no record to replay
                  (DESIGN.md §4).
  one-quiesce     a write of quiescing_ (`quiescing_ = ...`) in src/ outside
                  the bodies of MaintenanceView's constructor and
                  destructor. A MaintenanceView is the one quiesce:
                  checkpoint, verification and truncation scan stores
                  unlatched only through one, so a quiesce made any other
                  way would let a scan run beside writers (DESIGN.md §8).
  abort-after-commit
                  an Abort(x) after a Commit(x) of the same transaction in
                  src/, tests/, bench/ or examples/: within the next 3 lines,
                  or inside the if/else that tests the commit's outcome
                  (its condition, or a status variable the commit set),
                  without leaving the enclosing block. Commit ends the
                  transaction whatever the outcome and aborts it itself on
                  failure, so a second Abort frees it twice.
  bench-docs      (repo-level) the binaries EXPERIMENTS.md's regeneration
                  loop (`for b in ...; do`) runs must be exactly the
                  SL_BENCH_SOURCES of bench/CMakeLists.txt. A deleted bench
                  left in the loop breaks regeneration; a bench missing from
                  it backs no documented number.

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

# `// lint: allow(<rule>[, <rule>...]): <justification>`. deep_lint.py
# requires the justification; both tools match through parse_allow.
ALLOW_RE = re.compile(
    r"//\s*lint:\s*allow\(\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)\s*\)"
    r"(\s*:\s*(\S.*))?")
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


def parse_allow(line):
    """(rules, has_justification) of the allow comment on `line`, or None."""
    m = ALLOW_RE.search(line)
    if not m:
        return None
    return {r.strip() for r in m.group(1).split(",")}, m.group(3) is not None


def allow_line(allow_at, lineno, rule):
    """The line, `lineno` or the one above it, whose allow comment names
    `rule`, or None. `allow_at(n)` gives line n's parse_allow result."""
    for ln in (lineno, lineno - 1):
        entry = allow_at(ln)
        if entry and rule in entry[0]:
            return ln
    return None


def allowed(lines, lineno, rule):
    """Whether an allow comment covers `rule` at 1-based `lineno`."""
    return allow_line(
        lambda n: parse_allow(lines[n - 1]) if 1 <= n <= len(lines) else None,
        lineno, rule) is not None


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
            if allowed(lines, i, "determinism"):
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
    # The crypto subsystem owns the primitives; its kernel tests may
    # exercise individual kernels directly.
    if rel.startswith(os.path.join("src", "crypto")):
        return
    if os.path.basename(path) in ("sha256_kernel_test.cc", "crypto_test.cc"):
        return
    for i, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        if RAW_SHA_RE.search(line):
            if allowed(lines, i, "raw-sha"):
                continue
            findings.append(Finding(
                "raw-sha", path, i,
                "raw SHA-256 primitive outside src/crypto/; "
                "use crypto/sha256.h (Sha256::Digest / hashing pipeline)"))


# ---------------------------------------------------------------------------
# Rule: raw-crc
# ---------------------------------------------------------------------------

RAW_CRC_RE = re.compile(
    r"\b_mm_crc32_\w+|\b__builtin_ia32_crc32\w*"
    r"|\bCrc32cExtend(?:Table|Sse42|Fn)\b|struct\s+Crc32cKernel\b"
)


def check_raw_crc(path, lines, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    # The kernel files own the primitives; the kernel-equivalence test may
    # exercise individual kernels directly.
    if rel.startswith(os.path.join("src", "util", "crc32c_")):
        return
    if rel == os.path.join("tests", "util_test.cc"):
        return
    for i, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        if RAW_CRC_RE.search(line):
            if allowed(lines, i, "raw-crc"):
                continue
            findings.append(Finding(
                "raw-crc", path, i,
                "raw CRC-32C primitive outside the kernel files; "
                "use Crc32c/Crc32cExtend from util/coding.h"))


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
            if allowed(lines, i, "raw-sync"):
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
        if allowed(lines, i, "tsa-escape"):
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
        if allowed(lines, i, "void-discard"):
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
            if not allowed(lines, i, "commit-sync"):
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
            if allowed(lines, i, "metric-naming"):
                continue
            findings.append(Finding(
                "metric-naming", path, i,
                f'metric name "{name}" violates the subsystem.noun_unit '
                "convention (lowercase subsystem, one dot, noun ending in "
                f"one of {sorted(METRIC_UNITS)}); see DESIGN.md §13"))


# ---------------------------------------------------------------------------
# Rule: definition-apply
# ---------------------------------------------------------------------------

DEFINITION_EDIT_RE = re.compile(
    r"\bmutable_schema\s*\(|\bExtendRows\s*\(|\bset_name\s*\("
    r"|([\w\)\]]+)\s*(?:->|\.)\s*(?:CreateIndex|DropIndex)\s*\(")
# Receivers whose CreateIndex/DropIndex is the LedgerDatabase DDL, which
# itself goes through the apply path.
DATABASE_RECEIVERS = {"db", "db_"}
# A catalog entry or table store made: by make_unique/make_shared, by new,
# or as a named object (`TableStore t(...)`, `CatalogEntry e;`).
STORE_MAKE_RE = re.compile(
    r"\bmake_(?:unique|shared)\s*<\s*(?:TableStore|CatalogEntry)\s*>"
    r"|\bnew\s+(?:TableStore|CatalogEntry)\b"
    r"|\b(?:TableStore|CatalogEntry)\s+\w+\s*[({;=]")
# The apply path and the store itself.
DEFINITION_APPLY_FILES = {
    os.path.join("src", "ledger", "table_definition.cc"),
    os.path.join("src", "storage", "table_store.h"),
    os.path.join("src", "storage", "table_store.cc"),
}


def check_definition_apply(path, lines, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith("src" + os.sep):
        return  # tests and benches may edit stores directly (tampering)
    if rel in DEFINITION_APPLY_FILES:
        return
    for i, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        if allowed(lines, i, "definition-apply"):
            continue
        if STORE_MAKE_RE.search(line):
            findings.append(Finding(
                "definition-apply", path, i,
                "catalog entry or table store made outside the apply path; "
                "apply a TableDefinition with ApplyTableDefinition "
                "(src/ledger/table_definition.cc)"))
            continue
        if any(m.group(1) not in DATABASE_RECEIVERS
               for m in DEFINITION_EDIT_RE.finditer(line)):
            findings.append(Finding(
                "definition-apply", path, i,
                "store definition changed outside the apply path; build the "
                "TableDefinition and apply it with ApplyTableDefinition / "
                "DefineTable (src/ledger/table_definition.cc)"))


# ---------------------------------------------------------------------------
# Rule: one-uploader
# ---------------------------------------------------------------------------

UPLOAD_CALL_RE = re.compile(r"(?:->|\.)\s*Upload\s*\(")
UPLOADER_FILES = {
    os.path.join("src", "ledger", name)
    for name in ("digest_pipeline.cc", "digest_store.cc",
                 "faulty_digest_store.cc")
}


def check_one_uploader(path, lines, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith("src" + os.sep):
        return  # tests and benches may drive a store directly
    if rel in UPLOADER_FILES:
        return
    for i, raw in enumerate(lines, 1):
        if not UPLOAD_CALL_RE.search(strip_noise(raw)):
            continue
        if allowed(lines, i, "one-uploader"):
            continue
        findings.append(Finding(
            "one-uploader", path, i,
            "digest uploaded outside DigestUploadPipeline; submit it to the "
            "pipeline so the chain check sees it (DESIGN.md §9)"))


# ---------------------------------------------------------------------------
# Rule: one-digest-issuer
# ---------------------------------------------------------------------------

# A receiver call whose parentheses do not close at once: the ledger-level
# GenerateDigest(database_id, create_time), not LedgerDatabase's ().
LEDGER_DIGEST_CALL_RE = re.compile(
    r"(?:->|\.)\s*GenerateDigest\s*\((?!\s*\))")
DIGEST_ISSUER_FILES = {
    os.path.join("src", "ledger", name)
    for name in ("ledger_database.cc", "database_ledger.cc")
}


def check_one_digest_issuer(path, lines, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith("src" + os.sep):
        return  # tests drive the Database Ledger on its own
    if rel in DIGEST_ISSUER_FILES:
        return
    for i, raw in enumerate(lines, 1):
        if not LEDGER_DIGEST_CALL_RE.search(strip_noise(raw)):
            continue
        if allowed(lines, i, "one-digest-issuer"):
            continue
        findings.append(Finding(
            "one-digest-issuer", path, i,
            "digest issued from the Database Ledger directly; call "
            "LedgerDatabase::GenerateDigest(), the one issuer, so the geo "
            "gate sees it (DESIGN.md §9)"))


# ---------------------------------------------------------------------------
# Rule: stamp-once
# ---------------------------------------------------------------------------

STAMP_WRITE_RE = re.compile(
    r"\[\s*(?:[\w\]\)]+\s*(?:\.|->)\s*)*"
    r"(?:start_txn_ord|start_seq_ord|end_txn_ord|end_seq_ord)\s*\]"
    r"\s*=(?!=)")


def check_stamp_once(path, lines, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith("src" + os.sep):
        return  # tests and benches may write any cell
    if rel.startswith(os.path.join("src", "sim") + os.sep):
        return  # the reference model stamps its own rows
    for i, raw in enumerate(lines, 1):
        if not STAMP_WRITE_RE.search(strip_noise(raw)):
            continue
        if allowed(lines, i, "stamp-once"):
            continue
        findings.append(Finding(
            "stamp-once", path, i,
            "ledger stamp written through CellRef repacks the row; pack it "
            "in with Schema::PadRow or Row::With (DESIGN.md §3)"))


# ---------------------------------------------------------------------------
# Rule: one-key-type
# ---------------------------------------------------------------------------

VALUE_VECTOR_RE = re.compile(r"\b(?:std\s*::\s*)?vector\s*<\s*Value\s*>")
ONE_KEY_TYPE_DIRS = [os.path.join("src", "storage"), os.path.join("src", "txn")]


def check_one_key_type(path, lines, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    if not any(rel.startswith(d + os.sep) for d in ONE_KEY_TYPE_DIRS):
        return  # the SQL layer and tests may hold value vectors
    for i, raw in enumerate(lines, 1):
        if not VALUE_VECTOR_RE.search(strip_noise(raw)):
            continue
        if allowed(lines, i, "one-key-type"):
            continue
        findings.append(Finding(
            "one-key-type", path, i,
            "value vector in the storage or transaction layer; a key is a "
            "Row of its key cells (KeyTuple, catalog/row.h)"))


# ---------------------------------------------------------------------------
# Rule: pinned-plan
# ---------------------------------------------------------------------------

STORE_SCHEMA_CALL_RE = re.compile(r"(?:->|\.)\s*schema\s*\(\s*\)")
VISIBLE_ORDINALS_CALL_RE = re.compile(r"(?:->|\.)\s*VisibleOrdinals\s*\(")
PLAN_BUILDER_FILES = {
    os.path.join("src", "ledger", "table_definition.cc"),
    os.path.join("src", "sim", "model.cc"),
}


def check_pinned_plan(path, lines, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith("src" + os.sep):
        return  # tests and benches are oracles of the layout
    in_sql = rel.startswith(os.path.join("src", "sql") + os.sep)
    for i, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        if allowed(lines, i, "pinned-plan"):
            continue
        if in_sql and STORE_SCHEMA_CALL_RE.search(line):
            findings.append(Finding(
                "pinned-plan", path, i,
                "the SQL session reads a store's live schema; read the "
                "TablePlan the statement pinned (DESIGN.md §8)"))
        elif (rel not in PLAN_BUILDER_FILES and
              VISIBLE_ORDINALS_CALL_RE.search(line)):
            findings.append(Finding(
                "pinned-plan", path, i,
                "visible ordinals recomputed outside the plan builder; read "
                "TablePlan::visible_ords (DESIGN.md §3)"))


# ---------------------------------------------------------------------------
# Rule: one-row-codec
# ---------------------------------------------------------------------------

CELL_CODEC_CALL_RE = re.compile(
    r"\b(?:EncodePayloadTo|DecimalOf|DecodeDecimal|DecodeView"
    r"|DecodePayloadView)\s*\("
    r"|\bValue\s*::\s*DecodeFrom\s*\(")
CELL_DECL_RE = re.compile(r"\b(?:Cell|CellRef|Value)\s*[&*]*\s+(\w+)")
ITERATOR_DECL_RE = re.compile(r"\bRow\s*::\s*Iterator\s*[&*]*\s+(\w+)")
# The receiver of an EncodeTo call: a name, a dereferenced name or an
# indexed expression.
ENCODE_TO_RE = re.compile(
    r"(?:\(\s*\*\s*(\w+)\s*\)|(\w+)|(\]))\s*(?:\.|->)\s*EncodeTo\s*\(")
CATALOG_DIR = os.path.join("src", "catalog")


def check_one_row_codec(path, lines, findings):
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith("src" + os.sep):
        return  # tests pin cell bytes on purpose
    if rel.startswith(CATALOG_DIR + os.sep):
        return  # the codec itself
    code = [strip_noise(raw) for raw in lines]
    cells = {m.group(1) for line in code for m in CELL_DECL_RE.finditer(line)}
    iterators = {m.group(1) for line in code
                 for m in ITERATOR_DECL_RE.finditer(line)}
    for i, (raw, line) in enumerate(zip(lines, code), 1):
        hit = CELL_CODEC_CALL_RE.search(line) is not None
        for m in ENCODE_TO_RE.finditer(line):
            deref, name, indexed = m.groups()
            hit |= (indexed is not None or name in cells or
                    deref in iterators or deref in cells)
        if not hit or allowed(lines, i, "one-row-codec"):
            continue
        findings.append(Finding(
            "one-row-codec", path, i,
            "cell codec called outside src/catalog/; persist rows with "
            "EncodeRow/DecodeRow, the one row codec (DESIGN.md §4)"))


# ---------------------------------------------------------------------------
# Rule: one-record-header
# ---------------------------------------------------------------------------

RECORD_HEADER_CALL_RE = re.compile(r"(?:->|\.)\s*EncodeChainedHeader\s*\(")
HEADER_WRITER_RE = re.compile(r"\bLedgerDatabase\s*::\s*ProcessGroup\s*\(")


def check_calls_outside_body(path, lines, findings, rule, call_re, owner_re,
                             message):
    """Finds the body of the one function whose definition `owner_re`
    matches by brace depth, and flags every `call_re` call in src/ outside
    it."""
    rel = os.path.relpath(path, REPO_ROOT)
    if not rel.startswith("src" + os.sep):
        return  # tests and tools may call it directly
    depth = 0
    body = None      # brace depth around the owner's body, while in it
    pending = False  # its signature seen, its body not yet opened
    for i, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        if body is None and owner_re.search(line):
            pending = True
        if pending and "{" in line:
            body, pending = depth, False
        elif pending and ";" in line:
            pending = False  # a call or declaration, not the definition
        if (body is None and call_re.search(line) and
                not allowed(lines, i, rule)):
            findings.append(Finding(rule, path, i, message))
        depth += line.count("{") - line.count("}")
        if body is not None and depth <= body:
            body = None


def check_one_record_header(path, lines, findings):
    check_calls_outside_body(
        path, lines, findings, "one-record-header", RECORD_HEADER_CALL_RE,
        HEADER_WRITER_RE,
        "commit record header encoded outside LedgerDatabase::ProcessGroup; "
        "headers chain in log order, so only the group commit leader "
        "encodes them (DESIGN.md §10)")


# ---------------------------------------------------------------------------
# Rule: one-truncation-apply
# ---------------------------------------------------------------------------

# A call, not the declaration (`Status TruncateBelow(`) or the definition
# (`DatabaseLedger::TruncateBelow(`).
TRUNCATE_BELOW_CALL_RE = re.compile(
    r"(?:->|\.|[(=,!]\s*|\breturn\s+|^\s*)TruncateBelow\s*\(")
TRUNCATION_APPLIER_RE = re.compile(
    r"\bLedgerDatabase\s*::\s*ApplyTruncation\s*\(")


def check_one_truncation_apply(path, lines, findings):
    check_calls_outside_body(
        path, lines, findings, "one-truncation-apply", TRUNCATE_BELOW_CALL_RE,
        TRUNCATION_APPLIER_RE,
        "ledger truncated outside LedgerDatabase::ApplyTruncation; commit "
        "the audit row and call ApplyTruncation, which recovery runs too "
        "(DESIGN.md §4)")


# ---------------------------------------------------------------------------
# Rule: one-quiesce
# ---------------------------------------------------------------------------

QUIESCE_WRITE_RE = re.compile(r"\bquiescing_\s*=(?!=)")
# The constructor's and the destructor's definitions.
QUIESCE_OWNER_RE = re.compile(
    r"\bMaintenanceView\s*::\s*~?MaintenanceView\s*\(")


def check_one_quiesce(path, lines, findings):
    check_calls_outside_body(
        path, lines, findings, "one-quiesce", QUIESCE_WRITE_RE,
        QUIESCE_OWNER_RE,
        "quiescing_ written outside MaintenanceView's constructor and "
        "destructor; open a view with OpenMaintenanceView, the one quiesce "
        "(DESIGN.md §8)")


# ---------------------------------------------------------------------------
# Rule: abort-after-commit
# ---------------------------------------------------------------------------

COMMIT_CALL_RE = re.compile(r"(?<![\w:])Commit\s*\(")
CONDITION_RE = re.compile(r"\b(?:if|while)\s*\(")
STATUS_ASSIGN_RE = re.compile(r"(\w+)\s*=[^=;]*$")
PARAM_DECL_RE = re.compile(r"^[\w:<>]+\s*[*&]*\s+[*&]*\w+$")
RETURN_RE = re.compile(r"\breturn\b")
ABORT_WINDOW = 3


def close_paren(line, open_col):
    """Column of the parenthesis closing the one at `open_col`, or the
    line's length if it stays open."""
    depth = 0
    for k in range(open_col, len(line)):
        depth += {"(": 1, ")": -1}.get(line[k], 0)
        if depth == 0:
            return k
    return len(line)


def if_statement_end(lines, start, col):
    """Index of the last line of the if statement (its else branches
    included) whose keyword sits at lines[start][col]."""
    depth = 0
    for j in range(start, min(len(lines), start + 30)):
        text = (lines[j][col:] if j == start else lines[j]).strip()
        depth += text.count("{") - text.count("}")
        if depth > 0 or not text.endswith((";", "}")):
            continue
        rest = [l.strip() for l in lines[j + 1:j + 3] if l.strip()]
        if not (rest and rest[0].startswith(("else", "} else"))):
            return j
    return start


def check_abort_after_commit(path, lines, findings):
    code = [strip_noise(l) for l in lines]
    for c, line in enumerate(code):
        for m in COMMIT_CALL_RE.finditer(line):
            arg_end = close_paren(line, m.end() - 1)
            arg = line[m.end():arg_end].strip()
            if (not arg or PARAM_DECL_RE.match(arg) or
                    RETURN_RE.search(line[:m.start()])):
                continue  # a declaration, or a commit that returns
            abort_re = re.compile(
                r"(?<![\w:])Abort\s*\(\s*" + re.escape(arg) + r"\s*\)")
            # The if statement testing the commit's outcome, if any: the
            # commit in its condition, or a status the commit set tested on
            # one of the next lines.
            end = c + ABORT_WINDOW
            for cond in CONDITION_RE.finditer(line):
                if cond.end() <= m.start() <= close_paren(line, cond.end() - 1):
                    end = max(end, if_statement_end(code, c, cond.start()))
            assign = STATUS_ASSIGN_RE.search(line[:m.start()])
            if assign:
                ok_re = re.compile(r"\b" + re.escape(assign.group(1)) +
                                   r"\s*\.\s*ok\s*\(")
                for t in range(c + 1, min(len(code), c + 1 + ABORT_WINDOW)):
                    cond = CONDITION_RE.search(code[t])
                    if cond and ok_re.search(code[t]):
                        end = max(end, if_statement_end(code, t, cond.start()))
                        break
            depth = 0
            for j in range(c, min(len(code), end + 1)):
                text = line[arg_end:] if j == c else code[j]
                if j > c and "Begin(" in text:
                    break  # the name now holds another transaction
                stop = len(text)
                for k, ch in enumerate(text):
                    depth += {"{": 1, "}": -1}.get(ch, 0)
                    if depth < 0:
                        stop = k  # left the block holding the commit
                        break
                hit = abort_re.search(text[:stop])
                if hit and not allowed(lines, j + 1, "abort-after-commit"):
                    findings.append(Finding(
                        "abort-after-commit", path, j + 1,
                        f"Abort({arg}) after Commit({arg}) on line {c + 1}; "
                        "Commit ends the transaction whatever the outcome "
                        "(it aborts a failed one itself), so this frees it "
                        "twice"))
                if stop < len(text):
                    break


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
                if m and not allowed(lines, i, "digest-decorator-coverage"):
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


# ---------------------------------------------------------------------------
# Rule: bench-docs (repo-level)
# ---------------------------------------------------------------------------

SL_BENCH_SOURCES_RE = re.compile(r"set\s*\(\s*SL_BENCH_SOURCES(.*?)\)",
                                 re.DOTALL)
REGEN_LOOP_RE = re.compile(r"\bfor\s+b\s+in\s+(.*?);\s*do\b", re.DOTALL)


def check_bench_docs(findings, root=None):
    """Repo-level check: the regeneration loop in EXPERIMENTS.md names
    exactly the binaries bench/CMakeLists.txt builds from SL_BENCH_SOURCES."""
    root = root or REPO_ROOT
    cmake_path = os.path.join(root, "bench", "CMakeLists.txt")
    doc_path = os.path.join(root, "EXPERIMENTS.md")
    texts = []
    for path in (cmake_path, doc_path):
        try:
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
        except OSError:
            findings.append(Finding("bench-docs", path, 1, "cannot read file"))
            return
    cmake, doc = texts
    sources = SL_BENCH_SOURCES_RE.search(cmake)
    loop = REGEN_LOOP_RE.search(doc)
    if not sources:
        findings.append(Finding("bench-docs", cmake_path, 1,
                                "no set(SL_BENCH_SOURCES ...) block found"))
    if not loop:
        findings.append(Finding("bench-docs", doc_path, 1,
                                "no `for b in ...; do` regeneration loop"))
    if not sources or not loop:
        return
    built = {t[:-3] for t in sources.group(1).split() if t.endswith(".cc")}
    listed = set(loop.group(1).replace("\\", " ").split())
    loop_line = doc.count("\n", 0, loop.start()) + 1
    sources_line = cmake.count("\n", 0, sources.start()) + 1
    for name in sorted(listed - built):
        findings.append(Finding(
            "bench-docs", doc_path, loop_line,
            f"regeneration loop runs {name}, which SL_BENCH_SOURCES in "
            "bench/CMakeLists.txt does not build"))
    for name in sorted(built - listed):
        findings.append(Finding(
            "bench-docs", cmake_path, sources_line,
            f"SL_BENCH_SOURCES builds {name}, which EXPERIMENTS.md's "
            "regeneration loop does not run"))


CHECKS = [
    ("determinism", ALL_CODE_DIRS, check_determinism),
    ("raw-sha", ALL_CODE_DIRS, check_raw_sha),
    ("raw-crc", ALL_CODE_DIRS, check_raw_crc),
    ("raw-sync", SRC_DIRS, check_raw_sync),
    ("tsa-escape", SRC_DIRS, check_tsa_escape),
    ("void-discard", SRC_DIRS, check_void_discard),
    ("commit-sync", SRC_DIRS, check_commit_sync),
    ("definition-apply", SRC_DIRS, check_definition_apply),
    ("one-uploader", SRC_DIRS, check_one_uploader),
    ("one-digest-issuer", SRC_DIRS, check_one_digest_issuer),
    ("stamp-once", SRC_DIRS, check_stamp_once),
    ("one-key-type", SRC_DIRS, check_one_key_type),
    ("pinned-plan", SRC_DIRS, check_pinned_plan),
    ("one-row-codec", SRC_DIRS, check_one_row_codec),
    ("one-record-header", SRC_DIRS, check_one_record_header),
    ("one-truncation-apply", SRC_DIRS, check_one_truncation_apply),
    ("one-quiesce", SRC_DIRS, check_one_quiesce),
    ("metric-naming", ALL_CODE_DIRS, check_metric_naming),
    ("abort-after-commit", ALL_CODE_DIRS, check_abort_after_commit),
]

# Checks that look at the whole tree at once rather than one file at a time.
REPO_CHECKS = [
    ("digest-decorator-coverage", check_digest_decorator_coverage),
    ("bench-docs", check_bench_docs),
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
    ("raw-crc", "src/storage/x_selftest.cc",
     "crc = _mm_crc32_u64(crc, word);",
     "crc = Crc32cExtend(crc, data, n);"),
    ("raw-crc", "src/storage/x_selftest.cc",
     "uint32_t c = Crc32cExtendTable(0, data, n);",
     "uint32_t c = Crc32c(data, n);"),
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
    ("definition-apply", "src/ledger/x_selftest.cc",
     "entry->main->mutable_schema()->AddColumn(column, type, true);",
     "def.main.schema.AddColumn(column, type, true);"),
    ("definition-apply", "src/ledger/x_selftest.cc",
     "entry->history->ExtendRows(Value::Null(type));",
     "Status st = DefineTable(txn, entry->table_id, def);"),
    ("definition-apply", "src/ledger/x_selftest.cc",
     "Status st = entry->main->CreateIndex(name, ordinals, unique);",
     "Status st = db_->CreateIndex(table, name, {\"val\"}, false);"),
    ("definition-apply", "src/sim/x_selftest.cc",
     "(*store).DropIndex(name);",
     "def.main.indexes.push_back({name, ordinals, unique});"),
    ("definition-apply", "src/ledger/x_selftest.cc",
     "entry->main->set_name(dropped_name);",
     "def.main.name = dropped_name;"),
    ("definition-apply", "src/ledger/x_selftest.cc",
     "auto entry = std::make_unique<CatalogEntry>();",
     "CatalogEntry* entry = FindTableById(table_id);"),
    ("definition-apply", "src/storage/x_selftest.cc",
     "auto table = std::make_unique<TableStore>(*table_id, name, schema);",
     "TableStore* table = store->second;"),
    ("definition-apply", "src/storage/x_selftest.cc",
     "SL_RETURN_IF_ERROR(table->CreateIndex(def.name, def.ordinals, false));",
     "SL_RETURN_IF_ERROR(table->Insert(std::move(*row), &prev));"),
    ("definition-apply", "src/sim/x_selftest.cc",
     "TableStore scratch(id, \"scratch\", schema);",
     "const TableStore& scratch = *entry->main;"),
    ("definition-apply", "src/ledger/x_selftest.cc",
     "std::unique_ptr<TableStore> store(new TableStore(id, name, schema));",
     "std::unique_ptr<TableStore> store;"),
    ("one-uploader", "src/ledger/x_selftest.cc",
     "SL_RETURN_IF_ERROR(store->Upload(*digest));",
     "SL_RETURN_IF_ERROR(pipeline->SubmitDigest(*digest));"),
    # The escape hatch covers its own line and the line below, no further.
    ("one-uploader", "src/ledger/x_selftest.cc",
     "// lint: allow(one-uploader): replays a digest the store lost\n"
     "\n"
     "SL_RETURN_IF_ERROR(store->Upload(*digest));",
     "// lint: allow(one-uploader): replays a digest the store lost\n"
     "SL_RETURN_IF_ERROR(store->Upload(*digest));"),
    ("commit-sync", "src/ledger/x_selftest.cc",
     "MutexLock lock(&commit_mu_);\n"
     "// lint: allow(commit-sync): the checkpoint owns the log here\n"
     "\n"
     "wal_->Sync();",
     "MutexLock lock(&commit_mu_);\n"
     "// lint: allow(commit-sync): the checkpoint owns the log here\n"
     "wal_->Sync();"),
    ("one-digest-issuer", "src/ledger/x_selftest.cc",
     "auto d = db->database_ledger()->GenerateDigest(id, db->create_time());",
     "auto d = db->GenerateDigest();"),
    ("one-digest-issuer", "src/sql/x_selftest.cc",
     "auto d = ledger.GenerateDigest(\n"
     "    options.database_id, create_time);",
     "Result<DatabaseDigest> GenerateDigest(const std::string& database_id,\n"
     "                                      const std::string& create_time);"),
    ("stamp-once", "src/ledger/x_selftest.cc",
     "version[t.end_txn_ord] = Value::BigInt(txn_id);",
     "Row version = current.With({{t.end_txn_ord, Value::BigInt(txn_id)}});"),
    ("stamp-once", "src/ledger/x_selftest.cc",
     "full[ref->start_seq_ord] = Value::BigInt(seq);",
     "if (full[t.start_seq_ord] == Value::BigInt(seq)) return;"),
    ("one-key-type", "src/storage/x_selftest.h",
     "std::map<std::vector<Value>, Row, KeyTupleLess> entries;",
     "std::map<KeyTuple, Row, KeyTupleLess> entries;"),
    ("one-key-type", "src/txn/x_selftest.cc",
     "std::vector< Value > key = schema.ExtractKey(row).Values();",
     "KeyTuple key = schema.ExtractKey(row);"),
    ("pinned-plan", "src/sql/x_selftest.cc",
     "const Schema& schema = ref->main->schema();",
     "const std::vector<ColumnDef>& columns = plan->visible_columns;"),
    ("pinned-plan", "src/ledger/x_selftest.cc",
     "std::vector<size_t> visible = schema.VisibleOrdinals();",
     "const std::vector<size_t>& visible = t.plan->visible_ords;"),
    ("one-row-codec", "src/storage/x_selftest.cc",
     "for (Cell c : row) c.EncodeTo(dst);",
     "EncodeRow(row, prev, dst);"),
    ("one-row-codec", "src/storage/x_selftest.cc",
     "row[i].EncodeTo(&buf);",
     "record.EncodeTo(&buf);"),
    ("one-row-codec", "src/ledger/x_selftest.cc",
     "for (Row::Iterator it = row.begin(); it != row.end(); ++it)\n"
     "  (*it).EncodeTo(&out);",
     "for (const WalOp& op : ops) op.definition->EncodeTo(&out);"),
    ("one-row-codec", "src/ledger/x_selftest.cc",
     "const Value& v = values[i];\n"
     "v.EncodeTo(&out);",
     "const Value& v = values[i];\n"
     "entry->Definition().EncodeTo(&out);"),
    ("one-row-codec", "src/storage/x_selftest.cc",
     "auto cell = Cell::DecodeView(&dec);",
     "auto row = DecodeRow(&dec, prev);"),
    ("one-row-codec", "src/storage/x_selftest.cc",
     "auto v = Value::DecodeFrom(&dec);",
     "auto rec = WalCommitRecord::Decode(body, &chain);"),
    ("one-row-codec", "src/sim/x_selftest.cc",
     "cell.EncodePayloadTo(&out);",
     "Row::PutChange(cell, before, &out);"),
    ("one-row-codec", "src/storage/x_selftest.cc",
     "if (Cell::DecimalOf(amount, &k)) PutVarint64(&out, ZigZagEncode64(k));",
     "if (IsDecimalOf(amount)) EncodeRowCells(row, prev, &out);"),
    ("one-row-codec", "src/storage/x_selftest.cc",
     "auto k = Cell::DecodeDecimal(&dec);",
     "auto row = DecodeRowCells(&dec, n, prev);"),
    ("one-record-header", "src/ledger/x_selftest.cc",
     "Status LedgerDatabase::Commit(Transaction* txn) {\n"
     "  record.EncodeChainedHeader(&chain, &req.payload);\n"
     "}",
     "void LedgerDatabase::ProcessGroup(\n"
     "    const std::vector<CommitRequest*>& group) {\n"
     "  for (CommitRequest* r : group) {\n"
     "    r->header.EncodeChainedHeader(&chain, &header);\n"
     "  }\n"
     "}"),
    # A call after ProcessGroup's body has closed.
    ("one-record-header", "src/ledger/x_selftest.cc",
     "void LedgerDatabase::ProcessGroup(const Group& group) {\n"
     "  Append(group);\n"
     "}\n"
     "void LedgerDatabase::Rewrite(WalCommitRecord* rec) {\n"
     "  rec->EncodeChainedHeader(&chain_, &out);\n"
     "}",
     "void LedgerDatabase::ProcessGroup(const Group& group) {\n"
     "  Append(group);\n"
     "}\n"
     "void LedgerDatabase::Rewrite(WalCommitRecord* rec) {\n"
     "  WalCommitRecord::EncodeOps(rec->ops, &out);\n"
     "}"),
    ("one-truncation-apply", "src/ledger/x_selftest.cc",
     "Status TruncateLedger(LedgerDatabase* db, uint64_t below) {\n"
     "  SL_RETURN_IF_ERROR(db->database_ledger()->TruncateBelow(below));\n"
     "  return db->RecordTruncation(record);\n"
     "}",
     "Status DatabaseLedger::TruncateBelow(uint64_t below_block) {\n"
     "  MutexLock lock(&mu_);\n"
     "}\n"
     "Status LedgerDatabase::ApplyTruncation(const MaintenanceView& view,\n"
     "                                       uint64_t below_block) {\n"
     "  SL_RETURN_IF_ERROR(ledger_->TruncateBelow(below_block));\n"
     "  return Status::OK();\n"
     "}"),
    # A quiesce taken by hand beside the view's constructor and destructor.
    ("one-quiesce", "src/ledger/x_selftest.cc",
     "MaintenanceView::MaintenanceView(LedgerDatabase* db) : db_(db) {\n"
     "  {\n"
     "    MutexLock lock(&db_->txn_mu_);\n"
     "    db_->quiescing_ = true;\n"
     "  }\n"
     "}\n"
     "MaintenanceView::~MaintenanceView() {\n"
     "  db_->quiescing_ = false;\n"
     "}\n"
     "Status LedgerDatabase::CheckpointImpl() {\n"
     "  quiescing_ = true;\n"
     "}",
     "MaintenanceView::MaintenanceView(LedgerDatabase* db) : db_(db) {\n"
     "  {\n"
     "    MutexLock lock(&db_->txn_mu_);\n"
     "    db_->quiescing_ = true;\n"
     "  }\n"
     "}\n"
     "MaintenanceView::~MaintenanceView() {\n"
     "  db_->quiescing_ = false;\n"
     "}\n"
     "Status LedgerDatabase::CheckpointImpl() {\n"
     "  MaintenanceView view = OpenMaintenanceView();\n"
     "  if (quiescing_ == false) return Status::OK();\n"
     "}"),
    # A status the commit set, tested on the next line.
    ("abort-after-commit", "tests/x_selftest.cc",
     "if (st.ok()) st = db->Commit(*txn);\n"
     "if (!st.ok()) db->Abort(*txn);\n"
     "return st;",
     "if (!st.ok()) {\n"
     "  db->Abort(*txn);\n"
     "  return st;\n"
     "}\n"
     "return db->Commit(*txn);"),
    # The commit in the condition; the Abort after the if.
    ("abort-after-commit", "tests/x_selftest.cc",
     "while (true) {\n"
     "  if (st.ok() && db_->Commit(*txn).ok()) break;\n"
     "  db_->Abort(*txn);\n"
     "}",
     "while (true) {\n"
     "  if (!st.ok()) {\n"
     "    db_->Abort(*txn);\n"
     "  } else if (db_->Commit(*txn).ok()) {\n"
     "    break;\n"
     "  }\n"
     "}"),
    # The commit in the condition; the Abort in its else branch, past the
    # three-line window.
    ("abort-after-commit", "src/ledger/x_selftest.cc",
     "if (Commit(txn).ok()) {\n"
     "  committed++;\n"
     "  Note(txn);\n"
     "  Note(txn);\n"
     "} else {\n"
     "  Abort(txn);\n"
     "}",
     "if (ready) {\n"
     "  Status st = Commit(txn);\n"
     "  Note(st);\n"
     "} else {\n"
     "  Abort(txn);\n"
     "}"),
    # A status tested on the next line, whose else branch aborts.
    ("abort-after-commit", "tests/x_selftest.cc",
     "if (st.ok()) st = (*db)->Commit(*txn);\n"
     "if (st.ok()) {\n"
     "  std::lock_guard<std::mutex> guard(ok_mu);\n"
     "  ok_ids.push_back(id);\n"
     "} else {\n"
     "  (*db)->Abort(*txn);\n"
     "}",
     "if (st.ok()) st = (*db)->Commit(*txn);\n"
     "if (st.ok()) {\n"
     "  ok_ids.push_back(id);\n"
     "} else {\n"
     "  (*db)->Abort(*other);\n"
     "}"),
    # A commit that returns leaves the Abort to the other path.
    ("abort-after-commit", "src/ledger/x_selftest.cc",
     "Status st = Commit(txn);\n"
     "if (!st.ok()) Abort(txn);",
     "if (st.ok()) return Commit(txn);\n"
     "Abort(txn);"),
    # An asserted failure, then an explicit Abort.
    ("abort-after-commit", "tests/x_selftest.cc",
     "EXPECT_FALSE(db->Commit(*txn).ok());\n"
     "db->Abort(*txn);",
     "EXPECT_FALSE(db->Commit(*txn).ok());\n"
     "txn = db->Begin(\"next\");\n"
     "db->Abort(*txn);"),
]

# (path, fires): one store edit and one store made, each flagged
# everywhere in src/ but the apply path's file and the store itself, and
# never in tests.
DEFINITION_APPLY_SCOPE = [
    ("src/ledger/schema_changes.cc", True),
    ("src/ledger/ledger_database.cc", True),
    ("src/storage/checkpoint.cc", True),
    ("src/ledger/table_definition.cc", False),
    ("src/storage/table_store.cc", False),
    ("src/storage/table_store.h", False),
    ("tests/tamper_test.cc", False),
]
DEFINITION_APPLY_SCOPE_TEXTS = [
    "*store->mutable_schema() = schema;\n",
    "auto store = std::make_unique<TableStore>(id, name, schema);\n",
]

# (path, fires): one store upload, flagged everywhere in src/ but the
# pipeline and the store implementations, and never in tests or benches.
ONE_UPLOADER_SCOPE = [
    ("src/ledger/digest_store.cc", False),
    ("src/ledger/faulty_digest_store.cc", False),
    ("src/ledger/digest_pipeline.cc", False),
    ("src/ledger/ledger_database.cc", True),
    ("src/sim/driver.cc", True),
    ("tests/fault_injection_test.cc", False),
    ("bench/ledger_bench/audit.cc", False),
]

# (path, fires): one ledger-level digest, flagged everywhere in src/ but
# the issuer and the Database Ledger itself, and never in tests or benches.
ONE_DIGEST_ISSUER_SCOPE = [
    ("src/ledger/ledger_database.cc", False),
    ("src/ledger/database_ledger.cc", False),
    ("src/ledger/digest_pipeline.cc", True),
    ("src/ledger/truncation.cc", True),
    ("src/sql/session.cc", True),
    ("src/sim/driver.cc", True),
    ("tests/database_ledger_test.cc", False),
    ("bench/ledger_bench/audit.cc", False),
]

# (path, fires): one stamp write, flagged everywhere in src/ but the
# simulator, and never in tests.
STAMP_ONCE_SCOPE = [
    ("src/ledger/ledger_table.cc", True),
    ("src/ledger/ledger_database.cc", True),
    ("src/sim/model.cc", False),
    ("tests/row_test.cc", False),
]


# (path, fires): one value-vector key, flagged in the storage and
# transaction layers only.
ONE_KEY_TYPE_SCOPE = [
    ("src/storage/btree.cc", True),
    ("src/txn/lock_manager.h", True),
    ("src/sql/session.cc", False),
    ("src/ledger/schema_changes.cc", False),
    ("tests/row_test.cc", False),
]

# (path, fires): one cell encoded on its own, flagged everywhere in src/
# but the codec's directory, and never in tests.
ONE_ROW_CODEC_SCOPE = [
    ("src/catalog/row.cc", False),
    ("src/catalog/value.cc", False),
    ("src/storage/wal.cc", True),
    ("src/storage/checkpoint.cc", True),
    ("src/ledger/verifier.cc", True),
    ("tests/codec_fuzz_test.cc", False),
    ("examples/stats_tool.cpp", False),
]

# (path, fires): a chained header encoded outside ProcessGroup fires only
# in src/.
ONE_RECORD_HEADER_SCOPE = [
    ("src/storage/wal.cc", True),
    ("src/sim/driver.cc", True),
    ("tests/recovery_test.cc", False),
    ("examples/stats_tool.cpp", False),
]

# (path, text, fires): a store's schema read fires only in the SQL layer;
# a visible-ordinals call fires everywhere in src/ but the plan builder
# and the reference model, and never in tests.
PINNED_PLAN_SCOPE = [
    ("src/sql/session.cc", "auto n = store->schema().num_columns();", True),
    ("src/ledger/schema_changes.cc",
     "int ord = entry->main->schema().FindColumn(column);", False),
    ("src/ledger/truncation.cc", "auto v = schema.VisibleOrdinals();", True),
    ("src/sql/session.cc", "auto v = s.VisibleOrdinals();", True),
    ("src/ledger/table_definition.cc",
     "plan->visible_ords = s.VisibleOrdinals();", False),
    ("src/sim/model.cc", "full.Project(t.schema.VisibleOrdinals());", False),
    ("tests/test_util.h", "auto v = store->schema().VisibleOrdinals();",
     False),
    ("src/catalog/schema.cc",
     "std::vector<size_t> Schema::VisibleOrdinals() const {", False),
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


def self_test_bench_docs():
    """Fire when the loop names a binary the build lacks, and when the build
    has one the loop lacks; stay quiet when the two lists agree."""
    failures = 0
    built = "set(SL_BENCH_SOURCES\n  fig7.cc\n  receipt_bench.cc\n)\n"
    for variant, loop, expect_fire in (
            ("bad-doc", "fig7 receipt_bench gone", True),
            ("bad-build", "fig7", True),
            ("good", "fig7 \\\n         receipt_bench", False)):
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "bench"))
            with open(os.path.join(tmp, "bench", "CMakeLists.txt"), "w",
                      encoding="utf-8") as f:
                f.write(built)
            with open(os.path.join(tmp, "EXPERIMENTS.md"), "w",
                      encoding="utf-8") as f:
                f.write(f"```sh\nfor b in {loop}; do\n  ./build/bench/$b\n"
                        "done\n```\n")
            findings = []
            check_bench_docs(findings, root=tmp)
            fired = any(f.rule == "bench-docs" for f in findings)
            if fired != expect_fire:
                failures += 1
                print(f"SELF-TEST FAIL [bench-docs/{variant}]:"
                      f" {'did not fire' if expect_fire else 'fired'}",
                      file=sys.stderr)
    return failures


def self_test_definition_apply_scope():
    """The same store edit, and the same store made, fire or stay quiet by
    file."""
    failures = 0
    for text in DEFINITION_APPLY_SCOPE_TEXTS:
        for rel, expect_fire in DEFINITION_APPLY_SCOPE:
            findings = []
            check_definition_apply(os.path.join(REPO_ROOT, rel), [text],
                                   findings)
            if bool(findings) != expect_fire:
                failures += 1
                print(f"SELF-TEST FAIL [definition-apply/{rel}]:"
                      f" {'did not fire' if expect_fire else 'fired'}"
                      f" on {text.strip()!r}", file=sys.stderr)
    return failures


def self_test_one_uploader_scope():
    """The same upload fires or stays quiet by file."""
    failures = 0
    text = ["Status st = store_.Upload(digest);\n"]
    for rel, expect_fire in ONE_UPLOADER_SCOPE:
        findings = []
        check_one_uploader(os.path.join(REPO_ROOT, rel), text, findings)
        if bool(findings) != expect_fire:
            failures += 1
            print(f"SELF-TEST FAIL [one-uploader/{rel}]:"
                  f" {'did not fire' if expect_fire else 'fired'}",
                  file=sys.stderr)
    return failures


def self_test_one_digest_issuer_scope():
    """The same ledger-level digest fires or stays quiet by file."""
    failures = 0
    text = ["auto d = ledger_->GenerateDigest(database_id, create_time_);\n"]
    for rel, expect_fire in ONE_DIGEST_ISSUER_SCOPE:
        findings = []
        check_one_digest_issuer(os.path.join(REPO_ROOT, rel), text, findings)
        if bool(findings) != expect_fire:
            failures += 1
            print(f"SELF-TEST FAIL [one-digest-issuer/{rel}]:"
                  f" {'did not fire' if expect_fire else 'fired'}",
                  file=sys.stderr)
    return failures


def self_test_stamp_once_scope():
    """The same stamp write fires or stays quiet by file."""
    failures = 0
    text = ["full[t.start_txn_ord] = Value::BigInt(txn_id);\n"]
    for rel, expect_fire in STAMP_ONCE_SCOPE:
        findings = []
        check_stamp_once(os.path.join(REPO_ROOT, rel), text, findings)
        if bool(findings) != expect_fire:
            failures += 1
            print(f"SELF-TEST FAIL [stamp-once/{rel}]:"
                  f" {'did not fire' if expect_fire else 'fired'}",
                  file=sys.stderr)
    return failures


def self_test_one_key_type_scope():
    """The same value-vector key fires or stays quiet by file."""
    failures = 0
    text = ["std::vector<Value> key;\n"]
    for rel, expect_fire in ONE_KEY_TYPE_SCOPE:
        findings = []
        check_one_key_type(os.path.join(REPO_ROOT, rel), text, findings)
        if bool(findings) != expect_fire:
            failures += 1
            print(f"SELF-TEST FAIL [one-key-type/{rel}]:"
                  f" {'did not fire' if expect_fire else 'fired'}",
                  file=sys.stderr)
    return failures


def self_test_pinned_plan_scope():
    """The same layout read fires or stays quiet by file."""
    failures = 0
    for rel, text, expect_fire in PINNED_PLAN_SCOPE:
        findings = []
        check_pinned_plan(os.path.join(REPO_ROOT, rel), [text + "\n"],
                          findings)
        if bool(findings) != expect_fire:
            failures += 1
            print(f"SELF-TEST FAIL [pinned-plan/{rel}]:"
                  f" {'did not fire' if expect_fire else 'fired'}"
                  f" on {text!r}", file=sys.stderr)
    return failures


def self_test_one_row_codec_scope():
    """The same cell encoding fires or stays quiet by file."""
    failures = 0
    text = ["for (Cell c : row) c.EncodeTo(dst);\n"]
    for rel, expect_fire in ONE_ROW_CODEC_SCOPE:
        findings = []
        check_one_row_codec(os.path.join(REPO_ROOT, rel), text, findings)
        if bool(findings) != expect_fire:
            failures += 1
            print(f"SELF-TEST FAIL [one-row-codec/{rel}]:"
                  f" {'did not fire' if expect_fire else 'fired'}",
                  file=sys.stderr)
    return failures


def self_test_one_record_header_scope():
    """The same header encoding fires or stays quiet by file."""
    failures = 0
    text = ["record->EncodeChainedHeader(&chain, &again);\n"]
    for rel, expect_fire in ONE_RECORD_HEADER_SCOPE:
        findings = []
        check_one_record_header(os.path.join(REPO_ROOT, rel), text, findings)
        if bool(findings) != expect_fire:
            failures += 1
            print(f"SELF-TEST FAIL [one-record-header/{rel}]:"
                  f" {'did not fire' if expect_fire else 'fired'}",
                  file=sys.stderr)
    return failures


def run_self_test():
    global REPO_ROOT
    real_root = REPO_ROOT
    failures = 0
    failures += self_test_digest_decorator_coverage()
    failures += self_test_bench_docs()
    failures += self_test_definition_apply_scope()
    failures += self_test_one_uploader_scope()
    failures += self_test_one_digest_issuer_scope()
    failures += self_test_stamp_once_scope()
    failures += self_test_one_key_type_scope()
    failures += self_test_pinned_plan_scope()
    failures += self_test_one_row_codec_scope()
    failures += self_test_one_record_header_scope()
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
    cases = (len(SELF_TEST_CASES) + 5 +
             len(DEFINITION_APPLY_SCOPE) * len(DEFINITION_APPLY_SCOPE_TEXTS) +
             len(ONE_UPLOADER_SCOPE) + len(ONE_DIGEST_ISSUER_SCOPE) +
             len(STAMP_ONCE_SCOPE) +
             len(ONE_KEY_TYPE_SCOPE) + len(PINNED_PLAN_SCOPE) +
             len(ONE_ROW_CODEC_SCOPE) + len(ONE_RECORD_HEADER_SCOPE))
    print(f"lint.py --self-test: all {cases} cases pass "
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
