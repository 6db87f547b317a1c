#!/usr/bin/env python3
"""wtam_lint — fast repo-invariant linter for house rules.

Generic tools (clang-tidy, -Wthread-safety, TSan) cannot express the
repo-specific discipline, so this linter enforces it mechanically:

  raw-mutex          std::mutex / std::condition_variable / std::lock_guard /
                     std::unique_lock / std::scoped_lock are banned outside
                     src/common/thread_annotations.hpp — use the annotated
                     common::Mutex / MutexLock / CondVar so Clang's
                     -Wthread-safety can see every lock.          [src, tools]
  unannotated-mutex  a file that declares a Mutex member must annotate what
                     it guards (at least one WTAM_GUARDED_BY /
                     WTAM_PT_GUARDED_BY / WTAM_REQUIRES).         [src, tools]
  nondeterminism     no std::rand/srand/random_device/mt19937/
                     default_random_engine, no time(NULL)/clock()/
                     gettimeofday/system_clock: results must be reproducible
                     bit for bit, so only the pinned RNG streams
                     (common/rng.hpp) and steady_clock deadlines are
                     allowed.                                     [src]
  library-io         no std::cout/std::cerr/printf in library code; the
                     library reports through return values — tools own the
                     terminal.                                    [src]
  raw-clock-now      no raw std::chrono::*_clock::now() outside
                     src/common/timer.hpp (common::steady_now/Stopwatch)
                     and src/core/time_provider.hpp — one sanctioned
                     clock read keeps timing mockable and the
                     nondeterminism surface auditable.            [src, tools]
  bare-catch         catch (...) must carry a justification comment on the
                     same line, the line above, or the first two lines of
                     the handler: swallowing everything is sometimes right,
                     but never silently.                          [src, tools]
  raw-subprocess     fork/vfork/exec*/popen/system are banned outside
                     src/common/subprocess.* — spawn children through
                     common::Subprocess, which owns the fd hygiene,
                     SIGPIPE, exec-failure reporting, and reaping.
                                                                  [src, tools]
  raw-socket         socket syscalls (socket/bind/listen/accept/connect/
                     send/recv/getaddrinfo/...) are banned outside
                     src/net/ — talk through net::Listener /
                     net::Connection, which own SIGPIPE, EINTR retries,
                     and shutdown semantics (reads are framed and
                     bounded by common::LineFramer, like every other
                     transport).                                  [src, tools]

A finding can be waived on its line (or the line above) with
    // wtam-lint: allow(<rule>) — <reason>
and the reason is mandatory by convention (reviewed like a NOLINT).

Usage:
    wtam_lint.py --root /path/to/repo [--self-test]

--self-test first checks the deliberately-bad fixtures under
tools/lint_fixtures/ (each bad_<rule>.cpp — or bad_<rule>__<variant>.cpp
for extra shapes of the same rule — must trigger exactly its rule;
good_*.cpp must be clean), proving the rules still fire, then scans the
tree. Exit status: 0 clean, 1 findings or fixture mismatch, 2 usage.
"""

import argparse
import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".h"}

ANNOTATION_HEADER = Path("src") / "common" / "thread_annotations.hpp"

ALLOW_RE = re.compile(r"//\s*wtam-lint:\s*allow\(([a-z-]+)\)")

# Line-level patterns per rule. Each entry: (rule, compiled regex, message).
RAW_MUTEX_RE = re.compile(
    r"std::(mutex|condition_variable(_any)?|lock_guard|unique_lock|"
    r"scoped_lock)\b")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:wtam::)?(?:common::)?Mutex\s+\w+\s*;")
ANNOTATED_RE = re.compile(
    r"WTAM_(PT_)?GUARDED_BY|WTAM_REQUIRES")
NONDETERMINISM_RES = [
    (re.compile(r"std::rand\b|(?<![\w.:>])s?rand\s*\("),
     "std::rand/srand — use the pinned RNG streams (common/rng.hpp)"),
    (re.compile(r"\brandom_device\b|\bdefault_random_engine\b|\bmt19937"),
     "implementation-defined RNG — use common::Rng (pinned streams)"),
    (re.compile(r"(?<![\w.:>])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "wall-clock time() — determinism paths must not read the clock"),
    (re.compile(r"(?<![\w.:>])gettimeofday\s*\("),
     "gettimeofday — determinism paths must not read the clock"),
    (re.compile(r"(?<![\w.:>])clock\s*\(\s*\)"),
     "clock() — use common::Stopwatch (steady_clock) for timing"),
    (re.compile(r"\bsystem_clock\b"),
     "system_clock — wall-clock dates are nondeterministic; use "
     "steady_clock"),
]
LIBRARY_IO_RE = re.compile(r"std::(cout|cerr)\b|(?<![\w.:>])f?printf\s*\(")
RAW_CLOCK_RE = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\(")
# The only files allowed to read a clock directly: the sanctioned
# steady_now()/Stopwatch seam and the mockable deadline provider.
CLOCK_ALLOWED = {
    str(Path("src") / "common" / "timer.hpp"),
    str(Path("src") / "core" / "time_provider.hpp"),
}
BARE_CATCH_RE = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
# Process-spawning primitives: bare calls (`fork(`), explicitly global
# (`::fork(`), and std::system. Matching deliberately skips member/
# qualified names like soc.fork( or my::popen( — the rule is about the
# libc spawners.
_SPAWN_NAMES = r"(?:v?fork|execl|execlp|execle|execv|execvp|execvpe|popen|system)"
RAW_SUBPROCESS_RE = re.compile(
    r"(?:(?<![\w.:>])" + _SPAWN_NAMES +
    r"|(?<!\w)::" + _SPAWN_NAMES +
    r"|std::system)\s*\(")
# The only files allowed to spawn processes directly.
SUBPROCESS_ALLOWED = {
    str(Path("src") / "common" / "subprocess.hpp"),
    str(Path("src") / "common" / "subprocess.cpp"),
}
# Socket syscalls. Unambiguous names match bare or ::-qualified; names
# that are also common identifiers (bind/listen/connect/send/recv/
# shutdown — think std::bind, a `listen` flag, Router::shutdown()) only
# match with an explicit :: so the rule cannot misfire on member calls
# or declarations. src/net uses the :: spelling throughout, so the
# syscalls themselves never slip past.
_SOCKET_SAFE_NAMES = (
    r"(?:socketpair|socket|accept4?|getaddrinfo|freeaddrinfo|getsockname|"
    r"getpeername|setsockopt|getsockopt|recvfrom|recvmsg|sendto|sendmsg|"
    r"inet_ntop|inet_pton)")
_SOCKET_RISKY_NAMES = r"(?:bind|listen|connect|send|recv|shutdown)"
RAW_SOCKET_RE = re.compile(
    r"(?:(?<![\w.:>])" + _SOCKET_SAFE_NAMES +
    r"|(?<!\w)::" + _SOCKET_SAFE_NAMES +
    r"|(?<!\w)::" + _SOCKET_RISKY_NAMES +
    r")\s*\(")
# The only directory allowed to touch sockets directly.
NET_ALLOWED_PREFIX = str(Path("src") / "net") + "/"
COMMENT_RE = re.compile(r"//|/\*")


def is_comment_or_string_heavy(line):
    """True when the matchable part of the line is inside a // comment."""
    # Cheap heuristic: strip everything after // (string literals with //
    # are rare in this codebase and the rules are substring-ish anyway).
    return line.lstrip().startswith("//")


def strip_line_comment(line):
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def allowed(lines, idx, rule):
    """Waiver on the finding's line or the line above."""
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m and m.group(1) == rule:
                return True
    return False


def lint_file(path, rel, lines, scopes):
    """Yields (rel, line_number, rule, message) findings.

    `scopes` is the set of rule groups to apply: {"src"} gets every rule,
    {"tools"} the concurrency/catch rules only.
    """
    findings = []

    def report(idx, rule, message):
        if not allowed(lines, idx, rule):
            findings.append((rel, idx + 1, rule, message))

    in_library = "src" in scopes

    for idx, raw in enumerate(lines):
        if is_comment_or_string_heavy(raw):
            continue
        line = strip_line_comment(raw)

        if rel != str(ANNOTATION_HEADER) and RAW_MUTEX_RE.search(line):
            report(idx, "raw-mutex",
                   "raw std locking primitive — use the annotated "
                   "common::Mutex/MutexLock/CondVar "
                   "(src/common/thread_annotations.hpp)")

        if rel not in SUBPROCESS_ALLOWED and RAW_SUBPROCESS_RE.search(line):
            report(idx, "raw-subprocess",
                   "raw process spawning — go through common::Subprocess "
                   "(src/common/subprocess.hpp), the only sanctioned "
                   "fork/exec site")

        if (not rel.startswith(NET_ALLOWED_PREFIX)
                and RAW_SOCKET_RE.search(line)):
            report(idx, "raw-socket",
                   "raw socket syscall — go through net::Listener/"
                   "net::Connection (src/net/), the only sanctioned "
                   "socket site")

        if rel not in CLOCK_ALLOWED and RAW_CLOCK_RE.search(line):
            report(idx, "raw-clock-now",
                   "raw *_clock::now() — read time through "
                   "common::steady_now()/Stopwatch (src/common/timer.hpp) "
                   "so timing stays mockable and auditable")

        if in_library:
            for pattern, message in NONDETERMINISM_RES:
                if pattern.search(line):
                    report(idx, "nondeterminism", message)
            if LIBRARY_IO_RE.search(line):
                report(idx, "library-io",
                       "stdout/stderr from library code — return values "
                       "and details, not prints (tools own the terminal)")

        if BARE_CATCH_RE.search(line):
            # A justification comment must sit on the catch line, the
            # line above, or the first two lines of the handler body.
            window = [lines[idx]]
            if idx > 0:
                window.append(lines[idx - 1])
            window.extend(lines[idx + 1:idx + 3])
            if not any(COMMENT_RE.search(candidate) for candidate in window):
                report(idx, "bare-catch",
                       "catch (...) without a justification comment — say "
                       "why swallowing everything is safe here")

    if rel != str(ANNOTATION_HEADER):
        # Annotations only count in code — a comment that merely mentions
        # WTAM_GUARDED_BY must not satisfy the rule.
        code_body = "\n".join(
            strip_line_comment(line) for line in lines
            if not is_comment_or_string_heavy(line))
        if not ANNOTATED_RE.search(code_body):
            for idx, raw in enumerate(lines):
                if is_comment_or_string_heavy(raw):
                    continue
                if MUTEX_MEMBER_RE.search(strip_line_comment(raw)):
                    report(idx, "unannotated-mutex",
                           "Mutex member in a file with no WTAM_GUARDED_BY/"
                           "WTAM_REQUIRES — annotate what this mutex "
                           "guards (or waive with a reason)")

    return findings


def iter_targets(root):
    """Yields (path, rel, scopes) for every file the linter owns."""
    for base, scopes in (("src", {"src"}), ("tools", {"tools"})):
        directory = root / base
        if not directory.is_dir():
            continue
        for path in sorted(directory.rglob("*")):
            if path.suffix not in CPP_SUFFIXES:
                continue
            if "lint_fixtures" in path.parts:
                continue
            yield path, str(path.relative_to(root)), scopes


def run_scan(root):
    findings = []
    for path, rel, scopes in iter_targets(root):
        lines = path.read_text(encoding="utf-8").splitlines()
        findings.extend(lint_file(path, rel, lines, scopes))
    return findings


def run_self_test(root):
    """Every bad_<rule>.cpp fixture must trigger exactly its rule; every
    good_*.cpp must be clean. Returns a list of mismatch messages."""
    fixtures = root / "tools" / "lint_fixtures"
    problems = []
    fixture_files = sorted(fixtures.glob("*.cpp")) if fixtures.is_dir() else []
    if not fixture_files:
        return ["no fixtures found under tools/lint_fixtures"]
    for path in fixture_files:
        rel = str(path.relative_to(root))
        lines = path.read_text(encoding="utf-8").splitlines()
        # Fixtures are linted as library code — the strictest scope.
        found_rules = {finding[2]
                       for finding in lint_file(path, rel, lines, {"src"})}
        if path.stem.startswith("bad_"):
            # bad_<rule>.cpp, or bad_<rule>__<variant>.cpp for extra
            # fixtures exercising the same rule on different code shapes.
            expected = (path.stem[len("bad_"):]
                        .split("__", 1)[0]
                        .replace("_", "-"))
            if expected not in found_rules:
                problems.append(
                    f"{rel}: expected rule '{expected}' did not fire")
            if found_rules - {expected}:
                problems.append(
                    f"{rel}: unexpected extra rules {sorted(found_rules - {expected})}")
        elif path.stem.startswith("good_"):
            if found_rules:
                problems.append(
                    f"{rel}: clean fixture triggered {sorted(found_rules)}")
        else:
            problems.append(f"{rel}: fixture must be named bad_* or good_*")
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the lint_fixtures samples first")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"wtam_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    status = 0
    if args.self_test:
        problems = run_self_test(root)
        for problem in problems:
            print(f"wtam_lint: self-test: {problem}")
        if problems:
            status = 1
        else:
            print("wtam_lint: self-test OK "
                  "(every fixture triggers exactly its rule)")

    findings = run_scan(root)
    for rel, line, rule, message in findings:
        print(f"{rel}:{line}: [{rule}] {message}")
    if findings:
        print(f"wtam_lint: {len(findings)} finding(s)")
        status = 1
    else:
        print("wtam_lint: tree clean")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
